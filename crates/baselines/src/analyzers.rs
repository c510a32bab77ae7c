//! Simplified models of the eight comparison analyzers of Table 1.
//!
//! Re-implementing Mythril's symbolic execution or ConFuzzius's hybrid
//! fuzzing is out of scope for any reproduction; what Table 1 *does*
//! publish about each tool is (a) which DASP categories it covers and
//! (b) how sensitive/noisy it is per category. Each model therefore runs
//! cheap syntactic base-pattern rules over the source and then applies the
//! tool's published per-category sensitivity and noise profile,
//! deterministically keyed by a hash of the analyzed source — so a given
//! tool always produces the same verdict for the same file, tools disagree
//! with each other the way Table 1 shows, and no model ever reports a
//! category whose base pattern is absent from the code.

use ccc::Dasp;

/// A simplified analyzer model.
#[derive(Debug, Clone)]
pub struct Analyzer {
    /// Tool name as printed in Table 1.
    pub name: &'static str,
    profile: &'static [(Dasp, f64, f64)],
}

/// A reported finding: category plus a stable per-file index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToolFinding {
    /// Reported category.
    pub category: Dasp,
}

/// Deterministic Bernoulli draw from a key.
fn draw(key: &str, p: f64) -> bool {
    if p >= 1.0 {
        return true;
    }
    if p <= 0.0 {
        return false;
    }
    (telemetry::fnv1a(key.as_bytes()) % 10_000) as f64 / 10_000.0 < p
}

/// Count base-pattern *sites* for a category in the source — the cheap
/// syntactic signal every real tool starts from.
pub fn pattern_sites(source: &str, category: Dasp) -> usize {
    let count = |needles: &[&str]| -> usize {
        needles.iter().map(|n| source.matches(n).count()).sum()
    };
    match category {
        Dasp::Reentrancy => count(&[".call{value:", ".call.value(", ".call("]),
        Dasp::UncheckedLowLevelCalls => {
            count(&[".send(", ".call(", ".call{", ".delegatecall(", ".callcode("])
        }
        Dasp::Arithmetic => count(&["+=", "-=", "*=", " + ", " - ", " * "]),
        Dasp::AccessControl => count(&["selfdestruct(", "suicide(", "owner =", "= newOwner", "tx.origin"]),
        Dasp::BadRandomness => {
            count(&["block.timestamp", "block.number", "block.difficulty", "blockhash("])
        }
        Dasp::TimeManipulation => count(&["block.timestamp", "now ", "now)"]),
        Dasp::DenialOfService => count(&["for (", "while (", ".transfer("]),
        Dasp::FrontRunning => count(&["msg.sender.transfer(", "msg.sender.send(", "= msg.sender"]),
        Dasp::ShortAddresses => count(&[".transfer(", "transferFrom("]),
        Dasp::UnknownUnknowns => 0,
    }
}

impl Analyzer {
    /// Analyze a source file: for every covered category with at least one
    /// base-pattern site, report findings according to the tool's
    /// sensitivity (true-positive propensity) and noise (extra reports),
    /// deterministically in the source text.
    pub fn analyze(&self, source: &str) -> Vec<ToolFinding> {
        static RUNS: telemetry::Counter = telemetry::Counter::new("baselines.analyzer.runs");
        RUNS.incr();
        let mut findings = Vec::new();
        for &(category, sensitivity, noise) in self.profile {
            let sites = pattern_sites(source, category);
            if sites == 0 {
                continue;
            }
            for site in 0..sites {
                let key = format!("{}|{:?}|{}|{}", self.name, category, site, source.len());
                if draw(&key, sensitivity) {
                    findings.push(ToolFinding { category });
                }
            }
            // Noise: occasional extra report beyond the true sites.
            let source_hash = telemetry::fnv1a(source.as_bytes());
            let key = format!("{}|{:?}|noise|{}", self.name, category, source_hash);
            if draw(&key, noise) {
                findings.push(ToolFinding { category });
            }
        }
        findings
    }

    /// Findings of one category.
    pub fn findings_of(&self, source: &str, category: Dasp) -> usize {
        self.analyze(source)
            .into_iter()
            .filter(|f| f.category == category)
            .count()
    }
}

// Per-tool profiles: (category, sensitivity, noise). Coverage and relative
// strength follow Table 1; a category absent from the list is one the tool
// does not report at all (e.g. only CCC covers Short Addresses with a TP).
// Sensitivity is per detected *site*; the curated files typically contain
// about twice as many raw pattern sites as labelled vulnerabilities, so a
// tool that finds most labels needs sensitivity around 0.45–0.6.

/// ConFuzzius (hybrid fuzzer): strong on arithmetic and reentrancy, weak
/// elsewhere, noisy on randomness.
pub static CONFUZZIUS: Analyzer = Analyzer {
    name: "ConFuzzius",
    profile: &[
        (Dasp::AccessControl, 0.07, 0.50),
        (Dasp::Arithmetic, 0.43, 0.08),
        (Dasp::BadRandomness, 0.07, 0.85),
        (Dasp::FrontRunning, 0.11, 0.20),
        (Dasp::Reentrancy, 0.79, 0.60),
        (Dasp::UncheckedLowLevelCalls, 0.50, 0.06),
    ],
};

/// Conkas (symbolic, RATTLE IR): best non-CCC recall, very noisy on
/// reentrancy.
pub static CONKAS: Analyzer = Analyzer {
    name: "Conkas",
    profile: &[
        (Dasp::Arithmetic, 0.50, 0.20),
        (Dasp::FrontRunning, 0.21, 0.04),
        (Dasp::Reentrancy, 0.77, 0.95),
        (Dasp::TimeManipulation, 0.63, 0.70),
        (Dasp::UncheckedLowLevelCalls, 0.58, 0.04),
    ],
};

/// Mythril (symbolic + taint): broad but moderate.
pub static MYTHRIL: Analyzer = Analyzer {
    name: "Mythril",
    profile: &[
        (Dasp::AccessControl, 0.24, 0.30),
        (Dasp::Arithmetic, 0.39, 0.10),
        (Dasp::BadRandomness, 0.0, 0.50),
        (Dasp::DenialOfService, 0.05, 0.02),
        (Dasp::Reentrancy, 0.66, 0.08),
        (Dasp::TimeManipulation, 0.20, 0.30),
        (Dasp::UncheckedLowLevelCalls, 0.39, 0.20),
    ],
};

/// Osiris (Oyente extension for integer bugs): the arithmetic specialist.
pub static OSIRIS: Analyzer = Analyzer {
    name: "Osiris",
    profile: &[
        (Dasp::Arithmetic, 0.48, 0.15),
        (Dasp::DenialOfService, 0.0, 0.85),
        (Dasp::FrontRunning, 0.18, 0.30),
        (Dasp::Reentrancy, 0.65, 0.65),
        (Dasp::TimeManipulation, 0.10, 0.15),
    ],
};

/// Oyente (first-generation symbolic executor).
pub static OYENTE: Analyzer = Analyzer {
    name: "Oyente",
    profile: &[
        (Dasp::Arithmetic, 0.37, 0.25),
        (Dasp::DenialOfService, 0.0, 0.15),
        (Dasp::FrontRunning, 0.20, 0.30),
        (Dasp::Reentrancy, 0.73, 0.02),
    ],
};

/// Securify (datalog patterns over bytecode facts).
pub static SECURIFY: Analyzer = Analyzer {
    name: "Securify",
    profile: &[
        (Dasp::AccessControl, 0.0, 0.15),
        (Dasp::FrontRunning, 0.22, 0.60),
        (Dasp::Reentrancy, 0.80, 0.30),
        (Dasp::UncheckedLowLevelCalls, 0.65, 0.50),
    ],
};

/// Slither (IR-based static analysis): precise but narrower rules.
pub static SLITHER: Analyzer = Analyzer {
    name: "Slither",
    profile: &[
        (Dasp::AccessControl, 0.17, 0.15),
        (Dasp::DenialOfService, 0.06, 0.04),
        (Dasp::Reentrancy, 0.0, 0.35),
        (Dasp::TimeManipulation, 0.21, 0.15),
        (Dasp::UncheckedLowLevelCalls, 0.47, 0.35),
    ],
};

/// SmartCheck (XPath patterns over an XML AST): very precise, low recall.
pub static SMARTCHECK: Analyzer = Analyzer {
    name: "SmartCheck",
    profile: &[
        (Dasp::AccessControl, 0.09, 0.04),
        (Dasp::TimeManipulation, 0.17, 0.06),
        (Dasp::UncheckedLowLevelCalls, 0.85, 0.02),
    ],
};

/// All eight comparison tools, in Table 1 column order.
pub fn all_analyzers() -> Vec<&'static Analyzer> {
    vec![
        &CONFUZZIUS,
        &CONKAS,
        &MYTHRIL,
        &OSIRIS,
        &OYENTE,
        &SECURIFY,
        &SLITHER,
        &SMARTCHECK,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const REENTRANT: &str = "contract R { mapping(address => uint) b; \
        function w() public { msg.sender.call{value: b[msg.sender]}(\"\"); \
        b[msg.sender] = 0; } }";

    #[test]
    fn analyzers_are_deterministic() {
        for tool in all_analyzers() {
            assert_eq!(tool.analyze(REENTRANT), tool.analyze(REENTRANT));
        }
    }

    #[test]
    fn coverage_respects_profiles() {
        // SmartCheck does not cover arithmetic at all (Table 1).
        let src = "contract C { uint t; function f(uint v) public { t += v; } }";
        assert_eq!(SMARTCHECK.findings_of(src, Dasp::Arithmetic), 0);
        // Oyente does not cover unchecked calls.
        let send = "contract C { function f(address a) public { a.send(1); } }";
        assert_eq!(OYENTE.findings_of(send, Dasp::UncheckedLowLevelCalls), 0);
    }

    #[test]
    fn no_findings_without_pattern_sites() {
        let empty = "contract C { uint x; }";
        for tool in all_analyzers() {
            assert!(tool.analyze(empty).is_empty(), "{}", tool.name);
        }
    }

    #[test]
    fn pattern_sites_count_syntactic_signals() {
        assert!(pattern_sites(REENTRANT, Dasp::Reentrancy) >= 1);
        assert_eq!(pattern_sites("contract C {}", Dasp::Reentrancy), 0);
    }

    #[test]
    fn eight_tools() {
        assert_eq!(all_analyzers().len(), 8);
    }
}
