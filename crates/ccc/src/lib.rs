//! CCC — the CPG Contract Checker.
//!
//! Pattern-based vulnerability detection over code property graphs,
//! applicable to full contracts *and* incomplete, non-compilable snippets
//! (§4 of the paper). Each of the 17 queries follows the three-part design
//! of §4.3:
//!
//! 1. a **base pattern** over syntax, data flow and evaluation order,
//! 2. **conditions of relevancy** (e.g. attacker-controlled inputs,
//!    ether at stake), and
//! 3. **mitigations and exceptions** expressed as negated sub-patterns
//!    (access guards, payload-size checks, SafeMath, mutexes, ...).
//!
//! ```
//! use ccc::{Checker, Dasp};
//!
//! let findings = Checker::new()
//!     .check_snippet("function() {lib.delegatecall(msg.data);}")
//!     .unwrap();
//! assert_eq!(findings[0].category(), Dasp::AccessControl);
//! ```


#![warn(missing_docs)]

pub mod cypherlike;
pub mod dasp;
pub mod helpers;
pub mod queries;

pub use dasp::{Dasp, QueryId};
pub use solidity::AnalysisError;

use cpg::{Cpg, NodeId};
use helpers::Ctx;

/// A reported vulnerability location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The query that produced the finding.
    pub query: QueryId,
    /// The reported node.
    pub node: NodeId,
    /// Canonical code of the reported node.
    pub code: String,
    /// 1-based source line of the reported node.
    pub line: u32,
}

impl Finding {
    pub(crate) fn new(ctx: &Ctx, query: QueryId, node: NodeId) -> Finding {
        let n = ctx.cpg.graph.node(node);
        Finding {
            query,
            node,
            code: n.props.code.to_string(),
            line: ctx.cpg.graph.line_of(n.span),
        }
    }

    /// The DASP category of the finding.
    pub fn category(&self) -> Dasp {
        self.query.category()
    }
}

/// Result of an isolated check: the findings that survived, plus the
/// detectors that panicked (each already converted to a typed error).
#[derive(Debug)]
pub struct CheckOutcome {
    /// Findings from all detectors that completed.
    pub findings: Vec<Finding>,
    /// Detectors that panicked, with the panic converted to
    /// [`AnalysisError::Internal`].
    pub detector_errors: Vec<(QueryId, AnalysisError)>,
}

/// The vulnerability checker: which queries run, and how far their
/// traversals reach.
#[derive(Debug, Clone)]
pub struct Checker {
    /// Maximum transitive path length for `DFG`/`EOG` traversals. Reducing
    /// it implements the paper's second validation phase (§6.3): escaping
    /// path explosion at the cost of long-range flows.
    max_path: usize,
    /// Queries to run; `None` runs all 17.
    queries: Option<Vec<QueryId>>,
}

impl Default for Checker {
    fn default() -> Self {
        Checker { max_path: usize::MAX, queries: None }
    }
}

impl Checker {
    /// A checker with default configuration (all 17 queries, unbounded
    /// paths).
    pub fn new() -> Checker {
        Checker::default()
    }

    /// A checker restricted to a set of queries — used by the validation
    /// pipeline to re-check only the vulnerability found in a snippet
    /// (§6.3). Borrows the slice; the checker keeps its own copy of the
    /// (at most 17 `Copy`) ids.
    pub fn with_queries(queries: &[QueryId]) -> Checker {
        Checker { queries: Some(queries.to_vec()), ..Checker::default() }
    }

    /// Set the path bound of this checker.
    pub fn bounded(mut self, max_path: usize) -> Checker {
        self.max_path = max_path;
        self
    }

    /// Run the configured queries over a translated CPG.
    ///
    /// Each detector runs isolated: a panicking query (a poisoned
    /// contract, an injected fault) is dropped and counted instead of
    /// unwinding through the caller. Use [`Checker::check_isolated`] when
    /// the per-detector failures themselves matter (the `pipeline::api`
    /// facade does, so a degraded scan surfaces as a typed error instead
    /// of a silently shorter finding list).
    pub fn check(&self, cpg: &Cpg) -> Vec<Finding> {
        self.check_isolated(cpg).findings
    }

    /// Run the configured queries, isolating each detector with
    /// `catch_unwind` and reporting per-detector failures alongside the
    /// surviving findings.
    pub fn check_isolated(&self, cpg: &Cpg) -> CheckOutcome {
        static CHECKS: telemetry::Counter = telemetry::Counter::new("ccc.checks");
        static CANDIDATES: telemetry::Counter = telemetry::Counter::new("ccc.candidates");
        static FINDINGS: telemetry::Counter = telemetry::Counter::new("ccc.findings");
        static DETECTOR_PANICS: telemetry::Counter =
            telemetry::Counter::new("ccc.detector_panics");
        static STAGE: telemetry::Stage = telemetry::Stage::new("ccc-check");
        let _stage = STAGE.enter();
        CHECKS.incr();
        let ctx = Ctx::new(cpg, self.max_path);
        let queries: &[QueryId] = match &self.queries {
            Some(qs) => qs,
            None => QueryId::ALL,
        };
        let mut findings = Vec::new();
        let mut detector_errors = Vec::new();
        for query in queries {
            let unit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Chaos hook: an injected error at `ccc/detector` escalates
                // to a panic so it flows through the same isolation path.
                if let Some(message) = faultinject::fire("ccc/detector") {
                    panic!("faultinject: {message}");
                }
                queries::run_query(&ctx, *query)
            }));
            match unit {
                Ok(batch) => findings.extend(batch),
                Err(payload) => {
                    DETECTOR_PANICS.incr();
                    detector_errors.push((
                        *query,
                        AnalysisError::from_panic(
                            payload,
                            &format!("detector {}", query.name()),
                        ),
                    ));
                }
            }
        }
        CANDIDATES.add(findings.len() as u64);
        findings.sort_by_key(|f| (f.line, f.query));
        findings.dedup();
        FINDINGS.add(findings.len() as u64);
        CheckOutcome { findings, detector_errors }
    }

    /// Parse a snippet tolerantly, translate and check it.
    pub fn check_snippet(&self, src: &str) -> Result<Vec<Finding>, AnalysisError> {
        Ok(self.check(&Cpg::from_snippet(src)?))
    }

    /// Parse a full source, translate and check it.
    pub fn check_source(&self, src: &str) -> Result<Vec<Finding>, AnalysisError> {
        Ok(self.check(&Cpg::from_source(src)?))
    }

    /// A proxy for the cost of analyzing a CPG, used by the validation
    /// pipeline to simulate the paper's per-contract timeouts (graph size
    /// times connectivity approximates the pattern-matching search space).
    pub fn analysis_cost(cpg: &Cpg) -> u64 {
        let nodes = cpg.graph.node_count() as u64;
        let edges = cpg.graph.edge_count() as u64;
        nodes.saturating_mul(edges.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_check_on_vulnerable_bank_finds_reentrancy() {
        let findings = Checker::new()
            .check_snippet(
                "contract Dao { mapping(address => uint) balances; \
                 function withdraw() public { \
                   uint amount = balances[msg.sender]; \
                   msg.sender.call{value: amount}(\"\"); \
                   balances[msg.sender] = 0; } }",
            )
            .unwrap();
        assert!(findings.iter().any(|f| f.query == QueryId::Reentrancy));
    }

    #[test]
    fn with_queries_runs_only_the_selected_queries() {
        let src = "contract C { function f(address to) public { to.send(1); } \
                   function kill() public { selfdestruct(msg.sender); } }";
        let all = Checker::new().check_snippet(src).unwrap();
        assert!(all.iter().any(|f| f.query == QueryId::UncheckedCall));
        assert!(all.iter().any(|f| f.query == QueryId::AcSelfDestruct));
        let only_unchecked = Checker::with_queries(&[QueryId::UncheckedCall])
            .check_snippet(src)
            .unwrap();
        assert!(only_unchecked.iter().all(|f| f.query == QueryId::UncheckedCall));
        assert!(!only_unchecked.is_empty());
    }

    #[test]
    fn findings_carry_location_and_code() {
        let findings = Checker::new()
            .check_snippet("function f(address to) public {\n to.send(1 ether)\n}")
            .unwrap();
        let f = findings.iter().find(|f| f.query == QueryId::UncheckedCall).unwrap();
        assert_eq!(f.line, 2);
        assert!(f.code.contains("send"));
    }

    #[test]
    fn clean_contract_has_no_findings() {
        let findings = Checker::new()
            .check_source(
                "pragma solidity ^0.8.0; \
                 contract Safe { \
                   address owner; \
                   mapping(address => uint) balances; \
                   constructor() { owner = msg.sender; } \
                   function deposit() public payable { balances[msg.sender] += msg.value; } \
                   function withdraw(uint amount) public { \
                     require(balances[msg.sender] >= amount); \
                     balances[msg.sender] -= amount; \
                     msg.sender.transfer(amount); } }",
            )
            .unwrap();
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn snippet_level_analysis_works_on_statements() {
        // A bare-statement snippet (§4.6.1 Statements dataset shape).
        let findings = Checker::new()
            .check_snippet("to.send(msg.value)")
            .unwrap();
        assert!(findings.iter().any(|f| f.query == QueryId::UncheckedCall));
    }

    #[test]
    fn analysis_cost_grows_with_contract_size() {
        let small = Cpg::from_snippet("x = 1;").unwrap();
        let large = Cpg::from_snippet(
            &"function f(uint a) public { total += a; } ".repeat(20),
        )
        .unwrap();
        assert!(Checker::analysis_cost(&large) > Checker::analysis_cost(&small));
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use cpg::BuildOptions;

    /// The §4.2.2 ablation: without modifier expansion, modifier-based
    /// access guards are invisible and the access-control queries
    /// misreport — expansion is what makes snippet-level modifier use
    /// analyzable.
    #[test]
    fn modifier_expansion_is_needed_for_guard_detection() {
        let src = "contract C { address owner; \
                   modifier onlyOwner() { require(msg.sender == owner); _; } \
                   constructor() { owner = msg.sender; } \
                   function kill() public onlyOwner() { selfdestruct(owner); } }";
        let unit = solidity::parse_snippet(src).unwrap();
        let checker = Checker::with_queries(&[QueryId::AcSelfDestruct]);

        let expanded = Cpg::from_unit_with(&unit, BuildOptions { expand_modifiers: true });
        assert!(
            checker.check(&expanded).is_empty(),
            "with expansion the modifier guard must be seen"
        );

        let unexpanded = Cpg::from_unit_with(&unit, BuildOptions { expand_modifiers: false });
        assert!(
            !checker.check(&unexpanded).is_empty(),
            "without expansion the guard is invisible and the selfdestruct is flagged"
        );
    }
}
