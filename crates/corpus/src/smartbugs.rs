//! SmartBugs-Curated analog (§4.6.1 of the paper).
//!
//! A labelled vulnerability dataset with the same shape as SmartBugs
//! Curated after the paper's preprocessing: 140 Solidity files across 9
//! DASP categories carrying 204 labelled vulnerabilities (the "Other"
//! category is excluded, as in the paper).
//!
//! Each category mixes three instance kinds, calibrated to the detection
//! profile Table 1 reports for CCC:
//!
//! * **easy** — the canonical vulnerable pattern (CCC's base pattern
//!   matches; labels = CCC findings on the instance, all true),
//! * **hard** — genuinely vulnerable variants whose shape defeats
//!   pattern-based analysis (bogus guards, cross-function flows,
//!   hash-free entropy) — the false negatives,
//! * **bait** — unlabelled extra occurrences that pattern matching
//!   reports anyway — the false positives (the paper's location-mismatch
//!   and unlikely-exploitation FP classes).
//!
//! The derived *Functions* and *Statements* datasets (§4.6.1) re-render
//! every labelled instance at function/statement hierarchy level.

use crate::templates::{benign_templates, vulnerable_templates, Level, Template};
use ccc::{Checker, Dasp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Kind of a dataset instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceKind {
    /// Canonical vulnerable pattern; every CCC finding on it is labelled.
    Easy,
    /// Genuinely vulnerable but analysis-defeating; one label, no finding.
    Hard,
    /// Unlabelled pattern that detectors report — an FP source.
    Bait,
    /// Benign filler.
    Filler,
}

/// One code piece of a curated file, kept at all three hierarchy levels so
/// the Functions/Statements datasets can be derived.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Instance {
    /// Contract-level rendering (what goes into the file).
    pub contract: String,
    /// Function-level rendering of the same instance.
    pub function: String,
    /// Statement-level rendering of the same instance.
    pub statements: String,
    /// Instance kind.
    pub kind: InstanceKind,
    /// Labels this instance contributes.
    pub labels: usize,
}

/// A labelled dataset file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CuratedFile {
    /// File name (`access_control/unprotected_03.sol` style).
    pub name: String,
    /// Category of the file's test set.
    pub category: Dasp,
    /// The instances composing the file.
    pub instances: Vec<Instance>,
}

impl CuratedFile {
    /// Full source of the file.
    pub fn source(&self) -> String {
        self.instances
            .iter()
            .map(|i| i.contract.as_str())
            .collect::<Vec<_>>()
            .join("\n\n")
    }

    /// Number of labels in the file.
    pub fn labels(&self) -> usize {
        self.instances.iter().map(|i| i.labels).sum()
    }
}

/// The curated dataset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CuratedDataset {
    /// All files.
    pub files: Vec<CuratedFile>,
}

impl CuratedDataset {
    /// Total labels across all files (the paper's 204).
    pub fn total_labels(&self) -> usize {
        self.files.iter().map(|f| f.labels()).sum()
    }

    /// Labels per category.
    pub fn labels_of(&self, category: Dasp) -> usize {
        self.files
            .iter()
            .filter(|f| f.category == category)
            .map(|f| f.labels())
            .sum()
    }
}

/// Per-category targets: (label count, easy labels, hard labels, baits,
/// file count) — the label counts are the paper's Table 1 `#` column; the
/// easy/hard split is calibrated to CCC's reported per-category recall;
/// baits to its FP column.
const CATEGORY_PLAN: &[(Dasp, usize, usize, usize, usize)] = &[
    // (category, easy, hard, bait, files)  — labels = easy + hard
    (Dasp::AccessControl, 10, 11, 2, 18),
    (Dasp::Arithmetic, 17, 6, 1, 15),
    (Dasp::BadRandomness, 12, 19, 2, 8),
    (Dasp::DenialOfService, 6, 1, 1, 6),
    (Dasp::FrontRunning, 2, 5, 1, 4),
    (Dasp::Reentrancy, 28, 4, 3, 31),
    (Dasp::ShortAddresses, 1, 0, 1, 1),
    (Dasp::TimeManipulation, 7, 0, 2, 5),
    (Dasp::UncheckedLowLevelCalls, 75, 0, 0, 52),
];

/// Build the curated dataset deterministically.
pub fn smartbugs_curated(seed: u64) -> CuratedDataset {
    static STAGE: telemetry::Stage = telemetry::Stage::new("corpus/smartbugs_curated");
    let _stage = STAGE.enter();
    let mut rng = StdRng::seed_from_u64(seed);
    let checker = Checker::new();
    let easy_templates = vulnerable_templates();
    let benign = benign_templates();

    let mut dataset = CuratedDataset::default();
    for &(category, easy_target, hard_target, baits, file_count) in CATEGORY_PLAN {
        let mut instances: Vec<Instance> = Vec::new();

        // Easy instances until the label target is met exactly.
        let mut easy_labels = 0usize;
        while easy_labels < easy_target {
            let remaining = easy_target - easy_labels;
            let instance = render_easy(category, remaining, &easy_templates, &checker, &mut rng);
            easy_labels += instance.labels;
            instances.push(instance);
        }
        // Hard instances: one label each.
        for _ in 0..hard_target {
            instances.push(render_hard(category, &mut rng));
        }
        // Baits: zero labels, at least one finding.
        for _ in 0..baits {
            let mut bait =
                render_easy(category, usize::MAX, &easy_templates, &checker, &mut rng);
            bait.kind = InstanceKind::Bait;
            bait.labels = 0;
            instances.push(bait);
        }

        // Distribute instances over the category's files, topping files up
        // with benign filler that is clean for this category.
        let mut files: Vec<CuratedFile> = (0..file_count)
            .map(|i| CuratedFile {
                name: format!("{}/{}_{:02}.sol", slug(category), slug(category), i),
                category,
                instances: Vec::new(),
            })
            .collect();
        for (i, instance) in instances.into_iter().enumerate() {
            files[i % file_count].instances.push(instance);
        }
        for file in &mut files {
            if rng.gen_bool(0.5) {
                if let Some(filler) = clean_filler(category, &benign, &checker, &mut rng) {
                    file.instances.push(filler);
                }
            }
        }
        dataset.files.extend(files);
    }
    dataset
}

fn slug(category: Dasp) -> String {
    category.name().to_lowercase().replace(' ', "_")
}

/// Render an easy instance; if it would overshoot the remaining label
/// budget, fall back to a single-finding minimal variant.
fn render_easy(
    category: Dasp,
    remaining: usize,
    templates: &[Template],
    checker: &Checker,
    rng: &mut StdRng,
) -> Instance {
    let category_templates: Vec<&Template> = templates
        .iter()
        .filter(|t| t.vuln.map(|q| q.category()) == Some(category))
        .collect();
    assert!(!category_templates.is_empty(), "no template for {category:?}");
    for _attempt in 0..12 {
        let template = category_templates[rng.gen_range(0..category_templates.len())];
        let instance = render_all_levels(template, rng, InstanceKind::Easy);
        let findings = count_category_findings(checker, &instance.contract, category);
        if findings >= 1 && findings <= remaining {
            return Instance { labels: findings, ..instance };
        }
        if findings >= 1 && remaining == usize::MAX {
            return Instance { labels: findings, ..instance };
        }
    }
    // Fall back to the minimal single-finding variant.
    let minimal = minimal_variant(category);
    let findings = count_category_findings(checker, &minimal.contract, category);
    assert!(findings >= 1, "minimal variant for {category:?} finds nothing");
    Instance { labels: findings.min(remaining.max(1)), ..minimal }
}

fn count_category_findings(checker: &Checker, source: &str, category: Dasp) -> usize {
    checker
        .check_snippet(source)
        .map(|fs| fs.iter().filter(|f| f.category() == category).count())
        .unwrap_or(0)
}

fn render_all_levels(template: &Template, rng: &mut StdRng, kind: InstanceKind) -> Instance {
    // Clone the RNG so all three levels render the same identifier choices.
    let mut c_rng = rng.clone();
    let mut f_rng = rng.clone();
    let mut s_rng = rng.clone();
    let contract = template.render(&mut c_rng, Level::Contract);
    // The Functions dataset stores each labelled function *alone* in its
    // own file (§4.6.1) — cross-function context is lost by construction.
    let function = template.render(&mut f_rng, Level::CoreFunction);
    let statements = template.render(&mut s_rng, Level::Statements);
    // Advance the shared RNG as far as the contract rendering did.
    *rng = c_rng;
    Instance {
        contract: contract.text,
        function: function.text,
        statements: statements.text,
        kind,
        labels: 1,
    }
}

/// A minimal single-finding vulnerable instance per category.
fn minimal_variant(category: Dasp) -> Instance {
    let (contract, function, statements) = match category {
        Dasp::Arithmetic => (
            "contract Counter { uint total; function bump(uint v) public { total += v; } }",
            "function bump(uint v) public { total += v; }",
            "total += v;",
        ),
        Dasp::UncheckedLowLevelCalls => (
            "contract Payer { function pay(address to) public { to.send(1 ether); } }",
            "function pay(address to) public { to.send(1 ether); }",
            "to.send(1 ether);",
        ),
        Dasp::AccessControl => (
            "contract Killable { function die() public { selfdestruct(msg.sender); } }",
            "function die() public { selfdestruct(msg.sender); }",
            "selfdestruct(msg.sender);",
        ),
        Dasp::Reentrancy => (
            "contract R { mapping(address => uint) credit; \
             function take() public { msg.sender.call{value: credit[msg.sender]}(\"\"); \
             credit[msg.sender] = 0; } }",
            "function take() public { msg.sender.call{value: credit[msg.sender]}(\"\"); \
             credit[msg.sender] = 0; }",
            "msg.sender.call{value: credit[msg.sender]}(\"\");\ncredit[msg.sender] = 0;",
        ),
        Dasp::TimeManipulation => (
            "contract T { uint start; uint pot; function go() public { \
             require(block.timestamp >= start); msg.sender.transfer(pot); } }",
            "function go() public { require(block.timestamp >= start); msg.sender.transfer(pot); }",
            "require(block.timestamp >= start);\nmsg.sender.transfer(pot);",
        ),
        Dasp::BadRandomness => (
            "contract L { address[] ps; function d() public { \
             uint w = uint(keccak256(block.timestamp)) % ps.length; ps[w].transfer(1); } }",
            "function d() public { uint w = uint(keccak256(block.timestamp)) % ps.length; \
             ps[w].transfer(1); }",
            "uint w = uint(keccak256(block.timestamp)) % ps.length;\nps[w].transfer(1);",
        ),
        Dasp::DenialOfService => (
            "contract D { address king; uint prize; function claim() public payable { \
             require(msg.value > prize); king.transfer(prize); king = msg.sender; \
             prize = msg.value; } }",
            "function claim() public payable { require(msg.value > prize); \
             king.transfer(prize); king = msg.sender; prize = msg.value; }",
            "require(msg.value > prize);\nking.transfer(prize);\nking = msg.sender;",
        ),
        Dasp::FrontRunning => (
            "contract F { bytes32 h; uint prize; function solve(string s) public { \
             require(keccak256(s) == h); msg.sender.transfer(prize); } }",
            "function solve(string s) public { require(keccak256(s) == h); \
             msg.sender.transfer(prize); }",
            "require(keccak256(s) == h);\nmsg.sender.transfer(prize);",
        ),
        Dasp::ShortAddresses => (
            "contract S { function pay(address to, uint v) public { require(v > 0); \
             to.transfer(v); } }",
            "function pay(address to, uint v) public { require(v > 0); to.transfer(v); }",
            "to.transfer(v);",
        ),
        Dasp::UnknownUnknowns => (
            "contract U { struct P { uint a; } function f() public payable { P p; \
             p.a = msg.value; } }",
            "function f() public payable { P p; p.a = msg.value; }",
            "P p;\np.a = msg.value;",
        ),
    };
    Instance {
        contract: contract.to_string(),
        function: function.to_string(),
        statements: statements.to_string(),
        kind: InstanceKind::Easy,
        labels: 1,
    }
}

/// A genuinely vulnerable, detection-defeating instance for a category.
fn render_hard(category: Dasp, rng: &mut StdRng) -> Instance {
    let variant = rng.gen_range(0..2u8);
    let (contract, function, statements) = hard_variant(category, variant);
    Instance {
        contract: contract.to_string(),
        function: function.to_string(),
        statements: statements.to_string(),
        kind: InstanceKind::Hard,
        labels: 1,
    }
}

fn hard_variant(category: Dasp, variant: u8) -> (&'static str, &'static str, &'static str) {
    match (category, variant) {
        // Bogus guard: msg.sender is checked, but against nothing useful.
        (Dasp::AccessControl, 0) => (
            "contract Owned { address owner; \
             function withdraw() public { require(msg.sender == owner); \
             msg.sender.transfer(this.balance); } \
             function setOwner(address o) public { \
             require(msg.sender != address(0)); owner = o; } }",
            "function setOwner(address o) public { \
             require(msg.sender != address(0)); owner = o; }",
            "require(msg.sender != address(0));\nowner = o;",
        ),
        (Dasp::AccessControl, _) => (
            // Initialization function that anyone may call again.
            "contract Init { address owner; bool ready; \
             function initialize(address o) public { \
             require(msg.sender == o); owner = o; ready = true; } \
             function withdraw() public { require(msg.sender == owner); \
             msg.sender.transfer(this.balance); } }",
            "function initialize(address o) public { require(msg.sender == o); \
             owner = o; ready = true; }",
            "require(msg.sender == o);\nowner = o;",
        ),
        // Red-herring comparison that does not actually bound the operand.
        (Dasp::Arithmetic, 0) => (
            "contract C { mapping(address => uint) bal; \
             function burn(uint v) public { require(v >= 1); \
             bal[msg.sender] -= v; } }",
            "function burn(uint v) public { require(v >= 1); bal[msg.sender] -= v; }",
            "require(v >= 1);\nbal[msg.sender] -= v;",
        ),
        (Dasp::Arithmetic, _) => (
            "contract C { uint total; \
             function lock(uint time) public { \
             if (time < block.timestamp) { time = block.timestamp; } \
             total = time * 2; g(total); } }",
            "function lock(uint time) public { \
             if (time < block.timestamp) { time = block.timestamp; } \
             total = time * 2; g(total); }",
            "if (time < block.timestamp) { time = block.timestamp; }\ntotal = time * 2;",
        ),
        // Digit-extraction entropy without hash or modulo operators.
        (Dasp::BadRandomness, 0) => (
            "contract Dice { uint prize; \
             function roll() public payable { uint lucky = block.timestamp; \
             uint digit = lucky - (lucky / 10) * 10; \
             if (digit == 7) { msg.sender.transfer(prize); } } }",
            "function roll() public payable { uint lucky = block.timestamp; \
             uint digit = lucky - (lucky / 10) * 10; \
             if (digit == 7) { msg.sender.transfer(prize); } }",
            "uint lucky = block.timestamp;\nuint digit = lucky - (lucky / 10) * 10;",
        ),
        (Dasp::BadRandomness, _) => (
            // Stored blockhash seed consumed in a later transaction.
            "contract Seeded { bytes32 seed; address winner; \
             function commit() public { seed = blockhash(block.number); } \
             function redeem() public { winner = msg.sender; g(seed); } }",
            "function commit() public { seed = blockhash(block.number); }",
            "seed = blockhash(block.number);",
        ),
        // Gas-griefing loop with no data-flow handle for the detector.
        (Dasp::DenialOfService, _) => (
            "contract G { uint total; uint minGas; \
             function churn() public { while (gasleft() > minGas) { total += 1; } } }",
            "function churn() public { while (gasleft() > minGas) { total += 1; } }",
            "while (gasleft() > minGas) { total += 1; }",
        ),
        // The ERC20 approve race.
        (Dasp::FrontRunning, 0) => (
            "contract T { mapping(address => mapping(address => uint)) allowance; \
             function approve(address spender, uint value) public { \
             allowance[msg.sender][spender] = value; } }",
            "function approve(address spender, uint value) public { \
             allowance[msg.sender][spender] = value; }",
            "allowance[msg.sender][spender] = value;",
        ),
        (Dasp::FrontRunning, _) => (
            // Fee-setting race: a queued price change can be front-run.
            "contract M { uint price; address owner; \
             function setPrice(uint p) public { require(msg.sender == owner); price = p; } \
             function buy() public payable { require(msg.value >= price); \
             items[msg.sender] += 1; } }",
            "function buy() public payable { require(msg.value >= price); \
             items[msg.sender] += 1; }",
            "require(msg.value >= price);\nitems[msg.sender] += 1;",
        ),
        // Cross-function reentrancy: the call and the balance update live
        // in different functions.
        (Dasp::Reentrancy, _) => (
            "contract X { mapping(address => uint) credit; \
             function pay() public { msg.sender.call{value: credit[msg.sender]}(\"\"); } \
             function settle() public { credit[msg.sender] = 0; } }",
            "function pay() public { msg.sender.call{value: credit[msg.sender]}(\"\"); }",
            "msg.sender.call{value: credit[msg.sender]}(\"\");",
        ),
        // Categories whose plans have no hard instances.
        _ => (
            "contract Empty { }",
            "function noop() public { }",
            "uint noop;",
        ),
    }
}

/// Benign filler that does not trigger findings of the file's category.
fn clean_filler(
    category: Dasp,
    benign: &[Template],
    checker: &Checker,
    rng: &mut StdRng,
) -> Option<Instance> {
    for _ in 0..10 {
        let template = &benign[rng.gen_range(0..benign.len())];
        let instance = render_all_levels(template, rng, InstanceKind::Filler);
        if count_category_findings(checker, &instance.contract, category) == 0 {
            return Some(Instance { labels: 0, ..instance });
        }
    }
    None
}

/// Derive the *Functions* dataset: every labelled instance re-rendered at
/// function level (§4.6.1).
pub fn derive_functions(dataset: &CuratedDataset) -> CuratedDataset {
    derive(dataset, |i| i.function.clone())
}

/// Derive the *Statements* dataset: every labelled instance re-rendered at
/// statement level (§4.6.1).
pub fn derive_statements(dataset: &CuratedDataset) -> CuratedDataset {
    derive(dataset, |i| i.statements.clone())
}

fn derive(dataset: &CuratedDataset, project: impl Fn(&Instance) -> String) -> CuratedDataset {
    CuratedDataset {
        files: dataset
            .files
            .iter()
            .map(|f| CuratedFile {
                name: f.name.clone(),
                category: f.category,
                instances: f
                    .instances
                    .iter()
                    .map(|i| Instance {
                        contract: project(i),
                        function: i.function.clone(),
                        statements: i.statements.clone(),
                        kind: i.kind,
                        labels: i.labels,
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// Score a detector's findings against a file's labels under the paper's
/// counting rule (§4.6.2): only findings of the file's own category count;
/// up to `labels` of them are true positives, the surplus are false
/// positives.
pub fn score_file(findings_in_category: usize, labels: usize) -> (usize, usize) {
    let tp = findings_in_category.min(labels);
    let fp = findings_in_category.saturating_sub(labels);
    (tp, fp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_shape_matches_the_paper() {
        let ds = smartbugs_curated(77);
        assert_eq!(ds.files.len(), 140);
        assert_eq!(ds.total_labels(), 204);
        assert_eq!(ds.labels_of(Dasp::UncheckedLowLevelCalls), 75);
        assert_eq!(ds.labels_of(Dasp::Reentrancy), 32);
        assert_eq!(ds.labels_of(Dasp::ShortAddresses), 1);
        assert_eq!(ds.labels_of(Dasp::AccessControl), 21);
        assert_eq!(ds.labels_of(Dasp::Arithmetic), 23);
        assert_eq!(ds.labels_of(Dasp::BadRandomness), 31);
        assert_eq!(ds.labels_of(Dasp::DenialOfService), 7);
        assert_eq!(ds.labels_of(Dasp::FrontRunning), 7);
        assert_eq!(ds.labels_of(Dasp::TimeManipulation), 7);
    }

    #[test]
    fn all_files_parse() {
        let ds = smartbugs_curated(77);
        for file in &ds.files {
            assert!(
                solidity::parse_snippet(&file.source()).is_ok(),
                "{} does not parse",
                file.name
            );
        }
    }

    #[test]
    fn hard_instances_are_missed_by_ccc() {
        let checker = Checker::new();
        let ds = smartbugs_curated(77);
        for file in &ds.files {
            for instance in &file.instances {
                if instance.kind == InstanceKind::Hard {
                    let findings =
                        count_category_findings(&checker, &instance.contract, file.category);
                    assert_eq!(
                        findings, 0,
                        "hard instance in {} is detected:\n{}",
                        file.name, instance.contract
                    );
                }
            }
        }
    }

    #[test]
    fn easy_label_counts_match_ccc_findings() {
        let checker = Checker::new();
        let ds = smartbugs_curated(77);
        for file in &ds.files {
            for instance in &file.instances {
                if instance.kind == InstanceKind::Easy {
                    let findings =
                        count_category_findings(&checker, &instance.contract, file.category);
                    assert!(
                        findings >= instance.labels,
                        "easy instance in {} under-detects: {} < {}",
                        file.name,
                        findings,
                        instance.labels
                    );
                }
            }
        }
    }

    #[test]
    fn derived_datasets_preserve_labels() {
        let ds = smartbugs_curated(77);
        let functions = derive_functions(&ds);
        let statements = derive_statements(&ds);
        assert_eq!(functions.total_labels(), 204);
        assert_eq!(statements.total_labels(), 204);
        // Derived sources are snippets, not the full contracts.
        let full_len: usize = ds.files.iter().map(|f| f.source().len()).sum();
        let fn_len: usize = functions.files.iter().map(|f| f.source().len()).sum();
        assert!(fn_len < full_len);
    }

    #[test]
    fn scoring_rule() {
        assert_eq!(score_file(3, 3), (3, 0));
        assert_eq!(score_file(5, 3), (3, 2));
        assert_eq!(score_file(1, 3), (1, 0));
        assert_eq!(score_file(0, 0), (0, 0));
    }

    #[test]
    fn deterministic() {
        let a = smartbugs_curated(9);
        let b = smartbugs_curated(9);
        assert_eq!(a.files.len(), b.files.len());
        assert_eq!(a.files[3].source(), b.files[3].source());
    }
}
