//! Honeypot smart-contract dataset — the substitute for the labelled
//! dataset of Torres et al. used to evaluate CCD against SmartEmbed
//! (§5.7.1, Table 3).
//!
//! Honeypots are scams whose creators keep reusing the same "technique"
//! and only slightly modify the surrounding code: ideal clone-detection
//! ground truth. The generator reproduces that structure: 9 honeypot
//! families (the types of Table 3); each family consists of several
//! *clusters* — one scammer's lineage of near-identical deployments
//! (Type I/II mutations of a cluster seed) — while different clusters of
//! the same family share only the technique, not the text.
//!
//! Ground truth marks every intra-family pair as a true clone (the
//! labelling of the original dataset), which is why textual detectors show
//! high precision but low recall on it — exactly the regime of Table 3.

use crate::mutate::{mutate, CloneType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The nine honeypot types of Torres et al. (Table 3 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HoneypotType {
    /// Balance Disorder.
    BalanceDisorder,
    /// Type Deduction Overflow.
    TypeDeductionOverflow,
    /// Hidden Transfer.
    HiddenTransfer,
    /// Unexecuted Call.
    UnexecutedCall,
    /// Uninitialised Struct.
    UninitialisedStruct,
    /// Hidden State Update.
    HiddenStateUpdate,
    /// Inheritance Disorder.
    InheritanceDisorder,
    /// Skip Empty String Literal.
    SkipEmptyStringLiteral,
    /// Straw Man Contract.
    StrawManContract,
}

impl HoneypotType {
    /// Display name (Table 3 row label).
    pub fn name(self) -> &'static str {
        match self {
            HoneypotType::BalanceDisorder => "Balance Disorder",
            HoneypotType::TypeDeductionOverflow => "Type Deduction Overflow",
            HoneypotType::HiddenTransfer => "Hidden Transfer",
            HoneypotType::UnexecutedCall => "Unexecuted Call",
            HoneypotType::UninitialisedStruct => "Uninitialised Struct",
            HoneypotType::HiddenStateUpdate => "Hidden State Update",
            HoneypotType::InheritanceDisorder => "Inheritance Disorder",
            HoneypotType::SkipEmptyStringLiteral => "Skip Empty String Literal",
            HoneypotType::StrawManContract => "Straw Man Contract",
        }
    }

    /// All types, in Table 3 order.
    pub const ALL: &'static [HoneypotType] = &[
        HoneypotType::BalanceDisorder,
        HoneypotType::TypeDeductionOverflow,
        HoneypotType::HiddenTransfer,
        HoneypotType::UnexecutedCall,
        HoneypotType::UninitialisedStruct,
        HoneypotType::HiddenStateUpdate,
        HoneypotType::InheritanceDisorder,
        HoneypotType::SkipEmptyStringLiteral,
        HoneypotType::StrawManContract,
    ];
}

/// A honeypot contract of the dataset.
#[derive(Debug, Clone)]
pub struct Honeypot {
    /// Contract id (index into the dataset).
    pub id: u64,
    /// Honeypot family.
    pub ty: HoneypotType,
    /// Cluster within the family (one scammer's lineage).
    pub cluster: usize,
    /// Source code.
    pub source: String,
}

/// The honeypot dataset.
#[derive(Debug, Clone, Default)]
pub struct HoneypotDataset {
    /// All contracts (the original dataset has 379).
    pub contracts: Vec<Honeypot>,
}

impl HoneypotDataset {
    /// Ground truth: contracts of the same family are clones.
    pub fn is_clone_pair(&self, a: u64, b: u64) -> bool {
        a != b && self.contracts[a as usize].ty == self.contracts[b as usize].ty
    }

    /// Number of ground-truth (unordered) clone pairs.
    pub fn clone_pair_count(&self) -> usize {
        HoneypotType::ALL
            .iter()
            .map(|ty| {
                let n = self.contracts.iter().filter(|c| c.ty == *ty).count();
                n * (n - 1) / 2
            })
            .sum()
    }
}

/// Family plan: (type, number of clusters, members per cluster) — sizes
/// proportional to the per-type pair counts of Table 3 (Hidden State
/// Update dominates), scaled to 379 contracts.
const FAMILY_PLAN: &[(HoneypotType, usize, usize)] = &[
    (HoneypotType::BalanceDisorder, 4, 7),
    (HoneypotType::TypeDeductionOverflow, 2, 7),
    (HoneypotType::HiddenTransfer, 5, 7),
    (HoneypotType::UnexecutedCall, 3, 4),
    (HoneypotType::UninitialisedStruct, 6, 8),
    (HoneypotType::HiddenStateUpdate, 10, 16),
    (HoneypotType::InheritanceDisorder, 5, 7),
    (HoneypotType::SkipEmptyStringLiteral, 3, 4),
    (HoneypotType::StrawManContract, 5, 7),
];

/// Generate the honeypot dataset (deterministic; 379 contracts with the
/// default plan).
pub fn honeypot_dataset(seed: u64) -> HoneypotDataset {
    static STAGE: telemetry::Stage = telemetry::Stage::new("corpus/honeypot_dataset");
    let _stage = STAGE.enter();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dataset = HoneypotDataset::default();
    for &(ty, clusters, members) in FAMILY_PLAN {
        let mut previous_seed: Option<String> = None;
        for cluster in 0..clusters {
            // Most clusters are independent re-implementations of the
            // technique (only the core is shared — textually hard to
            // match); some are "siblings": one scammer forking another's
            // lineage with statement-level edits (Type III — matchable).
            let seed_source = match &previous_seed {
                Some(prev) if cluster % 3 == 1 => mutate(prev, CloneType::TypeIII, &mut rng),
                _ => {
                    // Independent re-implementation: the shared technique
                    // core, structurally diverged (extra statements, edits)
                    // so it is only a *semantic* sibling of other clusters.
                    let fresh = technique(ty, cluster, &mut rng);
                    let once = mutate(&fresh, CloneType::TypeIII, &mut rng);
                    mutate(&once, CloneType::TypeIII, &mut rng)
                }
            };
            previous_seed = Some(seed_source.clone());
            for member in 0..members {
                let id = dataset.contracts.len() as u64;
                let source = if member == 0 {
                    seed_source.clone()
                } else {
                    // Lineage members are light mutations of the seed.
                    let clone_type = if rng.gen_bool(0.5) {
                        CloneType::TypeI
                    } else {
                        CloneType::TypeII
                    };
                    mutate(&seed_source, clone_type, &mut rng)
                };
                dataset.contracts.push(Honeypot { id, ty, cluster, source });
            }
        }
    }
    dataset
}

/// Render one cluster seed: the family technique with cluster-specific
/// surrounding code, so intra-family/cross-cluster similarity is partial.
fn technique(ty: HoneypotType, cluster: usize, rng: &mut StdRng) -> String {
    let names = ["Gift", "Prize", "Bonus", "Jackpot", "Reward", "Lucky", "Win", "Gold",
                 "Multi", "Quick"];
    let family_idx = HoneypotType::ALL.iter().position(|t| *t == ty).unwrap_or(0);
    let name = format!("{}{}", names[(family_idx + cluster) % names.len()], cluster);
    let filler = cluster_filler(family_idx, cluster, rng);
    let core = match ty {
        HoneypotType::BalanceDisorder => "    function multiplicate(address adr) public payable {\n\
                 if (msg.value >= this.balance) {\n\
                     adr.transfer(this.balance + msg.value);\n\
                 }\n\
             }".to_string(),
        HoneypotType::TypeDeductionOverflow => "    function Test() public payable {\n\
                 if (msg.value > 0.1 ether) {\n\
                     uint256 multi = 0;\n\
                     uint256 amountToTransfer = 0;\n\
                     for (var i = 0; i < 2 * msg.value; i++) {\n\
                         multi = i * 2;\n\
                         if (multi < amountToTransfer) {\n\
                             break;\n\
                         }\n\
                         amountToTransfer = multi;\n\
                     }\n\
                     msg.sender.transfer(amountToTransfer);\n\
                 }\n\
             }".to_string(),
        HoneypotType::HiddenTransfer => "    function withdrawAll() public {\n\
                 require(msg.sender == owner);\n\
                 msg.sender.transfer(this.balance);\n\
             }\n\
             \n\
                 function () payable {                                     \n\
                 if (msg.value >= 1 ether) { owner.transfer(msg.value); }\n\
             }".to_string(),
        HoneypotType::UnexecutedCall => "    function divest(uint amount) public {\n\
                 if (investors[msg.sender] < amount) {\n\
                     throw;\n\
                 }\n\
                 investors[msg.sender] -= amount;\n\
                 this.loggedTransfer(amount, \"\", msg.sender, owner);\n\
             }".to_string(),
        HoneypotType::UninitialisedStruct => "    struct SeedComponent {\n\
                 uint component;\n\
                 uint prize;\n\
             }\n\
         \n\
             function play(uint number) public payable {\n\
                 SeedComponent s;\n\
                 s.component = number;\n\
                 s.prize = msg.value;\n\
             }".to_string(),
        HoneypotType::HiddenStateUpdate => "    uint256 hashPass;\n\
         \n\
             function SetPass(bytes32 pass) public payable {\n\
                 if (msg.value > 1 ether) {\n\
                     hashPass = uint(pass);\n\
                 }\n\
             }\n\
         \n\
             function GetGift(bytes32 pass) public payable {\n\
                 if (hashPass == uint(pass)) {\n\
                     msg.sender.transfer(this.balance);\n\
                 }\n\
             }".to_string(),
        HoneypotType::InheritanceDisorder => "    address public owner;\n\
             uint public jackpot;\n\
         \n\
             function takePrize() public payable {\n\
                 if (msg.value >= jackpot) {\n\
                     msg.sender.transfer(this.balance);\n\
                 }\n\
                 jackpot += msg.value;\n\
             }".to_string(),
        HoneypotType::SkipEmptyStringLiteral => "    function divest(uint amount) public {\n\
                 loggedTransfer(amount, \"\", msg.sender, owner);\n\
             }\n\
         \n\
             function loggedTransfer(uint amount, bytes data, address target, address currentOwner) public {\n\
                 target.call{value: amount}(data);\n\
             }".to_string(),
        HoneypotType::StrawManContract => "    address stranger;\n\
         \n\
             function withdraw(uint amount) public {\n\
                 require(msg.sender == owner);\n\
                 stranger.delegatecall(msg.data);\n\
                 msg.sender.transfer(amount);\n\
             }".to_string(),
    };
    // Cluster-specific constructor shapes keep independent lineages
    // textually apart even in their boilerplate.
    let ctor = match (family_idx + cluster) % 3 {
        0 => "constructor() {\n        owner = msg.sender;\n    }".to_string(),
        1 => format!(
            "constructor() {{\n        owner = msg.sender;\n        started = {};\n        investors[msg.sender] = 1;\n    }}",
            7 + family_idx * 13 + cluster * 3
        ),
        _ => format!(
            "constructor() payable {{\n        owner = msg.sender;\n        started = {};\n    }}",
            11 + family_idx * 17 + cluster * 5
        ),
    };
    format!(
        "contract {name} {{\n    address owner;\n    uint started;\n    mapping(address => uint) investors;\n\n\
         {ctor}\n\n{core}\n\n{filler}\n}}"
    )
}

/// Cluster-specific surrounding code: genuinely different project code per
/// cluster (rendered from the benign template library plus cluster-unique
/// constants), so independent re-implementations of a technique share only
/// the small core — which keeps textual recall low, as in Table 3.
fn cluster_filler(family_idx: usize, cluster: usize, rng: &mut StdRng) -> String {
    let benign = crate::templates::benign_templates();
    let mut parts: Vec<String> = Vec::new();
    let count = 2 + cluster % 3;
    for i in 0..count {
        let template = &benign[(family_idx * 7 + cluster * 5 + i * 3) % benign.len()];
        let rendered = template.render(rng, crate::templates::Level::Function).text;
        // Each lineage hand-rolls its own bookkeeping: inject a
        // cluster-unique statement into the filler so two lineages that
        // happen to pick the same template still diverge textually.
        let marker = 10_000 + family_idx * 997 + cluster * 101 + i * 13;
        parts.push(inject_after_first_brace(
            &rendered,
            &format!("        round = {marker};"),
        ));
    }
    // Cluster-unique constants and a per-family structural shape keep the
    // lineages apart after normalization.
    let magic = 1000 + family_idx * 211 + cluster * 37;
    let setup = match family_idx % 3 {
        0 => format!(
            "    uint fee;\n\n    function setup() public {{\n        fee = {magic};\n    }}"
        ),
        1 => format!(
            "    uint fee;\n    uint cap;\n\n    function setup() public {{\n        fee = {magic};\n        cap = {};\n        limit = fee * {};\n    }}",
            magic * 2,
            2 + family_idx + cluster
        ),
        _ => format!(
            "    uint fee;\n    uint cap;\n\n    function setup(uint base) public {{\n        require(msg.sender == owner);\n        if (base > {magic}) {{\n            fee = base;\n        }}\n        cap = base * {};\n    }}",
            3 + cluster
        ),
    };
    parts.push(setup);
    parts.join("\n\n")
}

/// Insert `stmt` on its own line right after the first *function* body
/// opening brace (struct/contract braces must stay statement-free).
fn inject_after_first_brace(source: &str, stmt: &str) -> String {
    let mut out = String::new();
    let mut injected = false;
    for line in source.lines() {
        out.push_str(line);
        out.push('\n');
        if !injected && line.trim_end().ends_with('{') && line.contains("function") {
            out.push_str(stmt);
            out.push('\n');
            injected = true;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_has_379_contracts() {
        let ds = honeypot_dataset(3);
        assert_eq!(ds.contracts.len(), 379);
    }

    #[test]
    fn all_honeypots_parse() {
        let ds = honeypot_dataset(3);
        for hp in &ds.contracts {
            assert!(
                solidity::parse_snippet(&hp.source).is_ok(),
                "honeypot {} ({:?}) does not parse:\n{}",
                hp.id,
                hp.ty,
                hp.source
            );
        }
    }

    #[test]
    fn clone_pairs_are_intra_family() {
        let ds = honeypot_dataset(3);
        assert!(ds.is_clone_pair(0, 1));
        let other_family = ds
            .contracts
            .iter()
            .find(|c| c.ty != ds.contracts[0].ty)
            .unwrap();
        assert!(!ds.is_clone_pair(0, other_family.id));
        assert!(!ds.is_clone_pair(5, 5));
    }

    #[test]
    fn pair_count_is_large_relative_to_contracts() {
        let ds = honeypot_dataset(3);
        // Table 3's TP counts are in the thousands because ground truth is
        // pairwise.
        assert!(ds.clone_pair_count() > 3_000, "{}", ds.clone_pair_count());
    }

    #[test]
    fn intra_cluster_members_are_textual_clones() {
        use ccd::{order_independent_similarity, CloneDetector};
        let ds = honeypot_dataset(3);
        let a = &ds.contracts[0];
        let b = ds
            .contracts
            .iter()
            .find(|c| c.cluster == a.cluster && c.ty == a.ty && c.id != a.id)
            .unwrap();
        let fa = CloneDetector::fingerprint_source(&a.source).unwrap();
        let fb = CloneDetector::fingerprint_source(&b.source).unwrap();
        assert!(
            order_independent_similarity(&fa, &fb) >= 70.0,
            "{}",
            order_independent_similarity(&fa, &fb)
        );
    }

    #[test]
    fn deterministic() {
        let a = honeypot_dataset(3);
        let b = honeypot_dataset(3);
        assert_eq!(a.contracts[17].source, b.contracts[17].source);
    }
}
