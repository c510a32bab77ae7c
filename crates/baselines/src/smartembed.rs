//! SmartEmbed-style clone detection baseline (§5.7 of the paper).
//!
//! SmartEmbed detects clones through *structural code embeddings*: the
//! code is parsed, serialized into a structural token sequence, embedded
//! into a frequency vector, and contract pairs whose embeddings have
//! cosine similarity ≥ 0.9 (the authors' recommended threshold) are
//! reported as clones. Unlike CCD it requires parseable full contracts,
//! compares whole files (no function-level order independence), and does
//! no candidate pre-filtering (O(n²) comparisons).

use serde::{Deserialize, Serialize};
use solidity::ast::*;
use solidity::visitor::{walk_expr, walk_stmt, walk_unit, Visit};
use std::collections::HashMap;

/// A structural embedding: frequency vector over structural tokens.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Embedding {
    counts: HashMap<String, f64>,
}

impl Embedding {
    /// Cosine similarity between two embeddings, in [0, 1].
    ///
    /// Counts are log-dampened (`1 + ln(tf)`), the standard sublinear
    /// term-frequency weighting: without it, ubiquitous structural tokens
    /// (identifiers, member accesses) drown out the discriminative ones
    /// and every contract looks like every other.
    pub fn cosine(&self, other: &Embedding) -> f64 {
        let damp = |v: f64| 1.0 + v.max(1.0).ln();
        let dot: f64 = self
            .counts
            .iter()
            .filter_map(|(k, v)| other.counts.get(k).map(|w| damp(*v) * damp(*w)))
            .sum();
        let norm = |counts: &HashMap<String, f64>| -> f64 {
            counts.values().map(|v| damp(*v) * damp(*v)).sum::<f64>().sqrt()
        };
        let na = norm(&self.counts);
        let nb = norm(&other.counts);
        if na == 0.0 || nb == 0.0 {
            return if na == nb { 1.0 } else { 0.0 };
        }
        dot / (na * nb)
    }

    /// Number of distinct structural tokens.
    pub fn dimensions(&self) -> usize {
        self.counts.len()
    }
}

/// Structural token collector: node kinds, operator codes, callee names,
/// and parent→child structural bigrams — the "structure" in structural
/// embedding.
struct Collector {
    counts: HashMap<String, f64>,
    parent: String,
}

impl Collector {
    fn bump(&mut self, token: String) {
        *self.counts.entry(token).or_insert(0.0) += 1.0;
    }

    fn bump_with_bigram(&mut self, token: &str) {
        self.bump(token.to_string());
        self.bump(format!("{}>{}", self.parent, token));
    }
}

impl Visit for Collector {
    fn visit_stmt(&mut self, stmt: &Statement) {
        let token = match &stmt.kind {
            StatementKind::Block(_) => "block",
            StatementKind::If { .. } => "if",
            StatementKind::While { .. } => "while",
            StatementKind::DoWhile { .. } => "dowhile",
            StatementKind::For { .. } => "for",
            StatementKind::Expression(_) => "expr",
            StatementKind::VariableDecl { .. } => "vardecl",
            StatementKind::Return(_) => "return",
            StatementKind::Emit(_) => "emit",
            StatementKind::Revert(_) => "revert",
            StatementKind::Throw => "throw",
            StatementKind::Break => "break",
            StatementKind::Continue => "continue",
            StatementKind::ModifierPlaceholder => "placeholder",
            StatementKind::Ellipsis => "ellipsis",
            StatementKind::Unchecked(_) => "unchecked",
            StatementKind::Assembly(_) => "assembly",
            StatementKind::Try { .. } => "try",
        };
        self.bump_with_bigram(token);
        let saved = std::mem::replace(&mut self.parent, token.to_string());
        walk_stmt(self, stmt);
        self.parent = saved;
    }

    fn visit_expr(&mut self, expr: &Expr) {
        let token = match &expr.kind {
            ExprKind::Binary { op, .. } => format!("bin:{}", op.as_str()),
            ExprKind::Assign { op, .. } => format!("assign:{}", op.as_str()),
            ExprKind::Unary { op, .. } => format!("un:{}", op.as_str()),
            ExprKind::Ternary { .. } => "ternary".to_string(),
            ExprKind::Call { callee, .. } => {
                format!("call:{}", callee.local_name().map(|s| s.as_str()).unwrap_or("?"))
            }
            ExprKind::Member { member, .. } => format!("member:{member}"),
            ExprKind::Index { .. } => "index".to_string(),
            ExprKind::Ident(_) => "ident".to_string(),
            // Literal values are part of the structure SmartEmbed captures
            // (constants distinguish otherwise similar contracts).
            ExprKind::Literal(Lit::Number { value, .. }) => format!("num:{value}"),
            ExprKind::Literal(Lit::Str(_)) => "str".to_string(),
            ExprKind::Literal(Lit::Bool(_)) => "bool".to_string(),
            ExprKind::Literal(Lit::Hex(_)) => "hex".to_string(),
            ExprKind::Tuple(_) => "tuple".to_string(),
            ExprKind::New(_) => "new".to_string(),
            ExprKind::ElementaryType(t) => format!("type:{t}"),
            ExprKind::Ellipsis => "ellipsis".to_string(),
        };
        self.bump_with_bigram(&token);
        let saved = std::mem::replace(&mut self.parent, token);
        walk_expr(self, expr);
        self.parent = saved;
    }

    fn visit_function(&mut self, function: &FunctionDef) {
        self.bump(format!("fn:{}params", function.params.len()));
        solidity::visitor::walk_function(self, function);
    }

    fn visit_contract(&mut self, contract: &ContractDef) {
        self.bump(format!("contract:{}bases", contract.bases.len()));
        solidity::visitor::walk_contract(self, contract);
    }
}

/// Embed a source. Returns `None` when the source does not parse with the
/// *standard* grammar — SmartEmbed requires complete code (§5.7) and
/// cannot analyze snippets out of the box.
pub fn embed(source: &str) -> Option<Embedding> {
    static EMBEDDINGS: telemetry::Counter = telemetry::Counter::new("baselines.smartembed.embeddings");
    EMBEDDINGS.incr();
    let unit = solidity::parse_source(source).ok()?;
    let mut collector = Collector { counts: HashMap::new(), parent: "root".to_string() };
    walk_unit(&mut collector, &unit);
    if collector.counts.is_empty() {
        return None;
    }
    Some(Embedding { counts: collector.counts })
}

/// The authors' recommended clone threshold (§5.7.1).
pub const SMARTEMBED_THRESHOLD: f64 = 0.9;

/// The SmartEmbed baseline over a corpus: all-pairs cosine similarity.
pub struct SmartEmbed {
    docs: Vec<(u64, Embedding)>,
}

impl Default for SmartEmbed {
    fn default() -> Self {
        Self::new()
    }
}

impl SmartEmbed {
    /// Empty corpus.
    pub fn new() -> SmartEmbed {
        SmartEmbed { docs: Vec::new() }
    }

    /// Index a document; returns false when it cannot be embedded
    /// (unparseable with the standard grammar).
    pub fn insert(&mut self, id: u64, source: &str) -> bool {
        match embed(source) {
            Some(e) => {
                self.docs.push((id, e));
                true
            }
            None => false,
        }
    }

    /// Number of embedded documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// All clone pairs at a threshold: brute-force O(n²) comparison.
    pub fn clone_pairs(&self, threshold: f64) -> Vec<(u64, u64, f64)> {
        let mut pairs = Vec::new();
        for (i, (id_a, ea)) in self.docs.iter().enumerate() {
            for (id_b, eb) in &self.docs[i + 1..] {
                let score = ea.cosine(eb);
                if score >= threshold {
                    pairs.push((*id_a, *id_b, score));
                }
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = "contract Bank { mapping(address => uint) balances; \
        function withdraw(uint amount) public { \
        require(balances[msg.sender] >= amount); \
        balances[msg.sender] -= amount; msg.sender.transfer(amount); } }";

    // Type II clone of A.
    const A2: &str = "contract Vault { mapping(address => uint) deposits; \
        function takeOut(uint sum) public { \
        require(deposits[msg.sender] >= sum); \
        deposits[msg.sender] -= sum; msg.sender.transfer(sum); } }";

    const B: &str = "contract Voting { mapping(address => bool) voted; uint yes; \
        function vote() public { require(!voted[msg.sender]); \
        voted[msg.sender] = true; yes += 1; } }";

    #[test]
    fn identical_sources_have_cosine_1() {
        let e = embed(A).unwrap();
        assert!((e.cosine(&e) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn renamed_clone_scores_above_threshold() {
        let ea = embed(A).unwrap();
        let eb = embed(A2).unwrap();
        assert!(ea.cosine(&eb) >= SMARTEMBED_THRESHOLD, "{}", ea.cosine(&eb));
    }

    #[test]
    fn unrelated_contracts_score_below_threshold() {
        let ea = embed(A).unwrap();
        let eb = embed(B).unwrap();
        assert!(ea.cosine(&eb) < SMARTEMBED_THRESHOLD, "{}", ea.cosine(&eb));
    }

    #[test]
    fn snippets_are_rejected() {
        // SmartEmbed requires complete code (§5.7): bare statements fail,
        // while a whole function parses as a free function and embeds.
        assert!(embed("balances[msg.sender] += msg.value;").is_none());
        assert!(embed("function f() public { x = 1; }").is_some());
    }

    #[test]
    fn clone_pairs_brute_force() {
        let mut se = SmartEmbed::new();
        assert!(se.insert(0, A));
        assert!(se.insert(1, A2));
        assert!(se.insert(2, B));
        let pairs = se.clone_pairs(SMARTEMBED_THRESHOLD);
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].0, pairs[0].1), (0, 1));
    }

    #[test]
    fn embedding_dimensions_grow_with_code() {
        let small = embed("contract C { uint x; }").unwrap();
        let large = embed(A).unwrap();
        assert!(large.dimensions() > small.dimensions());
    }
}
