//! Fingerprint generation (§5.4 of the paper).
//!
//! Each function's token stream is fed token-by-token into the fuzzy hasher
//! (enforcing context on piece boundaries); the resulting sub-fingerprints
//! are concatenated with `.` between functions and `:` between contracts.
//! The separators let the matcher compare function fingerprints
//! irrespective of their order in the code (§5.5).

use crate::tokenize::TokenizedUnit;
use fuzzyhash::FuzzyHasher;

/// Trigger block size of the fuzzy hasher: the expected number of tokens
/// per digest piece. Fixed across all fingerprints so digests are mutually
/// comparable. Two tokens per piece keeps sub-fingerprints long enough for
/// the edit distance to discriminate between small functions.
pub const BLOCK_SIZE: u32 = 2;

/// A structured fingerprint: base-64 sub-fingerprints per function,
/// `.`-separated within a contract, `:`-separated between contracts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub String);

impl Fingerprint {
    /// Compute the fingerprint of a tokenized unit.
    ///
    /// Only function bodies are hashed: after normalization every contract
    /// header reads `contract c`, so a header piece would match everything
    /// and only dilute the similarity score. Headers with inheritance
    /// (`is` clauses) still carry signal and are kept.
    pub fn of(unit: &TokenizedUnit) -> Fingerprint {
        let mut contracts = Vec::new();
        for contract in &unit.contracts {
            let mut parts = Vec::new();
            if contract.header.len() > 2 {
                parts.push(hash_stream(&contract.header));
            }
            for function in &contract.functions {
                parts.push(hash_stream(function));
            }
            contracts.push(parts.join("."));
        }
        Fingerprint(contracts.join(":"))
    }

    /// The flat text form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Length in characters, separators included.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the fingerprint is empty (nothing tokenizable).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The function-level sub-fingerprints, flattened across contracts.
    /// Empty sub-fingerprints (empty function bodies hashing to nothing)
    /// are dropped.
    pub fn sub_fingerprints(&self) -> Vec<&str> {
        self.0
            .split(['.', ':'])
            .filter(|s| !s.is_empty())
            .collect()
    }

    /// The fingerprint text with separators removed, as indexed for N-gram
    /// retrieval.
    pub fn indexed_text(&self) -> String {
        self.0.replace(['.', ':'], "")
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

fn hash_stream(tokens: &[intern::Symbol]) -> String {
    let mut hasher = FuzzyHasher::new(BLOCK_SIZE);
    for token in tokens {
        hasher.update_token(token);
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize_unit;
    use crate::tokenize::tokenize_unit;
    use solidity::parse_snippet;

    fn fp(src: &str) -> Fingerprint {
        let mut unit = parse_snippet(src).unwrap();
        normalize_unit(&mut unit);
        Fingerprint::of(&tokenize_unit(&unit))
    }

    #[test]
    fn functions_are_separated_by_periods() {
        let f = fp("contract A { function x() { a = 1; } function y() { b = 2; } }");
        // Two functions → two sub-fingerprints (plain headers carry no
        // signal after normalization and are not hashed).
        assert_eq!(f.0.matches('.').count(), 1);
        assert_eq!(f.sub_fingerprints().len(), 2);
    }

    #[test]
    fn contracts_are_separated_by_colons() {
        let f = fp("contract A { function x() {} } contract B { function y() {} }");
        assert_eq!(f.0.matches(':').count(), 1);
    }

    #[test]
    fn type_ii_clones_have_identical_fingerprints() {
        let a = fp("contract Bank { function pay(uint amount) public { msg.sender.transfer(amount); } }");
        let b = fp("contract Safe { function give(uint total) external { msg.sender.transfer(total); } }");
        assert_eq!(a, b);
    }

    #[test]
    fn type_i_clones_have_identical_fingerprints() {
        let a = fp("contract A { function f() { x = 1; } }");
        let b = fp("contract A {\n  // comment\n  function f() {\n    x = 1;\n  }\n}");
        assert_eq!(a, b);
    }

    #[test]
    fn figure_5_local_change_property() {
        // Adding a constructor only perturbs part of the fingerprint: the
        // withdraw function's sub-fingerprint is unchanged.
        let unsafe_fp = fp(
            "contract Unsafe { \
               function unsafeWithdraw(uint value) { msg.sender.transfer(value); } }",
        );
        let safe_fp = fp(
            "contract Unsafe { \
               function unsafeWithdraw(uint value) { msg.sender.transfer(value); } \
               address deployer; \
               constructor() { deployer = msg.sender; } }",
        );
        let shared: Vec<&str> = unsafe_fp
            .sub_fingerprints()
            .into_iter()
            .filter(|s| safe_fp.sub_fingerprints().contains(s))
            .collect();
        // The untouched withdraw function's piece survives verbatim.
        assert!(!shared.is_empty(), "{unsafe_fp} vs {safe_fp}");
    }

    #[test]
    fn different_code_different_fingerprints() {
        let a = fp("contract A { function f() { x = 1; } }");
        let b = fp("contract B { function g(address to, uint v) { require(msg.sender == owner); to.transfer(v); } }");
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_text_strips_separators() {
        let f = fp("contract A { function x() {} } contract B { function y() {} }");
        assert!(!f.indexed_text().contains(':'));
        assert!(!f.indexed_text().contains('.'));
    }
}
