//! Clone mutation engine: derive Type I/II/III clones from a source
//! fragment (§2.4 taxonomy).
//!
//! Used to embed Q&A snippets into synthetic deployed contracts the way
//! copy-pasting developers do: verbatim with layout changes (Type I), with
//! renamed identifiers (Type II), or with statements added around the
//! copied core (Type III).

use rand::rngs::StdRng;
use rand::Rng;
use solidity::token::Keyword;
use std::collections::HashMap;

/// Clone types of Roy and Cordy (§2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CloneType {
    /// Layout/comment changes only.
    TypeI,
    /// Renamed identifiers and changed literals, plus Type I changes.
    TypeII,
    /// Added/removed statements, plus Type II changes.
    TypeIII,
}

/// Names that must survive renaming: language keywords plus EVM globals
/// and members.
fn is_protected(word: &str) -> bool {
    Keyword::from_str(word).is_some()
        || solidity::token::is_elementary_type(word)
        || matches!(
            word,
            "msg" | "sender"
                | "value"
                | "data"
                | "sig"
                | "gas"
                | "tx"
                | "origin"
                | "block"
                | "timestamp"
                | "number"
                | "difficulty"
                | "coinbase"
                | "gaslimit"
                | "blockhash"
                | "now"
                | "this"
                | "super"
                | "abi"
                | "require"
                | "assert"
                | "revert"
                | "transfer"
                | "send"
                | "call"
                | "delegatecall"
                | "callcode"
                | "staticcall"
                | "selfdestruct"
                | "suicide"
                | "keccak256"
                | "sha3"
                | "sha256"
                | "ecrecover"
                | "addmod"
                | "mulmod"
                | "gasleft"
                | "length"
                | "push"
                | "pop"
                | "balance"
                | "_"
        )
}

/// Apply a Type I mutation: comments and whitespace churn; the token
/// stream is untouched.
pub fn type_i(source: &str, rng: &mut StdRng) -> String {
    let mut out = String::new();
    for line in source.lines() {
        // Random indentation change.
        let indent = " ".repeat(rng.gen_range(0..5));
        out.push_str(&indent);
        out.push_str(line.trim_start());
        // Occasional trailing comment.
        if rng.gen_bool(0.2) {
            out.push_str("  // copied");
        }
        out.push('\n');
        // Occasional blank or comment line.
        if rng.gen_bool(0.1) {
            out.push_str("// ---\n");
        }
    }
    out
}

/// Collect renameable identifiers of a fragment in order of appearance.
fn renameable_identifiers(source: &str) -> Vec<String> {
    let Ok(tokens) = solidity::lexer::lex(source) else {
        return Vec::new();
    };
    let mut seen: Vec<String> = Vec::new();
    for token in tokens {
        if let solidity::token::TokenKind::Ident(word) = token.kind {
            if !is_protected(&word) && !seen.iter().any(|s| word == *s) {
                seen.push(word.to_string());
            }
        }
    }
    seen
}

/// Replace identifiers consistently using a word-boundary-aware rewrite.
fn rename_all(source: &str, renames: &HashMap<String, String>) -> String {
    let mut out = String::new();
    let mut word = String::new();
    let flush = |word: &mut String, out: &mut String| {
        if word.is_empty() {
            return;
        }
        match renames.get(word.as_str()) {
            Some(replacement) => out.push_str(replacement),
            None => out.push_str(word),
        }
        word.clear();
    };
    for c in source.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == '$' {
            word.push(c);
        } else {
            flush(&mut word, &mut out);
            out.push(c);
        }
    }
    flush(&mut word, &mut out);
    out
}

/// Apply a Type II mutation: consistent identifier renaming and changed
/// literal values (the Roy–Cordy definition), plus the Type I churn.
pub fn type_ii(source: &str, rng: &mut StdRng) -> String {
    let identifiers = renameable_identifiers(source);
    let mut renames = HashMap::new();
    let suffixes = ["_", "2", "X", "New", "V2", "Impl"];
    for ident in identifiers {
        if rng.gen_bool(0.7) {
            let suffix = suffixes[rng.gen_range(0..suffixes.len())];
            renames.insert(ident.clone(), format!("{ident}{suffix}"));
        }
    }
    // Literal changes: adapting developers tune constants (fees, caps,
    // round numbers) without touching the logic.
    if let Ok(tokens) = solidity::lexer::lex(source) {
        for token in tokens {
            if let solidity::token::TokenKind::Number(n) = token.kind {
                if n.starts_with("0x") || n.contains('.') || n.contains('e') {
                    continue;
                }
                if let Ok(value) = n.parse::<u64>() {
                    if value > 1 && rng.gen_bool(0.5) {
                        let tweaked = value.saturating_add(rng.gen_range(1..=9));
                        renames.entry(n.to_string()).or_insert(tweaked.to_string());
                    }
                }
            }
        }
    }
    let renamed = rename_all(source, &renames);
    type_i(&renamed, rng)
}

/// Benign statements inserted by Type III mutations.
const FILLER_STATEMENTS: &[&str] = &[
    "uint ts = block.timestamp;",
    "emit Copied(msg.sender);",
    "counter += 1;",
    "lastCaller = msg.sender;",
    "require(true);",
];

/// Apply a Type III mutation: insert statements at block boundaries (and
/// the Type II changes).
pub fn type_iii(source: &str, rng: &mut StdRng) -> String {
    let renamed = type_ii(source, rng);
    let mut out = String::new();
    for line in renamed.lines() {
        out.push_str(line);
        out.push('\n');
        // Insert filler after opening braces of function bodies.
        if line.trim_end().ends_with('{') && line.contains("function") && rng.gen_bool(0.6) {
            let filler = FILLER_STATEMENTS[rng.gen_range(0..FILLER_STATEMENTS.len())];
            out.push_str("    ");
            out.push_str(filler);
            out.push('\n');
        }
    }
    out
}

/// Apply a mutation of the given clone type.
pub fn mutate(source: &str, clone_type: CloneType, rng: &mut StdRng) -> String {
    match clone_type {
        CloneType::TypeI => type_i(source, rng),
        CloneType::TypeII => type_ii(source, rng),
        CloneType::TypeIII => type_iii(source, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const SRC: &str = "contract Bank {\n\
        mapping(address => uint) balances;\n\
        function withdraw(uint amount) public {\n\
            require(balances[msg.sender] >= amount);\n\
            balances[msg.sender] -= amount;\n\
            msg.sender.transfer(amount);\n\
        }\n\
    }";

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn type_i_preserves_token_stream() {
        let mutated = type_i(SRC, &mut rng());
        let original_tokens: Vec<String> = solidity::lexer::lex(SRC)
            .unwrap()
            .into_iter()
            .map(|t| t.kind.text().into_owned())
            .collect();
        let mutated_tokens: Vec<String> = solidity::lexer::lex(&mutated)
            .unwrap()
            .into_iter()
            .map(|t| t.kind.text().into_owned())
            .collect();
        assert_eq!(original_tokens, mutated_tokens);
    }

    #[test]
    fn type_ii_renames_consistently_and_parses() {
        let mutated = type_ii(SRC, &mut rng());
        assert!(solidity::parse_snippet(&mutated).is_ok(), "{mutated}");
        // Builtins survive.
        assert!(mutated.contains("msg.sender"));
        assert!(mutated.contains("require"));
    }

    #[test]
    fn type_iii_adds_statements_and_parses() {
        let mutated = type_iii(SRC, &mut rng());
        assert!(solidity::parse_snippet(&mutated).is_ok(), "{mutated}");
        let orig_lines = SRC.lines().count();
        assert!(mutated.lines().count() >= orig_lines);
    }

    #[test]
    fn mutations_remain_ccd_clones() {
        use ccd::{CcdParams, CloneDetector};
        let mut rng = rng();
        let mut detector = CloneDetector::new(CcdParams::best());
        detector.insert_source(1, &type_i(SRC, &mut rng));
        detector.insert_source(2, &type_ii(SRC, &mut rng));
        detector.insert_source(3, &type_iii(SRC, &mut rng));
        let query = CloneDetector::fingerprint_source(SRC).unwrap();
        let matched: Vec<u64> = detector.matches(&query).iter().map(|m| m.doc).collect();
        assert!(matched.contains(&1), "Type I clone must match: {matched:?}");
        assert!(matched.contains(&2), "Type II clone must match: {matched:?}");
        assert!(matched.contains(&3), "Type III clone must match: {matched:?}");
    }

    #[test]
    fn protected_names_are_never_renamed() {
        for word in ["msg", "sender", "require", "transfer", "uint", "contract"] {
            assert!(is_protected(word), "{word}");
        }
        assert!(!is_protected("balances"));
        assert!(!is_protected("withdraw"));
    }

    #[test]
    fn mutation_is_deterministic() {
        let a = type_iii(SRC, &mut rng());
        let b = type_iii(SRC, &mut rng());
        assert_eq!(a, b);
    }
}
