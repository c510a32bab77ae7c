//! CCD-based mapping of Q&A snippets onto deployed contracts (step 1 of
//! the Figure 6 experiment pipeline), plus contract deduplication (§6.3:
//! duplicate contracts are collapsed by comparing source code after
//! comment removal).

use crate::funnel::UniqueSnippet;
use ccd::{CcdParams, CloneDetector};
use corpus::contracts::ContractCorpus;
use std::collections::HashMap;

/// The snippet → contract clone mapping.
#[derive(Debug, Clone, Default)]
pub struct CloneMapping {
    /// For each snippet id: the contract ids containing a clone of it
    /// (score ≥ ε), sorted.
    pub matches: HashMap<u64, Vec<u64>>,
}

impl CloneMapping {
    /// Matches of one snippet.
    pub fn contracts_of(&self, snippet: u64) -> &[u64] {
        self.matches.get(&snippet).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Run CCD over all unique snippets against the contract corpus, in
/// parallel (the per-snippet matching is independent). Snippets are
/// claimed one at a time from a work-stealing cursor, so a few large
/// snippets cannot serialize the tail the way static chunking did.
pub fn map_snippets(
    snippets: &[UniqueSnippet],
    contracts: &ContractCorpus,
    params: CcdParams,
) -> CloneMapping {
    // Index the deployed contracts once.
    let mut detector = CloneDetector::new(params);
    for contract in &contracts.contracts {
        detector.insert_source(contract.id, &contract.source);
    }
    let detector = &detector;

    let per_snippet = crate::par::par_map(snippets, |_, snippet| {
        let fp = CloneDetector::fingerprint_source(&snippet.text)?;
        let mut ids: Vec<u64> = detector.matches(&fp).into_iter().map(|m| m.doc).collect();
        ids.sort_unstable();
        Some((snippet.id, ids))
    });
    CloneMapping { matches: per_snippet.into_iter().flatten().collect() }
}

/// Deduplicate contracts by their comment/whitespace-insensitive token
/// stream. Returns contract id → canonical (first-seen) id.
pub fn dedup_contracts(contracts: &ContractCorpus) -> HashMap<u64, u64> {
    let mut canonical_of_text: HashMap<String, u64> = HashMap::new();
    let mut result = HashMap::new();
    for contract in &contracts.contracts {
        let key = token_key(&contract.source);
        let canonical = *canonical_of_text.entry(key).or_insert(contract.id);
        result.insert(contract.id, canonical);
    }
    result
}

/// Comment- and layout-insensitive key of a source: the joined token
/// stream (the lexer drops comments and whitespace).
fn token_key(source: &str) -> String {
    match solidity::lexer::lex(source) {
        Ok(tokens) => tokens
            .into_iter()
            .map(|t| t.kind.text())
            .collect::<Vec<_>>()
            .join("\u{1}"),
        Err(_) => source.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funnel::run_funnel;
    use corpus::contracts::{generate_contracts, SanctuaryConfig};
    use corpus::qa::{generate_qa, QaConfig};

    fn setup() -> (corpus::qa::QaCorpus, ContractCorpus, Vec<UniqueSnippet>) {
        let qa = generate_qa(QaConfig { seed: 21, scale: 0.02 });
        let contracts = generate_contracts(
            SanctuaryConfig { seed: 22, scale: 0.004, ..SanctuaryConfig::default() },
            &qa,
        );
        let funnel = run_funnel(&qa);
        (qa, contracts, funnel.unique)
    }

    #[test]
    fn intentional_embeddings_are_mostly_found() {
        let (_qa, contracts, unique) = setup();
        let mapping = map_snippets(&unique, &contracts, CcdParams::best());
        // Ground truth: contracts embedding snippet s should appear in
        // s's matches (Type III mutations may fall below ε, so "mostly").
        let mut found = 0usize;
        let mut total = 0usize;
        let unique_ids: std::collections::HashSet<u64> =
            unique.iter().map(|s| s.id).collect();
        for contract in &contracts.contracts {
            for clone in &contract.embedded {
                if !unique_ids.contains(&clone.snippet) {
                    continue; // snippet filtered out by the funnel
                }
                total += 1;
                if mapping.contracts_of(clone.snippet).contains(&contract.id) {
                    found += 1;
                }
            }
        }
        assert!(total > 10, "test corpus too small: {total}");
        let recall = found as f64 / total as f64;
        assert!(recall > 0.6, "embedding recall = {recall} ({found}/{total})");
    }

    #[test]
    fn conservative_params_find_fewer_matches() {
        let (_qa, contracts, unique) = setup();
        let loose = map_snippets(&unique, &contracts, CcdParams::best());
        let strict = map_snippets(&unique, &contracts, CcdParams::conservative());
        let loose_total: usize = loose.matches.values().map(Vec::len).sum();
        let strict_total: usize = strict.matches.values().map(Vec::len).sum();
        assert!(strict_total <= loose_total, "{strict_total} > {loose_total}");
        assert!(strict_total > 0);
    }

    #[test]
    fn dedup_collapses_redeployments() {
        let (_qa, contracts, _unique) = setup();
        let dedup = dedup_contracts(&contracts);
        let n_unique: std::collections::HashSet<u64> = dedup.values().copied().collect();
        assert!(n_unique.len() < contracts.contracts.len());
        // Ground-truth duplicates share a canonical id.
        for contract in &contracts.contracts {
            if let Some(orig) = contract.duplicate_of {
                assert_eq!(dedup[&contract.id], dedup[&orig]);
            }
        }
    }

    #[test]
    fn token_key_ignores_comments_and_layout() {
        let a = "contract C { uint x; }";
        let b = "contract C {\n  // comment\n  uint    x;\n}";
        assert_eq!(token_key(a), token_key(b));
        assert_ne!(token_key(a), token_key("contract D { uint x; }"));
    }
}
