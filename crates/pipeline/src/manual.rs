//! The manual-validation audit (§6.5 of the paper, Table 8).
//!
//! The paper manually reviews 100 contracts flagged vulnerable, sampled
//! evenly across DASP categories, checking (1) whether the snippet was
//! truly vulnerable, (2) whether the contract is truly a clone of it, and
//! (3) whether the contract truly contains the vulnerability. With
//! generator ground truth available, the "manual" review becomes an exact
//! oracle audit over the same stratified sample design.

use crate::study::{StudyResult, ValidationRecord};
use ccc::Dasp;
use corpus::contracts::ContractCorpus;
use corpus::qa::{QaCorpus, SnippetTruth};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Oracle verdict on one sampled pairing.
#[derive(Debug, Clone, Copy)]
pub struct AuditVerdict {
    /// Snippet truly vulnerable (generator seeded a vulnerability)?
    pub snippet_tp: bool,
    /// Contract truly contains a clone of the snippet (intentional
    /// embedding of the same or a duplicate-text snippet)?
    pub true_clone: bool,
    /// Contract truly vulnerable (unmitigated embedding, no 0.8 rescue)?
    pub contract_tp: bool,
}

/// Table 8: the 2×2×2 outcome grid.
#[derive(Debug, Clone, Default)]
pub struct AuditGrid {
    /// (true_clone, snippet_tp, contract_tp) → count.
    pub cells: BTreeMap<(bool, bool, bool), usize>,
    /// Sample size.
    pub sample_size: usize,
}

impl AuditGrid {
    /// Count of one cell.
    pub fn cell(&self, true_clone: bool, snippet_tp: bool, contract_tp: bool) -> usize {
        self.cells
            .get(&(true_clone, snippet_tp, contract_tp))
            .copied()
            .unwrap_or(0)
    }

    /// The fully-confirmed cell (true clone, vulnerable snippet,
    /// vulnerable contract) — the paper's 48/100.
    pub fn fully_confirmed(&self) -> usize {
        self.cell(true, true, true)
    }
}

/// Stratified sample of flagged contracts: up to `per_category` per DASP
/// category (evenly sampled as in §6.5), unique contracts and snippets
/// where possible.
pub fn stratified_sample(
    result: &StudyResult,
    per_category: usize,
    seed: u64,
) -> Vec<&ValidationRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sample: Vec<&ValidationRecord> = Vec::new();
    let mut used_contracts = std::collections::HashSet::new();
    let mut used_snippets = std::collections::HashSet::new();
    for category in Dasp::ALL {
        let mut pool: Vec<&ValidationRecord> = result
            .records
            .iter()
            .filter(|r| r.outcome.is_vulnerable())
            .filter(|r| r.confirmed.iter().any(|q| q.category() == *category))
            .collect();
        pool.shuffle(&mut rng);
        let mut taken = 0;
        for record in pool {
            if taken >= per_category {
                break;
            }
            if used_contracts.contains(&record.contract)
                || used_snippets.contains(&record.snippet)
            {
                continue;
            }
            used_contracts.insert(record.contract);
            used_snippets.insert(record.snippet);
            sample.push(record);
            taken += 1;
        }
    }
    sample
}

/// Audit one record against generator ground truth.
pub fn audit_record(
    record: &ValidationRecord,
    qa: &QaCorpus,
    contracts: &ContractCorpus,
) -> AuditVerdict {
    let snippet = &qa.snippets[record.snippet as usize];
    let snippet_tp = snippet.seeded_vuln().is_some();

    // The contract is a true clone when some embedding refers to this
    // snippet, to one with identical text (duplicates), or to one of the
    // same template family — family instances are intentional Type-II
    // clones of each other and any reviewer judges them "sufficiently
    // similar".
    let contract = contracts
        .contracts
        .iter()
        .find(|c| c.id == record.contract)
        .expect("record refers to existing contract");
    let family_of = |id: u64| match &qa.snippets[id as usize].truth {
        SnippetTruth::Solidity { family, .. } => Some(family.clone()),
        _ => None,
    };
    let snippet_family = family_of(record.snippet);
    let embedding = contract.embedded.iter().find(|e| {
        e.snippet == record.snippet
            || qa.snippets[e.snippet as usize].text == snippet.text
            || (snippet_family.is_some() && family_of(e.snippet) == snippet_family)
    });
    let true_clone = embedding.is_some();

    // The contract is truly vulnerable when it embeds an unmitigated
    // vulnerable snippet — except arithmetic rescued by a 0.8 pragma.
    let contract_tp = embedding
        .map(|e| {
            let embedded = &qa.snippets[e.snippet as usize];
            let vuln = embedded.seeded_vuln();
            let arithmetic_rescued = vuln
                .map(|q| q.category() == Dasp::Arithmetic && contract.compiler.checked_arithmetic())
                .unwrap_or(false);
            vuln.is_some() && !e.mitigated && !arithmetic_rescued
        })
        .unwrap_or(false);

    AuditVerdict { snippet_tp, true_clone, contract_tp }
}

/// Run the full audit: stratified sample, oracle verdicts, grid.
pub fn run_audit(
    result: &StudyResult,
    qa: &QaCorpus,
    contracts: &ContractCorpus,
    per_category: usize,
    seed: u64,
) -> AuditGrid {
    let sample = stratified_sample(result, per_category, seed);
    let mut grid = AuditGrid { sample_size: sample.len(), ..AuditGrid::default() };
    for record in sample {
        let v = audit_record(record, qa, contracts);
        *grid
            .cells
            .entry((v.true_clone, v.snippet_tp, v.contract_tp))
            .or_insert(0) += 1;
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funnel::run_funnel;
    use crate::study::{run_study, StudyConfig};
    use corpus::contracts::{generate_contracts, SanctuaryConfig};
    use corpus::qa::{generate_qa, QaConfig};

    fn setup() -> (QaCorpus, ContractCorpus, StudyResult) {
        let qa = generate_qa(QaConfig { seed: 51, scale: 0.06 });
        let contracts = generate_contracts(
            SanctuaryConfig { seed: 52, scale: 0.015, ..SanctuaryConfig::default() },
            &qa,
        );
        let funnel = run_funnel(&qa);
        let result = run_study(&qa, &contracts, &funnel.unique, StudyConfig::default());
        (qa, contracts, result)
    }

    #[test]
    fn sample_is_stratified_and_bounded() {
        let (_qa, _contracts, result) = setup();
        let sample = stratified_sample(&result, 10, 7);
        assert!(!sample.is_empty());
        assert!(sample.len() <= 10 * Dasp::ALL.len());
        // No duplicate contracts within the sample.
        let contracts: std::collections::HashSet<u64> =
            sample.iter().map(|r| r.contract).collect();
        assert_eq!(contracts.len(), sample.len());
    }

    #[test]
    fn grid_counts_sum_to_sample_size() {
        let (qa, contracts, result) = setup();
        let grid = run_audit(&result, &qa, &contracts, 10, 7);
        let total: usize = grid.cells.values().sum();
        assert_eq!(total, grid.sample_size);
    }

    #[test]
    fn majority_of_flagged_pairings_fully_confirm() {
        // The Table 8 shape: the (TP, TP, true-clone) cell dominates.
        let (qa, contracts, result) = setup();
        let grid = run_audit(&result, &qa, &contracts, 12, 7);
        assert!(grid.sample_size >= 15, "sample too small: {}", grid.sample_size);
        let confirmed = grid.fully_confirmed() as f64 / grid.sample_size as f64;
        assert!(confirmed > 0.3, "confirmed rate = {confirmed} ({grid:?})");
    }

    #[test]
    fn audit_is_deterministic() {
        let (qa, contracts, result) = setup();
        let a = run_audit(&result, &qa, &contracts, 10, 7);
        let b = run_audit(&result, &qa, &contracts, 10, 7);
        assert_eq!(a.cells, b.cells);
    }
}
