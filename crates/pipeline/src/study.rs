//! The large-scale vulnerable-code-reuse experiment (§6.3/§6.4 of the
//! paper, Figure 6, Tables 6 and 7):
//!
//! 1. map unique snippets onto deployed contracts with CCD (conservative
//!    parameters),
//! 2. identify vulnerable snippets with CCC,
//! 3. restrict to disseminator/source snippets and deduplicate contracts,
//! 4. validate each candidate contract with CCC, re-checking only the
//!    queries that fired on the snippet, in two phases: full analysis
//!    first, then — for contracts that exceeded the analysis budget —
//!    a re-run with iteratively reduced data-flow path lengths (§6.3).

use crate::funnel::UniqueSnippet;
use crate::mapping::{dedup_contracts, map_snippets, CloneMapping};
use ccc::{Checker, Dasp, QueryId};
use ccd::CcdParams;
use corpus::contracts::ContractCorpus;
use corpus::qa::QaCorpus;
use cpg::Cpg;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Study configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StudyConfig {
    /// CCD parameters (the paper uses the conservative N=3, η=0.5, ε=0.9).
    pub ccd: CcdParams,
    /// Analysis budget per contract: graphs whose estimated pattern-search
    /// cost exceeds this "time out" in phase 1 (stands in for the paper's
    /// 1,800 s limit and Neo4j failures).
    pub budget: u64,
    /// Budget multiplier granted by the phase-2 path reduction.
    pub phase2_budget_factor: u64,
    /// Reduced maximal data-flow path length used in phase 2.
    pub phase2_max_path: usize,
}

impl Default for StudyConfig {
    fn default() -> Self {
        // The budget sits around the 85th percentile of candidate-contract
        // analysis costs, so — like the paper's 1,800 s limit — a sizable
        // minority of contracts times out in phase 1 and is recovered (or
        // not) by the phase-2 path reduction.
        StudyConfig {
            ccd: CcdParams::conservative(),
            budget: 11_000,
            phase2_budget_factor: 20,
            phase2_max_path: 12,
        }
    }
}

/// Validation outcome of one candidate contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValidationOutcome {
    /// Vulnerability confirmed in phase 1.
    VulnerablePhase1,
    /// Confirmed only after the phase-2 path reduction.
    VulnerablePhase2,
    /// Analyzed successfully, vulnerability not present (mitigated).
    NotVulnerable,
    /// Exceeded the analysis budget even in phase 2.
    Unanalyzed,
}

impl ValidationOutcome {
    /// Whether the contract counts as vulnerable.
    pub fn is_vulnerable(self) -> bool {
        matches!(
            self,
            ValidationOutcome::VulnerablePhase1 | ValidationOutcome::VulnerablePhase2
        )
    }

    /// Whether the contract was successfully analyzed.
    pub fn analyzed(self) -> bool {
        self != ValidationOutcome::Unanalyzed
    }
}

/// One validated (snippet, contract) pairing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValidationRecord {
    /// The vulnerable snippet.
    pub snippet: u64,
    /// The (canonical) contract containing its clone.
    pub contract: u64,
    /// The queries that fired on the snippet (re-checked on the contract).
    pub queries: Vec<QueryId>,
    /// Queries confirmed on the contract.
    pub confirmed: Vec<QueryId>,
    /// Outcome.
    pub outcome: ValidationOutcome,
}

/// The study output: every Table 7 cell plus the Table 6 distribution and
/// the per-pair records for manual validation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyResult {
    /// Unique parsable snippets (Table 7 "Unique").
    pub unique_snippets: usize,
    /// Snippets CCC flags as vulnerable.
    pub vulnerable_snippets: usize,
    /// Vulnerable snippets with at least one matched contract.
    pub contained_in_contracts: usize,
    /// ... of which posted before some containing contract (disseminator).
    pub posted_before_deployment: usize,
    /// ... of which source snippets.
    pub source_snippets: usize,
    /// Containing contracts (disseminator-timed, with duplicates).
    pub contracts_containing: usize,
    /// ... for source snippets only.
    pub contracts_containing_source: usize,
    /// Unique contracts after deduplication.
    pub unique_contracts: usize,
    /// ... for source snippets only.
    pub unique_contracts_source: usize,
    /// Contracts analyzed successfully in phase 1.
    pub analyzed_phase1: usize,
    /// Contracts analyzed successfully after phase 2.
    pub analyzed_total: usize,
    /// Contracts confirmed vulnerable in phase 1 only (the paper's
    /// 17,278).
    pub vulnerable_contracts_phase1: usize,
    /// Contracts confirmed vulnerable in total (17,852).
    pub vulnerable_contracts: usize,
    /// ... for source snippets only.
    pub vulnerable_contracts_source: usize,
    /// Vulnerable snippets found inside vulnerable contracts (616).
    pub snippets_in_vulnerable_contracts: usize,
    /// ... source subset (199).
    pub snippets_in_vulnerable_contracts_source: usize,
    /// Table 6: category → (vulnerable snippets, validated contracts).
    pub dasp_distribution: BTreeMap<Dasp, (usize, usize)>,
    /// All validation records (input to the Table 8 manual audit).
    pub records: Vec<ValidationRecord>,
    /// The clone mapping used (for downstream analyses).
    pub mapping: CloneMapping,
    /// Snippet id → queries CCC found on it.
    pub snippet_findings: HashMap<u64, Vec<QueryId>>,
}

/// Run the full experiment pipeline.
pub fn run_study(
    qa: &QaCorpus,
    contracts: &ContractCorpus,
    unique: &[UniqueSnippet],
    config: StudyConfig,
) -> StudyResult {
    static STAGE: telemetry::Stage = telemetry::Stage::new("pipeline/study");
    let _stage = STAGE.enter();
    // ---- Step 1: CCD mapping ------------------------------------------------
    let mapping = map_snippets(unique, contracts, config.ccd);
    let dedup = dedup_contracts(contracts);
    let day_of: HashMap<u64, u32> =
        contracts.contracts.iter().map(|c| (c.id, c.created_day)).collect();
    let post_day_of = |snippet_id: u64| qa.post_of(&qa.snippets[snippet_id as usize]).created_day;

    // ---- Step 2: CCC on snippets ---------------------------------------------
    let checker = Checker::new();
    let mut snippet_findings: HashMap<u64, Vec<QueryId>> = HashMap::new();
    for snippet in unique {
        let Ok(findings) = checker.check_snippet(&snippet.text) else { continue };
        if findings.is_empty() {
            continue;
        }
        let mut queries: Vec<QueryId> = findings.iter().map(|f| f.query).collect();
        queries.sort();
        queries.dedup();
        snippet_findings.insert(snippet.id, queries);
    }

    // ---- Step 3: temporal restriction + dedup -------------------------------
    // Vulnerable snippets contained in contracts.
    let contained: Vec<u64> = snippet_findings
        .keys()
        .filter(|id| !mapping.contracts_of(**id).is_empty())
        .copied()
        .collect();

    // Disseminator snippets: keep only clone contracts deployed at or
    // after the posting.
    let mut disseminator: Vec<u64> = Vec::new();
    let mut source: HashSet<u64> = HashSet::new();
    let mut candidate_pairs: Vec<(u64, u64)> = Vec::new(); // (snippet, contract)
    for snippet in &contained {
        let post_day = post_day_of(*snippet);
        let matched = mapping.contracts_of(*snippet);
        let after: Vec<u64> = matched
            .iter()
            .filter(|c| day_of[c] >= post_day)
            .copied()
            .collect();
        if after.is_empty() {
            continue;
        }
        disseminator.push(*snippet);
        if after.len() == matched.len() {
            source.insert(*snippet);
        }
        for contract in after {
            candidate_pairs.push((*snippet, contract));
        }
    }

    let contracts_containing = candidate_pairs.len();
    let contracts_containing_source = candidate_pairs
        .iter()
        .filter(|(s, _)| source.contains(s))
        .count();

    // Deduplicate: canonical contract per pair; drop duplicate pairs.
    let mut unique_pairs: Vec<(u64, u64)> = candidate_pairs
        .iter()
        .map(|(s, c)| (*s, dedup[c]))
        .collect();
    unique_pairs.sort_unstable();
    unique_pairs.dedup();
    let unique_contract_set: HashSet<u64> =
        unique_pairs.iter().map(|(_, c)| *c).collect();
    let unique_contracts_source: HashSet<u64> = unique_pairs
        .iter()
        .filter(|(s, _)| source.contains(s))
        .map(|(_, c)| *c)
        .collect();

    // ---- Step 4: two-phase validation ----------------------------------------
    let source_of: HashMap<u64, &str> = contracts
        .contracts
        .iter()
        .map(|c| (c.id, c.source.as_str()))
        .collect();

    // Validate per contract (the unit of the paper's timeout), in
    // parallel: each contract's CPG is built once and checked against the
    // queries of every snippet matched into it. Contracts are claimed one
    // at a time from a work-stealing cursor — analysis cost is heavily
    // skewed (a few huge contracts), which static chunking serialized.
    let mut pairs_by_contract: HashMap<u64, Vec<u64>> = HashMap::new();
    for (snippet, contract) in &unique_pairs {
        pairs_by_contract.entry(*contract).or_default().push(*snippet);
    }
    let contract_ids: Vec<u64> = {
        let mut ids: Vec<u64> = pairs_by_contract.keys().copied().collect();
        ids.sort_unstable();
        ids
    };
    let per_contract = crate::par::par_map(&contract_ids, |_, contract| {
        let parsed = Cpg::from_snippet(source_of[contract]).ok().map(|cpg| {
            let cost = Checker::analysis_cost(&cpg);
            (cpg, cost)
        });
        let mut local = Vec::new();
        for snippet in &pairs_by_contract[contract] {
            let queries = snippet_findings[snippet].clone();
            let (outcome, confirmed) = match &parsed {
                None => (ValidationOutcome::Unanalyzed, vec![]),
                Some((cpg, cost)) => validate_one(cpg, *cost, &queries, config),
            };
            local.push(ValidationRecord {
                snippet: *snippet,
                contract: *contract,
                queries,
                confirmed,
                outcome,
            });
        }
        local
    });
    let mut records: Vec<ValidationRecord> = per_contract.into_iter().flatten().collect();
    records.sort_by_key(|r| (r.contract, r.snippet));

    // Contract-level outcome: vulnerable wins over not-vulnerable.
    let mut outcome_of_contract: HashMap<u64, ValidationOutcome> = HashMap::new();
    for record in &records {
        let slot = outcome_of_contract
            .entry(record.contract)
            .or_insert(ValidationOutcome::Unanalyzed);
        if record.outcome.is_vulnerable()
            || (*slot == ValidationOutcome::Unanalyzed && record.outcome.analyzed())
        {
            *slot = record.outcome;
        }
    }

    // ---- Aggregation -----------------------------------------------------------
    let analyzed_phase1 = outcome_of_contract
        .values()
        .filter(|o| {
            matches!(
                o,
                ValidationOutcome::VulnerablePhase1 | ValidationOutcome::NotVulnerable
            )
        })
        .count();
    let analyzed_total = outcome_of_contract.values().filter(|o| o.analyzed()).count();
    let vulnerable_contracts_phase1 = outcome_of_contract
        .values()
        .filter(|o| **o == ValidationOutcome::VulnerablePhase1)
        .count();
    let vulnerable_contracts =
        outcome_of_contract.values().filter(|o| o.is_vulnerable()).count();
    let vulnerable_contracts_source = unique_contracts_source
        .iter()
        .filter(|c| outcome_of_contract.get(c).map(|o| o.is_vulnerable()).unwrap_or(false))
        .count();

    let vulnerable_pair = |r: &ValidationRecord| r.outcome.is_vulnerable();
    let snippets_in_vulnerable: HashSet<u64> =
        records.iter().filter(|r| vulnerable_pair(r)).map(|r| r.snippet).collect();
    let snippets_in_vulnerable_source =
        snippets_in_vulnerable.iter().filter(|s| source.contains(s)).count();

    // Table 6: per-category counts over disseminator snippets and
    // validated contracts (a snippet/contract may count in several
    // categories).
    let mut dasp: BTreeMap<Dasp, (usize, usize)> = BTreeMap::new();
    for snippet in &disseminator {
        let mut categories: Vec<Dasp> =
            snippet_findings[snippet].iter().map(|q| q.category()).collect();
        categories.sort();
        categories.dedup();
        for category in categories {
            dasp.entry(category).or_insert((0, 0)).0 += 1;
        }
    }
    let mut counted: HashSet<(u64, Dasp)> = HashSet::new();
    for record in &records {
        if !record.outcome.is_vulnerable() {
            continue;
        }
        for query in &record.confirmed {
            if counted.insert((record.contract, query.category())) {
                dasp.entry(query.category()).or_insert((0, 0)).1 += 1;
            }
        }
    }

    StudyResult {
        unique_snippets: unique.len(),
        vulnerable_snippets: snippet_findings.len(),
        contained_in_contracts: contained.len(),
        posted_before_deployment: disseminator.len(),
        source_snippets: source.len(),
        contracts_containing,
        contracts_containing_source,
        unique_contracts: unique_contract_set.len(),
        unique_contracts_source: unique_contracts_source.len(),
        analyzed_phase1,
        analyzed_total,
        vulnerable_contracts_phase1,
        vulnerable_contracts,
        vulnerable_contracts_source,
        snippets_in_vulnerable_contracts: snippets_in_vulnerable.len(),
        snippets_in_vulnerable_contracts_source: snippets_in_vulnerable_source,
        dasp_distribution: dasp,
        records,
        mapping,
        snippet_findings,
    }
}

/// Two-phase validation of one contract against one snippet's queries
/// (§6.3): full analysis within budget, then the path-length-reduction
/// retry, then give up.
fn validate_one(
    cpg: &Cpg,
    cost: u64,
    queries: &[QueryId],
    config: StudyConfig,
) -> (ValidationOutcome, Vec<QueryId>) {
    if cost <= config.budget {
        let findings = Checker::with_queries(queries).check(cpg);
        let confirmed = dedup_queries(findings.iter().map(|f| f.query));
        if confirmed.is_empty() {
            (ValidationOutcome::NotVulnerable, confirmed)
        } else {
            (ValidationOutcome::VulnerablePhase1, confirmed)
        }
    } else if cost <= config.budget * config.phase2_budget_factor {
        // Phase 2: path-length reduction brings the search space back
        // under budget. Reduction only limits the positive parts of the
        // queries, so phase 2 can only add true positives (§6.3).
        let findings = Checker::with_queries(queries)
            .bounded(config.phase2_max_path)
            .check(cpg);
        let confirmed = dedup_queries(findings.iter().map(|f| f.query));
        if confirmed.is_empty() {
            (ValidationOutcome::NotVulnerable, confirmed)
        } else {
            (ValidationOutcome::VulnerablePhase2, confirmed)
        }
    } else {
        (ValidationOutcome::Unanalyzed, vec![])
    }
}

fn dedup_queries(queries: impl Iterator<Item = QueryId>) -> Vec<QueryId> {
    let mut v: Vec<QueryId> = queries.collect();
    v.sort();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funnel::run_funnel;
    use corpus::contracts::{generate_contracts, SanctuaryConfig};
    use corpus::qa::{generate_qa, QaConfig};

    fn run() -> StudyResult {
        let qa = generate_qa(QaConfig { seed: 41, scale: 0.04 });
        let contracts = generate_contracts(
            SanctuaryConfig { seed: 42, scale: 0.008, ..SanctuaryConfig::default() },
            &qa,
        );
        let funnel = run_funnel(&qa);
        run_study(&qa, &contracts, &funnel.unique, StudyConfig::default())
    }

    #[test]
    fn funnel_counts_are_consistent() {
        let r = run();
        assert!(r.unique_snippets >= r.vulnerable_snippets);
        assert!(r.vulnerable_snippets >= r.contained_in_contracts);
        assert!(r.contained_in_contracts >= r.posted_before_deployment);
        assert!(r.posted_before_deployment >= r.source_snippets);
        assert!(r.contracts_containing >= r.unique_contracts);
        assert!(r.analyzed_total >= r.analyzed_phase1);
        assert!(r.analyzed_total <= r.unique_contracts);
        assert!(r.vulnerable_contracts <= r.analyzed_total);
        assert!(r.vulnerable_contracts >= r.vulnerable_contracts_phase1);
        assert!(r.snippets_in_vulnerable_contracts <= r.posted_before_deployment);
    }

    #[test]
    fn study_finds_vulnerable_reuse() {
        let r = run();
        // The headline of the paper: vulnerable snippets do end up in
        // deployed contracts and most validate as vulnerable.
        assert!(r.vulnerable_snippets > 0);
        assert!(r.contained_in_contracts > 0, "{r:?}");
        assert!(r.vulnerable_contracts > 0);
        let validation_rate = r.vulnerable_contracts as f64 / r.analyzed_total.max(1) as f64;
        assert!(
            (0.4..=1.0).contains(&validation_rate),
            "validation rate = {validation_rate}"
        );
    }

    #[test]
    fn table6_covers_multiple_categories() {
        let r = run();
        assert!(
            r.dasp_distribution.len() >= 4,
            "expected several DASP categories, got {:?}",
            r.dasp_distribution
        );
        for (snippets, _contracts) in r.dasp_distribution.values() {
            assert!(*snippets > 0);
        }
    }

    #[test]
    fn records_match_aggregates() {
        let r = run();
        let vulnerable_recorded: HashSet<u64> = r
            .records
            .iter()
            .filter(|rec| rec.outcome.is_vulnerable())
            .map(|rec| rec.contract)
            .collect();
        assert_eq!(vulnerable_recorded.len(), r.vulnerable_contracts);
    }

    #[test]
    fn mitigated_embeddings_reduce_validation() {
        // With aggressive mitigation, fewer matched contracts validate.
        let qa = generate_qa(QaConfig { seed: 43, scale: 0.03 });
        let low = generate_contracts(
            SanctuaryConfig { seed: 44, scale: 0.006, mitigation_rate: 0.0, ..Default::default() },
            &qa,
        );
        let high = generate_contracts(
            SanctuaryConfig { seed: 44, scale: 0.006, mitigation_rate: 0.8, ..Default::default() },
            &qa,
        );
        let funnel = run_funnel(&qa);
        let r_low = run_study(&qa, &low, &funnel.unique, StudyConfig::default());
        let r_high = run_study(&qa, &high, &funnel.unique, StudyConfig::default());
        let rate = |r: &StudyResult| r.vulnerable_contracts as f64 / r.analyzed_total.max(1) as f64;
        assert!(
            rate(&r_high) < rate(&r_low) + 0.05,
            "mitigation should not raise the validation rate: {} vs {}",
            rate(&r_high),
            rate(&r_low)
        );
    }
}
