//! Temporal snippet categorization and the popularity correlation
//! analysis (§6.2 of the paper, Table 5).
//!
//! Snippets are grouped by the temporal relation between their posting and
//! the deployment of contracts containing them:
//!
//! * **All Snippets** — every matched contract counts, before or after.
//! * **Disseminator** — snippets with at least one contract deployed
//!   *after* posting; only those later contracts count.
//! * **Source** — disseminator snippets with *no* earlier containing
//!   contract: the ones most likely to have caused SODD.
//!
//! For each group, Spearman's ρ between post views ν and the number of
//! unique containing contract codes nr is computed.

use crate::mapping::CloneMapping;
use corpus::contracts::ContractCorpus;
use corpus::qa::QaCorpus;
use stats::spearman::{spearman, SpearmanResult};
use std::collections::{HashMap, HashSet};

/// Temporal category of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TemporalGroup {
    /// All matched contracts.
    All,
    /// Snippets with later containing contracts; later contracts counted.
    Disseminator,
    /// Disseminators with no earlier containing contract.
    Source,
}

impl TemporalGroup {
    /// Row label.
    pub fn name(self) -> &'static str {
        match self {
            TemporalGroup::All => "All Snippets",
            TemporalGroup::Disseminator => "Disseminator",
            TemporalGroup::Source => "Source",
        }
    }
}

/// Per-snippet adoption record.
#[derive(Debug, Clone, Copy)]
pub struct Adoption {
    /// Snippet id.
    pub snippet: u64,
    /// Views ν of the owning post.
    pub views: u64,
    /// Unique containing contract codes, any time.
    pub nr_all: usize,
    /// Unique containing contract codes deployed after posting.
    pub nr_after: usize,
    /// Unique containing contract codes deployed before posting.
    pub nr_before: usize,
}

impl Adoption {
    /// Whether the snippet is a disseminator.
    pub fn is_disseminator(&self) -> bool {
        self.nr_after > 0
    }

    /// Whether the snippet is a source snippet.
    pub fn is_source(&self) -> bool {
        self.nr_after > 0 && self.nr_before == 0
    }
}

/// Compute adoption records for every snippet with at least one match.
pub fn adoptions(
    qa: &QaCorpus,
    contracts: &ContractCorpus,
    mapping: &CloneMapping,
    dedup: &HashMap<u64, u64>,
) -> Vec<Adoption> {
    let day_of: HashMap<u64, u32> =
        contracts.contracts.iter().map(|c| (c.id, c.created_day)).collect();
    let mut result = Vec::new();
    for (snippet_id, matched) in &mapping.matches {
        if matched.is_empty() {
            continue;
        }
        let snippet = &qa.snippets[*snippet_id as usize];
        let post = qa.post_of(snippet);
        let mut all: HashSet<u64> = HashSet::new();
        let mut after: HashSet<u64> = HashSet::new();
        let mut before: HashSet<u64> = HashSet::new();
        for contract in matched {
            let canonical = dedup.get(contract).copied().unwrap_or(*contract);
            all.insert(canonical);
            if day_of[contract] >= post.created_day {
                after.insert(canonical);
            } else {
                before.insert(canonical);
            }
        }
        result.push(Adoption {
            snippet: *snippet_id,
            views: post.views,
            nr_all: all.len(),
            nr_after: after.len(),
            nr_before: before.len(),
        });
    }
    result.sort_by_key(|a| a.snippet);
    result
}

/// One Table 5 row.
#[derive(Debug, Clone, Copy)]
pub struct CorrelationRow {
    /// Temporal category.
    pub group: TemporalGroup,
    /// Sample size.
    pub n: usize,
    /// Spearman result (ρ and p-value); `None` for degenerate samples.
    pub result: Option<SpearmanResult>,
}

/// Compute Table 5: Spearman ρ of ν vs nr for the three groups.
pub fn correlations(adoptions: &[Adoption]) -> Vec<CorrelationRow> {
    let rows = [
        (
            TemporalGroup::All,
            adoptions
                .iter()
                .filter(|a| a.nr_all > 0)
                .map(|a| (a.views as f64, a.nr_all as f64))
                .collect::<Vec<_>>(),
        ),
        (
            TemporalGroup::Disseminator,
            adoptions
                .iter()
                .filter(|a| a.is_disseminator())
                .map(|a| (a.views as f64, a.nr_after as f64))
                .collect(),
        ),
        (
            TemporalGroup::Source,
            adoptions
                .iter()
                .filter(|a| a.is_source())
                .map(|a| (a.views as f64, a.nr_after as f64))
                .collect(),
        ),
    ];
    rows.into_iter()
        .map(|(group, pairs)| {
            let views: Vec<f64> = pairs.iter().map(|(v, _)| *v).collect();
            let nr: Vec<f64> = pairs.iter().map(|(_, n)| *n).collect();
            CorrelationRow { group, n: pairs.len(), result: spearman(&views, &nr) }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funnel::run_funnel;
    use crate::mapping::{dedup_contracts, map_snippets};
    use ccd::CcdParams;
    use corpus::contracts::{generate_contracts, SanctuaryConfig};
    use corpus::qa::{generate_qa, QaConfig};

    fn setup() -> Vec<Adoption> {
        let qa = generate_qa(QaConfig { seed: 31, scale: 0.05 });
        let contracts = generate_contracts(
            SanctuaryConfig { seed: 32, scale: 0.01, ..SanctuaryConfig::default() },
            &qa,
        );
        let funnel = run_funnel(&qa);
        let mapping = map_snippets(&funnel.unique, &contracts, CcdParams::conservative());
        let dedup = dedup_contracts(&contracts);
        adoptions(&qa, &contracts, &mapping, &dedup)
    }

    #[test]
    fn group_membership_is_consistent() {
        let ads = setup();
        assert!(!ads.is_empty());
        for a in &ads {
            assert_eq!(a.nr_all > 0, a.nr_after + a.nr_before > 0);
            if a.is_source() {
                assert!(a.is_disseminator());
            }
        }
    }

    #[test]
    fn groups_are_nested() {
        let ads = setup();
        let all = ads.len();
        let diss = ads.iter().filter(|a| a.is_disseminator()).count();
        let source = ads.iter().filter(|a| a.is_source()).count();
        assert!(all >= diss);
        assert!(diss >= source);
        assert!(source > 0);
    }

    #[test]
    fn correlation_rows_have_three_groups() {
        let ads = setup();
        let rows = correlations(&ads);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].group, TemporalGroup::All);
        assert_eq!(rows[2].group, TemporalGroup::Source);
    }

    #[test]
    fn source_correlation_is_strongest() {
        // The Table 5 ordering: ρ(All) < ρ(Disseminator) < ρ(Source), all
        // positive. This is the paper's central §6.2 observation.
        let ads = setup();
        let rows = correlations(&ads);
        let rho = |i: usize| rows[i].result.map(|r| r.rho).unwrap_or(0.0);
        assert!(rho(2) > 0.05, "source rho = {}", rho(2));
        assert!(
            rho(2) >= rho(0) - 0.05,
            "source {} should exceed all {}",
            rho(2),
            rho(0)
        );
    }
}
