//! The data-collection funnel (§6.1 of the paper, Table 4):
//! posts → snippets → Solidity (keyword filter) → parsable (snippet
//! grammar) → unique (deduplication).

use corpus::keywords::looks_like_solidity;
use corpus::qa::{QaCorpus, Site};
use solidity::SnippetLevel;
use std::collections::HashMap;

/// One Table 4 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunnelRow {
    /// Q&A site, `None` for the Total row.
    pub site: Option<Site>,
    /// Posts crawled.
    pub posts: usize,
    /// Snippets extracted.
    pub snippets: usize,
    /// Snippets passing the Solidity keyword filter.
    pub solidity: usize,
    /// Snippets parsable with the modified (snippet) grammar.
    pub parsable: usize,
    /// Unique snippets after deduplication.
    pub unique: usize,
}

/// A snippet that survived the funnel, ready for the study.
#[derive(Debug, Clone)]
pub struct UniqueSnippet {
    /// Original snippet id (the first occurrence of the text).
    pub id: u64,
    /// Owning post id.
    pub post: u64,
    /// Snippet text.
    pub text: String,
    /// Hierarchy level.
    pub level: SnippetLevel,
}

/// Funnel statistics beyond the Table 4 rows (the §6.1 prose numbers).
#[derive(Debug, Clone)]
pub struct FunnelStats {
    /// Table rows: one per site plus the total.
    pub rows: Vec<FunnelRow>,
    /// Snippets parsable with the *standard* grammar (the paper parses
    /// 3,133 more with the modified one).
    pub standard_parsable: usize,
    /// Level composition of parsed snippets (contract/function/statement).
    pub levels: HashMap<SnippetLevel, usize>,
    /// Lines-of-code statistics over parsed snippets: (min, median, mean,
    /// max).
    pub loc: (usize, usize, f64, usize),
}

/// The funnel output: statistics plus the surviving snippet set.
#[derive(Debug, Clone)]
pub struct FunnelOutput {
    /// Table 4 statistics.
    pub stats: FunnelStats,
    /// The unique, parsable Solidity snippets.
    pub unique: Vec<UniqueSnippet>,
}

/// Run the funnel over a Q&A corpus.
pub fn run_funnel(qa: &QaCorpus) -> FunnelOutput {
    static STAGE: telemetry::Stage = telemetry::Stage::new("pipeline/funnel");
    let _stage = STAGE.enter();
    let mut rows = Vec::new();
    let mut unique: Vec<UniqueSnippet> = Vec::new();
    let mut seen_texts: HashMap<String, u64> = HashMap::new();
    let mut standard_parsable = 0usize;
    let mut levels: HashMap<SnippetLevel, usize> = HashMap::new();
    let mut locs: Vec<usize> = Vec::new();

    let mut total = FunnelRow {
        site: None,
        posts: 0,
        snippets: 0,
        solidity: 0,
        parsable: 0,
        unique: 0,
    };

    for site in [Site::StackOverflow, Site::EthereumStackExchange] {
        let mut row = FunnelRow {
            site: Some(site),
            posts: qa.posts_of(site).count(),
            snippets: 0,
            solidity: 0,
            parsable: 0,
            unique: 0,
        };
        for snippet in qa.snippets_of(site) {
            row.snippets += 1;
            if !looks_like_solidity(&snippet.text) {
                continue;
            }
            row.solidity += 1;
            let Ok(unit) = solidity::parse_snippet(&snippet.text) else {
                continue;
            };
            row.parsable += 1;
            if solidity::parse_source(&snippet.text).is_ok() {
                standard_parsable += 1;
            }
            let level = unit.snippet_level();
            *levels.entry(level).or_insert(0) += 1;
            locs.push(snippet.text.lines().count());
            if seen_texts.contains_key(&snippet.text) {
                continue;
            }
            seen_texts.insert(snippet.text.clone(), snippet.id);
            row.unique += 1;
            unique.push(UniqueSnippet {
                id: snippet.id,
                post: snippet.post,
                text: snippet.text.clone(),
                level,
            });
        }
        total.posts += row.posts;
        total.snippets += row.snippets;
        total.solidity += row.solidity;
        total.parsable += row.parsable;
        total.unique += row.unique;
        rows.push(row);
    }
    rows.push(total);

    locs.sort_unstable();
    let loc = if locs.is_empty() {
        (0, 0, 0.0, 0)
    } else {
        (
            locs[0],
            locs[locs.len() / 2],
            locs.iter().sum::<usize>() as f64 / locs.len() as f64,
            *locs.last().unwrap(),
        )
    };

    FunnelOutput {
        stats: FunnelStats { rows, standard_parsable, levels, loc },
        unique,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::qa::{generate_qa, QaConfig};

    fn output() -> FunnelOutput {
        run_funnel(&generate_qa(QaConfig { seed: 42, scale: 0.05 }))
    }

    #[test]
    fn funnel_is_monotonically_decreasing() {
        let out = output();
        for row in &out.stats.rows {
            assert!(row.snippets >= row.solidity);
            assert!(row.solidity >= row.parsable);
            assert!(row.parsable >= row.unique);
        }
    }

    #[test]
    fn total_row_sums_site_rows() {
        let out = output();
        let rows = &out.stats.rows;
        assert_eq!(rows.len(), 3);
        let total = rows[2];
        assert_eq!(total.snippets, rows[0].snippets + rows[1].snippets);
        assert_eq!(total.unique, rows[0].unique + rows[1].unique);
    }

    #[test]
    fn proportions_match_table_4_shape() {
        let out = output();
        let total = out.stats.rows[2];
        // Paper: 25,725 / 39,434 ≈ 65% keyword-pass; 19,870 / 25,725 ≈ 77%
        // parsable; 18,660 / 19,870 ≈ 94% unique.
        let kw = total.solidity as f64 / total.snippets as f64;
        let parse = total.parsable as f64 / total.solidity as f64;
        let uniq = total.unique as f64 / total.parsable as f64;
        assert!((0.5..0.8).contains(&kw), "keyword rate {kw}");
        assert!((0.6..0.95).contains(&parse), "parse rate {parse}");
        assert!((0.85..1.0).contains(&uniq), "unique rate {uniq}");
    }

    #[test]
    fn snippet_grammar_parses_more_than_standard() {
        let out = output();
        let total = out.stats.rows[2];
        assert!(
            out.stats.standard_parsable < total.parsable,
            "modified grammar must parse strictly more: {} vs {}",
            out.stats.standard_parsable,
            total.parsable
        );
    }

    #[test]
    fn level_composition_is_contract_heavy() {
        let out = output();
        let contract = *out.stats.levels.get(&SnippetLevel::Contract).unwrap_or(&0);
        let function = *out.stats.levels.get(&SnippetLevel::Function).unwrap_or(&0);
        let statement = *out.stats.levels.get(&SnippetLevel::Statement).unwrap_or(&0);
        // Paper: 54.2% / 38% / 7.8%.
        assert!(contract > function);
        assert!(function > statement);
    }

    #[test]
    fn unique_snippets_have_no_duplicate_texts() {
        let out = output();
        let mut texts: Vec<&String> = out.unique.iter().map(|s| &s.text).collect();
        let before = texts.len();
        texts.sort();
        texts.dedup();
        assert_eq!(before, texts.len());
    }
}
