//! CCC benchmark evaluation (§4.6 of the paper): Table 1 (comparison with
//! eight analysis tools on the curated dataset) and Table 2 (the derived
//! Functions/Statements snippet datasets).

use crate::api::{AnalysisConfig, AnalysisEngine, AnalysisRequest, AnalysisResponse};
use baselines::analyzers::{all_analyzers, Analyzer};
use ccc::Dasp;
use corpus::smartbugs::{score_file, CuratedDataset};
use stats::Confusion;
use std::collections::BTreeMap;

/// Per-tool evaluation result across categories.
#[derive(Debug, Clone)]
pub struct ToolResult {
    /// Tool name.
    pub tool: String,
    /// Per-category TP/FP (FN derivable from labels).
    pub per_category: BTreeMap<Dasp, Confusion>,
}

impl ToolResult {
    /// Totals across categories.
    pub fn total(&self) -> Confusion {
        let mut total = Confusion::new();
        for c in self.per_category.values() {
            total += *c;
        }
        total
    }
}

/// Evaluate CCC on a curated dataset under the paper's counting rule
/// (§4.6.2): per file, findings of the file's category count; up to the
/// file's label count as TPs, the rest as FPs; unmatched labels as FNs.
///
/// Drives the [`crate::api`] facade — the same scan path the analysis
/// service serves — so batch tables and service responses are built from
/// identical findings. Files that fail to analyze count zero findings.
pub fn evaluate_ccc(dataset: &CuratedDataset) -> ToolResult {
    static STAGE: telemetry::Stage = telemetry::Stage::new("pipeline/eval_ccc");
    let _stage = STAGE.enter();
    let engine = AnalysisEngine::new(AnalysisConfig::default());
    evaluate_with(dataset, "CCC", |source, category| {
        match engine.analyze(&AnalysisRequest::scan(source)) {
            Ok(AnalysisResponse::Findings(findings)) => {
                findings.iter().filter(|f| f.category() == category).count()
            }
            _ => 0,
        }
    })
}

/// Evaluate one baseline analyzer model.
pub fn evaluate_baseline(dataset: &CuratedDataset, tool: &Analyzer) -> ToolResult {
    evaluate_with(dataset, tool.name, |source, category| {
        tool.findings_of(source, category)
    })
}

/// Evaluate all eight baselines.
pub fn evaluate_all_baselines(dataset: &CuratedDataset) -> Vec<ToolResult> {
    all_analyzers()
        .into_iter()
        .map(|tool| evaluate_baseline(dataset, tool))
        .collect()
}

fn evaluate_with(
    dataset: &CuratedDataset,
    name: &str,
    findings_of: impl Fn(&str, Dasp) -> usize,
) -> ToolResult {
    let mut per_category: BTreeMap<Dasp, Confusion> = BTreeMap::new();
    for file in &dataset.files {
        let source = file.source();
        let labels = file.labels();
        let reported = findings_of(&source, file.category);
        let (tp, fp) = score_file(reported, labels);
        let entry = per_category.entry(file.category).or_default();
        entry.tp += tp;
        entry.fp += fp;
        entry.fn_ += labels - tp;
    }
    ToolResult { tool: name.to_string(), per_category }
}

/// Table 2: CCC on the Original / Functions / Statements datasets.
#[derive(Debug, Clone)]
pub struct SnippetLevelResult {
    /// Dataset name.
    pub dataset: String,
    /// Aggregate confusion.
    pub confusion: Confusion,
}

/// Evaluate CCC on the three dataset variants (§4.6.3).
pub fn evaluate_snippet_levels(
    original: &CuratedDataset,
    functions: &CuratedDataset,
    statements: &CuratedDataset,
) -> Vec<SnippetLevelResult> {
    [
        ("Original", original),
        ("Functions", functions),
        ("Statements", statements),
    ]
    .into_iter()
    .map(|(name, ds)| SnippetLevelResult {
        dataset: name.to_string(),
        confusion: evaluate_ccc(ds).total(),
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::smartbugs::{derive_functions, derive_statements, smartbugs_curated};

    fn dataset() -> CuratedDataset {
        smartbugs_curated(2024)
    }

    #[test]
    fn ccc_totals_have_table_1_shape() {
        let result = evaluate_ccc(&dataset());
        let total = result.total();
        // Paper: CCC 158 TP / 13 FP / 46 FN → precision 92.3%, recall
        // 77.4%. The shape requirement: precision ≥ 85%, recall 65–90%.
        assert!(total.precision() > 0.85, "precision = {}", total.precision());
        assert!(
            (0.6..0.92).contains(&total.recall()),
            "recall = {} ({total:?})",
            total.recall()
        );
        // CCC reports findings in all nine categories (unique among tools).
        let covered = result.per_category.values().filter(|c| c.tp > 0).count();
        assert_eq!(covered, 9, "{:?}", result.per_category);
    }

    #[test]
    fn ccc_beats_every_baseline_on_recall() {
        let ds = dataset();
        let ccc_total = evaluate_ccc(&ds).total();
        for baseline in evaluate_all_baselines(&ds) {
            let total = baseline.total();
            assert!(
                ccc_total.recall() > total.recall(),
                "CCC recall {} must beat {} ({})",
                ccc_total.recall(),
                baseline.tool,
                total.recall()
            );
        }
    }

    #[test]
    fn baselines_cover_at_most_seven_categories() {
        // Paper: other tools cover at most six categories with TPs; our
        // models must stay below CCC's nine.
        for baseline in evaluate_all_baselines(&dataset()) {
            let covered = baseline.per_category.values().filter(|c| c.tp > 0).count();
            assert!(
                covered <= 7,
                "{} covers {covered} categories",
                baseline.tool
            );
        }
    }

    #[test]
    fn smartcheck_is_precise_but_shallow() {
        let ds = dataset();
        let results = evaluate_all_baselines(&ds);
        let smartcheck = results.iter().find(|r| r.tool == "SmartCheck").unwrap();
        let total = smartcheck.total();
        assert!(total.precision() > 0.8, "{}", total.precision());
        assert!(total.recall() < 0.5, "{}", total.recall());
    }

    #[test]
    fn snippet_levels_trade_recall_for_precision() {
        let ds = dataset();
        let functions = derive_functions(&ds);
        let statements = derive_statements(&ds);
        let rows = evaluate_snippet_levels(&ds, &functions, &statements);
        // Table 2: recall decreases Original → Functions → Statements,
        // precision does not decrease.
        assert!(rows[0].confusion.recall() >= rows[1].confusion.recall());
        assert!(rows[1].confusion.recall() >= rows[2].confusion.recall());
        assert!(rows[2].confusion.precision() >= rows[0].confusion.precision() - 0.03);
    }
}
