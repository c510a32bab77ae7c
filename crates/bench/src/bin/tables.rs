//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p bench --bin tables -- all
//! cargo run --release -p bench --bin tables -- table1 table9
//! cargo run --release -p bench --bin tables -- table7 --scale 0.05
//! cargo run --release -p bench --bin tables -- all --telemetry --out tables.txt
//! ```
//!
//! Tables 1–3 and 9 run on the fixed benchmark datasets; Tables 4–8 and
//! Figure 9 run the study pipeline at the given scale (default 0.05).
//! Several targets may be given at once. `--out PATH` tees everything
//! printed to stdout into PATH; a failed write to it names PATH on stderr
//! and exits 1. `--telemetry` enables telemetry collection, appends the
//! rendered telemetry tables, and writes the JSON run report to
//! `--telemetry-out` (default `BENCH_run.json`); the `TELEMETRY=0`
//! environment kill switch overrides the flag.
//!
//! An unknown target, a flag missing its value or an unparsable `--scale`
//! prints usage to stderr and exits 2.

use ccc::Dasp;
use ccd::CcdParams;
use pipeline::eval_ccc::{evaluate_all_baselines, evaluate_ccc, evaluate_snippet_levels};
use pipeline::eval_ccd::{evaluate_ccd, evaluate_smartembed, sweep_ccd};
use pipeline::report::{f3, pct, Table};
use pipeline::{adoptions, correlations, dedup_contracts, run_audit, run_funnel, run_study, StudyConfig};
use corpus::honeypots::HoneypotType;
use corpus::smartbugs::{derive_functions, derive_statements};
use std::io::Write as _;
use std::sync::{Mutex, OnceLock};

/// Optional tee target: `--out PATH` duplicates everything printed to
/// stdout into this file, kept with its path.
static OUT_FILE: OnceLock<(String, Mutex<std::fs::File>)> = OnceLock::new();

/// Print one line to stdout and, when `--out` is set, to the tee file. A
/// failed tee write names the path on stderr and exits 1.
fn emit_line(line: std::fmt::Arguments) {
    let text = line.to_string();
    println!("{text}");
    if let Some((path, file)) = OUT_FILE.get() {
        let mut file = file.lock().expect("tee file lock");
        if let Err(error) = writeln!(file, "{text}") {
            eprintln!("cannot write --out {path}: {error}");
            std::process::exit(1);
        }
    }
}

macro_rules! outln {
    () => { emit_line(format_args!("")) };
    ($($arg:tt)*) => { emit_line(format_args!($($arg)*)) };
}

struct Args {
    whats: Vec<String>,
    scale: f64,
    out: Option<String>,
    telemetry: bool,
    telemetry_out: String,
}

/// Every target a command line may name.
const TARGETS: &[&str] = &[
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8", "table9",
    "figure2", "figure5", "figure9", "study", "all",
];

const USAGE: &str = "usage: tables [TARGET...] [--scale F] [--out PATH] [--telemetry] \
                     [--telemetry-out PATH]\n\
                     targets: table1..table9 figure2 figure5 figure9 study all (default)";

/// Parse the command line; an unknown target, a flag missing its value or
/// an unparsable `--scale` prints usage and exits 2.
fn parse_args() -> Args {
    parse(std::env::args().skip(1)).unwrap_or_else(|error| {
        eprintln!("tables: {error}\n{USAGE}");
        std::process::exit(2);
    })
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        whats: Vec::new(),
        scale: bench::DEFAULT_SCALE,
        out: None,
        telemetry: false,
        telemetry_out: "BENCH_run.json".to_string(),
    };
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("missing value for {arg}"));
        match arg.as_str() {
            "--scale" => {
                let scale = value()?;
                args.scale = scale
                    .parse()
                    .map_err(|_| format!("--scale must be a number, not {scale:?}"))?;
            }
            "--out" => args.out = Some(value()?),
            "--telemetry" => args.telemetry = true,
            "--telemetry-out" => args.telemetry_out = value()?,
            target if TARGETS.contains(&target) => args.whats.push(arg.clone()),
            other => return Err(format!("unknown target {other}")),
        }
    }
    if args.whats.is_empty() {
        args.whats.push("all".to_string());
    }
    Ok(args)
}

fn main() {
    let args = parse_args();
    telemetry::init_from_env();
    if args.telemetry {
        telemetry::enable();
    }
    if let Some(path) = &args.out {
        match std::fs::File::create(path) {
            Ok(file) => {
                let _ = OUT_FILE.set((path.clone(), Mutex::new(file)));
            }
            Err(error) => {
                eprintln!("cannot open --out {path}: {error}");
                std::process::exit(1);
            }
        }
    }
    let run_all = args.whats.iter().any(|w| w == "all");
    let wants = |name: &str| run_all || args.whats.iter().any(|w| w == name);

    if wants("table1") {
        table1();
    }
    if wants("table2") {
        table2();
    }
    if wants("table3") {
        table3();
    }
    if wants("table9") || wants("figure9") {
        table9_figure9();
    }
    if wants("figure2") {
        figure2();
    }
    if wants("figure5") {
        figure5();
    }
    if ["table4", "table5", "table6", "table7", "table8", "study"].iter().any(|w| wants(w)) {
        study_tables(args.scale, &args.whats, run_all);
    }

    // Appended only when explicitly requested *and* the TELEMETRY=0 kill
    // switch did not win, so default output stays byte-identical.
    if args.telemetry && telemetry::enabled() {
        let snapshot = telemetry::snapshot();
        outln!("{}", pipeline::telemetry_report::render(&snapshot));
        match std::fs::write(&args.telemetry_out, snapshot.to_json()) {
            Ok(()) => eprintln!("[telemetry] wrote {}", args.telemetry_out),
            Err(error) => {
                eprintln!("cannot write {}: {error}", args.telemetry_out);
                std::process::exit(1);
            }
        }
    }
}

// ===== Table 1: CCC vs 8 tools on the curated dataset =======================

fn table1() {
    eprintln!("[table1] building curated dataset and running 9 tools...");
    let dataset = bench::curated();
    let ccc = evaluate_ccc(&dataset);
    let baselines = evaluate_all_baselines(&dataset);

    let mut table = Table::new("Table 1 — tool comparison on SmartBugs-Curated analog (TP/FP)")
        .header(&{
            let mut h = vec!["Category", "#", "CCC"];
            for b in &baselines {
                h.push(Box::leak(b.tool.clone().into_boxed_str()));
            }
            h
        });
    for category in Dasp::ALL {
        if *category == Dasp::UnknownUnknowns {
            continue;
        }
        let labels = dataset.labels_of(*category);
        let mut row = vec![category.name().to_string(), labels.to_string()];
        let cell = |result: &pipeline::eval_ccc::ToolResult| -> String {
            result
                .per_category
                .get(category)
                .map(|c| format!("{}/{}", c.tp, c.fp))
                .unwrap_or_else(|| "0/0".to_string())
        };
        row.push(cell(&ccc));
        for b in &baselines {
            row.push(cell(b));
        }
        table.row(row);
    }
    let mut totals = vec!["Total".to_string(), dataset.total_labels().to_string()];
    let mut prs = vec!["Precision/Recall".to_string(), String::new()];
    for result in std::iter::once(&ccc).chain(&baselines) {
        let t = result.total();
        totals.push(format!("{}/{}", t.tp, t.fp));
        prs.push(format!("{}/{}", pct(t.precision()), pct(t.recall())));
    }
    table.row(totals);
    table.row(prs);
    outln!("{}", table.render());
}

// ===== Table 2: snippet-level datasets =======================================

fn table2() {
    eprintln!("[table2] deriving Functions/Statements datasets...");
    let original = bench::curated();
    let functions = derive_functions(&original);
    let statements = derive_statements(&original);
    let rows = evaluate_snippet_levels(&original, &functions, &statements);
    let mut table = Table::new("Table 2 — CCC on Original / Functions / Statements")
        .header(&["Dataset", "TP", "FP", "Precision", "Recall"]);
    for row in rows {
        table.row(vec![
            row.dataset,
            row.confusion.tp.to_string(),
            row.confusion.fp.to_string(),
            pct(row.confusion.precision()),
            pct(row.confusion.recall()),
        ]);
    }
    outln!("{}", table.render());
}

// ===== Table 3: CCD vs SmartEmbed on honeypots ================================

fn table3() {
    eprintln!("[table3] running CCD and SmartEmbed over the honeypot dataset...");
    let dataset = bench::honeypots();
    let ccd = evaluate_ccd(&dataset, CcdParams::best());
    let smartembed = evaluate_smartembed(&dataset);
    let mut table = Table::new("Table 3 — SmartEmbed vs CCD on honeypots (TP/FP per type)")
        .header(&["Honeypot Type", "SmartEmbed", "CCD"]);
    for ty in HoneypotType::ALL {
        let cell = |r: &pipeline::eval_ccd::HoneypotResult| {
            r.per_type
                .get(ty)
                .map(|c| format!("{}/{}", c.tp, c.fp))
                .unwrap_or_default()
        };
        table.row(vec![ty.name().to_string(), cell(&smartembed), cell(&ccd)]);
    }
    let (ts, tc) = (smartembed.total(), ccd.total());
    table.row(vec![
        "Total".into(),
        format!("{}/{}", ts.tp, ts.fp),
        format!("{}/{}", tc.tp, tc.fp),
    ]);
    table.row(vec![
        "Precision".into(),
        f3(ts.precision()),
        f3(tc.precision()),
    ]);
    table.row(vec!["Recall".into(), f3(ts.recall()), f3(tc.recall())]);
    table.row(vec!["F1".into(), f3(ts.f1()), f3(tc.f1())]);
    outln!("{}", table.render());
}

// ===== Table 9 + Figure 9: the parameter sweep ================================

fn table9_figure9() {
    eprintln!("[table9/figure9] sweeping 75 parameter combinations...");
    let dataset = bench::honeypots();
    let rows = sweep_ccd(&dataset);
    let smartembed = evaluate_smartembed(&dataset).total();

    let mut table = Table::new(
        "Table 9 / Figure 9 — CCD parameter sweep (precision/recall per N, eta, epsilon)",
    )
    .header(&["N", "eta", "eps", "Precision", "Recall", "F1"]);
    for row in &rows {
        table.row(vec![
            row.params.ngram_size.to_string(),
            format!("{:.1}", row.params.eta),
            format!("{:.1}", row.params.epsilon / 100.0),
            f3(row.precision),
            f3(row.recall),
            f3(row.f1),
        ]);
    }
    outln!("{}", table.render());
    outln!(
        "SmartEmbed reference lines (Fig. 9): precision {} recall {}",
        f3(smartembed.precision()),
        f3(smartembed.recall())
    );
    let best = rows
        .iter()
        .max_by(|a, b| a.f1.partial_cmp(&b.f1).unwrap())
        .unwrap();
    outln!(
        "best F1 combination: N={} eta={:.1} eps={:.1} (P {} R {} F1 {})\n",
        best.params.ngram_size,
        best.params.eta,
        best.params.epsilon / 100.0,
        f3(best.precision),
        f3(best.recall),
        f3(best.f1)
    );
}

// ===== Figures 2 and 5 ========================================================

fn figure2() {
    outln!("== Figure 2 — CPG of `if (msg.sender == owner) {{}}` ==");
    let cpg = cpg::Cpg::from_snippet("if (msg.sender == owner) {}").unwrap();
    outln!(
        "{}",
        cpg::dot::to_dot_filtered(&cpg.graph, |k| k != cpg::NodeKind::TranslationUnit)
    );
}

fn figure5() {
    outln!("== Figure 5 — similar snippets, similar fingerprints ==");
    let unsafe_src = "contract Unsafe { function unsafeWithdraw(uint value) { \
                      msg.sender.transfer(value); } }";
    let safe_src = "contract Unsafe { function unsafeWithdraw(uint value) { \
                    msg.sender.transfer(value); } \
                    address deployer; constructor() { deployer = msg.sender; } }";
    let a = ccd::CloneDetector::fingerprint_source(unsafe_src).unwrap();
    let b = ccd::CloneDetector::fingerprint_source(safe_src).unwrap();
    outln!("without constructor: {a}");
    outln!("with constructor:    {b}");
    outln!(
        "shared sub-fingerprints: {:?}",
        a.sub_fingerprints()
            .into_iter()
            .filter(|s| b.sub_fingerprints().contains(s))
            .collect::<Vec<_>>()
    );
    outln!(
        "order-independent similarity: ε(small→large) = {:.1}, ε(large→small) = {:.1}",
        ccd::order_independent_similarity(&a, &b),
        ccd::order_independent_similarity(&b, &a)
    );
    outln!("(the added constructor only appends a piece; the withdraw piece is untouched)\n");
}

// ===== Tables 4–8: the study ==================================================

fn study_tables(scale: f64, whats: &[String], run_all: bool) {
    let wants = |name: &str| run_all || whats.iter().any(|w| w == name);
    eprintln!("[study] generating corpora at scale {scale}...");
    let qa = bench::qa(scale);
    let contracts = bench::sanctuary(&qa, scale);
    eprintln!(
        "[study] {} posts, {} snippets, {} contracts",
        qa.posts.len(),
        qa.snippets.len(),
        contracts.contracts.len()
    );
    let funnel = run_funnel(&qa);

    if wants("table4") || wants("study") {
        let mut table = Table::new("Table 4 — Solidity code snippet funnel")
            .header(&["Q&A Website", "Posts", "Snippets", "Solidity", "Parsable", "Unique"]);
        for row in &funnel.stats.rows {
            table.row(vec![
                row.site.map(|s| s.name().to_string()).unwrap_or_else(|| "Total".into()),
                row.posts.to_string(),
                row.snippets.to_string(),
                row.solidity.to_string(),
                row.parsable.to_string(),
                row.unique.to_string(),
            ]);
        }
        outln!("{}", table.render());
        let total = funnel.stats.rows.last().unwrap();
        outln!(
            "standard grammar parses {} snippets; the modified grammar {} (+{})",
            funnel.stats.standard_parsable,
            total.parsable,
            total.parsable - funnel.stats.standard_parsable
        );
        let (min, median, mean, max) = funnel.stats.loc;
        outln!("snippet LoC: min {min}, median {median}, mean {mean:.1}, max {max}");
        let level = |l: solidity::SnippetLevel| {
            *funnel.stats.levels.get(&l).unwrap_or(&0) as f64
                / funnel.stats.levels.values().sum::<usize>().max(1) as f64
        };
        outln!(
            "parsed levels: {:.1}% contracts, {:.1}% functions, {:.1}% statements\n",
            level(solidity::SnippetLevel::Contract) * 100.0,
            level(solidity::SnippetLevel::Function) * 100.0,
            level(solidity::SnippetLevel::Statement) * 100.0
        );
    }

    eprintln!("[study] running the experiment pipeline...");
    let result = run_study(&qa, &contracts, &funnel.unique, StudyConfig::default());

    if wants("table5") || wants("study") {
        let dedup = dedup_contracts(&contracts);
        let ads = adoptions(&qa, &contracts, &result.mapping, &dedup);
        let rows = correlations(&ads);
        let mut table = Table::new("Table 5 — Spearman correlation of views and containing contracts")
            .header(&["Temporal Category", "Sample Size", "rho", "p-value"]);
        for row in rows {
            let (rho, p) = row
                .result
                .map(|r| (f3(r.rho), format!("{:.3}", r.p_value)))
                .unwrap_or_else(|| ("-".into(), "-".into()));
            table.row(vec![row.group.name().to_string(), row.n.to_string(), rho, p]);
        }
        outln!("{}", table.render());
    }

    if wants("table6") || wants("study") {
        let mut table = Table::new("Table 6 — DASP Top 10 across snippets and contracts")
            .header(&["Vulnerability Category", "Snippets", "Contracts"]);
        for category in Dasp::ALL {
            let (snippets, contracts_n) =
                result.dasp_distribution.get(category).copied().unwrap_or((0, 0));
            table.row(vec![
                category.name().to_string(),
                snippets.to_string(),
                contracts_n.to_string(),
            ]);
        }
        outln!("{}", table.render());
    }

    if wants("table7") || wants("study") {
        let mut table = Table::new("Table 7 — identified vulnerable snippets and contracts")
            .header(&["Analysis Step", "Disseminator (Source)"]);
        table.row(vec!["Snippets — Unique".into(), result.unique_snippets.to_string()]);
        table.row(vec!["Snippets — Vulnerable".into(), result.vulnerable_snippets.to_string()]);
        table.row(vec![
            "Snippets — Contained in contracts".into(),
            result.contained_in_contracts.to_string(),
        ]);
        table.row(vec![
            "Snippets — Posted before deployment".into(),
            format!("{} ({})", result.posted_before_deployment, result.source_snippets),
        ]);
        table.row(vec![
            "Contracts — Containing vulnerable snippets".into(),
            format!("{} ({})", result.contracts_containing, result.contracts_containing_source),
        ]);
        table.row(vec![
            "Contracts — Unique".into(),
            format!("{} ({})", result.unique_contracts, result.unique_contracts_source),
        ]);
        table.row(vec![
            "Validation — Analyzed (phase 1 -> total)".into(),
            format!("{} -> {}", result.analyzed_phase1, result.analyzed_total),
        ]);
        table.row(vec![
            "Validation — Vulnerable contracts".into(),
            format!("{} ({})", result.vulnerable_contracts, result.vulnerable_contracts_source),
        ]);
        table.row(vec![
            "Validation — Vulnerable (phase 1 only)".into(),
            result.vulnerable_contracts_phase1.to_string(),
        ]);
        table.row(vec![
            "Validation — Vuln. snippets in vuln. contracts".into(),
            format!(
                "{} ({})",
                result.snippets_in_vulnerable_contracts,
                result.snippets_in_vulnerable_contracts_source
            ),
        ]);
        outln!("{}", table.render());
    }

    if wants("table8") || wants("study") {
        let grid = run_audit(&result, &qa, &contracts, 10, 7);
        let mut table = Table::new("Table 8 — manual validation (oracle audit)")
            .header(&["", "Snippet", "Contract TP", "Contract FP"]);
        for (clone_label, clone_flag) in [("True clones", true), ("False clones", false)] {
            for (snippet_label, snippet_flag) in [("TP", true), ("FP", false)] {
                table.row(vec![
                    if snippet_flag { clone_label.to_string() } else { String::new() },
                    snippet_label.to_string(),
                    grid.cell(clone_flag, snippet_flag, true).to_string(),
                    grid.cell(clone_flag, snippet_flag, false).to_string(),
                ]);
            }
        }
        outln!("{}", table.render());
        outln!(
            "sample size {}; fully confirmed pairings: {}\n",
            grid.sample_size,
            grid.fully_confirmed()
        );
    }
}
