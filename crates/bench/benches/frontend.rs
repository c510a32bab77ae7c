//! Front-end benchmarks: parsing and CPG construction throughput — the
//! per-contract cost floor of the §6 validation pipeline.
//!
//! Besides the Criterion micro-benches (lex / parse / cpg_build /
//! graphquery), this bench measures a full **frontend pass** — parse +
//! CPG build over the curated and honeypot corpora — and gates it through
//! the trajectory ledger ([`telemetry::trajectory`]): the pass must keep
//! at least 80% of the last `interned` point's throughput in
//! `BENCH_trajectory.json`, and a miss is re-measured once. A passing run
//! appends an `interned` point; `cargo bench -p bench --bench frontend --
//! --no-append` gates and measures only, as `ci.sh` does.

use cpg::Cpg;
use criterion::{criterion_group, Criterion};
use std::convert::Infallible;
use std::hint::black_box;
use telemetry::json::Value;
use telemetry::trajectory;

fn sample_contract() -> String {
    bench::curated().files[0].source()
}

fn bench_lex(c: &mut Criterion) {
    let source = sample_contract();
    c.bench_function("frontend/lex", |b| {
        b.iter(|| black_box(solidity::lexer::lex(black_box(&source)).unwrap()))
    });
}

fn bench_parse(c: &mut Criterion) {
    let source = sample_contract();
    let mut group = c.benchmark_group("frontend/parse");
    group.bench_function("snippet_grammar", |b| {
        b.iter(|| black_box(solidity::parse_snippet(black_box(&source)).unwrap()))
    });
    group.bench_function("standard_grammar", |b| {
        b.iter(|| black_box(solidity::parse_source(black_box(&source))))
    });
    group.finish();
}

fn bench_cpg_build(c: &mut Criterion) {
    let source = sample_contract();
    let unit = solidity::parse_snippet(&source).unwrap();
    c.bench_function("frontend/cpg_build", |b| {
        b.iter(|| black_box(Cpg::from_unit(black_box(&unit))))
    });
}

fn bench_query_engine(c: &mut Criterion) {
    let cpg = Cpg::from_snippet(
        "contract C { uint total; function add(uint amount) public { total += amount; } }",
    )
    .unwrap();
    let query = graphquery::parse_query(
        "MATCH (p:ParamVariableDeclaration)-[:DFG*]->(f:FieldDeclaration) RETURN p",
    )
    .unwrap();
    c.bench_function("frontend/graphquery", |b| {
        b.iter(|| {
            let source = graphquery::CpgSource::new(&cpg.graph);
            black_box(graphquery::run_var(black_box(&query), &source, "p"))
        })
    });
}

/// The frontend-pass corpus: every curated file plus the first 100
/// honeypots — a mix of full contracts and injected-technique variants.
fn pass_corpus() -> Vec<String> {
    let mut sources: Vec<String> =
        bench::curated().files.iter().map(|f| f.source()).collect();
    sources.extend(bench::honeypots().contracts.iter().take(100).map(|c| c.source.clone()));
    sources
}

/// One full frontend pass: parse + CPG build for every source. Returns the
/// total node count as an optimization barrier.
fn frontend_pass(sources: &[String]) -> usize {
    let mut nodes = 0usize;
    for src in sources {
        let unit = solidity::parse_snippet(src).expect("corpus source parses");
        let cpg = Cpg::from_unit(&unit);
        nodes += cpg.graph.node_count();
    }
    nodes
}

/// The frontend pass gate: best-of-5 throughput against the last
/// `interned` point, at least 80% of it, re-measured once on a miss. A
/// pass records a point.
fn gate_frontend_pass() {
    let path = trajectory::DEFAULT_PATH;
    let sources = pass_corpus();
    let bytes: usize = sources.iter().map(String::len).sum();
    let recorded = trajectory::last_point(path, |p| {
        trajectory::bench_of(p) == Some("frontend")
            && p.get("stage").and_then(Value::as_str) == Some("interned")
    })
    .and_then(|p| p.get("mb_per_s")?.as_f64());
    let measure = || {
        let pass_ns = bench::best_of_ns(5, || frontend_pass(&sources));
        let mb_per_s = bytes as f64 / 1e6 / (pass_ns as f64 / 1e9);
        println!(
            "frontend/pass: {} sources, {bytes} bytes, {pass_ns} ns, {mb_per_s:.2} MB/s",
            sources.len()
        );
        Ok::<_, Infallible>((pass_ns, mb_per_s))
    };
    let Ok(((pass_ns, mb_per_s), passed)) =
        trajectory::gated(measure, |&(_, mb_per_s)| recorded.is_none_or(|r| mb_per_s >= 0.8 * r));
    let verdict = match recorded {
        Some(recorded) => format!("{mb_per_s:.2} MB/s vs recorded {recorded:.2} MB/s"),
        None => format!("{mb_per_s:.2} MB/s, no recorded interned point in {path}"),
    };
    if !passed {
        eprintln!("frontend throughput regressed >20%: {verdict}");
        std::process::exit(1);
    }
    println!("frontend gate ok: {verdict}");
    bench::record(&[format!(
        "{{\"bench\": \"frontend\", \"stage\": \"interned\", \"sources\": {}, \"bytes\": {bytes}, \"pass_ns\": {pass_ns}, \"mb_per_s\": {mb_per_s:.2}}}",
        sources.len()
    )]);
}

criterion_group!(benches, bench_lex, bench_parse, bench_cpg_build, bench_query_engine);

fn main() {
    benches();
    gate_frontend_pass();
}
