//! CCC benchmarks: the analysis cost behind Tables 1 and 2.
//!
//! * `ccc/curated_file` — full 17-query analysis of one curated file
//!   (the Table 1 workload, per file).
//! * `ccc/snippet_levels/*` — the same instance analyzed at contract,
//!   function and statement level (the Table 2 workload).
//! * `ccc/single_query/*` — per-query cost on a reentrancy contract.
//! * `ccc/path_reduction` — bounded-path analysis (the phase-2 validation
//!   mode of §6.3) vs unbounded.

use ccc::{Checker, QueryId};
use cpg::Cpg;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const DAO: &str = "contract Dao { mapping(address => uint) balances; \
    function deposit() public payable { balances[msg.sender] += msg.value; } \
    function withdraw() public { uint amount = balances[msg.sender]; \
    msg.sender.call{value: amount}(\"\"); balances[msg.sender] = 0; } }";

fn bench_curated_file(c: &mut Criterion) {
    let dataset = bench::curated();
    let file = dataset
        .files
        .iter()
        .find(|f| f.category == ccc::Dasp::Reentrancy)
        .expect("reentrancy files exist");
    let source = file.source();
    let checker = Checker::new();
    c.bench_function("ccc/curated_file", |b| {
        b.iter(|| black_box(checker.check_snippet(black_box(&source)).unwrap()))
    });
}

fn bench_snippet_levels(c: &mut Criterion) {
    let dataset = bench::curated();
    let functions = corpus::smartbugs::derive_functions(&dataset);
    let statements = corpus::smartbugs::derive_statements(&dataset);
    let checker = Checker::new();
    let mut group = c.benchmark_group("ccc/snippet_levels");
    for (name, ds) in [
        ("contract", &dataset),
        ("function", &functions),
        ("statement", &statements),
    ] {
        let source = ds.files[0].source();
        group.bench_function(name, |b| {
            b.iter(|| black_box(checker.check_snippet(black_box(&source)).unwrap()))
        });
    }
    group.finish();
}

fn bench_single_queries(c: &mut Criterion) {
    let cpg = Cpg::from_snippet(DAO).unwrap();
    let mut group = c.benchmark_group("ccc/single_query");
    for query in [
        QueryId::Reentrancy,
        QueryId::ArithmeticOverflow,
        QueryId::UncheckedCall,
        QueryId::AcUnrestrictedWrite,
    ] {
        let checker = Checker::with_queries(&[query]);
        group.bench_function(format!("{query:?}"), |b| {
            b.iter(|| black_box(checker.check(black_box(&cpg))))
        });
    }
    group.finish();
}

fn bench_path_reduction(c: &mut Criterion) {
    // A deep data-flow chain: the workload where the paper's phase-2 path
    // reduction (§6.3) pays off.
    let mut body = String::from("a0 = msg.value;\n");
    for i in 1..60 {
        body.push_str(&format!("a{i} = a{} + 1;\n", i - 1));
    }
    body.push_str("total = a59;\n");
    let source = format!("contract Deep {{ uint total; function f() public payable {{ {body} }} }}");
    let cpg = Cpg::from_snippet(&source).unwrap();
    let mut group = c.benchmark_group("ccc/path_reduction");
    group.bench_function("unbounded", |b| {
        let checker = Checker::new();
        b.iter(|| black_box(checker.check(black_box(&cpg))))
    });
    group.bench_function("bounded_12", |b| {
        let checker = Checker::new().bounded(12);
        b.iter(|| black_box(checker.check(black_box(&cpg))))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_curated_file,
    bench_snippet_levels,
    bench_single_queries,
    bench_path_reduction
);
criterion_main!(benches);
