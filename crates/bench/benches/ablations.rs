//! Ablation benches for the design decisions called out in DESIGN.md §4.
//!
//! * `ablation/ngram_filter` — η-filtered matching vs scoring every
//!   document (the "Execution Time" challenge of §5.5). Both sides run
//!   the same memoized Algorithm 1 (δ once per distinct sub-fingerprint),
//!   so the gap isolates the η filter.
//! * `ablation/order_independent` — Algorithm 1 vs naive whole-string
//!   edit distance when function order is swapped (the "Code Order"
//!   challenge of §5.5). This one measures *quality*, reported via
//!   iter-time of the two strategies plus an assertion that only
//!   Algorithm 1 scores the swapped contract as a clone.
//! * `ablation/tokenwise_hash` — token-by-token fuzzy hashing (context
//!   enforcement, §5.4) vs hashing the concatenated byte stream.

use ccd::{order_independent_similarity, CcdParams, CloneDetector};
use criterion::{criterion_group, criterion_main, Criterion};
use fuzzyhash::{similarity, FuzzyHasher};
use std::hint::black_box;

fn bench_ngram_filter(c: &mut Criterion) {
    let ds = bench::honeypots();
    let mut detector = CloneDetector::new(CcdParams::best());
    for hp in &ds.contracts {
        detector.insert_source(hp.id, &hp.source);
    }
    let query = CloneDetector::fingerprint_source(&ds.contracts[0].source).unwrap();
    let mut group = c.benchmark_group("ablation/ngram_filter");
    group.bench_function("filtered", |b| {
        b.iter(|| black_box(detector.matches(black_box(&query))))
    });
    group.bench_function("bruteforce", |b| {
        b.iter(|| black_box(detector.matches_bruteforce(black_box(&query))))
    });
    group.finish();
}

fn bench_order_independence(c: &mut Criterion) {
    let a = CloneDetector::fingerprint_source(
        "contract C { function f() { x = 1; y = x + 2; } function g() { require(msg.sender == owner); owner = next; } }",
    )
    .unwrap();
    let b_swapped = CloneDetector::fingerprint_source(
        "contract C { function g() { require(msg.sender == owner); owner = next; } function f() { x = 1; y = x + 2; } }",
    )
    .unwrap();
    // Quality assertion: Algorithm 1 is order-independent, the naive
    // whole-string distance is not.
    assert_eq!(order_independent_similarity(&a, &b_swapped), 100.0);
    assert!(similarity(a.as_str(), b_swapped.as_str()) < 100.0);

    let mut group = c.benchmark_group("ablation/order_independent");
    group.bench_function("algorithm1", |bench| {
        bench.iter(|| black_box(order_independent_similarity(black_box(&a), black_box(&b_swapped))))
    });
    group.bench_function("whole_string", |bench| {
        bench.iter(|| black_box(similarity(black_box(a.as_str()), black_box(b_swapped.as_str()))))
    });
    group.finish();
}

fn bench_tokenwise_hash(c: &mut Criterion) {
    let tokens: Vec<String> = (0..400).map(|i| format!("tok{}", i % 31)).collect();
    let joined = tokens.join("");
    let mut group = c.benchmark_group("ablation/tokenwise_hash");
    group.bench_function("tokenwise", |b| {
        b.iter(|| {
            let mut hasher = FuzzyHasher::new(4);
            for token in &tokens {
                hasher.update_token(token);
            }
            black_box(hasher.finish())
        })
    });
    group.bench_function("bytewise", |b| {
        b.iter(|| {
            let mut hasher = FuzzyHasher::new(4);
            hasher.update_bytes(joined.as_bytes());
            black_box(hasher.finish())
        })
    });
    group.finish();
}

fn bench_modifier_expansion(c: &mut Criterion) {
    // §4.2.2 ablation: CPG construction with and without modifier
    // expansion (the copies are the cost; guard visibility is the payoff,
    // asserted in ccc's ablation test).
    let src = "contract C { address owner;                modifier onlyOwner() { require(msg.sender == owner); _; }                constructor() { owner = msg.sender; }                function a() public onlyOwner() { x = 1; }                function b() public onlyOwner() { y = 2; }                function kill() public onlyOwner() { selfdestruct(owner); } }";
    let unit = solidity::parse_snippet(src).unwrap();
    let mut group = c.benchmark_group("ablation/modifier_expansion");
    group.bench_function("expanded", |b| {
        b.iter(|| {
            black_box(cpg::Cpg::from_unit_with(
                black_box(&unit),
                cpg::BuildOptions { expand_modifiers: true },
            ))
        })
    });
    group.bench_function("unexpanded", |b| {
        b.iter(|| {
            black_box(cpg::Cpg::from_unit_with(
                black_box(&unit),
                cpg::BuildOptions { expand_modifiers: false },
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ngram_filter,
    bench_order_independence,
    bench_tokenwise_hash,
    bench_modifier_expansion
);
criterion_main!(benches);
