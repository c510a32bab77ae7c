//! Sweep-once vs per-cell grid evaluation (the Table 9 workload).
//!
//! * `sweep/per_cell/{size}` — the reference path: rebuild the full
//!   detector for each of the 75 grid cells.
//! * `sweep/sweep_once/{size}` — the `SweepEngine` path: fingerprint
//!   once, one index per N, one score per pair, ε by re-thresholding.
//!
//! The run then times both paths once more (best of three after a warm-up)
//! and appends their speedup at each size as a `sweep_reuse` point to
//! `BENCH_trajectory.json`; `cargo bench -p bench --bench sweep_reuse --
//! --no-append` measures only.

use ccd::{evaluate_reference, parameter_grid, sweep, LabelledCorpus};
use criterion::{BenchmarkId, Criterion};
use std::hint::black_box;

fn honeypot_corpus(n: usize) -> LabelledCorpus {
    let ds = bench::honeypots();
    let mut corpus = LabelledCorpus::default();
    for hp in ds.contracts.iter().take(n) {
        corpus.add_document(hp.id, hp.source.clone());
    }
    for (i, a) in ds.contracts.iter().take(n).enumerate() {
        for b in ds.contracts.iter().take(n).skip(i + 1) {
            if a.ty == b.ty {
                corpus.add_clone_pair(a.id, b.id);
            }
        }
    }
    corpus
}

fn bench_sweep_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep");
    for size in [20usize, 40] {
        let corpus = honeypot_corpus(size);
        group.bench_with_input(
            BenchmarkId::new("per_cell", size),
            &corpus,
            |b, corpus| {
                b.iter(|| {
                    let points: Vec<_> = parameter_grid()
                        .into_iter()
                        .map(|p| evaluate_reference(black_box(corpus), p))
                        .collect();
                    black_box(points)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sweep_once", size),
            &corpus,
            |b, corpus| b.iter(|| black_box(sweep(black_box(corpus)))),
        );
    }
    group.finish();
}

/// Measure the per-cell vs sweep-once speedup directly and record it as
/// one `sweep_reuse` point per corpus size. There is no gate.
fn record_speedup() {
    let mut points = Vec::new();
    for size in [20usize, 40] {
        let corpus = honeypot_corpus(size);
        let per_cell_ns = bench::best_of_ns(3, || {
            parameter_grid()
                .into_iter()
                .map(|p| evaluate_reference(black_box(&corpus), p))
                .collect::<Vec<_>>()
        });
        let sweep_once_ns = bench::best_of_ns(3, || sweep(black_box(&corpus)));
        let speedup = per_cell_ns as f64 / sweep_once_ns.max(1) as f64;
        println!("sweep/speedup/{size}: {speedup:.2}x (per_cell {per_cell_ns} ns, sweep_once {sweep_once_ns} ns)");
        points.push(format!(
            "{{\"bench\": \"sweep_reuse\", \"size\": {size}, \"per_cell_ns\": {per_cell_ns}, \"sweep_once_ns\": {sweep_once_ns}, \"speedup\": {speedup:.3}}}"
        ));
    }
    bench::record(&points);
}

fn main() {
    let mut criterion = Criterion::new();
    bench_sweep_reuse(&mut criterion);
    record_speedup();
}
