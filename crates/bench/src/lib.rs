//! Shared dataset builders for the benchmark harness: every table/figure
//! generator and every Criterion bench builds its inputs through these, so
//! the numbers in EXPERIMENTS.md and the bench results come from the same
//! corpora.


#![warn(missing_docs)]

use corpus::contracts::{generate_contracts, ContractCorpus, SanctuaryConfig};
use corpus::honeypots::{honeypot_dataset, HoneypotDataset};
use corpus::qa::{generate_qa, QaConfig, QaCorpus};
use corpus::smartbugs::{smartbugs_curated, CuratedDataset};

pub use corpus::honeypots::HONEYPOT_SEED;

/// The fixed seeds of the recorded experiment run.
pub const QA_SEED: u64 = 0x50DD;
/// Seed of the contract corpus.
pub const SANCTUARY_SEED: u64 = 0xC0DE;
/// Seed of the curated dataset.
pub const CURATED_SEED: u64 = 2024;

/// Default study scale for the recorded run: 5% of the paper's corpus
/// (≈2,000 snippets, ≈8,000 contracts) — large enough for stable shapes,
/// small enough for minutes-scale reruns.
pub const DEFAULT_SCALE: f64 = 0.05;

/// Build the Q&A corpus at a scale.
pub fn qa(scale: f64) -> QaCorpus {
    generate_qa(QaConfig { seed: QA_SEED, scale })
}

/// Build the deployed-contract corpus at a scale (kept at a quarter of the
/// snippet scale so contract analysis stays tractable).
pub fn sanctuary(qa: &QaCorpus, scale: f64) -> ContractCorpus {
    generate_contracts(
        SanctuaryConfig {
            seed: SANCTUARY_SEED,
            scale: scale / 4.0,
            ..SanctuaryConfig::default()
        },
        qa,
    )
}

/// Build the SmartBugs-Curated analog.
pub fn curated() -> CuratedDataset {
    smartbugs_curated(CURATED_SEED)
}

/// Build the honeypot dataset.
pub fn honeypots() -> HoneypotDataset {
    honeypot_dataset(HONEYPOT_SEED)
}

/// Best-of-`runs` wall-clock nanoseconds of one call of `routine`, after
/// one untimed warm-up call.
pub fn best_of_ns<O>(runs: usize, mut routine: impl FnMut() -> O) -> u64 {
    std::hint::black_box(routine());
    (0..runs)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(routine());
            start.elapsed().as_nanos() as u64
        })
        .min()
        .expect("at least one timed run")
}

/// Append `points` to the workspace's trajectory unless `--no-append`
/// follows `--` on the `cargo bench` line (measure only). Exits 1 when the
/// file cannot be written, and 2 on any other argument but `--bench`,
/// which cargo passes to every bench.
pub fn record(points: &[String]) {
    let args: Vec<String> = std::env::args().skip(1).filter(|arg| arg != "--bench").collect();
    match args.as_slice() {
        [] => {}
        [flag] if flag == "--no-append" => return,
        _ => {
            eprintln!("usage: cargo bench -p bench --bench <name> [-- --no-append]");
            std::process::exit(2)
        }
    }
    let path = telemetry::trajectory::DEFAULT_PATH;
    for point in points {
        if let Err(e) = telemetry::trajectory::append_point(path, point) {
            eprintln!("cannot append to {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("appended {} point(s) to {path}", points.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_are_consistent() {
        let qa1 = qa(0.005);
        let qa2 = qa(0.005);
        assert_eq!(qa1.snippets.len(), qa2.snippets.len());
        assert_eq!(curated().files.len(), 140);
        assert_eq!(honeypots().contracts.len(), 379);
    }
}
