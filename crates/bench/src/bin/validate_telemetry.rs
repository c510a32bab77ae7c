//! Validate a telemetry run report (`BENCH_run.json`).
//!
//! ```text
//! cargo run --release -p bench --bin validate_telemetry -- BENCH_run.json
//! ```
//!
//! Checks, against the schema emitted by `telemetry::Snapshot::to_json`:
//!
//! 1. the document parses and carries schema `version` 2,
//! 2. every one of the 17 CCC detectors ([`ccc::QueryId::ALL`]) has a
//!    non-empty stage histogram `stage_duration_ns|stage={QueryId:?}`,
//! 3. the CCD sweep score-cache and banded edit-distance pruning counters
//!    are present.
//!
//! Exits non-zero with a message on the first violation; used by `ci.sh`
//! as the telemetry smoke check.

use ccc::QueryId;
use telemetry::json::{parse, Value};

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_run.json".to_string());
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|error| fail(&format!("cannot read {path}: {error}")));
    let doc = parse(&text).unwrap_or_else(|error| fail(&format!("{path} is not JSON: {error}")));

    if doc.get("version").and_then(Value::as_f64) != Some(2.0) {
        fail(&format!("{path}: missing or unexpected schema version"));
    }

    let histograms: Vec<(&str, f64)> = doc
        .get("histograms")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail(&format!("{path}: no histograms array")))
        .iter()
        .filter_map(|h| Some((h.get("name")?.as_str()?, h.get("count")?.as_f64()?)))
        .collect();
    for query in QueryId::ALL {
        let name = telemetry::stage_metric(query.name());
        if !histograms.iter().any(|&(n, count)| n == name && count > 0.0) {
            fail(&format!("{path}: no stage histogram for detector {query:?} ({name})"));
        }
    }

    let counter_names: Vec<&str> = doc
        .get("counters")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail(&format!("{path}: no counters array")))
        .iter()
        .filter_map(|c| c.get("name").and_then(Value::as_str))
        .collect();
    for required in [
        "ccd.sweep.score_cache.hits",
        "ccd.sweep.score_cache.misses",
        "fuzzyhash.dp.completed",
    ] {
        if !counter_names.contains(&required) {
            fail(&format!("{path}: missing counter {required}"));
        }
    }
    // Which prune exit fires depends on the corpus; at least one must.
    if !counter_names.iter().any(|n| n.starts_with("fuzzyhash.prune.")) {
        fail(&format!("{path}: no fuzzyhash.prune.* counter recorded"));
    }

    println!(
        "{path}: ok — {} histograms ({} detector stages), {} counters",
        histograms.len(),
        QueryId::ALL.len(),
        counter_names.len()
    );
}

fn fail(message: &str) -> ! {
    eprintln!("validate_telemetry: {message}");
    std::process::exit(1);
}
