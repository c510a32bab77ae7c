//! Run reports: freeze the global telemetry state into a [`Snapshot`]
//! and render it as a stable JSON document.
//!
//! The JSON schema (version 2) is the machine-readable interface every
//! bench/CI consumer reads (`BENCH_run.json`):
//!
//! ```json
//! {
//!   "version": 2,
//!   "counters":   [{"name": "ccd.fingerprints", "value": 3}],
//!   "gauges":     [{"name": "par.workers", "value": 8}],
//!   "histograms": [{"name": "stage_duration_ns|stage=parse", "count": 8, "sum": 64,
//!                   "layout": "pow2", "buckets": [...]}]
//! }
//! ```
//!
//! Stage timings are the `stage_duration_ns|stage=<name>` histograms
//! (see [`crate::Stage`]); version 1 also carried a `spans` array.
//! All lists are sorted by name (the backing maps are `BTreeMap`s), so
//! two runs over the same corpus produce structurally identical
//! documents modulo timing values.

use crate::json::escape;
use crate::metrics::{registry, BucketLayout, HistogramCore};
use std::sync::atomic::Ordering;

/// Frozen state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramStat {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Bucket mapping (see [`BucketLayout`]).
    pub layout: BucketLayout,
    /// `layout.bucket_count()` buckets.
    pub buckets: Vec<u64>,
}

/// A frozen copy of the telemetry state: counters, gauges and
/// histograms, each sorted by name. Zero-valued counters/gauges and empty
/// histograms are omitted, so a [`reset`] registry snapshots as empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramStat>,
}

impl Snapshot {
    /// Value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// A histogram by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramStat> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Render the stable JSON document (schema version 2).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"version\": 2,\n  \"counters\": [");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {{\"name\": \"{}\", \"value\": {value}}}", escape(name)));
        }
        out.push_str("\n  ],\n  \"gauges\": [");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {{\"name\": \"{}\", \"value\": {value}}}", escape(name)));
        }
        out.push_str("\n  ],\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \"layout\": \"{}\", \"buckets\": [{}]}}",
                escape(&h.name),
                h.count,
                h.sum,
                h.layout.name(),
                buckets.join(", ")
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Freeze the current telemetry state. Can be taken while disabled (it
/// reads whatever was recorded before the switch-off).
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let counters: Vec<(String, u64)> = lock_map(&reg.counters)
        .iter()
        .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
        .filter(|(_, v)| *v > 0)
        .collect();
    let gauges: Vec<(String, u64)> = lock_map(&reg.gauges)
        .iter()
        .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
        .filter(|(_, v)| *v > 0)
        .collect();
    let histograms: Vec<HistogramStat> = lock_map(&reg.histograms)
        .iter()
        .map(|(n, h)| freeze_histogram(n, h))
        .filter(|h| h.count > 0)
        .collect();
    Snapshot { counters, gauges, histograms }
}

fn lock_map<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn freeze_histogram(name: &str, h: &HistogramCore) -> HistogramStat {
    let buckets: Vec<u64> = h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
    HistogramStat {
        name: name.to_string(),
        count: h.count.load(Ordering::Relaxed),
        sum: h.sum.load(Ordering::Relaxed),
        layout: h.layout,
        buckets,
    }
}

/// Zero every metric. Metric cells are zeroed in place (handles cache
/// `&'static` pointers into the registry, which must stay valid), so the
/// registry keys survive but snapshot as empty until touched again.
pub fn reset() {
    let reg = registry();
    for cell in lock_map(&reg.counters).values() {
        cell.store(0, Ordering::Relaxed);
    }
    for cell in lock_map(&reg.gauges).values() {
        cell.store(0, Ordering::Relaxed);
    }
    for h in lock_map(&reg.histograms).values() {
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        for bucket in h.buckets.iter() {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn json_roundtrips_through_the_parser() {
        let _guard = crate::test_lock::hold();
        crate::reset();
        crate::enable();
        static COUNTER: crate::Counter = crate::Counter::new("report.test.counter");
        static HIST: crate::Histogram = crate::Histogram::new("report.test.hist");
        COUNTER.add(7);
        crate::gauge_set("report.test.gauge", 9);
        HIST.observe(140);
        static QUOTED: crate::Stage = crate::Stage::new("report.test/phase \"quoted\"");
        drop(QUOTED.enter());
        let snap = snapshot();
        let doc = parse(&snap.to_json()).expect("emitted JSON parses");
        let Value::Object(root) = &doc else { panic!("not an object: {doc:?}") };
        assert_eq!(root.get("version"), Some(&Value::Number(2.0)));
        assert!(root.get("spans").is_none(), "schema 2 has no spans array");
        let Some(Value::Array(counters)) = root.get("counters") else {
            panic!("no counters array")
        };
        assert!(counters.iter().any(|c| {
            matches!(c, Value::Object(o)
                if o.get("name") == Some(&Value::String("report.test.counter".into()))
                && o.get("value") == Some(&Value::Number(7.0)))
        }));
        let Some(Value::Array(hists)) = root.get("histograms") else {
            panic!("no histograms array")
        };
        assert!(hists.iter().any(|h| {
            matches!(h, Value::Object(o)
                if o.get("sum") == Some(&Value::Number(140.0)))
        }));
        let stage = crate::stage_metric("report.test/phase \"quoted\"");
        assert!(hists.iter().any(|h| {
            matches!(h, Value::Object(o)
                if o.get("name") == Some(&Value::String(stage.clone()))
                && o.get("count") == Some(&Value::Number(1.0)))
        }));
        crate::disable();
    }

    #[test]
    fn reset_keeps_cached_handles_alive() {
        let _guard = crate::test_lock::hold();
        crate::reset();
        crate::enable();
        static C: crate::Counter = crate::Counter::new("report.test.reset");
        C.add(5);
        assert_eq!(snapshot().counter("report.test.reset"), Some(5));
        reset();
        assert!(snapshot().counter("report.test.reset").is_none());
        // The cached &'static cell must still be wired to the registry.
        C.add(2);
        assert_eq!(snapshot().counter("report.test.reset"), Some(2));
        crate::disable();
    }
}
