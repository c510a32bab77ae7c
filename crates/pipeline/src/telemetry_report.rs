//! Render a [`telemetry::Snapshot`] as plain-text tables.
//!
//! The human-readable counterpart of the JSON run report: the `tables`
//! binary appends these tables to its output when `--telemetry` is on
//! (the JSON goes to `BENCH_run.json`, see `telemetry::Snapshot::to_json`).

use crate::report::Table;
use telemetry::Snapshot;

/// Render the counter, gauge and histogram tables of a snapshot (stage
/// timings are the `stage_duration_ns|stage=<name>` histograms).
/// Sections with no entries are omitted; an entirely empty snapshot
/// renders a single explanatory line instead.
pub fn render(snapshot: &Snapshot) -> String {
    if snapshot.is_empty() {
        return "== Telemetry ==\n(no telemetry recorded; set TELEMETRY=1 or pass --telemetry)\n"
            .to_string();
    }
    let mut out = String::new();
    if !snapshot.counters.is_empty() {
        let mut table = Table::new("Telemetry: counters").header(&["name", "value"]);
        for (name, value) in &snapshot.counters {
            table.row(vec![name.clone(), value.to_string()]);
        }
        out.push_str(&table.render());
    }
    if !snapshot.gauges.is_empty() {
        let mut table = Table::new("Telemetry: gauges").header(&["name", "value"]);
        for (name, value) in &snapshot.gauges {
            table.row(vec![name.clone(), value.to_string()]);
        }
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&table.render());
    }
    if !snapshot.histograms.is_empty() {
        let mut table = Table::new("Telemetry: histograms").header(&[
            "name",
            "count",
            "sum",
            "mean",
            "p50≤",
            "max≤",
        ]);
        for hist in &snapshot.histograms {
            let mean = if hist.count == 0 {
                0.0
            } else {
                hist.sum as f64 / hist.count as f64
            };
            table.row(vec![
                hist.name.clone(),
                hist.count.to_string(),
                hist.sum.to_string(),
                format!("{mean:.1}"),
                bucket_bound(hist.layout, &hist.buckets, hist.count.div_ceil(2)),
                bucket_bound(hist.layout, &hist.buckets, hist.count),
            ]);
        }
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&table.render());
    }
    out
}

/// Inclusive upper bound of the bucket holding the `rank`-th observation
/// (1-based), under the histogram's own bucket layout.
fn bucket_bound(layout: telemetry::BucketLayout, buckets: &[u64], rank: u64) -> String {
    let mut seen = 0u64;
    for (i, n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank.max(1) {
            return match layout.upper_bound(i) {
                Some(upper) => upper.to_string(),
                None => "∞".to_string(),
            };
        }
    }
    "∞".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::HistogramStat;

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![("ccd.fingerprints".into(), 12)],
            gauges: vec![("par.workers".into(), 8)],
            histograms: vec![HistogramStat {
                name: "par.tasks_per_worker".into(),
                count: 2,
                sum: 10,
                layout: telemetry::BucketLayout::Pow2,
                buckets: {
                    let mut b = vec![0u64; 32];
                    b[3] = 2; // two observations in [4, 7]
                    b
                },
            }],
        }
    }

    #[test]
    fn renders_all_sections() {
        let text = render(&sample());
        assert!(text.contains("== Telemetry: counters =="));
        assert!(text.contains("ccd.fingerprints"));
        assert!(text.contains("== Telemetry: gauges =="));
        assert!(text.contains("== Telemetry: histograms =="));
        assert!(text.contains("par.tasks_per_worker"));
    }

    #[test]
    fn histogram_percentiles_use_bucket_bounds() {
        let text = render(&sample());
        // Both observations sit in bucket 3 → p50 and max report bound 7.
        let row = text.lines().find(|l| l.contains("par.tasks_per_worker")).unwrap();
        assert!(row.contains('7'), "row: {row}");
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let text = render(&Snapshot::default());
        assert!(text.contains("no telemetry recorded"));
    }
}
