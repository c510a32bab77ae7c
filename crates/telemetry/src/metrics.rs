//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms with atomic hot paths.
//!
//! Metric cells live in a global registry keyed by name and are leaked
//! (`&'static`) so handles can cache a direct pointer: after the first
//! touch, a [`Counter::add`] is one enabled-check plus one relaxed
//! `fetch_add`. Every recording site holds a `static` handle.
//! [`gauge_set`] pays one registry lock per call and serves only the
//! gauges sampled at scrape time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Number of power-of-two histogram buckets: bucket `i` counts values
/// whose bit length is `i` (bucket 0 counts zeros), i.e. values in
/// `[2^(i-1), 2^i)`. The last bucket absorbs everything larger.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Number of log-linear duration buckets (see [`BucketLayout::DurationUs`]).
pub const DURATION_BUCKETS: usize = 105;

/// How a histogram maps values to buckets.
///
/// The original [`Pow2`](BucketLayout::Pow2) layout doubles bucket width
/// every bucket, which collapses e.g. the whole 16–32ms latency band
/// into one bucket — useless for `/metrics` quantiles. Duration
/// histograms use [`DurationUs`](BucketLayout::DurationUs): microsecond
/// values bucketed linearly below 16, then four sub-buckets per
/// power-of-two octave (a log-linear layout with ≤25% relative bucket
/// width), overflowing past ~67s into the last bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketLayout {
    /// Bucket `i` counts values of bit length `i` ([`HISTOGRAM_BUCKETS`]
    /// buckets).
    Pow2,
    /// Log-linear microsecond buckets ([`DURATION_BUCKETS`] buckets).
    DurationUs,
}

impl BucketLayout {
    /// Number of buckets under this layout.
    pub fn bucket_count(self) -> usize {
        match self {
            BucketLayout::Pow2 => HISTOGRAM_BUCKETS,
            BucketLayout::DurationUs => DURATION_BUCKETS,
        }
    }

    /// Bucket index of `value` under this layout.
    pub fn bucket_of(self, value: u64) -> usize {
        match self {
            BucketLayout::Pow2 => bucket_of(value),
            BucketLayout::DurationUs => duration_bucket_of(value),
        }
    }

    /// Inclusive upper bound of bucket `i`, or `None` for the overflow
    /// bucket (rendered as `+Inf`).
    pub fn upper_bound(self, i: usize) -> Option<u64> {
        match self {
            BucketLayout::Pow2 => {
                if i + 1 < HISTOGRAM_BUCKETS {
                    Some((1u64 << i) - 1)
                } else {
                    None
                }
            }
            BucketLayout::DurationUs => duration_bucket_upper(i),
        }
    }

    /// Stable name used in the JSON report schema.
    pub fn name(self) -> &'static str {
        match self {
            BucketLayout::Pow2 => "pow2",
            BucketLayout::DurationUs => "duration_us",
        }
    }
}

/// The shared cell backing a histogram.
#[derive(Debug)]
pub struct HistogramCore {
    /// Number of observations.
    pub count: AtomicU64,
    /// Sum of observed values.
    pub sum: AtomicU64,
    /// Bucket mapping (fixed at registration).
    pub layout: BucketLayout,
    /// `layout.bucket_count()` buckets.
    pub buckets: Box<[AtomicU64]>,
}

impl HistogramCore {
    fn new(layout: BucketLayout) -> HistogramCore {
        HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            layout,
            buckets: (0..layout.bucket_count()).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[self.layout.bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Pow2 bucket index of a value: its bit length, clamped to the last
/// bucket.
pub fn bucket_of(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Log-linear duration bucket index: values below 16µs get a bucket
/// each; above that, each power-of-two octave `[2^o, 2^(o+1))` splits
/// into 4 equal sub-buckets; values of 2^26 µs (~67s) and beyond land in
/// the overflow bucket.
pub fn duration_bucket_of(value: u64) -> usize {
    if value < 16 {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros() as usize;
    if octave > 25 {
        return DURATION_BUCKETS - 1;
    }
    16 + (octave - 4) * 4 + ((value >> (octave - 2)) & 3) as usize
}

/// Inclusive upper bound of duration bucket `i` in microseconds, or
/// `None` for the overflow bucket.
pub fn duration_bucket_upper(i: usize) -> Option<u64> {
    if i < 16 {
        Some(i as u64)
    } else if i < DURATION_BUCKETS - 1 {
        let octave = 4 + (i - 16) / 4;
        let sub = ((i - 16) % 4) as u64;
        Some(((5 + sub) << (octave - 2)) - 1)
    } else {
        None
    }
}

pub(crate) struct Registry {
    pub(crate) counters: Mutex<BTreeMap<String, &'static AtomicU64>>,
    pub(crate) gauges: Mutex<BTreeMap<String, &'static AtomicU64>>,
    pub(crate) histograms: Mutex<BTreeMap<String, &'static HistogramCore>>,
}

pub(crate) fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn counter_cell(name: &str) -> &'static AtomicU64 {
    let mut map = lock(&registry().counters);
    map.entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))))
}

fn gauge_cell(name: &str) -> &'static AtomicU64 {
    let mut map = lock(&registry().gauges);
    map.entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))))
}

pub(crate) fn histogram_cell(name: &str, layout: BucketLayout) -> &'static HistogramCore {
    let mut map = lock(&registry().histograms);
    // First registration wins the layout; mixed-layout reuse of one name
    // is a programming error and keeps the original mapping.
    map.entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::new(HistogramCore::new(layout))))
}

/// A named monotonic counter. Declare as a `static` next to the code it
/// measures; the cell is registered on first increment.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl Counter {
    /// A counter handle for `name` (registered lazily).
    pub const fn new(name: &'static str) -> Counter {
        Counter { name, cell: OnceLock::new() }
    }

    /// The metric name.
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n`. No-op (one load + branch) while telemetry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.cell
            .get_or_init(|| counter_cell(self.name))
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// A named last-value gauge.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl Gauge {
    /// A gauge handle for `name` (registered lazily).
    pub const fn new(name: &'static str) -> Gauge {
        Gauge { name, cell: OnceLock::new() }
    }

    /// Store `value`. No-op while telemetry is disabled.
    #[inline]
    pub fn set(&self, value: u64) {
        if !crate::enabled() {
            return;
        }
        self.cell
            .get_or_init(|| gauge_cell(self.name))
            .store(value, Ordering::Relaxed);
    }

    /// Raise the gauge to `value` if it is larger than the current value.
    #[inline]
    pub fn max(&self, value: u64) {
        if !crate::enabled() {
            return;
        }
        self.cell
            .get_or_init(|| gauge_cell(self.name))
            .fetch_max(value, Ordering::Relaxed);
    }
}

/// A named fixed-bucket histogram.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    layout: BucketLayout,
    cell: OnceLock<&'static HistogramCore>,
}

impl Histogram {
    /// A power-of-two-bucket histogram handle for `name` (registered
    /// lazily). Good for size-like values spanning many decades.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram { name, layout: BucketLayout::Pow2, cell: OnceLock::new() }
    }

    /// A log-linear duration histogram handle for `name`; observations
    /// are microseconds (see [`BucketLayout::DurationUs`]).
    pub const fn duration_us(name: &'static str) -> Histogram {
        Histogram { name, layout: BucketLayout::DurationUs, cell: OnceLock::new() }
    }

    /// Record one observation. No-op while telemetry is disabled.
    #[inline]
    pub fn observe(&self, value: u64) {
        if !crate::enabled() {
            return;
        }
        self.cell
            .get_or_init(|| histogram_cell(self.name, self.layout))
            .observe(value);
    }
}

/// Set a dynamically named gauge (one registry lock per call: for gauges
/// sampled at scrape time).
pub fn gauge_set(name: &str, value: u64) {
    if crate::enabled() {
        gauge_cell(name).store(value, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn duration_buckets_are_contiguous_and_monotonic() {
        // Every value maps into exactly the bucket whose upper bound
        // brackets it: bucket_of(v) is the first bucket with upper ≥ v.
        let mut prev_upper = None;
        for i in 0..DURATION_BUCKETS {
            let upper = duration_bucket_upper(i);
            if let (Some(prev), Some(cur)) = (prev_upper, upper) {
                assert!(cur > prev, "bucket {i}: {cur} ≤ {prev}");
                assert_eq!(duration_bucket_of(prev + 1), i, "lower edge of bucket {i}");
            }
            if let Some(cur) = upper {
                assert_eq!(duration_bucket_of(cur), i, "upper edge of bucket {i}");
            }
            prev_upper = upper;
        }
        assert_eq!(duration_bucket_upper(DURATION_BUCKETS - 1), None);
        assert_eq!(duration_bucket_of(u64::MAX), DURATION_BUCKETS - 1);
    }

    #[test]
    fn duration_buckets_resolve_serve_latency_band() {
        // The power-of-two layout collapsed 17–27ms into two buckets;
        // the log-linear layout keeps them apart with boundaries between.
        let a = duration_bucket_of(17_012);
        let b = duration_bucket_of(27_000);
        assert!(b > a + 1, "17ms→{a}, 27ms→{b}: need ≥1 boundary between");
        // ≤25% relative width: upper/lower ratio of the 17ms bucket.
        let upper = duration_bucket_upper(a).unwrap();
        let lower = duration_bucket_upper(a - 1).unwrap() + 1;
        assert!((upper - lower) * 4 <= lower, "bucket [{lower},{upper}] too wide");
    }

    #[test]
    fn duration_histograms_use_the_duration_layout() {
        let _guard = crate::test_lock::hold();
        crate::reset();
        crate::enable();
        static H: Histogram = Histogram::duration_us("metrics.test.dur");
        H.observe(17_012);
        H.observe(27_000);
        let snap = crate::snapshot();
        let h = snap.histogram("metrics.test.dur").expect("registered");
        assert_eq!(h.layout, BucketLayout::DurationUs);
        assert_eq!(h.buckets.len(), DURATION_BUCKETS);
        assert_eq!(h.count, 2);
        let nonzero = h.buckets.iter().filter(|&&b| b > 0).count();
        assert_eq!(nonzero, 2, "two latencies land in two distinct buckets");
        crate::disable();
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let _guard = crate::test_lock::hold();
        crate::reset();
        crate::enable();
        static C: Counter = Counter::new("metrics.test.counter");
        static G: Gauge = Gauge::new("metrics.test.gauge");
        C.add(2);
        C.incr();
        G.set(10);
        G.set(4);
        G.max(9);
        G.max(3);
        let snap = crate::snapshot();
        assert_eq!(snap.counter("metrics.test.counter"), Some(3));
        assert_eq!(snap.gauge("metrics.test.gauge"), Some(9));
        crate::disable();
    }

    #[test]
    fn histogram_counts_sum_and_buckets() {
        let _guard = crate::test_lock::hold();
        crate::reset();
        crate::enable();
        static H: Histogram = Histogram::new("metrics.test.hist");
        for v in [0u64, 1, 1, 5, 1000] {
            H.observe(v);
        }
        let snap = crate::snapshot();
        let h = snap.histogram("metrics.test.hist").expect("registered");
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1007);
        assert_eq!(h.buckets[bucket_of(0)], 1);
        assert_eq!(h.buckets[bucket_of(1)], 2);
        assert_eq!(h.buckets[bucket_of(5)], 1);
        assert_eq!(h.buckets[bucket_of(1000)], 1);
        crate::disable();
    }
}
