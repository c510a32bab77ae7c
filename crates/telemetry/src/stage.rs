//! Stage timing: the one way to time a pipeline stage.
//!
//! A [`Stage`] is a static handle declared next to the code it times
//! (`static PARSE: Stage = Stage::new("parse");`). [`Stage::enter`]
//! returns a [`StageGuard`] that, when dropped,
//!
//! * adds the elapsed nanoseconds to the pow2 histogram
//!   `stage_duration_ns|stage=<name>` while telemetry is on (the handle
//!   registers it on first use and caches the cell, like
//!   [`crate::Counter`]), and
//! * closes a span of the same name in this thread's active trace while
//!   tracing is on (see [`crate::trace`]).
//!
//! With both switches off, entering a stage is two relaxed atomic loads:
//! no clock read, no allocation, no lock.
//!
//! A stage that began before any guard could be entered (a request's
//! wait between its parse and its run) is recorded with
//! [`Stage::record_since`] instead: the histogram only, no span.

use crate::metrics::{histogram_cell, BucketLayout, HistogramCore};
use crate::trace;
use std::sync::OnceLock;
use std::time::Instant;

/// Metric family of stage durations: one pow2 histogram of nanoseconds
/// per stage, labelled `stage=<name>`.
pub const STAGE_METRIC: &str = "stage_duration_ns";

/// Registry name of the duration histogram of stage `name`.
pub fn stage_metric(name: &str) -> String {
    format!("{STAGE_METRIC}|stage={name}")
}

/// A named pipeline stage. Declare as a `static`; the histogram is
/// registered on the first [`enter`](Stage::enter) with telemetry on.
#[derive(Debug)]
pub struct Stage {
    name: &'static str,
    histogram: OnceLock<&'static HistogramCore>,
}

impl Stage {
    /// A stage handle named `name`: the trace span name and the
    /// histogram's `stage` label.
    pub const fn new(name: &'static str) -> Stage {
        Stage { name, histogram: OnceLock::new() }
    }

    /// The stage name.
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Start timing the stage until the returned guard drops. A switch
    /// that is off when the stage is entered stays off for this guard.
    #[inline]
    pub fn enter(&self) -> StageGuard {
        let tracing = trace::enabled();
        let timing = crate::enabled();
        if !tracing && !timing {
            return StageGuard { start: None, histogram: None, span: None };
        }
        // One clock read at each end serves both outputs.
        let start = Instant::now();
        let span = if tracing { trace::open_span(self.name, start) } else { None };
        let histogram = timing.then(|| self.histogram());
        StageGuard { start: Some(start), histogram, span }
    }

    /// Observe the time from `start` until now in the stage's histogram
    /// while telemetry is on; with it off, no clock is read. Opens no
    /// span.
    #[inline]
    pub fn record_since(&self, start: Instant) {
        if crate::enabled() {
            self.histogram().observe(trace::ns_between(start, Instant::now()));
        }
    }

    fn histogram(&self) -> &'static HistogramCore {
        self.histogram
            .get_or_init(|| histogram_cell(&stage_metric(self.name), BucketLayout::Pow2))
    }
}

/// Scoped guard of one [`Stage`] entry; records when dropped.
#[must_use = "a stage guard measures until it is dropped"]
#[derive(Debug)]
pub struct StageGuard {
    start: Option<Instant>,
    histogram: Option<&'static HistogramCore>,
    span: Option<usize>,
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        if let Some(histogram) = self.histogram {
            histogram.observe(trace::ns_between(start, end));
        }
        if let Some(idx) = self.span {
            trace::close_span(idx, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceId;

    #[test]
    fn one_entry_feeds_one_observation_and_one_span() {
        let _guard = crate::test_lock::hold();
        crate::reset();
        trace::reset();
        trace::seed_ids(11);
        crate::enable();
        trace::set_enabled(true);
        static BOTH: Stage = Stage::new("stage_test.both");
        {
            let _t = trace::start(TraceId(77), "request");
            let _s = BOTH.enter();
        }
        trace::set_enabled(false);
        crate::disable();
        let snap = crate::snapshot();
        let h = snap.histogram(&stage_metric("stage_test.both")).expect("histogram");
        assert_eq!((h.count, h.layout), (1, BucketLayout::Pow2));
        let trace = trace::find(TraceId(77)).expect("trace buffered");
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["request", "stage_test.both"]);
    }

    #[test]
    fn record_since_observes_only_while_telemetry_is_on() {
        let _guard = crate::test_lock::hold();
        crate::reset();
        static WAIT: Stage = Stage::new("stage_test.wait");
        let start = Instant::now() - std::time::Duration::from_micros(50);
        WAIT.record_since(start);
        assert!(crate::snapshot().histograms.is_empty());
        crate::enable();
        WAIT.record_since(start);
        crate::disable();
        let snap = crate::snapshot();
        let h = snap.histogram(&stage_metric("stage_test.wait")).expect("histogram");
        assert_eq!(h.count, 1);
        assert!(h.sum >= 50_000, "the wait is measured from start: {}", h.sum);
    }

    #[test]
    fn guard_is_inert_when_disabled_at_open() {
        let _guard = crate::test_lock::hold();
        crate::reset();
        trace::reset();
        static INERT: Stage = Stage::new("stage_test.inert");
        trace::set_enabled(true);
        let t = trace::start(TraceId(78), "request");
        trace::set_enabled(false);
        crate::disable();
        let g = INERT.enter();
        // Switching on after the guard was created must not record
        // anything: no clock was read and no span was opened.
        crate::enable();
        trace::set_enabled(true);
        drop(g);
        drop(t);
        trace::set_enabled(false);
        crate::disable();
        assert!(crate::snapshot().histograms.is_empty());
        assert_eq!(trace::find(TraceId(78)).expect("trace buffered").spans.len(), 1);
    }
}
