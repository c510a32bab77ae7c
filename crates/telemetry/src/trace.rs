//! Per-request distributed-style tracing: bounded span trees in a
//! lock-sharded ring buffer with tail sampling.
//!
//! The stage histograms of [`crate::Stage`] answer "where does the *run*
//! spend time"; this module answers "why was *this request* slow". A
//! request handler opens a trace with [`start`] (adopting or minting a
//! 64-bit [`TraceId`]), the analysis stages below it open child spans
//! through [`crate::Stage::enter`] (thread-local, no signature
//! plumbing), and annotations ([`annotate`], [`mark_error`]) attach
//! outcomes, cache hits and injected faults to the innermost open span.
//! When the root guard drops, the finished span tree is submitted to a
//! process-global, lock-sharded ring buffer under a tail-sampling policy
//! that **always** retains error traces and traces slower than a
//! configurable threshold (normal traces are kept 1-in-`keep_every` and
//! evicted first under buffer pressure).
//!
//! Tracing is **off** by default and independent of the metrics switch:
//! [`set_enabled`]`(true)` (the daemon's `--trace` flag) or `TRACING=1`
//! turns it on. While off, [`start`]/[`annotate`] and the trace half of
//! [`crate::Stage::enter`] are a single relaxed atomic load — no
//! allocation, no thread-local touch — so the instrumentation stays
//! compiled into release binaries.
//!
//! Ids are deterministic under a fixed seed ([`seed_ids`], or the
//! `TRACE_SEED` environment variable), which tests use to assert stable
//! trace/span id sequences; without a seed the stream is keyed by
//! process id and startup time.
//!
//! Finished traces render as a nested JSON span tree ([`to_json`]) or as
//! a Chrome `trace_event` document ([`to_chrome_json`]) that loads
//! directly in Perfetto / `chrome://tracing`.

use crate::json::escape;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Hard cap on recorded spans per trace; further stage entries count
/// into `dropped_spans` instead of growing the tree without bound.
pub const MAX_TRACE_SPANS: usize = 256;

/// Number of ring-buffer shards (trace ids hash to a shard, so
/// concurrent request threads rarely contend on the same lock).
pub const RING_SHARDS: usize = 8;

/// Default retained traces per shard.
pub const DEFAULT_SHARD_CAPACITY: usize = 128;

/// A 64-bit trace identifier (never zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

/// A 64-bit span identifier (never zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl TraceId {
    /// Canonical 16-digit lowercase hex form (the `X-Trace-Id` wire
    /// format).
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse 1–16 hex digits; `None` for anything else (including the
    /// all-zero id, which is reserved as "absent").
    pub fn from_hex(s: &str) -> Option<TraceId> {
        if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        match u64::from_str_radix(s, 16) {
            Ok(0) | Err(_) => None,
            Ok(id) => Some(TraceId(id)),
        }
    }
}

impl SpanId {
    /// Canonical 16-digit lowercase hex form.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

// ---------------------------------------------------------------------
// Enablement & configuration
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Tail-sampling: traces at least this slow are always retained (µs).
static SLOW_US: AtomicU64 = AtomicU64::new(100_000);
/// Tail-sampling: keep 1 in N normal (fast, non-error) traces.
static KEEP_EVERY: AtomicU64 = AtomicU64::new(1);
/// Monotonic sequence for the 1-in-N decision.
static SAMPLE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Turn per-request tracing on or off. Independent of the metrics
/// switch ([`crate::enable`]); both default to off, and the
/// `TELEMETRY=0` kill switch vetoes enabling either.
pub fn set_enabled(on: bool) {
    ENABLED.store(on && !crate::env_forced_off(), Ordering::SeqCst);
}

/// Whether tracing is recording — the hot-path check (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Configure tail sampling: retain every trace that errored or ran at
/// least `slow_us` microseconds; keep only 1 in `keep_every` of the
/// rest (`keep_every` 0 is treated as 1 — keep all).
pub fn set_sampling(slow_us: u64, keep_every: u64) {
    SLOW_US.store(slow_us, Ordering::SeqCst);
    KEEP_EVERY.store(keep_every.max(1), Ordering::SeqCst);
}

/// Apply `TRACING` (`1`/`on`/`true` enables), `TRACE_SLOW_US`,
/// `TRACE_KEEP_EVERY` and `TRACE_SEED` from the environment. Binaries
/// call this once at startup; libraries never do.
pub fn init_from_env() {
    if let Ok(v) = std::env::var("TRACING") {
        if matches!(v.to_ascii_lowercase().as_str(), "1" | "on" | "true") {
            set_enabled(true);
        }
    }
    if let Some(us) = env_u64("TRACE_SLOW_US") {
        SLOW_US.store(us, Ordering::SeqCst);
    }
    if let Some(n) = env_u64("TRACE_KEEP_EVERY") {
        KEEP_EVERY.store(n.max(1), Ordering::SeqCst);
    }
    if let Some(seed) = env_u64("TRACE_SEED") {
        seed_ids(seed);
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

// ---------------------------------------------------------------------
// Id generation
// ---------------------------------------------------------------------

static ID_SEED: AtomicU64 = AtomicU64::new(0);
static ID_SEQ: AtomicU64 = AtomicU64::new(0);
static ID_SEEDED: AtomicBool = AtomicBool::new(false);

/// SplitMix64 finalizer — the id stream's mixing function.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Seed the id generator and rewind its sequence, making every
/// subsequent trace/span id deterministic. Tests use this; production
/// seeds itself from process id and startup time on first use.
pub fn seed_ids(seed: u64) {
    ID_SEED.store(seed, Ordering::SeqCst);
    ID_SEQ.store(0, Ordering::SeqCst);
    ID_SEEDED.store(true, Ordering::SeqCst);
}

fn next_id() -> u64 {
    if !ID_SEEDED.load(Ordering::Relaxed) {
        let entropy = std::process::id() as u64 ^ Instant::now().elapsed().as_nanos() as u64
            ^ std::time::UNIX_EPOCH.elapsed().map(|d| d.as_nanos() as u64).unwrap_or(0);
        // Racing first callers may each store once; last write wins and
        // both produce valid (merely differently-keyed) id streams.
        ID_SEED.store(mix(entropy), Ordering::SeqCst);
        ID_SEEDED.store(true, Ordering::SeqCst);
    }
    let n = ID_SEQ.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
    let id = mix(ID_SEED.load(Ordering::Relaxed) ^ mix(n));
    if id == 0 {
        1
    } else {
        id
    }
}

/// Mint a fresh trace id from the (possibly seeded) id stream.
pub fn new_trace_id() -> TraceId {
    TraceId(next_id())
}

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

/// One recorded span of a finished trace.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span id (deterministic under [`seed_ids`]).
    pub id: SpanId,
    /// Parent span id; `None` for the root.
    pub parent: Option<SpanId>,
    /// Stage name (`"request"`, `"parse"`, `"cpg-build"`, ...).
    pub name: &'static str,
    /// Start offset from the trace's start, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds (at least 1 for a completed span).
    pub dur_ns: u64,
    /// `key=value` annotations attached while the span was open.
    pub notes: Vec<(&'static str, String)>,
}

/// A finished, immutable trace as stored in the ring buffer.
#[derive(Debug)]
pub struct FinishedTrace {
    /// The trace id (adopted from the caller or minted at ingress).
    pub trace_id: TraceId,
    /// Wall-clock start, microseconds since the Unix epoch.
    pub started_unix_us: u64,
    /// Total duration (root span), microseconds.
    pub dur_us: u64,
    /// Whether [`mark_error`] was called (error traces are always
    /// retained by the sampler and evicted last).
    pub error: bool,
    /// Spans dropped beyond [`MAX_TRACE_SPANS`].
    pub dropped_spans: u32,
    /// The recorded spans; index 0 is the root.
    pub spans: Vec<SpanRec>,
}

struct ActiveTrace {
    trace_id: TraceId,
    start: Instant,
    started_unix_us: u64,
    spans: Vec<SpanRec>,
    /// Indices of currently-open spans (innermost last).
    open: Vec<usize>,
    error: bool,
    dropped: u32,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Root guard of one trace: finishes and submits the trace on drop.
#[must_use = "a trace records until its guard is dropped"]
#[derive(Debug)]
pub struct TraceGuard {
    live: bool,
}

/// Open a trace with root span `name`. Returns an inert guard while
/// tracing is disabled, or when this thread already has an active trace
/// (traces never nest within a thread).
pub fn start(trace_id: TraceId, name: &'static str) -> TraceGuard {
    if !enabled() {
        return TraceGuard { live: false };
    }
    ACTIVE.with(|active| {
        let mut active = active.borrow_mut();
        if active.is_some() {
            return TraceGuard { live: false };
        }
        let started_unix_us = std::time::UNIX_EPOCH
            .elapsed()
            .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        // Sized for a request's usual stage depth, so recording its
        // first spans does not reallocate.
        let mut spans = Vec::with_capacity(8);
        spans.push(SpanRec {
            id: SpanId(next_id()),
            parent: None,
            name,
            start_ns: 0,
            dur_ns: 0,
            notes: Vec::new(),
        });
        let mut open = Vec::with_capacity(8);
        open.push(0);
        *active = Some(ActiveTrace {
            trace_id,
            start: Instant::now(),
            started_unix_us,
            spans,
            open,
            error: false,
            dropped: 0,
        });
        TraceGuard { live: true }
    })
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let finished = ACTIVE.with(|active| active.borrow_mut().take());
        let Some(mut trace) = finished else { return };
        let total_ns = elapsed_ns(trace.start);
        // Close the root and any stage spans leaked by a panic unwind.
        for &idx in trace.open.iter().rev() {
            let span = &mut trace.spans[idx];
            span.dur_ns = total_ns.saturating_sub(span.start_ns).max(1);
        }
        submit(FinishedTrace {
            trace_id: trace.trace_id,
            started_unix_us: trace.started_unix_us,
            dur_us: total_ns / 1_000,
            error: trace.error,
            dropped_spans: trace.dropped,
            spans: trace.spans,
        });
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    ns_between(start, Instant::now())
}

/// Nanoseconds from `start` to `end` (0 if `end` is earlier).
pub(crate) fn ns_between(start: Instant, end: Instant) -> u64 {
    end.saturating_duration_since(start).as_nanos().min(u64::MAX as u128) as u64
}

/// Open a span named `name`, started at `now`, under the innermost open
/// span of this thread's active trace, returning its index for
/// [`close_span`]. `None` when no trace is active, or past
/// [`MAX_TRACE_SPANS`] (counted into `dropped_spans`). Callers check
/// [`enabled`] first.
pub(crate) fn open_span(name: &'static str, now: Instant) -> Option<usize> {
    ACTIVE.with(|active| {
        let mut active = active.borrow_mut();
        let trace = active.as_mut()?;
        if trace.spans.len() >= MAX_TRACE_SPANS {
            trace.dropped += 1;
            return None;
        }
        let parent = trace.open.last().map(|&i| trace.spans[i].id);
        let idx = trace.spans.len();
        trace.spans.push(SpanRec {
            id: SpanId(next_id()),
            parent,
            name,
            start_ns: ns_between(trace.start, now),
            dur_ns: 0,
            notes: Vec::new(),
        });
        trace.open.push(idx);
        Some(idx)
    })
}

/// Close the span [`open_span`] returned, ended at `now`.
pub(crate) fn close_span(idx: usize, now: Instant) {
    ACTIVE.with(|active| {
        let mut active = active.borrow_mut();
        let Some(trace) = active.as_mut() else { return };
        let end_ns = ns_between(trace.start, now);
        let span = &mut trace.spans[idx];
        span.dur_ns = end_ns.saturating_sub(span.start_ns).max(1);
        // Guards drop LIFO within a thread; a panic unwind may skip
        // inner drops, so close (don't assert) position.
        if let Some(pos) = trace.open.iter().rposition(|&i| i == idx) {
            trace.open.truncate(pos);
        }
    });
}

/// Attach `key=value` to the innermost open span of the active trace.
/// The value is only formatted when a trace is actually recording.
pub fn annotate<V: std::fmt::Display>(key: &'static str, value: V) {
    if !enabled() {
        return;
    }
    ACTIVE.with(|active| {
        let mut active = active.borrow_mut();
        let Some(trace) = active.as_mut() else { return };
        let Some(&idx) = trace.open.last() else { return };
        let span = &mut trace.spans[idx];
        // Bound per-span notes the same way spans are bounded per trace.
        if span.notes.len() < 32 {
            span.notes.push((key, value.to_string()));
        }
    });
}

/// Flag the active trace as an error; error traces are always retained
/// by tail sampling and evicted last under buffer pressure.
pub fn mark_error() {
    if !enabled() {
        return;
    }
    ACTIVE.with(|active| {
        if let Some(trace) = active.borrow_mut().as_mut() {
            trace.error = true;
        }
    });
}

/// The id of this thread's active trace, if any (request handlers use
/// this to correlate logs without threading the id explicitly).
pub fn current_trace_id() -> Option<TraceId> {
    if !enabled() {
        return None;
    }
    ACTIVE.with(|active| active.borrow().as_ref().map(|t| t.trace_id))
}

// ---------------------------------------------------------------------
// Ring buffer & tail sampling
// ---------------------------------------------------------------------

struct Ring {
    shards: Vec<Mutex<VecDeque<Arc<FinishedTrace>>>>,
    shard_capacity: AtomicUsize,
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring {
        shards: (0..RING_SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
        shard_capacity: AtomicUsize::new(DEFAULT_SHARD_CAPACITY),
    })
}

fn lock_shard(ring: &Ring, i: usize) -> MutexGuard<'_, VecDeque<Arc<FinishedTrace>>> {
    ring.shards[i].lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Resize the per-shard retention (total capacity is `RING_SHARDS ×`
/// this). Existing overflow is evicted lazily on the next submit.
pub fn set_shard_capacity(capacity: usize) {
    ring().shard_capacity.store(capacity.max(1), Ordering::SeqCst);
}

/// Whether a finished trace is unconditionally retained: it errored or
/// ran at least the configured slow threshold.
fn is_retained(trace: &FinishedTrace) -> bool {
    trace.error || trace.dur_us >= SLOW_US.load(Ordering::Relaxed)
}

fn submit(trace: FinishedTrace) {
    static SUBMITTED: crate::Counter = crate::Counter::new("trace.submitted");
    static SAMPLED_OUT: crate::Counter = crate::Counter::new("trace.sampled_out");
    let retained = is_retained(&trace);
    if !retained {
        let keep_every = KEEP_EVERY.load(Ordering::Relaxed);
        let seq = SAMPLE_SEQ.fetch_add(1, Ordering::Relaxed);
        if keep_every > 1 && !seq.is_multiple_of(keep_every) {
            SAMPLED_OUT.incr();
            return;
        }
    }
    SUBMITTED.incr();
    let ring = ring();
    let capacity = ring.shard_capacity.load(Ordering::Relaxed);
    let shard = (trace.trace_id.0 % RING_SHARDS as u64) as usize;
    let mut deque = lock_shard(ring, shard);
    while deque.len() >= capacity {
        // Evict the oldest *non-retained* trace first; only when the
        // whole shard is error/slow traces does the oldest of those go.
        if let Some(pos) = deque.iter().position(|t| !is_retained(t)) {
            deque.remove(pos);
        } else {
            deque.pop_front();
        }
    }
    deque.push_back(Arc::new(trace));
}

/// Look up a finished trace by id (most recent submission wins on the
/// unlikely id collision).
pub fn find(trace_id: TraceId) -> Option<Arc<FinishedTrace>> {
    let ring = ring();
    let shard = (trace_id.0 % RING_SHARDS as u64) as usize;
    let deque = lock_shard(ring, shard);
    deque.iter().rev().find(|t| t.trace_id == trace_id).cloned()
}

/// The most recent `limit` finished traces across all shards, newest
/// first (ordered by wall-clock start).
pub fn recent(limit: usize) -> Vec<Arc<FinishedTrace>> {
    let ring = ring();
    let mut all: Vec<Arc<FinishedTrace>> = Vec::new();
    for i in 0..RING_SHARDS {
        all.extend(lock_shard(ring, i).iter().cloned());
    }
    all.sort_by_key(|t| std::cmp::Reverse(t.started_unix_us));
    all.truncate(limit);
    all
}

/// Drop every buffered trace and rewind the sampling sequence (test
/// hook; ids are reset separately via [`seed_ids`]).
pub fn reset() {
    let ring = ring();
    for i in 0..RING_SHARDS {
        lock_shard(ring, i).clear();
    }
    SAMPLE_SEQ.store(0, Ordering::SeqCst);
}

/// Total traces currently buffered across all shards.
pub fn buffered() -> usize {
    let ring = ring();
    (0..RING_SHARDS).map(|i| lock_shard(ring, i).len()).sum()
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

fn notes_json(notes: &[(&'static str, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in notes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":\"{}\"", escape(k), escape(v)));
    }
    out.push('}');
    out
}

fn span_json(trace: &FinishedTrace, idx: usize, children: &[Vec<usize>]) -> String {
    let span = &trace.spans[idx];
    let mut out = format!(
        "{{\"span_id\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"notes\":{},\"children\":[",
        span.id.to_hex(),
        escape(span.name),
        span.start_ns,
        span.dur_ns,
        notes_json(&span.notes),
    );
    for (i, &child) in children[idx].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&span_json(trace, child, children));
    }
    out.push_str("]}");
    out
}

/// Child indices per span index; spans whose parent is missing (never
/// possible today, defensive) hang off the root.
fn child_table(trace: &FinishedTrace) -> Vec<Vec<usize>> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); trace.spans.len()];
    for (idx, span) in trace.spans.iter().enumerate().skip(1) {
        let parent_idx = span
            .parent
            .and_then(|p| trace.spans.iter().position(|s| s.id == p))
            .unwrap_or(0);
        children[parent_idx].push(idx);
    }
    children
}

/// Render a finished trace as a nested JSON span tree (the
/// `/debug/trace/<id>` document).
pub fn to_json(trace: &FinishedTrace) -> String {
    let children = child_table(trace);
    let root = if trace.spans.is_empty() {
        "null".to_string()
    } else {
        span_json(trace, 0, &children)
    };
    format!(
        "{{\"v\":1,\"trace_id\":\"{}\",\"started_unix_us\":{},\"dur_us\":{},\"error\":{},\
         \"dropped_spans\":{},\"span_count\":{},\"root\":{}}}",
        trace.trace_id.to_hex(),
        trace.started_unix_us,
        trace.dur_us,
        trace.error,
        trace.dropped_spans,
        trace.spans.len(),
        root,
    )
}

/// Render a finished trace in Chrome `trace_event` format — save the
/// body to a file and load it in Perfetto (<https://ui.perfetto.dev>) or
/// `chrome://tracing` to see the request waterfall.
pub fn to_chrome_json(trace: &FinishedTrace) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, span) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut args = vec![("trace_id".to_string(), trace.trace_id.to_hex())];
        for (k, v) in &span.notes {
            args.push(((*k).to_string(), v.clone()));
        }
        let args_json: Vec<String> = args
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
            .collect();
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"request\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}",
            escape(span.name),
            span.start_ns as f64 / 1_000.0,
            span.dur_ns as f64 / 1_000.0,
            args_json.join(","),
        ));
    }
    out.push_str("]}");
    out
}

/// Render summaries of the most recent `limit` traces (the
/// `/debug/traces/recent` document), newest first.
pub fn recent_json(limit: usize) -> String {
    let mut out = String::from("{\"v\":1,\"traces\":[");
    for (i, trace) in recent(limit).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let root = trace.spans.first().map(|s| s.name).unwrap_or("?");
        out.push_str(&format!(
            "{{\"trace_id\":\"{}\",\"root\":\"{}\",\"started_unix_us\":{},\"dur_us\":{},\
             \"error\":{},\"spans\":{}}}",
            trace.trace_id.to_hex(),
            escape(root),
            trace.started_unix_us,
            trace.dur_us,
            trace.error,
            trace.spans.len(),
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stage;

    static PARSE: Stage = Stage::new("parse");
    static CHECK: Stage = Stage::new("check");
    static QUERY: Stage = Stage::new("query");
    static TICK: Stage = Stage::new("tick");

    /// Tracing state is process-global; tests serialize through the same
    /// lock the telemetry switch tests use.
    fn hold() -> MutexGuard<'static, ()> {
        crate::test_lock::hold()
    }

    fn fresh(seed: u64) {
        reset();
        seed_ids(seed);
        set_sampling(100_000, 1);
        set_shard_capacity(DEFAULT_SHARD_CAPACITY);
        set_enabled(true);
    }

    #[test]
    fn disabled_records_nothing_and_guards_are_inert() {
        let _guard = hold();
        reset();
        set_enabled(false);
        let t = start(TraceId(7), "request");
        let s = PARSE.enter();
        annotate("k", "v");
        mark_error();
        assert!(current_trace_id().is_none());
        drop(s);
        drop(t);
        assert_eq!(buffered(), 0);
    }

    #[test]
    fn records_a_nested_span_tree() {
        let _guard = hold();
        fresh(1);
        {
            let _t = start(TraceId(42), "request");
            assert_eq!(current_trace_id(), Some(TraceId(42)));
            {
                let _parse = PARSE.enter();
                annotate("bytes", 123);
            }
            let _check = CHECK.enter();
            let _inner = QUERY.enter();
        }
        set_enabled(false);
        let trace = find(TraceId(42)).expect("trace buffered");
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.spans[0].name, "request");
        assert!(trace.spans.iter().all(|s| s.dur_ns > 0));
        let parse = trace.spans.iter().find(|s| s.name == "parse").unwrap();
        assert_eq!(parse.parent, Some(trace.spans[0].id));
        assert_eq!(parse.notes, vec![("bytes", "123".to_string())]);
        let query = trace.spans.iter().find(|s| s.name == "query").unwrap();
        let check = trace.spans.iter().find(|s| s.name == "check").unwrap();
        assert_eq!(query.parent, Some(check.id));
        let json = to_json(&trace);
        assert!(json.contains("\"trace_id\":\"000000000000002a\""), "{json}");
        assert!(json.contains("\"name\":\"parse\""), "{json}");
        let chrome = to_chrome_json(&trace);
        assert!(chrome.contains("\"traceEvents\""), "{chrome}");
        assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
    }

    #[test]
    fn ids_are_deterministic_under_a_fixed_seed() {
        let _guard = hold();
        fresh(99);
        let a: Vec<u64> = (0..8).map(|_| next_id()).collect();
        seed_ids(99);
        let b: Vec<u64> = (0..8).map(|_| next_id()).collect();
        assert_eq!(a, b);
        seed_ids(100);
        let c: Vec<u64> = (0..8).map(|_| next_id()).collect();
        assert_ne!(a, c);
        assert!(a.iter().all(|&id| id != 0));
        set_enabled(false);
    }

    #[test]
    fn span_budget_is_bounded() {
        let _guard = hold();
        fresh(3);
        {
            let _t = start(TraceId(5), "request");
            for _ in 0..(MAX_TRACE_SPANS + 10) {
                let _s = TICK.enter();
            }
        }
        set_enabled(false);
        let trace = find(TraceId(5)).expect("trace buffered");
        assert_eq!(trace.spans.len(), MAX_TRACE_SPANS);
        assert_eq!(trace.dropped_spans as usize, 11);
    }

    #[test]
    fn eviction_is_fifo_and_spares_retained_traces() {
        let _guard = hold();
        fresh(4);
        set_shard_capacity(3);
        // All ids map to shard 0 (multiples of RING_SHARDS).
        let id = |n: u64| TraceId(n * RING_SHARDS as u64);
        {
            let _t = start(id(1), "request");
            mark_error();
        }
        for n in 2..=5u64 {
            let _t = start(id(n), "request");
        }
        set_enabled(false);
        // Capacity 3: the error trace survives every eviction; the
        // normal traces evict oldest-first (2 and 3 gone, 4 and 5 kept).
        assert!(find(id(1)).is_some(), "error trace must survive eviction");
        assert!(find(id(2)).is_none());
        assert!(find(id(3)).is_none());
        assert!(find(id(4)).is_some());
        assert!(find(id(5)).is_some());
    }

    #[test]
    fn tail_sampling_keeps_errors_and_slow_traces() {
        let _guard = hold();
        fresh(5);
        set_sampling(0, u64::MAX); // everything is "slow" → everything kept
        {
            let _t = start(TraceId(21), "request");
        }
        assert!(find(TraceId(21)).is_some(), "slow traces are always kept");
        set_sampling(u64::MAX, u64::MAX); // nothing slow, keep-1-in-many
        {
            let _t = start(TraceId(22), "request");
            mark_error();
        }
        assert!(find(TraceId(22)).is_some(), "error traces are always kept");
        // Normal+fast traces are sampled out (seq 1.. of keep_every MAX).
        {
            let _t = start(TraceId(23), "request");
        }
        {
            let _t = start(TraceId(24), "request");
        }
        assert!(find(TraceId(24)).is_none(), "fast normal traces sample out");
        set_enabled(false);
        set_sampling(100_000, 1);
    }

    #[test]
    fn trace_id_hex_roundtrip() {
        assert_eq!(TraceId::from_hex("deadbeef"), Some(TraceId(0xdeadbeef)));
        assert_eq!(TraceId(0xdeadbeef).to_hex(), "00000000deadbeef");
        assert_eq!(TraceId::from_hex("00000000deadbeef"), Some(TraceId(0xdeadbeef)));
        assert_eq!(TraceId::from_hex(""), None);
        assert_eq!(TraceId::from_hex("0"), None, "zero is reserved");
        assert_eq!(TraceId::from_hex("xyz"), None);
        assert_eq!(TraceId::from_hex("11112222333344445"), None, "too long");
    }

    #[test]
    fn recent_returns_newest_first() {
        let _guard = hold();
        fresh(6);
        for n in 1..=3u64 {
            let _t = start(TraceId(n), "request");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        set_enabled(false);
        let recent = recent(2);
        assert_eq!(recent.len(), 2);
        assert!(recent[0].started_unix_us >= recent[1].started_unix_us);
        let json = recent_json(10);
        assert!(json.contains("\"traces\":["), "{json}");
    }
}
