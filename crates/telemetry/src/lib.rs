//! Zero-dependency observability substrate for the CCC/CCD pipeline.
//!
//! Three building blocks (DESIGN.md §4d):
//!
//! * **Stages** — a static [`Stage`] handle times one pipeline stage:
//!   [`Stage::enter`] returns a guard that on drop adds the elapsed
//!   nanoseconds to the histogram `stage_duration_ns|stage=<name>` and
//!   closes a span of the same name in the active request trace
//!   ([`trace`]), each only while its switch is on.
//! * **Metrics** — a global registry of named [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket (power-of-two) [`Histogram`]s. Handles cache their
//!   registry slot in a `OnceLock`, so the hot path is one relaxed atomic
//!   add; when telemetry is disabled every operation is a single relaxed
//!   load and branch.
//! * **Reports** — [`snapshot`] freezes the current state into a plain
//!   [`Snapshot`] that renders as a stable JSON document
//!   ([`Snapshot::to_json`], parsed back by [`json::parse`]) or through
//!   `pipeline::report::Table` (see `pipeline::telemetry_report`).
//!
//! Beside them, [`trajectory`] reads, gates and appends the committed
//! performance trajectory, `BENCH_trajectory.json`.
//!
//! # Enablement
//!
//! Telemetry is **off** by default: nothing is recorded and nothing is
//! allocated. It turns on via [`enable`] (the `tables --telemetry` flag
//! does this) or the `TELEMETRY=1` environment variable (picked up by
//! [`init_from_env`]). `TELEMETRY=0` is a hard kill switch: it wins over
//! `enable()`, so `TELEMETRY=0 tables --telemetry` stays silent.
//!
//! ```
//! telemetry::reset();
//! telemetry::enable();
//! static PARSE: telemetry::Stage = telemetry::Stage::new("demo/parse");
//! static PARSED: telemetry::Counter = telemetry::Counter::new("demo.parsed");
//! {
//!     let _stage = PARSE.enter();
//!     PARSED.add(3);
//! }
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counter("demo.parsed"), Some(3));
//! let parse = snap.histogram("stage_duration_ns|stage=demo/parse").unwrap();
//! assert_eq!(parse.count, 1);
//! telemetry::disable();
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod prom;
pub mod report;
pub mod stage;
pub mod trace;
pub mod trajectory;

pub use metrics::{gauge_set, BucketLayout, Counter, Gauge, Histogram};
pub use report::{reset, snapshot, HistogramStat, Snapshot};
pub use stage::{stage_metric, Stage, StageGuard, STAGE_METRIC};

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Cached `TELEMETRY=0` kill-switch decision: 0 = environment not read
/// yet, 1 = forced off, 2 = not forced. Cached (rather than re-read per
/// [`enable`]) so the decision is one atomic load after first use, and a
/// plain atomic (rather than a `OnceLock`) so [`reload_env`] can make the
/// override path testable.
static FORCED_OFF: AtomicU8 = AtomicU8::new(0);

fn read_env_forced_off() -> u8 {
    let off = std::env::var("TELEMETRY")
        .map(|v| matches!(v.to_ascii_lowercase().as_str(), "0" | "off" | "false"))
        .unwrap_or(false);
    if off {
        1
    } else {
        2
    }
}

/// Whether the `TELEMETRY` environment variable forces telemetry off
/// (`0`, `off`, `false`, case-insensitive). Read once, then cached until
/// [`reload_env`].
fn env_forced_off() -> bool {
    match FORCED_OFF.load(Ordering::Acquire) {
        0 => {
            let decided = read_env_forced_off();
            FORCED_OFF.store(decided, Ordering::Release);
            decided == 1
        }
        decided => decided == 1,
    }
}

/// Drop the cached kill-switch decision and re-read `TELEMETRY` from the
/// environment. Test hook: production processes read the environment
/// once; tests use this to exercise the `TELEMETRY=0` override without
/// spawning a subprocess. Force-disables immediately if the kill switch
/// is now active.
pub fn reload_env() {
    FORCED_OFF.store(read_env_forced_off(), Ordering::Release);
    if env_forced_off() {
        disable();
        trace::set_enabled(false);
    }
}

/// Turn telemetry on, unless `TELEMETRY=0` forces it off.
pub fn enable() {
    if !env_forced_off() {
        ENABLED.store(true, Ordering::SeqCst);
    }
}

/// Turn telemetry off. Already-recorded data is kept until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether telemetry is currently recording. This is the hot-path check:
/// a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Apply the `TELEMETRY` environment variable: `1`/`on`/`true` enables,
/// anything else leaves the current state (and `0` force-disables via the
/// kill switch). Binaries call this once at startup; libraries never do.
pub fn init_from_env() {
    if let Ok(v) = std::env::var("TELEMETRY") {
        if matches!(v.to_ascii_lowercase().as_str(), "1" | "on" | "true") {
            enable();
        }
    }
}

/// FNV-1a 64 over a byte slice: a fast, stable, non-cryptographic hash
/// for checksums (snapshot payloads, WAL records), pinned digests and
/// seeded decision streams. Not for keys a caller can choose: FNV
/// collisions are cheap to find.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Telemetry state is process-global; tests that toggle it serialize
    /// through this lock so `cargo test`'s parallel runner cannot
    /// interleave enable/disable windows.
    pub fn hold() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn disabled_is_the_default_and_everything_is_a_noop() {
        let _guard = test_lock::hold();
        disable();
        trace::set_enabled(false);
        reset();
        trace::reset();
        static C: Counter = Counter::new("lib.noop");
        C.add(41);
        gauge_set("lib.noop_gauge", 7);
        static H: Histogram = Histogram::new("lib.noop_hist");
        H.observe(3);
        static S: Stage = Stage::new("lib/noop");
        let t = trace::start(trace::TraceId(9), "request");
        drop(S.enter());
        drop(t);
        let snap = snapshot();
        assert!(snap.counters.is_empty(), "{snap:?}");
        assert!(snap.gauges.is_empty(), "{snap:?}");
        assert!(snap.histograms.is_empty(), "{snap:?}");
        assert_eq!(trace::buffered(), 0, "no trace recorded");
    }

    #[test]
    fn enable_disable_roundtrip() {
        let _guard = test_lock::hold();
        disable();
        assert!(!enabled());
        enable();
        assert!(enabled());
        disable();
        assert!(!enabled());
    }

    #[test]
    fn kill_switch_wins_over_enable_and_is_resettable() {
        let _guard = test_lock::hold();
        disable();
        std::env::set_var("TELEMETRY", "0");
        reload_env();
        enable();
        assert!(!enabled(), "TELEMETRY=0 must win over enable()");
        init_from_env();
        assert!(!enabled(), "TELEMETRY=0 must win over init_from_env()");
        std::env::remove_var("TELEMETRY");
        reload_env();
        enable();
        assert!(enabled(), "cleared kill switch re-arms enable()");
        disable();
    }
}
