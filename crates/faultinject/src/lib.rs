//! Deterministic, seeded fault injection for chaos-testing the pipeline.
//!
//! The analysis stack runs over adversarial corpora — Q&A snippets,
//! honeypots, mutated contracts — exactly the inputs that find crash
//! paths. This crate provides the *controlled* version of that hostility:
//! a seeded fault plan, parsed from the `FAULT_SPEC` environment variable,
//! that injects errors, panics and delays at named points of the stack so
//! the chaos suite can prove every failure degrades to a typed error
//! instead of a process death.
//!
//! # Specification grammar
//!
//! `FAULT_SPEC` is a comma-separated list of rules:
//!
//! ```text
//! point:kind:param[,point:kind:param...]
//!
//! parse:err:0.01          1% of parses fail with an injected error
//! cpg:panic:0.005         0.5% of CPG translations panic
//! query:delay:50ms        every query evaluation sleeps 50 ms
//! ccd:delay:10ms@0.2      20% of clone matches sleep 10 ms
//! server:err:0.02         2% of requests answer with an internal error
//! ```
//!
//! A rule's `point` matches an injection site either exactly
//! (`cpg/build`) or by its first `/` segment (`cpg` matches both
//! `cpg/build` and `cpg/expand`). The canonical sites are listed in
//! [`POINTS`].
//!
//! # Determinism
//!
//! All probabilistic decisions come from a [SplitMix64](SeededRng) stream
//! keyed by `FAULT_SEED` (default 0), the rule's point name and a per-rule
//! sequence number. For a fixed seed and a fixed per-rule call sequence
//! the injected faults are bit-reproducible; across thread interleavings
//! the *set* of decisions per rule is identical even when their
//! attribution to call sites varies.
//!
//! # Overhead when disabled
//!
//! With no plan installed, [`fire`] is one `Once` check and one relaxed
//! atomic load — effectively free, so the injection points stay compiled
//! into release binaries and are activated purely by environment.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::Duration;

/// Canonical injection sites wired through the workspace.
pub const POINTS: &[&str] = &[
    "parse",
    "cpg/build",
    "cpg/expand",
    "query/eval",
    "ccc/detector",
    "ccd/match",
    "ccd/sweep",
    "server/request",
    "index/commit",
    "corpus/apply",
    "wal/append",
    "wal/fsync",
    "wal/replay",
];

/// A deterministic random stream (SplitMix64). Also used by the retry
/// client for backoff jitter, so chaos runs replay bit-identically.
#[derive(Debug, Clone)]
pub struct SeededRng(u64);

impl SeededRng {
    /// A stream seeded by `seed`.
    pub fn new(seed: u64) -> SeededRng {
        SeededRng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        mix(self.0)
    }

    /// Next value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Next value in `[0, bound)` (`0` when `bound` is `0`).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// SplitMix64 finalizer: a high-quality 64→64 bit mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// What a rule injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Surface a typed error at the injection point.
    Error,
    /// Panic (exercises the panic-isolation layer).
    Panic,
    /// Sleep for the configured duration (exercises timeouts/backpressure).
    Delay(u64),
}

/// One parsed `point:kind:param` rule.
#[derive(Debug)]
struct Rule {
    point: String,
    kind: FaultKind,
    rate: f64,
    /// Per-rule decision sequence number (deterministic stream position).
    seq: AtomicU64,
}

impl Rule {
    fn matches(&self, point: &str) -> bool {
        self.point == point
            || point
                .split('/')
                .next()
                .map(|head| head == self.point)
                .unwrap_or(false)
    }

    /// Deterministic fire decision: position `seq` of the stream keyed by
    /// `(seed, point)`.
    fn fires(&self, seed: u64) -> bool {
        if self.rate >= 1.0 {
            return true;
        }
        if self.rate <= 0.0 {
            return false;
        }
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        let x = mix(seed ^ telemetry::fnv1a(self.point.as_bytes()) ^ mix(n.wrapping_add(1)));
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.rate
    }
}

/// An injected fault observed by [`FaultPlan::evaluate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fired {
    /// An error should be surfaced; the payload names the point.
    Error(String),
    /// A panic should be raised; the payload names the point.
    Panic(String),
    /// The caller should sleep this many milliseconds.
    DelayMs(u64),
}

/// A parsed, seeded fault plan.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
}

impl FaultPlan {
    /// Parse a `FAULT_SPEC` string with a seed. Returns a description of
    /// the first malformed rule on error.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let mut parts = entry.splitn(3, ':');
            let (point, kind, param) = match (parts.next(), parts.next(), parts.next()) {
                (Some(p), Some(k), Some(v)) if !p.is_empty() => (p, k, v),
                _ => return Err(format!("malformed rule {entry:?}: want point:kind:param")),
            };
            let parse_rate = |v: &str| -> Result<f64, String> {
                let rate: f64 = v
                    .parse()
                    .map_err(|_| format!("rule {entry:?}: rate {v:?} is not a number"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("rule {entry:?}: rate {v} outside [0, 1]"));
                }
                Ok(rate)
            };
            let (kind, rate) = match kind {
                "err" | "error" => (FaultKind::Error, parse_rate(param)?),
                "panic" => (FaultKind::Panic, parse_rate(param)?),
                "delay" => {
                    let (dur, rate) = match param.split_once('@') {
                        Some((dur, rate)) => (dur, parse_rate(rate)?),
                        None => (param, 1.0),
                    };
                    let ms: u64 = dur
                        .strip_suffix("ms")
                        .unwrap_or(dur)
                        .parse()
                        .map_err(|_| format!("rule {entry:?}: bad delay {dur:?} (want e.g. 50ms)"))?;
                    (FaultKind::Delay(ms), rate)
                }
                other => return Err(format!("rule {entry:?}: unknown kind {other:?}")),
            };
            rules.push(Rule { point: point.to_string(), kind, rate, seq: AtomicU64::new(0) });
        }
        Ok(FaultPlan { seed, rules })
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluate every rule matching `point` and return the faults that
    /// fire, in rule order. Pure decision logic: nothing sleeps or panics.
    pub fn evaluate(&self, point: &str) -> Vec<Fired> {
        let mut fired = Vec::new();
        for rule in &self.rules {
            if !rule.matches(point) || !rule.fires(self.seed) {
                continue;
            }
            fired.push(match rule.kind {
                FaultKind::Error => Fired::Error(format!("injected fault at {point}")),
                FaultKind::Panic => Fired::Panic(format!("faultinject: injected panic at {point}")),
                FaultKind::Delay(ms) => Fired::DelayMs(ms),
            });
        }
        fired
    }

    /// Evaluate and *apply* the faults at `point`: delays sleep, panics
    /// panic, and the first error fault is returned for the caller to map
    /// into its typed error.
    pub fn apply(&self, point: &str) -> Option<String> {
        let mut error = None;
        for fault in self.evaluate(point) {
            match fault {
                Fired::DelayMs(ms) => {
                    DELAYS.fetch_add(1, Ordering::Relaxed);
                    telemetry::trace::annotate("fault_delay_ms", ms);
                    std::thread::sleep(Duration::from_millis(ms));
                }
                Fired::Panic(message) => {
                    PANICS.fetch_add(1, Ordering::Relaxed);
                    telemetry::trace::annotate("fault_panic", &message);
                    panic!("{message}");
                }
                Fired::Error(message) => {
                    if error.is_none() {
                        ERRORS.fetch_add(1, Ordering::Relaxed);
                        telemetry::trace::annotate("fault_error", &message);
                        error = Some(message);
                    }
                }
            }
        }
        error
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();
static ERRORS: AtomicU64 = AtomicU64::new(0);
static PANICS: AtomicU64 = AtomicU64::new(0);
static DELAYS: AtomicU64 = AtomicU64::new(0);

fn plan_slot() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// The seed from `FAULT_SEED` (default 0).
pub fn env_seed() -> u64 {
    std::env::var("FAULT_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Install a plan process-wide (`None` disables injection). Binaries use
/// [`init_from_env`]; this entry point exists for in-process chaos tests.
pub fn install(plan: Option<FaultPlan>) {
    // Mark env-init as done so a later lazy fire() cannot overwrite an
    // explicitly installed plan with the environment's.
    ENV_INIT.call_once(|| {});
    let mut slot = plan_slot().lock().unwrap_or_else(|e| e.into_inner());
    ACTIVE.store(plan.as_ref().map(|p| !p.is_empty()).unwrap_or(false), Ordering::SeqCst);
    *slot = plan.map(Arc::new);
}

/// Read `FAULT_SPEC`/`FAULT_SEED` and install the resulting plan. A
/// malformed spec is reported on stderr and ignored (the daemon must not
/// die because a chaos experiment had a typo). Called lazily by [`fire`],
/// so libraries need no explicit startup hook.
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        let Ok(spec) = std::env::var("FAULT_SPEC") else {
            return;
        };
        match FaultPlan::parse(&spec, env_seed()) {
            Ok(plan) => {
                let mut slot = plan_slot().lock().unwrap_or_else(|e| e.into_inner());
                ACTIVE.store(!plan.is_empty(), Ordering::SeqCst);
                *slot = Some(Arc::new(plan));
            }
            Err(error) => eprintln!("[faultinject] ignoring FAULT_SPEC: {error}"),
        }
    });
}

/// Evaluate the installed plan at an injection point. Delay faults sleep
/// here; panic faults panic here (the isolation layers above convert them
/// to typed internal errors); an error fault returns `Some(message)` for
/// the call site to map into its own error type. Returns `None` — at the
/// cost of one atomic load — when no plan is active.
#[inline]
pub fn fire(point: &str) -> Option<String> {
    init_from_env();
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    let plan = plan_slot().lock().unwrap_or_else(|e| e.into_inner()).clone();
    plan.and_then(|p| p.apply(point))
}

/// Whether a fault plan is active.
#[inline]
pub fn active() -> bool {
    init_from_env();
    ACTIVE.load(Ordering::Relaxed)
}

/// Counts of faults injected so far: `(errors, panics, delays)`.
pub fn injected_counts() -> (u64, u64, u64) {
    (
        ERRORS.load(Ordering::Relaxed),
        PANICS.load(Ordering::Relaxed),
        DELAYS.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_example() {
        let plan = FaultPlan::parse("parse:err:0.01,cpg:panic:0.005,query:delay:50ms", 7).unwrap();
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn rejects_malformed_rules() {
        for bad in [
            "parse",
            "parse:err",
            "parse:err:2.0",
            "parse:err:x",
            "parse:boom:0.5",
            "query:delay:50xs",
            ":err:0.5",
            "ccd:delay:10ms@1.5",
        ] {
            assert!(FaultPlan::parse(bad, 0).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn empty_and_blank_specs_are_empty_plans() {
        assert!(FaultPlan::parse("", 0).unwrap().is_empty());
        assert!(FaultPlan::parse(" , ,", 0).unwrap().is_empty());
    }

    #[test]
    fn prefix_matching_covers_sub_points() {
        let plan = FaultPlan::parse("cpg:err:1.0", 0).unwrap();
        assert_eq!(plan.evaluate("cpg/build").len(), 1);
        assert_eq!(plan.evaluate("cpg/expand").len(), 1);
        assert_eq!(plan.evaluate("cpg").len(), 1);
        assert!(plan.evaluate("parse").is_empty());
        assert!(plan.evaluate("ccd/match").is_empty());
    }

    #[test]
    fn exact_point_does_not_leak_to_siblings() {
        let plan = FaultPlan::parse("cpg/build:err:1.0", 0).unwrap();
        assert_eq!(plan.evaluate("cpg/build").len(), 1);
        assert!(plan.evaluate("cpg/expand").is_empty());
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = FaultPlan::parse("parse:err:0.3", 42).unwrap();
        let b = FaultPlan::parse("parse:err:0.3", 42).unwrap();
        let fired_a: Vec<bool> = (0..200).map(|_| !a.evaluate("parse").is_empty()).collect();
        let fired_b: Vec<bool> = (0..200).map(|_| !b.evaluate("parse").is_empty()).collect();
        assert_eq!(fired_a, fired_b);
        assert!(fired_a.iter().any(|f| *f), "rate 0.3 must fire in 200 draws");
        assert!(fired_a.iter().any(|f| !*f), "rate 0.3 must also not fire");

        let c = FaultPlan::parse("parse:err:0.3", 43).unwrap();
        let fired_c: Vec<bool> = (0..200).map(|_| !c.evaluate("parse").is_empty()).collect();
        assert_ne!(fired_a, fired_c, "different seeds give different streams");
    }

    #[test]
    fn observed_rate_tracks_configured_rate() {
        let plan = FaultPlan::parse("parse:err:0.1", 1).unwrap();
        let fired = (0..2000).filter(|_| !plan.evaluate("parse").is_empty()).count();
        let rate = fired as f64 / 2000.0;
        assert!((0.05..0.2).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn rate_one_always_fires_and_rate_zero_never() {
        let plan = FaultPlan::parse("a:err:1.0,b:err:0.0", 0).unwrap();
        assert_eq!(plan.evaluate("a").len(), 1);
        assert!(plan.evaluate("b").is_empty());
    }

    #[test]
    fn apply_returns_error_messages() {
        let plan = FaultPlan::parse("parse:err:1.0", 0).unwrap();
        let message = plan.apply("parse").unwrap();
        assert!(message.contains("injected fault at parse"), "{message}");
    }

    #[test]
    fn apply_panics_on_panic_rules() {
        let plan = FaultPlan::parse("cpg:panic:1.0", 0).unwrap();
        let result = std::panic::catch_unwind(|| plan.apply("cpg/build"));
        assert!(result.is_err());
    }

    #[test]
    fn delay_rules_sleep() {
        let plan = FaultPlan::parse("query:delay:20ms", 0).unwrap();
        let t0 = std::time::Instant::now();
        assert_eq!(plan.apply("query/eval"), None);
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn seeded_rng_is_reproducible() {
        let mut a = SeededRng::new(9);
        let mut b = SeededRng::new(9);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let f = SeededRng::new(9).next_f64();
        assert!((0.0..1.0).contains(&f));
        assert!(SeededRng::new(9).next_below(10) < 10);
        assert_eq!(SeededRng::new(9).next_below(0), 0);
    }
}
