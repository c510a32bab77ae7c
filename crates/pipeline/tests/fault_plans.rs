//! Tests that arm a fault plan. The plan is process-global, so they live
//! in a test binary of their own: each takes `PLAN_LOCK` for its whole
//! body, and `armed` uninstalls the plan even when the closure panics, so
//! no plan outlives the test that armed it.

use ccd::CcdParams;
use pipeline::api::{AnalysisConfig, AnalysisEngine, AnalysisRequest};
use pipeline::corpus_index::CorpusBuilder;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

static PLAN_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    PLAN_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run `f` with the plan `spec` installed, uninstalling it afterwards even
/// if `f` panics.
fn armed<T>(spec: &str, f: impl FnOnce() -> T) -> T {
    let plan = faultinject::FaultPlan::parse(spec, 1).expect("valid fault spec");
    faultinject::install(Some(plan));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    faultinject::install(None);
    outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sodd_plans_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const DOC_A: &str = "contract A { function w(uint v) public { msg.sender.transfer(v); } }";
const DOC_B: &str = "contract B { uint t; function a(uint v) public { t += v; } }";

/// Chaos runs must reach the real stages: while a plan is armed the
/// response cache neither serves a stored answer nor stores a new one.
#[test]
fn response_cache_is_bypassed_while_faults_are_armed() {
    let _lock = lock();
    telemetry::enable();
    let hits = || telemetry::snapshot().counter("api.response_cache_hits").unwrap_or(0);
    let engine = AnalysisEngine::new(AnalysisConfig::default());
    let stored = AnalysisRequest::scan("function f(address to) public { to.send(1); }");
    let fresh = AnalysisRequest::scan("function g() public { selfdestruct(msg.sender); }");
    engine.analyze(&stored).unwrap();

    // A served answer would hide the injected parse error.
    let error = armed("parse:err:1.0", || engine.analyze(&stored)).unwrap_err();
    assert_eq!(error.code(), "parse");

    // An answer computed under an armed (if silent) plan is not stored:
    // the first request after disarming misses, the second hits.
    armed("parse:err:0.0", || engine.analyze(&fresh)).unwrap();
    let before = hits();
    engine.analyze(&fresh).unwrap();
    assert_eq!(hits(), before, "an answer computed under an armed plan was cached");
    engine.analyze(&fresh).unwrap();
    engine.analyze(&stored).unwrap();
    assert_eq!(hits(), before + 2);
}

#[test]
fn failed_commit_leaves_previous_generation_loadable() {
    let _lock = lock();
    let dir = temp_dir("failedcommit");
    let handle =
        CorpusBuilder::new(CcdParams::best()).snapshot_dir(&dir).from_sources([(0u64, DOC_A)]);
    handle.compact().unwrap();
    handle.insert_source(None, DOC_B).unwrap();
    // Inject an error exactly in the commit window (snapshot written,
    // CURRENT not yet flipped).
    let err = armed("index:err:1.0", || handle.compact()).unwrap_err();
    assert_eq!(err.code(), "internal", "{err}");
    // The handle still serves, the delta is still pending, and a reload
    // sees the old committed generation — plus the delta, replayed from
    // the write-ahead log (the uncommitted *snapshot* must not be
    // visible, but the acknowledged insert must survive).
    assert_eq!((handle.generation(), handle.deltas()), (1, 1));
    let warm =
        CorpusBuilder::new(CcdParams::best()).snapshot_dir(&dir).load_snapshot().unwrap().unwrap();
    assert_eq!(warm.generation(), 1);
    assert_eq!(warm.len(), 2, "the acknowledged insert must replay from the WAL");
    assert_eq!((warm.deltas(), warm.replayed_on_boot()), (1, 1));
    // A retry after the fault clears succeeds and advances.
    assert_eq!(handle.compact().unwrap(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed WAL append rejects the insert outright: nothing applied,
/// nothing to resurrect at the next boot.
#[test]
fn failed_wal_append_rejects_the_insert() {
    let _lock = lock();
    let dir = temp_dir("walappendfail");
    let handle =
        CorpusBuilder::new(CcdParams::best()).snapshot_dir(&dir).from_sources([(0u64, DOC_A)]);
    handle.compact().unwrap();
    let result = armed("wal/append:err:1.0", || handle.insert_source(None, DOC_B));
    assert_eq!(result.unwrap_err().code(), "internal");
    assert_eq!((handle.len(), handle.deltas()), (1, 0));
    // The id was released and the corpus still accepts inserts.
    handle.insert_source(None, DOC_B).unwrap();
    assert_eq!((handle.len(), handle.deltas()), (2, 1));
    let warm =
        CorpusBuilder::new(CcdParams::best()).snapshot_dir(&dir).load_snapshot().unwrap().unwrap();
    assert_eq!(warm.len(), 2, "only the acknowledged insert replays");
    let _ = std::fs::remove_dir_all(&dir);
}
