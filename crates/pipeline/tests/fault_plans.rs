//! Tests that arm a fault plan. The plan is process-global, so they live
//! in a test binary of their own: each takes `PLAN_LOCK` for its whole
//! body, and `armed` uninstalls the plan even when the closure panics, so
//! no plan outlives the test that armed it.

use ccd::{CcdParams, CloneDetector};
use pipeline::api::{AnalysisConfig, AnalysisEngine, AnalysisRequest};
use pipeline::corpus_index::{CorpusBuilder, CorpusHandle};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

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

/// The directory's file names, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    files
}

const DOC_A: &str = "contract A { function w(uint v) public { msg.sender.transfer(v); } }";
const DOC_B: &str = "contract B { uint t; function a(uint v) public { t += v; } }";
const DOC_C: &str = "contract C { mapping(address=>uint) m; function s(uint v) public { m[msg.sender] = v; } }";
const DOC_D: &str = "contract D { address o; function k() public { selfdestruct(o); } }";

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

/// A warm start that cannot fsync a replayed segment fails as
/// `internal`, not `index_corrupt`: the directory validated, so a caller
/// must not rebuild over it, and a retry recovers every record.
#[test]
fn failed_boot_fsync_is_not_reported_as_corruption() {
    let _lock = lock();
    let dir = temp_dir("bootsync");
    let builder = || CorpusBuilder::new(CcdParams::best()).snapshot_dir(&dir);
    let handle = builder().from_sources([(0u64, DOC_A)]);
    handle.compact().unwrap();
    handle.insert_source(None, DOC_B).unwrap();
    drop(handle);
    let err = armed("wal/fsync:err:1.0", || builder().load_snapshot()).err().expect("sync fails");
    assert_eq!(err.code(), "internal", "{err}");
    let warm = builder().load_snapshot().unwrap().unwrap();
    assert_eq!((warm.len(), warm.replayed_on_boot()), (2, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An insert held between its WAL append and its apply keeps a
/// compaction waiting: the compaction must not copy the corpus without
/// the document and then retire the segment that holds its record, or the
/// acknowledged insert lives only in memory.
#[test]
fn an_insert_held_before_its_apply_survives_a_compaction() {
    let _lock = lock();
    let dir = temp_dir("applyrace");
    let handle =
        CorpusBuilder::new(CcdParams::best()).snapshot_dir(&dir).from_sources([(0u64, DOC_A)]);
    handle.compact().unwrap();
    let segment = dir.join("wal-1.log");
    let empty = std::fs::metadata(&segment).unwrap().len();
    let fingerprint = CloneDetector::fingerprint_source(DOC_B).unwrap();
    armed("corpus/apply:delay:300ms", || {
        std::thread::scope(|scope| {
            let insert = scope.spawn(|| handle.insert_fingerprint(Some(42), fingerprint));
            // Once the segment grows the record is appended, and the
            // insert sleeps before its apply.
            let deadline = Instant::now() + Duration::from_secs(10);
            while std::fs::metadata(&segment).unwrap().len() == empty {
                assert!(Instant::now() < deadline, "the insert never reached the WAL");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(handle.compact().unwrap(), 2);
            assert_eq!(insert.join().unwrap().unwrap(), 42);
        });
    });
    let settled = (handle.generation(), handle.deltas());
    drop(handle);
    let warm =
        CorpusBuilder::new(CcdParams::best()).snapshot_dir(&dir).load_snapshot().unwrap().unwrap();
    let ids: Vec<u64> = warm.fingerprints().iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, vec![0, 42], "the acknowledged insert was lost");
    assert_eq!(settled, (2, 0), "generation 2 was committed without the insert");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panic between an insert's append and its apply leaves the record
/// in the log, so its id stays taken: the next insert gets a fresh id,
/// and a reload keeps that acknowledged insert under it.
#[test]
fn a_panic_before_the_apply_keeps_the_logged_id_taken() {
    let _lock = lock();
    let dir = temp_dir("applypanic");
    let builder = || CorpusBuilder::new(CcdParams::best()).snapshot_dir(&dir);
    let handle = builder().from_sources([(0u64, DOC_A)]);
    handle.compact().unwrap();
    let panicked = armed("corpus/apply:panic:1.0", || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle.insert_source(None, DOC_B)
        }))
    });
    assert!(panicked.is_err(), "the panic rule did not fire");
    assert_eq!(handle.insert_source(None, DOC_C).unwrap(), 2);
    drop(handle);
    let warm = builder().load_snapshot().unwrap().unwrap();
    let acknowledged = (2, CloneDetector::fingerprint_source(DOC_C).unwrap());
    assert!(warm.fingerprints().contains(&acknowledged), "the acknowledged insert was lost");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A commit that fails after its rotation leaves records in two
/// segments: the committed generation's and the one above it. Warm starts
/// replay both and resume the newer one, and the next compaction reuses
/// it and retires the rest.
#[test]
fn records_on_both_sides_of_a_failed_commit_survive() {
    let _lock = lock();
    let dir = temp_dir("twosegments");
    let builder = || CorpusBuilder::new(CcdParams::best()).snapshot_dir(&dir);
    let handle = builder().from_sources([(0u64, DOC_A)]);
    handle.compact().unwrap();
    handle.insert_source(None, DOC_B).unwrap();
    let err = armed("index:err:1.0", || handle.compact()).unwrap_err();
    assert_eq!(err.code(), "internal", "{err}");
    // The writer stayed on wal-2.log, so this record lands there, and a
    // retry that fails again appends to that segment instead of
    // truncating it.
    handle.insert_source(None, DOC_C).unwrap();
    armed("index:err:1.0", || handle.compact()).unwrap_err();
    drop(handle);
    let ids = |handle: &CorpusHandle| -> Vec<u64> {
        handle.fingerprints().iter().map(|(id, _)| *id).collect()
    };

    let warm = builder().load_snapshot().unwrap().unwrap();
    assert_eq!((warm.generation(), warm.replayed_on_boot()), (1, 2));
    assert_eq!(ids(&warm), vec![0, 1, 2]);
    warm.insert_source(None, DOC_D).unwrap();
    drop(warm);
    let warm = builder().load_snapshot().unwrap().unwrap();
    assert_eq!((warm.generation(), warm.replayed_on_boot()), (1, 3));
    assert_eq!(ids(&warm), vec![0, 1, 2, 3]);

    assert_eq!(warm.compact().unwrap(), 2);
    assert_eq!(listing(&dir), ["CURRENT", "gen-2.idx", "wal-2.log"]);
    drop(warm);
    let reloaded = builder().load_snapshot().unwrap().unwrap();
    assert_eq!((reloaded.generation(), reloaded.deltas()), (2, 0));
    assert_eq!(ids(&reloaded), vec![0, 1, 2, 3]);
    let _ = std::fs::remove_dir_all(&dir);
}
