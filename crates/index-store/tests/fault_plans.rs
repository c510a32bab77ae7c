//! Tests that arm a fault plan. The plan is process-global, so they live
//! in a test binary of their own: each takes `PLAN_LOCK` for its whole
//! body, and `armed` uninstalls the plan even when the closure panics, so
//! no plan outlives the test that armed it.

use ccd::Fingerprint;
use index_store::wal::replay;
use index_store::{FsyncPolicy, WalWriter};
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

fn segment_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sodd_wal_plans_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("wal-1.log")
}

#[test]
fn injected_append_fault_is_typed_and_writes_nothing() {
    let _lock = lock();
    let path = segment_path("fault");
    let mut writer = WalWriter::create(&path, 1, FsyncPolicy::Never).unwrap();
    let result = armed("wal/append:err:1.0", || writer.append(1, &Fingerprint("doomed".into())));
    let err = result.unwrap_err();
    assert_eq!(err.code(), "internal");
    assert_eq!(writer.stats().records, 0);
    // The segment replays to nothing — the rejected insert left no
    // trace to resurrect.
    drop(writer);
    assert!(replay(&path, 1).unwrap().unwrap().records.is_empty());
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
