//! The corpus lifecycle behind one handle: build, share, warm-start,
//! insert, compact.
//!
//! Before this module, every consumer wired the clone corpus together by
//! hand from the constructor sprawl (`NgramIndex::from_documents`,
//! `CloneDetector::from_shared`, per-bin fingerprint loops). A
//! [`CorpusBuilder`] now yields one [`CorpusHandle`] covering all three
//! lifetimes:
//!
//! * **in-memory** — fingerprinted from sources (batch bins, tests),
//! * **snapshot-backed** — assembled from a committed `index-store`
//!   generation without re-fingerprinting (the service's warm start),
//! * **snapshot + deltas** — a loaded snapshot taking live inserts in
//!   place until the next compaction.
//!
//! The handle keeps one [`CloneDetector`] behind one `RwLock`: a clone
//! check scores under the read guard, an insert applies under the write
//! guard, and the corpus is copied only on request: its fingerprints for
//! [`CorpusHandle::fingerprints`], and its fingerprints and N-gram index
//! for the snapshot writer in [`CorpusHandle::compact`]. One writer lock
//! orders inserts against compactions, and the write-ahead log behind it
//! is an `index_store` [`Journal`]. The handle tracks the committed
//! snapshot generation vs. uncommitted delta count, and fronts the match
//! path with a two-tier near-duplicate cache (exact source, then fuzzy
//! fingerprint) — most real traffic is the same snippet pasted again with
//! cosmetic edits.

use crate::cache::Lru;
use ccd::{CcdParams, CloneDetector, CloneMatch, Fingerprint};
use index_store::{FsyncPolicy, Journal, WalStats};
use ngram_index::DocId;
use solidity::AnalysisError;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};

/// Default capacity of each front-cache tier.
pub const DEFAULT_FRONT_CACHE_CAPACITY: usize = 2048;

/// Builder for a [`CorpusHandle`] — the one entry point replacing the
/// `from_documents`/`from_shared` constructor sprawl.
#[derive(Debug, Clone)]
pub struct CorpusBuilder {
    params: CcdParams,
    snapshot_dir: Option<PathBuf>,
    front_cache_capacity: usize,
    wal_fsync: FsyncPolicy,
}

impl CorpusBuilder {
    /// A builder with the given CCD parameters, no snapshot directory,
    /// the default front-cache capacity and the default (`batch:5`) WAL
    /// fsync policy.
    pub fn new(params: CcdParams) -> CorpusBuilder {
        CorpusBuilder {
            params,
            snapshot_dir: None,
            front_cache_capacity: DEFAULT_FRONT_CACHE_CAPACITY,
            wal_fsync: FsyncPolicy::default(),
        }
    }

    /// Attach a snapshot directory (enables [`CorpusHandle::compact`] and
    /// [`CorpusBuilder::load_snapshot`]).
    pub fn snapshot_dir(mut self, dir: impl Into<PathBuf>) -> CorpusBuilder {
        self.snapshot_dir = Some(dir.into());
        self
    }

    /// Capacity of each near-duplicate front-cache tier (0 disables the
    /// front cache).
    pub fn front_cache_capacity(mut self, capacity: usize) -> CorpusBuilder {
        self.front_cache_capacity = capacity;
        self
    }

    /// When write-ahead-log appends are fsynced (only meaningful with a
    /// snapshot directory — the WAL lives next to the snapshots).
    pub fn wal_fsync(mut self, policy: FsyncPolicy) -> CorpusBuilder {
        self.wal_fsync = policy;
        self
    }

    /// An empty corpus.
    pub fn empty(self) -> CorpusHandle {
        let params = self.params;
        self.assemble(CloneDetector::new(params))
    }

    /// Fingerprint `(id, source)` documents and build the corpus.
    /// Documents that do not fingerprint (parse failure, nothing
    /// tokenizable) are skipped, as everywhere else in the pipeline.
    pub fn from_sources<'a, I>(self, docs: I) -> CorpusHandle
    where
        I: IntoIterator<Item = (u64, &'a str)>,
    {
        let fingerprints = Self::fingerprint_sources(docs);
        self.from_fingerprints(fingerprints)
    }

    /// Build the corpus from already-computed fingerprints.
    pub fn from_fingerprints(self, docs: Vec<(DocId, Fingerprint)>) -> CorpusHandle {
        let detector = CloneDetector::from_shared(self.params, Arc::new(docs));
        self.assemble(detector)
    }

    /// Warm-start from the snapshot directory's committed generation and
    /// replay the write-ahead log on top of it ([`Journal::recover`]), so
    /// inserts that were acknowledged after the last compaction come back
    /// as deltas. `Ok(None)` when the directory has no committed snapshot
    /// yet (fresh deploy — build from sources and [`CorpusHandle::compact`]
    /// instead); typed `index_corrupt`/`index_version` errors when it has
    /// one that cannot be loaded.
    pub fn load_snapshot(self) -> Result<Option<CorpusHandle>, AnalysisError> {
        let dir = self
            .snapshot_dir
            .clone()
            .ok_or_else(|| AnalysisError::invalid("no snapshot directory configured"))?;
        let Some(recovery) = Journal::recover(dir, self.wal_fsync)? else {
            return Ok(None);
        };
        let generation = recovery.snapshot.generation;
        let mut detector = recovery.snapshot.into_detector(self.params)?;
        let replayed = recovery.records.len() as u64;
        for (doc, fingerprint) in recovery.records {
            detector.insert_fingerprint(doc, fingerprint);
        }
        Ok(Some(self.assemble_with(detector, generation, Some(recovery.journal), replayed)))
    }

    /// Fingerprint sources without building any index — the shared
    /// front half of [`CorpusBuilder::from_sources`], used directly by
    /// sweep-style consumers ([`ccd::SweepEngine::from_fingerprints`])
    /// that need the fingerprints but none of the retrieval machinery.
    pub fn fingerprint_sources<'a, I>(docs: I) -> Vec<(DocId, Fingerprint)>
    where
        I: IntoIterator<Item = (u64, &'a str)>,
    {
        docs.into_iter()
            .filter_map(|(id, source)| {
                CloneDetector::fingerprint_source(source).map(|fp| (id, fp))
            })
            .collect()
    }

    /// Cold assembly: with a snapshot directory attached, a cold
    /// [`Journal`] starts a segment above every generation the directory
    /// already names ([`Journal::create`]).
    fn assemble(self, detector: CloneDetector) -> CorpusHandle {
        let journal = self.snapshot_dir.as_ref().map(|dir| {
            Journal::create(dir, self.wal_fsync)
                .expect("WAL segment creatable in a writable snapshot dir")
        });
        self.assemble_with(detector, 0, journal, 0)
    }

    fn assemble_with(
        self,
        detector: CloneDetector,
        generation: u64,
        journal: Option<Journal>,
        replayed: u64,
    ) -> CorpusHandle {
        // Saturating: a WAL written before `DocId::MAX` was refused can
        // still hold that id.
        let next_doc = detector
            .iter_fingerprints()
            .map(|(doc, _)| doc.saturating_add(1))
            .max()
            .unwrap_or(0);
        let ids = detector.iter_fingerprints().map(|(doc, _)| doc).collect();
        let wal_policy = journal.is_some().then_some(self.wal_fsync);
        CorpusHandle {
            inner: Arc::new(HandleInner {
                params: self.params,
                detector: RwLock::new(detector),
                generation: AtomicU64::new(generation),
                deltas: AtomicU64::new(replayed),
                writer: Mutex::new(Writer { ids, next_doc, journal }),
                wal_policy,
                compacting: AtomicBool::new(false),
                front: FrontCache::new(self.front_cache_capacity),
                replayed_on_boot: replayed,
                auto_compactions: AtomicU64::new(0),
            }),
        }
    }
}

struct HandleInner {
    params: CcdParams,
    /// The corpus. A clone check scores under the read guard and an
    /// insert applies under the write guard. A thread never holds two
    /// guards: std's `RwLock` queues a new reader behind a waiting
    /// writer, so a nested read would deadlock against an insert.
    detector: RwLock<CloneDetector>,
    /// Committed snapshot generation (0 = never committed).
    generation: AtomicU64,
    /// Inserts since the committed generation. Bumped under the
    /// detector's write guard and read by `compact` under the read guard
    /// that copies the corpus, so the two always agree.
    deltas: AtomicU64,
    /// The one writer lock. An insert holds it from the duplicate check
    /// through the WAL append and the detector apply; a compaction holds
    /// it to rotate the journal. Taken before the detector's guard, never
    /// after.
    writer: Mutex<Writer>,
    /// The WAL fsync policy (`None` without a snapshot directory). Fixed
    /// at assembly, so reading it takes no lock.
    wal_policy: Option<FsyncPolicy>,
    /// Set while a compaction is in flight.
    compacting: AtomicBool,
    front: FrontCache,
    /// WAL records replayed when this handle warm-started.
    replayed_on_boot: u64,
    /// Compactions triggered by the delta threshold (`--compact-after`).
    auto_compactions: AtomicU64,
}

/// The writer side of a handle, behind [`HandleInner::writer`].
struct Writer {
    /// All indexed ids (duplicate-insert guard).
    ids: intern::FxHashSet<DocId>,
    /// The next auto-assigned id: above every id ever indexed.
    next_doc: DocId,
    /// The snapshot directory and its active WAL segment (`None` without
    /// a snapshot directory).
    journal: Option<Journal>,
}

/// A shared, thread-safe handle to the clone corpus — see the module
/// docs. Cloning the handle clones an `Arc`.
#[derive(Clone)]
pub struct CorpusHandle {
    inner: Arc<HandleInner>,
}

impl CorpusHandle {
    /// The CCD parameters the corpus was built with.
    pub fn params(&self) -> CcdParams {
        self.inner.params
    }

    /// Total indexed documents.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The committed snapshot generation (0 when nothing was ever
    /// committed).
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::SeqCst)
    }

    /// Inserts accepted since the committed generation. Each one is in
    /// the write-ahead log (when a snapshot directory is attached), so
    /// deltas survive a crash and are replayed at the next warm start;
    /// [`CorpusHandle::compact`] folds them into the snapshot proper.
    pub fn deltas(&self) -> u64 {
        self.inner.deltas.load(Ordering::SeqCst)
    }

    /// Live write-ahead log counters of the active segment, read under
    /// the writer lock that appends to it and rotates it; `None` without
    /// a snapshot directory (nothing to log against).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.writer().journal.as_ref().map(Journal::stats)
    }

    /// The WAL fsync policy's canonical name, or `"off"` when the handle
    /// has no WAL.
    pub fn fsync_policy_name(&self) -> String {
        self.inner.wal_policy.map_or_else(|| "off".into(), |policy| policy.name())
    }

    /// WAL records replayed when this handle warm-started (0 for cold
    /// builds).
    pub fn replayed_on_boot(&self) -> u64 {
        self.inner.replayed_on_boot
    }

    /// Compactions completed by the delta threshold
    /// ([`CorpusHandle::maybe_auto_compact`]).
    pub fn auto_compactions(&self) -> u64 {
        self.inner.auto_compactions.load(Ordering::SeqCst)
    }

    /// Front-cache counters.
    pub fn front_cache_stats(&self) -> FrontCacheStats {
        let front = &self.inner.front;
        FrontCacheStats {
            exact_hits: front.exact_hits.load(Ordering::Relaxed),
            near_hits: front.near_hits.load(Ordering::Relaxed),
            misses: front.misses.load(Ordering::Relaxed),
        }
    }

    /// The corpus in canonical (ascending doc id) order — the sweep and
    /// evaluation consumers' view. Slot order is insertion order, which
    /// explicit-id inserts make differ from doc order.
    pub fn fingerprints(&self) -> Vec<(DocId, Fingerprint)> {
        // The guard is a temporary: it is released before the sort.
        let mut docs: Vec<(DocId, Fingerprint)> =
            self.read().iter_fingerprints().map(|(doc, fp)| (doc, fp.clone())).collect();
        docs.sort_by_key(|(doc, _)| *doc);
        docs
    }

    /// The detector's read guard (a poisoned lock is read through, like
    /// every lock of the handle).
    fn read(&self) -> RwLockReadGuard<'_, CloneDetector> {
        self.inner.detector.read().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The writer lock ([`HandleInner::writer`]).
    fn writer(&self) -> MutexGuard<'_, Writer> {
        self.inner.writer.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// All clones of `query`: η-filtered candidate retrieval and
    /// Algorithm 1 scoring under the read guard, then one canonical order
    /// — descending score, ascending doc id on ties — so the result is
    /// byte-stable across insertion orders and backing stores.
    pub fn matches(&self, query: &Fingerprint) -> Vec<CloneMatch> {
        // The guard is a temporary: it is released before the sort.
        let mut all = self.read().matches(query);
        all.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.doc.cmp(&b.doc))
        });
        all
    }

    /// Insert a pre-computed fingerprint. `doc: None` auto-assigns the
    /// next free id; an explicit id that is already indexed, and
    /// `DocId::MAX` (which has no successor for the allocator), are an
    /// `invalid_request`. Returns the id.
    ///
    /// Write-ahead discipline: with a snapshot directory attached the
    /// record is appended to the WAL segment *before* the in-memory
    /// apply — once this returns `Ok`, the insert survives `kill -9`.
    /// A failed append rejects the insert; nothing is applied and the id
    /// stays free.
    ///
    /// The writer lock is held from the duplicate check through the
    /// append and the apply, so a compaction rotates the WAL either
    /// before the append (the record lands in the new segment) or after
    /// the apply (its copy holds the document): never in between. The
    /// detector's write guard is held for the apply alone, after the
    /// append, so an `always` fsync never blocks a clone check.
    pub fn insert_fingerprint(
        &self,
        doc: Option<DocId>,
        fingerprint: Fingerprint,
    ) -> Result<DocId, AnalysisError> {
        static INSERTS: telemetry::Counter = telemetry::Counter::new("corpus.inserts");
        let doc = {
            let mut writer = self.writer();
            let doc = match doc {
                Some(doc) if writer.ids.contains(&doc) => {
                    return Err(AnalysisError::invalid(format!("doc id {doc} is already indexed")));
                }
                Some(doc) => doc,
                None => writer.next_doc,
            };
            if doc == DocId::MAX {
                return Err(AnalysisError::invalid(format!("doc id {doc} is out of range")));
            }
            if let Some(journal) = writer.journal.as_mut() {
                journal.append(doc, &fingerprint)?;
            }
            // The record is logged: reserve its id before anything else
            // can fail, so no later insert logs a second record under it.
            writer.ids.insert(doc);
            // Keep the allocator above every id ever seen.
            writer.next_doc = writer.next_doc.max(doc + 1);
            // Chaos hook: a delay holds the insert between its append and
            // its apply. A panic rule fires here too, after the record is
            // logged and its id reserved; an error rule is ignored.
            let _ = faultinject::fire("corpus/apply");
            let mut detector =
                self.inner.detector.write().unwrap_or_else(|poisoned| poisoned.into_inner());
            detector.insert_fingerprint(doc, fingerprint);
            self.inner.deltas.fetch_add(1, Ordering::SeqCst);
            doc
        };
        INSERTS.incr();
        // The corpus changed: cached match results are stale.
        self.inner.front.exact.clear();
        self.inner.front.near.clear();
        Ok(doc)
    }

    /// Fingerprint a source fragment and insert it (typed errors for
    /// unfingerprintable sources). Returns the assigned id.
    pub fn insert_source(
        &self,
        doc: Option<DocId>,
        source: &str,
    ) -> Result<DocId, AnalysisError> {
        let fingerprint = CloneDetector::try_fingerprint_source(source)?;
        self.insert_fingerprint(doc, fingerprint)
    }

    /// Compact the full corpus (snapshot + deltas) into the next snapshot
    /// generation and commit it. Requires a snapshot directory; at most
    /// one compaction runs at a time (`index_busy` otherwise). Returns
    /// the committed generation: the rotation's, which is above the
    /// committed one and never below the journal's active segment.
    ///
    /// Under the writer lock, the journal rotates to the next
    /// generation's WAL segment ([`Journal::rotate`]). Every insert whose
    /// record is in an older segment held that lock through its apply, so
    /// it is in the live detector, whose fingerprints (in slot order) and
    /// N-gram index are then copied under its read guard; later inserts
    /// land in the new segment (and possibly also in the copy: replay
    /// deduplicates by doc id). Encoding, the fsyncs and the retirement of
    /// the superseded snapshot and segments run after the guard is
    /// released, so clone checks and inserts proceed.
    pub fn compact(&self) -> Result<u64, AnalysisError> {
        static COMPACTIONS: telemetry::Counter = telemetry::Counter::new("corpus.compactions");
        if self.inner.compacting.swap(true, Ordering::SeqCst) {
            return Err(AnalysisError::index_busy("a compaction is already in flight"));
        }
        // Clear the flag on every exit path, including commit errors.
        struct Clear<'a>(&'a AtomicBool);
        impl Drop for Clear<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::SeqCst);
            }
        }
        let _clear = Clear(&self.inner.compacting);
        let rotation = match self.writer().journal.as_mut() {
            Some(journal) => journal.rotate(self.generation() + 1)?,
            None => return Err(AnalysisError::invalid("no snapshot directory configured")),
        };
        let generation = rotation.generation();
        let (docs, index, captured_deltas) = {
            let detector = self.read();
            let docs: Vec<(DocId, Fingerprint)> =
                detector.iter_fingerprints().map(|(doc, fp)| (doc, fp.clone())).collect();
            (docs, detector.index().clone(), self.deltas())
        };
        rotation.commit(&docs, &index)?;
        self.inner.generation.store(generation, Ordering::SeqCst);
        // Settle exactly the deltas the snapshot holds: inserts that
        // applied after the copy stay counted.
        self.inner.deltas.fetch_sub(captured_deltas, Ordering::SeqCst);
        COMPACTIONS.incr();
        Ok(generation)
    }

    /// Kick off a background compaction when the delta count has reached
    /// `threshold` and none is in flight (the `serve --compact-after`
    /// policy). Returns whether a compaction was spawned; the busy guard
    /// makes a race with a manual `/v1/index/compact` harmless (one of
    /// the two simply observes `index_busy`).
    pub fn maybe_auto_compact(&self, threshold: u64) -> bool {
        static AUTO_COMPACTIONS: telemetry::Counter =
            telemetry::Counter::new("corpus.auto_compactions");
        if self.inner.wal_policy.is_none()
            || self.deltas() < threshold.max(1)
            || self.inner.compacting.load(Ordering::SeqCst)
        {
            return false;
        }
        let handle = self.clone();
        std::thread::Builder::new()
            .name("auto-compact".into())
            .spawn(move || match handle.compact() {
                Ok(generation) => {
                    handle.inner.auto_compactions.fetch_add(1, Ordering::SeqCst);
                    AUTO_COMPACTIONS.incr();
                    telemetry::trace::annotate("auto_compact_generation", generation);
                }
                // Lost the race against a manual compaction — fine, the
                // deltas are being folded either way.
                Err(error) if error.code() == "index_busy" => {}
                Err(error) => {
                    eprintln!("[corpus] auto compaction failed: {error}");
                }
            })
            .is_ok()
    }

    /// Front-cache lookup by exact source bytes (tier 1). `None` when
    /// caching is off, faults are armed, or the source was never seen.
    pub fn cached_by_source(&self, source: &str) -> Option<Arc<Vec<CloneMatch>>> {
        static HITS: telemetry::Counter = telemetry::Counter::new("corpus.front_cache.exact_hits");
        let front = &self.inner.front;
        let hit = front.exact.get(source);
        if hit.is_some() {
            front.exact_hits.fetch_add(1, Ordering::Relaxed);
            HITS.incr();
            telemetry::trace::annotate("front_cache", "exact_hit");
        }
        hit
    }

    /// Front-cache lookup by fuzzy fingerprint (tier 2): near-duplicate
    /// submissions — whitespace, comments, renamed identifiers — converge
    /// to the same normalized fingerprint and hit here after parsing,
    /// skipping candidate retrieval and scoring.
    pub fn cached_by_fingerprint(&self, fp: &Fingerprint) -> Option<Arc<Vec<CloneMatch>>> {
        static HITS: telemetry::Counter = telemetry::Counter::new("corpus.front_cache.near_hits");
        static MISSES: telemetry::Counter = telemetry::Counter::new("corpus.front_cache.misses");
        let front = &self.inner.front;
        let hit = front.near.get(fp.as_str());
        if hit.is_some() {
            front.near_hits.fetch_add(1, Ordering::Relaxed);
            HITS.incr();
            telemetry::trace::annotate("front_cache", "near_hit");
        } else {
            front.misses.fetch_add(1, Ordering::Relaxed);
            MISSES.incr();
        }
        hit
    }

    /// All clones of `query` ([`CorpusHandle::matches`]), memoized under
    /// both front-cache tiers for `source` and `query`. The tiers' insert
    /// epochs are read before matching, so an answer computed over a
    /// corpus that an insert has since grown is returned but not stored.
    pub fn matches_and_cache(&self, source: &str, query: &Fingerprint) -> Arc<Vec<CloneMatch>> {
        let front = &self.inner.front;
        let (exact_epoch, near_epoch) = (front.exact.epoch(), front.near.epoch());
        let matches = Arc::new(self.matches(query));
        front.exact.insert(exact_epoch, source.into(), Arc::clone(&matches));
        front.near.insert(near_epoch, query.as_str().into(), Arc::clone(&matches));
        matches
    }
}

/// Counters of the near-duplicate front cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontCacheStats {
    /// Tier-1 hits: byte-identical source resubmitted.
    pub exact_hits: u64,
    /// Tier-2 hits: near-duplicate source (same normalized fingerprint).
    pub near_hits: u64,
    /// Lookups that reached the matcher.
    pub misses: u64,
}

impl FrontCacheStats {
    /// Hit fraction over all lookups (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.exact_hits + self.near_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.exact_hits + self.near_hits) as f64 / total as f64
        }
    }
}

/// Two-tier LRU front cache for clone-check results.
///
/// Tier 1 keys on the raw source (no parsing at all on a hit). Tier 2
/// keys on the normalized fuzzy fingerprint — the digest `ccd` builds from
/// `fuzzyhash` — so Type-1/Type-2 near-duplicates (cosmetic edits, renamed
/// identifiers) share an entry the moment they fingerprint. Matching is a
/// pure function of the fingerprint, so tier-2 hits are exact, not
/// approximate. An insert clears both tiers, and the insert epoch each
/// [`Lru`] keeps turns away a store of an answer computed before that
/// clear ([`CorpusHandle::matches_and_cache`]).
struct FrontCache {
    exact: Lru<Arc<str>, Arc<Vec<CloneMatch>>>,
    near: Lru<Arc<str>, Arc<Vec<CloneMatch>>>,
    exact_hits: AtomicU64,
    near_hits: AtomicU64,
    misses: AtomicU64,
}

impl FrontCache {
    fn new(capacity: usize) -> FrontCache {
        FrontCache {
            exact: Lru::new(capacity),
            near: Lru::new(capacity),
            exact_hits: AtomicU64::new(0),
            near_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC_A: &str =
        "contract A { function w(uint v) public { msg.sender.transfer(v); } }";
    const DOC_B: &str =
        "contract B { uint total; function add(uint v) public { total += v; } }";
    /// Type-2 near-duplicate of DOC_A (renamed identifiers, extra spaces).
    const DOC_A_NEAR: &str =
        "contract Wallet {  function out(uint amount) public { msg.sender.transfer(amount); } }";

    fn handle() -> CorpusHandle {
        CorpusBuilder::new(CcdParams::best()).from_sources([(0u64, DOC_A), (1u64, DOC_B)])
    }

    fn query(source: &str) -> Fingerprint {
        CloneDetector::fingerprint_source(source).unwrap()
    }

    #[test]
    fn insert_auto_assigns_above_existing_ids() {
        let handle = handle();
        let id = handle.insert_source(None, DOC_A_NEAR).unwrap();
        assert_eq!(id, 2);
        assert_eq!(handle.len(), 3);
        assert_eq!(handle.deltas(), 1);
        assert!(handle.matches(&query(DOC_A)).iter().any(|m| m.doc == 2));
    }

    #[test]
    fn duplicate_explicit_id_is_invalid() {
        let handle = handle();
        let err = handle.insert_source(Some(1), DOC_A_NEAR).unwrap_err();
        assert_eq!(err.code(), "invalid_request");
        assert_eq!(handle.len(), 2);
    }

    #[test]
    fn the_largest_doc_id_is_refused_and_never_panics() {
        let handle = handle();
        let err = handle.insert_fingerprint(Some(DocId::MAX), query(DOC_A_NEAR)).unwrap_err();
        assert_eq!(err.code(), "invalid_request");
        assert_eq!((handle.len(), handle.deltas()), (2, 0));
        // A corpus that already holds the id (a WAL written before it was
        // refused) still assembles, and has no id left to auto-assign.
        let full = CorpusBuilder::new(CcdParams::best())
            .from_fingerprints(vec![(DocId::MAX, query(DOC_A))]);
        let err = full.insert_source(None, DOC_B).unwrap_err();
        assert_eq!(err.code(), "invalid_request");
        assert_eq!(full.len(), 1);
        assert_eq!(full.insert_source(Some(4), DOC_B).unwrap(), 4);
    }

    #[test]
    fn equal_scores_come_back_in_doc_order() {
        let handle = CorpusBuilder::new(CcdParams::best()).empty();
        let fp = query(DOC_A);
        for doc in [9, 3, 7] {
            handle.insert_fingerprint(Some(doc), fp.clone()).unwrap();
        }
        let matches = handle.matches(&fp);
        assert!(matches.iter().all(|m| m.score == matches[0].score));
        assert_eq!(matches.iter().map(|m| m.doc).collect::<Vec<_>>(), vec![3, 7, 9]);
    }

    #[test]
    fn compact_without_snapshot_dir_is_invalid() {
        let err = handle().compact().unwrap_err();
        assert_eq!(err.code(), "invalid_request");
    }

    #[test]
    fn front_cache_tiers_hit_and_invalidate() {
        let handle = handle();
        assert!(handle.cached_by_source(DOC_A).is_none());
        let fp = query(DOC_A);
        let matches = handle.matches_and_cache(DOC_A, &fp);
        // Tier 1: same bytes.
        assert_eq!(handle.cached_by_source(DOC_A).unwrap(), matches);
        // Tier 2: a near-duplicate has the same normalized fingerprint.
        let near_fp = query(DOC_A_NEAR);
        assert_eq!(near_fp.as_str(), fp.as_str(), "near-duplicate must share the fingerprint");
        assert_eq!(handle.cached_by_fingerprint(&near_fp).unwrap(), matches);
        let stats = handle.front_cache_stats();
        assert_eq!((stats.exact_hits, stats.near_hits), (1, 1));
        assert!(stats.hit_rate() > 0.5);
    }

    #[test]
    fn insert_invalidates_front_cache() {
        let handle = handle();
        let fp = query(DOC_A);
        handle.matches_and_cache(DOC_A, &fp);
        handle.insert_source(None, DOC_A_NEAR).unwrap();
        assert!(handle.cached_by_source(DOC_A).is_none(), "stale entry survived an insert");
        // A fresh match now sees the inserted near-duplicate.
        assert!(handle.matches(&fp).iter().any(|m| m.doc == 2));
    }

    #[test]
    fn a_match_that_raced_an_insert_is_not_cached() {
        // The interleaving of a clone check against an insert, run in
        // sequence: read the epoch, match over the old corpus, insert,
        // then try to store the pre-insert answer.
        let handle = handle();
        let fp = query(DOC_A);
        let front = &handle.inner.front;
        let (exact_epoch, near_epoch) = (front.exact.epoch(), front.near.epoch());
        let before = Arc::new(handle.matches(&fp));
        assert!(before.iter().all(|m| m.doc != 2));
        let inserted = handle.insert_source(None, DOC_A_NEAR).unwrap();
        front.exact.insert(exact_epoch, DOC_A.into(), Arc::clone(&before));
        front.near.insert(near_epoch, fp.as_str().into(), before);
        assert!(handle.cached_by_source(DOC_A).is_none(), "stale answer cached by source");
        assert!(handle.cached_by_fingerprint(&fp).is_none(), "stale answer cached by fingerprint");
        // The next clone check misses the cache and sees the new doc.
        let after = handle.matches_and_cache(DOC_A, &fp);
        assert!(after.iter().any(|m| m.doc == inserted));
        assert_eq!(handle.cached_by_source(DOC_A), Some(after));
    }

    #[test]
    fn concurrent_inserts_and_reads_stay_consistent() {
        let handle = CorpusBuilder::new(CcdParams::best()).empty();
        let seed_fp = query(DOC_A);
        handle.insert_fingerprint(Some(0), seed_fp.clone()).unwrap();
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let handle = handle.clone();
                    let fp = seed_fp.clone();
                    scope.spawn(move || {
                        let mut last = 0;
                        for _ in 0..200 {
                            // The writer inserts ids 1..=20 in order, so a
                            // whole read is exactly docs 0..=k, and k never
                            // moves backward: no torn or stale read.
                            let docs: Vec<u64> =
                                handle.matches(&fp).iter().map(|m| m.doc).collect();
                            let k = docs.len() as u64;
                            let k = k.checked_sub(1).expect("doc 0 is always present");
                            assert_eq!(docs, (0..=k).collect::<Vec<_>>());
                            assert!(k >= last, "read went back from {last} to {k}");
                            last = k;
                        }
                        last + 1
                    })
                })
                .collect();
            let writer = {
                let handle = handle.clone();
                let fp = seed_fp.clone();
                scope.spawn(move || {
                    for i in 1..=20u64 {
                        handle.insert_fingerprint(Some(i), fp.clone()).unwrap();
                    }
                })
            };
            writer.join().unwrap();
            for reader in readers {
                assert!(reader.join().unwrap() >= 1);
            }
        });
        assert_eq!(handle.len(), 21);
        assert_eq!(handle.matches(&seed_fp).len(), 21);
        // Canonical order: all scores equal → ascending doc ids.
        let docs: Vec<u64> = handle.matches(&seed_fp).iter().map(|m| m.doc).collect();
        assert_eq!(docs, (0..=20).collect::<Vec<_>>());
    }
}
