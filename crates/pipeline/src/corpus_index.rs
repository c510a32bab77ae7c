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
//! * **snapshot + deltas** — a loaded snapshot taking live inserts on the
//!   `Arc::make_mut` copy-on-write path until the next compaction.
//!
//! The handle shards its documents by id hash across independent
//! [`CloneDetector`]s (candidate retrieval for a query runs the shards in
//! parallel), tracks the committed snapshot generation vs. uncommitted
//! delta count, and fronts the match path with a two-tier near-duplicate
//! cache (exact source, then fuzzy fingerprint) — most real traffic is
//! the same snippet pasted again with cosmetic edits.

use crate::cache::Lru;
use ccd::{CcdParams, CloneDetector, CloneMatch, Fingerprint};
use index_store::wal::{self, WalWriter};
use index_store::{FsyncPolicy, SnapshotStore, WalStats};
use ngram_index::{DocId, NgramIndex};
use solidity::AnalysisError;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Default capacity of each front-cache tier.
pub const DEFAULT_FRONT_CACHE_CAPACITY: usize = 2048;

/// Deterministic shard routing: multiplicative hash of the doc id. Every
/// layer (build, insert, snapshot re-partition) must agree on this.
fn shard_of(doc: DocId, shards: usize) -> usize {
    (doc.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % shards
}

/// Builder for a [`CorpusHandle`] — the one entry point replacing the
/// `from_documents`/`from_shared` constructor sprawl.
#[derive(Debug, Clone)]
pub struct CorpusBuilder {
    params: CcdParams,
    shards: usize,
    snapshot_dir: Option<PathBuf>,
    front_cache_capacity: usize,
    wal_fsync: FsyncPolicy,
}

impl CorpusBuilder {
    /// A builder with the given CCD parameters, one shard, no snapshot
    /// directory, the default front-cache capacity and the default
    /// (`batch:5`) WAL fsync policy.
    pub fn new(params: CcdParams) -> CorpusBuilder {
        CorpusBuilder {
            params,
            shards: 1,
            snapshot_dir: None,
            front_cache_capacity: DEFAULT_FRONT_CACHE_CAPACITY,
            wal_fsync: FsyncPolicy::default(),
        }
    }

    /// Shard the corpus `shards` ways (clamped to ≥ 1). Candidate
    /// retrieval fans out across shards in parallel; results are merged
    /// into one canonical order, so the shard count never changes what a
    /// query returns.
    pub fn shards(mut self, shards: usize) -> CorpusBuilder {
        self.shards = shards.max(1);
        self
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
        self.assemble(CloneDetector::new(params), 0)
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
        self.from_shared(Arc::new(docs))
    }

    /// Build the corpus over a shared fingerprint vector (reference-count
    /// sharing with other consumers of the same corpus).
    pub fn from_shared(self, corpus: Arc<Vec<(DocId, Fingerprint)>>) -> CorpusHandle {
        let params = self.params;
        let detector = CloneDetector::from_shared(params, corpus);
        self.assemble(detector, 0)
    }

    /// Warm-start from the snapshot directory's committed generation and
    /// replay the write-ahead log tail on top of it, so inserts that were
    /// acknowledged after the last compaction come back as deltas.
    /// `Ok(None)` when the directory has no committed snapshot yet (fresh
    /// deploy — build from sources and [`CorpusHandle::compact`] instead);
    /// typed `index_corrupt`/`index_version` errors when it has one that
    /// cannot be loaded.
    pub fn load_snapshot(self) -> Result<Option<CorpusHandle>, AnalysisError> {
        let dir = self
            .snapshot_dir
            .clone()
            .ok_or_else(|| AnalysisError::invalid("no snapshot directory configured"))?;
        let store = SnapshotStore::open(dir)?;
        let Some(snapshot) = store.load_current()? else {
            return Ok(None);
        };
        let generation = snapshot.generation;
        let mut detector = snapshot.into_detector(self.params)?;

        // Replay the write-ahead log tail on top of the snapshot.
        // Segments before the committed generation are fully contained in
        // it; segments after it were started by a compaction that died
        // before its commit. Replay the current generation's segment
        // first, then the orphans, deduplicating by doc id (a record can
        // legitimately live in both the snapshot and a post-rotation
        // segment). Torn or corrupt tails are truncated with a warning,
        // never an error.
        store.remove_stale_wals(generation);
        let mut primary: Option<wal::Replay> = None;
        let mut orphans: Vec<wal::Replay> = Vec::new();
        for wal_generation in store.wal_generations() {
            let Some(replay) = wal::replay(&store.wal_path(wal_generation), wal_generation)?
            else {
                continue;
            };
            if wal_generation == generation {
                primary = Some(replay);
            } else {
                orphans.push(replay);
            }
        }
        let mut writer = match &primary {
            Some(replay) => {
                WalWriter::resume(store.wal_path(generation), self.wal_fsync, replay)?
            }
            None => WalWriter::create(store.wal_path(generation), generation, self.wal_fsync)?,
        };
        let mut seen: intern::FxHashSet<DocId> =
            detector.iter_fingerprints().map(|(doc, _)| doc).collect();
        let mut replayed = 0u64;
        for (doc, fingerprint) in primary.map(|r| r.records).unwrap_or_default() {
            if seen.insert(doc) {
                detector.insert_fingerprint(doc, fingerprint);
                replayed += 1;
            }
        }
        let mut consolidated = false;
        for orphan in orphans {
            for (doc, fingerprint) in orphan.records {
                if seen.insert(doc) {
                    // Fold the orphaned segment's records into the
                    // current one, so the next rotation (which truncates
                    // the orphan's path) cannot lose them.
                    writer.append(doc, &fingerprint)?;
                    detector.insert_fingerprint(doc, fingerprint);
                    replayed += 1;
                    consolidated = true;
                }
            }
        }
        if consolidated {
            writer.sync()?;
        }
        for wal_generation in store.wal_generations() {
            if wal_generation > generation {
                let _ = std::fs::remove_file(store.wal_path(wal_generation));
            }
        }
        Ok(Some(self.assemble_with(detector, generation, Some(writer), replayed)))
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

    /// Cold assembly: when a snapshot directory is attached, a fresh WAL
    /// segment for `generation` is started (truncating any stale one —
    /// a cold build's in-memory state *is* the whole corpus, so an old
    /// segment has nothing to add).
    fn assemble(self, combined: CloneDetector, generation: u64) -> CorpusHandle {
        let writer = self.snapshot_dir.as_ref().map(|dir| {
            let store = SnapshotStore::open(dir).expect("snapshot dir was creatable above");
            WalWriter::create(store.wal_path(generation), generation, self.wal_fsync)
                .expect("WAL segment creatable in a writable snapshot dir")
        });
        self.assemble_with(combined, generation, writer, 0)
    }

    fn assemble_with(
        self,
        combined: CloneDetector,
        generation: u64,
        wal: Option<WalWriter>,
        replayed: u64,
    ) -> CorpusHandle {
        let next_doc = combined
            .iter_fingerprints()
            .map(|(doc, _)| doc + 1)
            .max()
            .unwrap_or(0);
        let ids = combined.iter_fingerprints().map(|(doc, _)| doc).collect();
        let shards = partition_detector(self.params, combined, self.shards)
            .into_iter()
            .map(|d| RwLock::new(Arc::new(d)))
            .collect();
        CorpusHandle {
            inner: Arc::new(HandleInner {
                params: self.params,
                shards,
                generation: AtomicU64::new(generation),
                deltas: AtomicU64::new(replayed),
                store: self.snapshot_dir.map(|dir| {
                    SnapshotStore::open(dir).expect("snapshot dir was creatable above")
                }),
                compacting: AtomicBool::new(false),
                ids: Mutex::new(ids),
                next_doc: AtomicU64::new(next_doc),
                front: FrontCache::new(self.front_cache_capacity),
                wal: Mutex::new(wal),
                wal_policy: self.wal_fsync,
                replayed_on_boot: replayed,
                auto_compactions: AtomicU64::new(0),
            }),
        }
    }
}

/// Split one detector into per-shard detectors without re-gramming: each
/// document is routed to a shard by [`shard_of`] and takes the next slot
/// there, and the combined index's postings are routed slot by slot, so
/// each shard imports its slice verbatim (ascending global slots stay
/// ascending per shard).
fn partition_detector(
    params: CcdParams,
    combined: CloneDetector,
    shards: usize,
) -> Vec<CloneDetector> {
    if shards <= 1 {
        // Cheap path: the combined detector IS the single shard — moved,
        // not copied, so a snapshot warm start never duplicates postings.
        return vec![combined];
    }
    let mut corpora: Vec<Vec<(DocId, Fingerprint)>> = vec![Vec::new(); shards];
    let mut docs: Vec<Vec<(DocId, usize)>> = vec![Vec::new(); shards];
    // Global slot → (shard, slot within the shard).
    let mut route: Vec<(usize, u32)> = Vec::with_capacity(combined.len());
    for ((doc, fp), (_, grams)) in combined.iter_fingerprints().zip(combined.index().documents()) {
        let shard = shard_of(doc, shards);
        route.push((shard, corpora[shard].len() as u32));
        corpora[shard].push((doc, fp.clone()));
        docs[shard].push((doc, grams));
    }
    let mut postings: Vec<Vec<(Box<str>, Vec<u32>)>> = vec![Vec::new(); shards];
    for (gram, slots) in combined.index().postings_sorted() {
        let mut routed: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for slot in slots {
            let (shard, local) = route[*slot as usize];
            routed[shard].push(local);
        }
        for (shard, slots) in routed.into_iter().enumerate() {
            if !slots.is_empty() {
                postings[shard].push((gram.into(), slots));
            }
        }
    }
    corpora
        .into_iter()
        .zip(docs)
        .zip(postings)
        .map(|((corpus, docs), posts)| {
            let index = NgramIndex::from_parts(params.ngram_size, docs, posts);
            CloneDetector::from_parts(params, Arc::new(corpus), index)
                .expect("per-shard parts are consistent by construction")
        })
        .collect()
}

struct HandleInner {
    params: CcdParams,
    /// Per-shard detectors. Readers clone the `Arc` out of the lock and
    /// match lock-free; inserts take the write lock and mutate through
    /// `Arc::make_mut` (copy-on-write when a reader still holds the old
    /// corpus).
    shards: Vec<RwLock<Arc<CloneDetector>>>,
    /// Committed snapshot generation (0 = never committed).
    generation: AtomicU64,
    /// Inserts since the committed generation.
    deltas: AtomicU64,
    store: Option<SnapshotStore>,
    compacting: AtomicBool,
    /// All indexed ids (duplicate-insert guard + id allocation).
    ids: Mutex<intern::FxHashSet<DocId>>,
    next_doc: AtomicU64,
    front: FrontCache,
    /// Write-ahead log writer for the active segment (`Some` exactly
    /// when `store` is). Appends happen under this lock *before* the
    /// shard apply; compaction swaps in the next generation's writer.
    wal: Mutex<Option<WalWriter>>,
    wal_policy: FsyncPolicy,
    /// WAL records replayed when this handle warm-started.
    replayed_on_boot: u64,
    /// Compactions triggered by the delta threshold (`--compact-after`).
    auto_compactions: AtomicU64,
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

    /// Total indexed documents across shards.
    pub fn len(&self) -> usize {
        self.shard_detectors().iter().map(|d| d.len()).sum()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Per-shard document counts, in shard order.
    pub fn shard_layout(&self) -> Vec<usize> {
        self.shard_detectors().iter().map(|d| d.len()).collect()
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

    /// Live write-ahead log counters; `None` without a snapshot
    /// directory (nothing to log against).
    pub fn wal_stats(&self) -> Option<WalStats> {
        let wal = self.inner.wal.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        wal.as_ref().map(|writer| writer.stats())
    }

    /// The WAL fsync policy's canonical name, or `"off"` when the handle
    /// has no WAL.
    pub fn fsync_policy_name(&self) -> String {
        if self.inner.store.is_some() {
            self.inner.wal_policy.name()
        } else {
            "off".into()
        }
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
    /// evaluation consumers' view.
    pub fn fingerprints(&self) -> Vec<(DocId, Fingerprint)> {
        let mut docs: Vec<(DocId, Fingerprint)> = self
            .shard_detectors()
            .iter()
            .flat_map(|d| d.iter_fingerprints().map(|(doc, fp)| (doc, fp.clone())).collect::<Vec<_>>())
            .collect();
        docs.sort_by_key(|(doc, _)| *doc);
        docs
    }

    fn shard_detectors(&self) -> Vec<Arc<CloneDetector>> {
        self.inner
            .shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|poisoned| poisoned.into_inner()).clone())
            .collect()
    }

    /// All clones of `query`: per-shard η-filtered candidate retrieval and
    /// Algorithm 1 scoring (shards run in parallel), merged into one
    /// canonical order — descending score, ascending doc id on ties — so
    /// the result is byte-stable across shard counts and backing stores.
    pub fn matches(&self, query: &Fingerprint) -> Vec<CloneMatch> {
        let detectors = self.shard_detectors();
        let mut all = if detectors.len() == 1 {
            detectors[0].matches(query)
        } else {
            std::thread::scope(|scope| {
                let (first, rest) = detectors.split_first().expect("at least one shard");
                let handles: Vec<_> = rest
                    .iter()
                    .map(|d| scope.spawn(move || d.matches(query)))
                    .collect();
                // The first shard runs on the calling thread.
                let mut all = first.matches(query);
                for handle in handles {
                    // A shard panic (e.g. an injected ccd/match fault) is
                    // re-raised here for the facade's isolation layer.
                    match handle.join() {
                        Ok(matches) => all.extend(matches),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
                all
            })
        };
        all.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.doc.cmp(&b.doc))
        });
        all
    }

    /// Insert a pre-computed fingerprint. `doc: None` auto-assigns the
    /// next free id; an explicit id that is already indexed is an
    /// `invalid_request`. Returns the id.
    ///
    /// Write-ahead discipline: with a snapshot directory attached the
    /// record is appended to the WAL segment *before* the in-memory
    /// apply — once this returns `Ok`, the insert survives `kill -9`.
    /// A failed append rejects the insert and releases its id; nothing
    /// is applied.
    ///
    /// The shard mutates under its write lock through `Arc::make_mut`:
    /// when a concurrent reader still holds the shard's detector the
    /// storage is cloned (copy-on-write) and the reader finishes on the
    /// old corpus — readers never block on an insert's gram work.
    pub fn insert_fingerprint(
        &self,
        doc: Option<DocId>,
        fingerprint: Fingerprint,
    ) -> Result<DocId, AnalysisError> {
        static INSERTS: telemetry::Counter = telemetry::Counter::new("corpus.inserts");
        let doc = {
            let mut ids = self.inner.ids.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            let doc = match doc {
                Some(doc) => {
                    if ids.contains(&doc) {
                        return Err(AnalysisError::invalid(format!(
                            "doc id {doc} is already indexed"
                        )));
                    }
                    doc
                }
                None => self.inner.next_doc.load(Ordering::SeqCst),
            };
            ids.insert(doc);
            // Keep the allocator above every id ever seen.
            self.inner.next_doc.fetch_max(doc + 1, Ordering::SeqCst);
            doc
        };
        {
            let mut wal = self.inner.wal.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            if let Some(writer) = wal.as_mut() {
                if let Err(error) = writer.append(doc, &fingerprint) {
                    drop(wal);
                    let mut ids =
                        self.inner.ids.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                    ids.remove(&doc);
                    return Err(error);
                }
            }
        }
        let shard = &self.inner.shards[shard_of(doc, self.inner.shards.len())];
        {
            let mut guard = shard.write().unwrap_or_else(|poisoned| poisoned.into_inner());
            Arc::make_mut(&mut guard).insert_fingerprint(doc, fingerprint);
        }
        self.inner.deltas.fetch_add(1, Ordering::SeqCst);
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
    /// the committed generation.
    ///
    /// WAL rotation happens *before* the fingerprints are captured:
    /// inserts racing into the compaction land in the next generation's
    /// segment (and possibly also in the snapshot — replay deduplicates
    /// by doc id, so the overlap is harmless), while a crash anywhere in
    /// the window leaves both segments on disk for warm start to merge.
    /// The retired segment is deleted only after the commit succeeds.
    pub fn compact(&self) -> Result<u64, AnalysisError> {
        static COMPACTIONS: telemetry::Counter = telemetry::Counter::new("corpus.compactions");
        let store = self
            .inner
            .store
            .as_ref()
            .ok_or_else(|| AnalysisError::invalid("no snapshot directory configured"))?;
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

        let generation = self.generation() + 1;
        {
            let mut wal = self.inner.wal.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            // A previous compaction attempt that failed *after* rotating
            // left the writer already on this generation; rotating again
            // would truncate records that exist nowhere else.
            if wal.as_ref().map(|w| w.generation()) != Some(generation) {
                let writer =
                    WalWriter::create(store.wal_path(generation), generation, self.inner.wal_policy)?;
                // The old writer drops here: its flusher stops and the
                // retired segment stays on disk for crash recovery until
                // the commit below succeeds.
                *wal = Some(writer);
            }
        }
        let docs = self.fingerprints();
        let delta_floor = self.deltas();
        let combined = CloneDetector::from_shared(self.inner.params, Arc::new(docs));
        store.commit(&combined, generation)?;
        self.inner.generation.store(generation, Ordering::SeqCst);
        store.remove_stale_wals(generation);
        // Inserts that raced in *during* the compaction stay counted as
        // deltas; only the ones the snapshot captured are settled.
        self.inner
            .deltas
            .fetch_sub(delta_floor.min(self.deltas()), Ordering::SeqCst);
        COMPACTIONS.incr();
        Ok(generation)
    }

    /// Kick off a background compaction when the delta count has crossed
    /// `threshold` and none is in flight (the `serve --compact-after`
    /// policy). Returns whether a compaction was spawned; the busy guard
    /// makes a race with a manual `/v1/index/compact` harmless (one of
    /// the two simply observes `index_busy`).
    pub fn maybe_auto_compact(&self, threshold: u64) -> bool {
        static AUTO_COMPACTIONS: telemetry::Counter =
            telemetry::Counter::new("corpus.auto_compactions");
        if self.inner.store.is_none()
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

    fn handle(shards: usize) -> CorpusHandle {
        CorpusBuilder::new(CcdParams::best())
            .shards(shards)
            .from_sources([(0u64, DOC_A), (1u64, DOC_B)])
    }

    fn query(source: &str) -> Fingerprint {
        CloneDetector::fingerprint_source(source).unwrap()
    }

    #[test]
    fn shard_counts_never_change_results() {
        let single = handle(1);
        for shards in [2, 3, 8] {
            let sharded = handle(shards);
            assert_eq!(sharded.shard_count(), shards);
            assert_eq!(sharded.len(), 2);
            for source in [DOC_A, DOC_B, DOC_A_NEAR] {
                assert_eq!(sharded.matches(&query(source)), single.matches(&query(source)));
            }
        }
    }

    #[test]
    fn insert_auto_assigns_above_existing_ids() {
        let handle = handle(2);
        let id = handle.insert_source(None, DOC_A_NEAR).unwrap();
        assert_eq!(id, 2);
        assert_eq!(handle.len(), 3);
        assert_eq!(handle.deltas(), 1);
        assert!(handle.matches(&query(DOC_A)).iter().any(|m| m.doc == 2));
    }

    #[test]
    fn duplicate_explicit_id_is_invalid() {
        let handle = handle(1);
        let err = handle.insert_source(Some(1), DOC_A_NEAR).unwrap_err();
        assert_eq!(err.code(), "invalid_request");
        assert_eq!(handle.len(), 2);
    }

    #[test]
    fn compact_without_snapshot_dir_is_invalid() {
        let err = handle(1).compact().unwrap_err();
        assert_eq!(err.code(), "invalid_request");
    }

    #[test]
    fn front_cache_tiers_hit_and_invalidate() {
        let handle = handle(1);
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
        let handle = handle(1);
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
        let handle = handle(1);
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
        let handle = CorpusBuilder::new(CcdParams::best()).shards(4).empty();
        let seed_fp = query(DOC_A);
        handle.insert_fingerprint(Some(0), seed_fp.clone()).unwrap();
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let handle = handle.clone();
                    let fp = seed_fp.clone();
                    scope.spawn(move || {
                        let mut seen_max = 0;
                        for _ in 0..200 {
                            let matches = handle.matches(&fp);
                            // Doc 0 is always present; every result is a
                            // valid committed document.
                            assert!(matches.iter().any(|m| m.doc == 0));
                            seen_max = seen_max.max(matches.len());
                        }
                        seen_max
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

    #[test]
    fn fingerprints_view_is_doc_sorted_across_shards() {
        let handle = handle(3);
        handle.insert_source(None, DOC_A_NEAR).unwrap();
        let ids: Vec<u64> = handle.fingerprints().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
