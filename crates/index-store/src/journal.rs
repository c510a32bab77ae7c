//! The segment protocol: one owner for the snapshot directory and the
//! active write-ahead log segment.
//!
//! A [`Journal`] is the only code that names, replays, resumes, rotates
//! or deletes `wal-<N>.log` segments. Its rules:
//!
//! * **append** — every accepted insert is appended to the active segment
//!   before the caller applies it in memory;
//! * **create** — a cold start's segment sits above every generation the
//!   directory names, so its first commit supersedes whatever an
//!   unloadable snapshot left behind;
//! * **rotate** — a compaction targeting generation G starts `wal-G.log`
//!   before it copies the corpus, unless the active segment is already at
//!   G or beyond, in which case it commits the active segment's
//!   generation: a segment that holds records is never truncated;
//! * **commit** — the [`Rotation`] writes `gen-G.idx`, flips `CURRENT`,
//!   and only then deletes every snapshot file and segment below G;
//! * **recover** — a warm start loads the committed generation C, deletes
//!   what C supersedes, replays every segment at or above C in ascending
//!   order (skipping doc ids already present), fsyncs each replayed
//!   segment unless the policy is `never`, and resumes the newest.
//!
//! At most one segment sits above `CURRENT` once a commit succeeds: a
//! compaction only rotates to C+1 (or commits the higher active segment),
//! and a failed commit leaves the writer on its segment, which the next
//! compaction reuses. A record can be both in a snapshot and in a segment
//! above it (an insert that raced a compaction, or a retried commit);
//! replay's doc-id dedup absorbs the overlap.

use crate::store::{Snapshot, SnapshotStore};
use crate::wal::{self, FsyncPolicy, WalStats, WalWriter};
use ccd::Fingerprint;
use ngram_index::{DocId, NgramIndex};
use solidity::AnalysisError;
use std::path::PathBuf;

/// A snapshot directory and its active WAL segment — see the module docs.
#[derive(Debug)]
pub struct Journal {
    store: SnapshotStore,
    writer: WalWriter,
    policy: FsyncPolicy,
}

/// What [`Journal::recover`] rebuilt from a directory.
#[derive(Debug)]
pub struct Recovery {
    /// The journal, appending to the newest segment.
    pub journal: Journal,
    /// The committed snapshot.
    pub snapshot: Snapshot,
    /// Records of the segments at or above the snapshot's generation, in
    /// replay order, without doc ids the snapshot or an earlier record
    /// already holds.
    pub records: Vec<(DocId, Fingerprint)>,
}

/// The commit half of a compaction: [`Journal::rotate`] hands it out, and
/// [`Rotation::commit`] runs without the journal, so appends go on while
/// the snapshot is encoded and fsynced.
#[derive(Debug)]
pub struct Rotation {
    store: SnapshotStore,
    generation: u64,
}

impl Journal {
    /// A cold start: open (creating if needed) `dir` and start a fresh
    /// segment above every generation the directory already names (its
    /// `gen-N.idx` and `wal-N.log` files and `CURRENT`), or at 0 in an
    /// empty directory. The caller's in-memory corpus is the whole
    /// corpus, so the first commit (at that generation, see
    /// [`Journal::rotate`]) supersedes the older lineage instead of
    /// sitting below it.
    pub fn create(dir: impl Into<PathBuf>, policy: FsyncPolicy) -> Result<Journal, AnalysisError> {
        let store = SnapshotStore::open(dir)?;
        let generation = store.newest_generation().map_or(0, |newest| newest + 1);
        let writer = WalWriter::create(store.wal_path(generation), generation, policy)?;
        Ok(Journal { store, writer, policy })
    }

    /// A warm start (see the module docs). `Ok(None)` when the directory
    /// has no committed snapshot; typed `index_corrupt`/`index_version`
    /// errors when the snapshot or a segment header cannot be trusted,
    /// and an `internal` error when a replayed segment cannot be fsynced
    /// (the directory is intact; its records are not yet durable).
    /// Torn segment tails are truncated with a warning, never an error.
    pub fn recover(
        dir: impl Into<PathBuf>,
        policy: FsyncPolicy,
    ) -> Result<Option<Recovery>, AnalysisError> {
        let store = SnapshotStore::open(dir)?;
        let Some(snapshot) = store.load_current()? else {
            return Ok(None);
        };
        let committed = snapshot.generation;
        store.retire_superseded(committed);
        let mut seen: intern::FxHashSet<DocId> =
            snapshot.fingerprints().iter().map(|(doc, _)| *doc).collect();
        let mut records = Vec::new();
        let mut newest = None;
        for generation in store.wal_generations().into_iter().filter(|g| *g >= committed) {
            let path = store.wal_path(generation);
            let Some(replay) = wal::replay(&path, generation)? else {
                continue;
            };
            if policy != FsyncPolicy::Never {
                wal::sync_segment(&path)?;
            }
            records.extend(replay.records.iter().filter(|(doc, _)| seen.insert(*doc)).cloned());
            newest = Some(replay);
        }
        let writer = match newest {
            Some(replay) => WalWriter::resume(store.wal_path(replay.generation), policy, &replay)?,
            None => WalWriter::create(store.wal_path(committed), committed, policy)?,
        };
        Ok(Some(Recovery { journal: Journal { store, writer, policy }, snapshot, records }))
    }

    /// Append one record to the active segment (durable per the fsync
    /// policy when this returns). A failed append is a typed error and
    /// leaves nothing a replay would resurrect.
    pub fn append(&mut self, doc: DocId, fingerprint: &Fingerprint) -> Result<(), AnalysisError> {
        self.writer.append(doc, fingerprint)
    }

    /// Start appending to `generation`'s segment, unless the active one
    /// is already at or beyond it, and return the commit that supersedes
    /// the older segments: at `generation`, or at the active segment's
    /// generation when that is higher ([`Rotation::generation`]). The
    /// caller copies its corpus after this returns and before any further
    /// append is applied.
    pub fn rotate(&mut self, generation: u64) -> Result<Rotation, AnalysisError> {
        let generation = generation.max(self.writer.generation());
        if self.writer.generation() < generation {
            // The old writer drops here: its flusher drains, and its
            // segment stays on disk until the commit supersedes it.
            self.writer =
                WalWriter::create(self.store.wal_path(generation), generation, self.policy)?;
        }
        Ok(Rotation { store: self.store.clone(), generation })
    }

    /// Live counters of the active segment.
    pub fn stats(&self) -> WalStats {
        self.writer.stats()
    }
}

impl Rotation {
    /// The generation [`Rotation::commit`] writes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Commit `docs` and `index` as the rotated generation
    /// ([`SnapshotStore::commit`]), then delete every snapshot file and
    /// segment it supersedes. On error nothing is deleted and the journal
    /// keeps appending to the rotated segment, which the next compaction
    /// reuses.
    pub fn commit(
        self,
        docs: &[(DocId, Fingerprint)],
        index: &NgramIndex,
    ) -> Result<(), AnalysisError> {
        self.store.commit(self.generation, docs, index)?;
        self.store.retire_superseded(self.generation);
        Ok(())
    }
}
