//! Generation-managed snapshot directory.
//!
//! ```text
//! <dir>/gen-7.idx   immutable snapshot files, one per generation
//! <dir>/gen-8.idx
//! <dir>/CURRENT     "8\n" — the committed generation
//! ```
//!
//! Every write is atomic: snapshot bytes land in `gen-<N>.tmp` and are
//! `rename`d into place, then `CURRENT` is rewritten the same way through
//! `CURRENT.tmp`. `rename` is atomic on POSIX, so a crash at any instant
//! leaves either the old committed generation or the new one — never a
//! torn pointer. The previous generation's file is kept until the new
//! `CURRENT` is durable, so a kill during compaction always leaves a
//! loadable snapshot behind (`ci.sh` proves this with a real `kill -9`);
//! after that, [`crate::journal::Rotation::commit`] deletes it with the
//! WAL segments the new generation contains.
//!
//! Rename atomicity alone only covers process death. For power loss the
//! writes are fsync-disciplined: the tmp file is `sync_all`ed before its
//! rename, and the parent directory is fsynced after each rename, so
//! `CURRENT` can never point at bytes (or a directory entry) the disk
//! has not seen. The live-insert side of the same discipline is the
//! write-ahead log in [`crate::wal`]; its `wal-<N>.log` segments live in
//! this directory and are managed by [`crate::journal::Journal`] alone.

use crate::format;
use ccd::{CcdParams, CloneDetector, Fingerprint};
use ngram_index::{DocId, NgramIndex};
use solidity::AnalysisError;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Name of the committed-generation pointer file.
pub const CURRENT: &str = "CURRENT";

/// A decoded snapshot with its provenance.
#[derive(Debug)]
pub struct Snapshot {
    /// The generation this snapshot was committed as.
    pub generation: u64,
    /// N-gram size its postings were built with.
    pub n: usize,
    decoded: format::Decoded,
}

impl Snapshot {
    /// The corpus, in slot order (borrowed — the strings move into the
    /// detector on [`Snapshot::into_detector`], never copied).
    pub fn fingerprints(&self) -> &[(DocId, Fingerprint)] {
        &self.decoded.fingerprints
    }

    /// Assemble a [`CloneDetector`] from the snapshot.
    ///
    /// When `params.ngram_size` matches the snapshot's `n` the prebuilt
    /// postings are imported verbatim (the warm-start fast path); under a
    /// different N the index is rebuilt from the fingerprints — correct,
    /// just not free.
    pub fn into_detector(self, params: CcdParams) -> Result<CloneDetector, AnalysisError> {
        static REBUILDS: telemetry::Counter =
            telemetry::Counter::new("index_store.n_mismatch_rebuilds");
        if params.ngram_size == self.n {
            let (index, corpus) = self.decoded.into_index_and_corpus();
            return CloneDetector::from_parts(params, corpus, index);
        }
        REBUILDS.incr();
        Ok(CloneDetector::from_shared(params, Arc::new(self.decoded.fingerprints)))
    }
}

/// A snapshot directory: load the committed generation, commit new ones.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Open (creating if needed) a snapshot directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SnapshotStore, AnalysisError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            AnalysisError::index_corrupt(format!(
                "cannot create snapshot dir {}: {e}",
                dir.display()
            ))
        })?;
        Ok(SnapshotStore { dir })
    }

    /// The directory this store manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of a generation's snapshot file.
    pub fn generation_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation}.idx"))
    }

    /// Path of a generation's write-ahead log segment.
    pub(crate) fn wal_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("wal-{generation}.log"))
    }

    /// The directory's `(generation, path)` pairs of the files named
    /// `<prefix><N><suffix>` for any of `patterns`, unordered, from one
    /// read of the directory. Files that merely look like them
    /// (`wal-x.log`) are ignored.
    fn generation_files(&self, patterns: &[(&str, &str)]) -> Vec<(u64, PathBuf)> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        entries
            .filter_map(|entry| {
                let entry = entry.ok()?;
                let name = entry.file_name();
                let name = name.to_str()?;
                let generation = patterns.iter().find_map(|(prefix, suffix)| {
                    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
                })?;
                Some((generation, entry.path()))
            })
            .collect()
    }

    /// Generations that have a WAL segment on disk, ascending. Replay
    /// validates each segment by its header.
    pub(crate) fn wal_generations(&self) -> Vec<u64> {
        let mut generations: Vec<u64> = self
            .generation_files(&[("wal-", ".log")])
            .into_iter()
            .map(|(generation, _)| generation)
            .collect();
        generations.sort_unstable();
        generations
    }

    /// The highest generation the directory names: its `gen-N.idx` and
    /// `wal-N.log` files and a readable `CURRENT`. `None` when it names
    /// none.
    pub(crate) fn newest_generation(&self) -> Option<u64> {
        let files = self.generation_files(&[("gen-", ".idx"), ("wal-", ".log")]);
        let current = self.current_generation().ok().flatten();
        files.into_iter().map(|(generation, _)| generation).chain(current).max()
    }

    /// Delete every snapshot file and WAL segment of a generation before
    /// `current`, once `CURRENT` durably names `current`: that snapshot
    /// holds every record of the older ones. Best-effort: a file that
    /// cannot be removed is re-attempted at the next commit or warm start.
    pub(crate) fn retire_superseded(&self, current: u64) {
        for (generation, path) in self.generation_files(&[("gen-", ".idx"), ("wal-", ".log")]) {
            if generation < current {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    /// The committed generation, or `None` when the directory has none
    /// (fresh deploy). A malformed `CURRENT` is typed corruption.
    pub fn current_generation(&self) -> Result<Option<u64>, AnalysisError> {
        let path = self.dir.join(CURRENT);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(AnalysisError::index_corrupt(format!("cannot read CURRENT: {e}")))
            }
        };
        text.trim()
            .parse::<u64>()
            .map(Some)
            .map_err(|_| AnalysisError::index_corrupt(format!("CURRENT is not a generation: {text:?}")))
    }

    /// Load a specific generation's snapshot.
    pub fn load_generation(&self, generation: u64) -> Result<Snapshot, AnalysisError> {
        static LOADS: telemetry::Counter = telemetry::Counter::new("index_store.loads");
        static LOAD_BYTES: telemetry::Counter = telemetry::Counter::new("index_store.load_bytes");
        static STAGE: telemetry::Stage = telemetry::Stage::new("index-store/load");
        let _stage = STAGE.enter();
        let path = self.generation_path(generation);
        let bytes = std::fs::read(&path).map_err(|e| {
            AnalysisError::index_corrupt(format!("cannot read {}: {e}", path.display()))
        })?;
        LOAD_BYTES.add(bytes.len() as u64);
        let decoded = format::decode(&bytes)?;
        if decoded.generation != generation {
            return Err(AnalysisError::index_corrupt(format!(
                "{} claims generation {}, expected {generation}",
                path.display(),
                decoded.generation
            )));
        }
        LOADS.incr();
        Ok(Snapshot { generation, n: decoded.n, decoded })
    }

    /// Load the committed generation; `Ok(None)` on a fresh directory.
    pub fn load_current(&self) -> Result<Option<Snapshot>, AnalysisError> {
        match self.current_generation()? {
            Some(generation) => self.load_generation(generation).map(Some),
            None => Ok(None),
        }
    }

    /// Commit a corpus and its index as `generation`: encode them
    /// ([`format::encode`], which takes the same arguments), write the
    /// snapshot file, then flip `CURRENT`. Returns the snapshot path.
    ///
    /// Crash windows (`index/commit` is a faultinject point between the
    /// two steps, used by the CI kill test):
    /// * during the snapshot write — only a `.tmp` file is lost;
    /// * after the snapshot rename, before `CURRENT` — an unreferenced
    ///   `gen-N.idx` remains; `CURRENT` still names the old generation;
    /// * during the `CURRENT` rewrite — rename atomicity keeps the old
    ///   pointer until the new one is fully in place.
    pub fn commit(
        &self,
        generation: u64,
        docs: &[(DocId, Fingerprint)],
        index: &NgramIndex,
    ) -> Result<PathBuf, AnalysisError> {
        static COMMITS: telemetry::Counter = telemetry::Counter::new("index_store.commits");
        static COMMIT_BYTES: telemetry::Counter =
            telemetry::Counter::new("index_store.commit_bytes");
        static STAGE: telemetry::Stage = telemetry::Stage::new("index-store/commit");
        let _stage = STAGE.enter();
        let bytes = format::encode(generation, docs, index)?;
        let path = self.generation_path(generation);
        write_atomic(&path, &bytes)?;
        // Chaos hook: a delay here holds the commit in its most adversarial
        // window (snapshot on disk, CURRENT not yet flipped); an injected
        // error models a full disk after the data write.
        if let Some(message) = faultinject::fire("index/commit") {
            return Err(AnalysisError::internal(format!("injected: {message}")));
        }
        write_atomic(&self.dir.join(CURRENT), format!("{generation}\n").as_bytes())?;
        COMMITS.incr();
        COMMIT_BYTES.add(bytes.len() as u64);
        Ok(path)
    }
}

/// Replace `path`'s contents atomically, durable across power loss: write
/// a tmp file in the same directory (`path` with its extension replaced
/// by `tmp`), `sync_all` it *before* the rename (the name must never point
/// at unsynced bytes), rename it over `path`, then fsync the parent
/// directory so the new directory entry itself is durable. Readers
/// observe either the old bytes or the new, never a prefix — even across
/// a power cut.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), AnalysisError> {
    use std::io::Write;
    let tmp = path.with_extension("tmp");
    let io = |what: &str, e: std::io::Error| {
        AnalysisError::index_corrupt(format!("{what} {}: {e}", path.display()))
    };
    let mut file = std::fs::File::create(&tmp).map_err(|e| io("cannot create", e))?;
    file.write_all(bytes).map_err(|e| io("cannot write", e))?;
    file.sync_all().map_err(|e| io("cannot sync", e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| io("cannot commit", e))?;
    sync_parent_dir(path)
}

/// Fsync `path`'s parent directory: a rename is only durable once the
/// directory holding the new entry is. No-op on platforms where
/// directories cannot be opened for sync.
pub(crate) fn sync_parent_dir(path: &Path) -> Result<(), AnalysisError> {
    #[cfg(unix)]
    {
        let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) else {
            return Ok(());
        };
        std::fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| {
                AnalysisError::index_corrupt(format!("cannot sync dir {}: {e}", dir.display()))
            })?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sodd_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_detector() -> CloneDetector {
        let mut d = CloneDetector::new(CcdParams::best());
        assert!(d.insert_source(
            0,
            "contract A { function w(uint v) public { msg.sender.transfer(v); } }"
        ));
        d
    }

    /// Commit `d`'s corpus and index as `generation`.
    fn commit(store: &SnapshotStore, d: &CloneDetector, generation: u64) {
        let docs: Vec<(DocId, Fingerprint)> =
            d.iter_fingerprints().map(|(doc, fp)| (doc, fp.clone())).collect();
        store.commit(generation, &docs, d.index()).unwrap();
    }

    #[test]
    fn fresh_directory_has_no_current() {
        let store = SnapshotStore::open(temp_dir("fresh")).unwrap();
        assert_eq!(store.current_generation().unwrap(), None);
        assert!(store.load_current().unwrap().is_none());
    }

    #[test]
    fn commit_then_load_roundtrips() {
        let store = SnapshotStore::open(temp_dir("roundtrip")).unwrap();
        let d = sample_detector();
        commit(&store, &d, 1);
        assert_eq!(store.current_generation().unwrap(), Some(1));
        let snapshot = store.load_current().unwrap().expect("committed generation");
        assert_eq!(snapshot.generation, 1);
        let rebuilt = snapshot.into_detector(d.params()).unwrap();
        assert!(rebuilt.iter_fingerprints().eq(d.iter_fingerprints()));
    }

    #[test]
    fn previous_generation_survives_an_uncommitted_next_one() {
        let store = SnapshotStore::open(temp_dir("survive")).unwrap();
        let d = sample_detector();
        commit(&store, &d, 1);
        // Simulate a crash after the gen-2 data write but before the
        // CURRENT flip: a stray data file and a torn tmp file.
        std::fs::write(store.generation_path(2), b"torn partial write").unwrap();
        std::fs::write(store.dir().join("gen-3.tmp"), b"torn tmp").unwrap();
        let snapshot = store.load_current().unwrap().expect("gen 1 still committed");
        assert_eq!(snapshot.generation, 1);
    }

    #[test]
    fn malformed_current_is_typed() {
        let store = SnapshotStore::open(temp_dir("badcurrent")).unwrap();
        std::fs::write(store.dir().join(CURRENT), "not a number").unwrap();
        assert_eq!(store.current_generation().unwrap_err().code(), "index_corrupt");
    }

    #[test]
    fn current_pointing_at_missing_file_is_typed() {
        let store = SnapshotStore::open(temp_dir("dangling")).unwrap();
        std::fs::write(store.dir().join(CURRENT), "42\n").unwrap();
        let err = store.load_current().unwrap_err();
        assert_eq!(err.code(), "index_corrupt");
        assert!(err.to_string().contains("cannot read"), "{err}");
        // An empty file at the named generation is typed corruption too.
        std::fs::write(store.generation_path(42), b"").unwrap();
        assert_eq!(store.load_current().unwrap_err().code(), "index_corrupt");
    }

    #[test]
    fn generation_mismatch_inside_file_is_typed() {
        let store = SnapshotStore::open(temp_dir("genmismatch")).unwrap();
        let d = sample_detector();
        commit(&store, &d, 1);
        // Copy gen-1's bytes to gen-5 and point CURRENT at it.
        std::fs::copy(store.generation_path(1), store.generation_path(5)).unwrap();
        std::fs::write(store.dir().join(CURRENT), "5\n").unwrap();
        assert_eq!(store.load_current().unwrap_err().code(), "index_corrupt");
    }

    #[test]
    fn wal_generations_are_discovered_and_retired() {
        let store = SnapshotStore::open(temp_dir("walgens")).unwrap();
        for generation in [3u64, 1, 2] {
            std::fs::write(store.wal_path(generation), b"ignored here").unwrap();
            std::fs::write(store.generation_path(generation), b"ignored here").unwrap();
        }
        for stray in ["wal-x.log", "wal-7.txt", "gen-x.idx", "gen-1.tmp", "CURRENT"] {
            std::fs::write(store.dir().join(stray), b"not a generation file").unwrap();
        }
        assert_eq!(store.wal_generations(), vec![1, 2, 3]);
        store.retire_superseded(3);
        assert_eq!(store.wal_generations(), vec![3]);
        let mut left: Vec<String> = std::fs::read_dir(store.dir())
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(
            left,
            ["CURRENT", "gen-1.tmp", "gen-3.idx", "gen-x.idx", "wal-3.log", "wal-7.txt", "wal-x.log"]
        );
    }

    #[test]
    fn n_mismatch_rebuilds_instead_of_failing() {
        let store = SnapshotStore::open(temp_dir("nmismatch")).unwrap();
        let d = sample_detector();
        commit(&store, &d, 1);
        let other = CcdParams { ngram_size: 5, ..CcdParams::best() };
        let rebuilt = store.load_current().unwrap().unwrap().into_detector(other).unwrap();
        assert_eq!(rebuilt.params().ngram_size, 5);
        assert_eq!(rebuilt.len(), 1);
    }
}
