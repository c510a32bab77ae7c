//! Write-ahead delta log for the corpus index.
//!
//! One `wal-<N>.log` segment per snapshot generation. Every accepted
//! insert is appended here *before* it is applied in memory, so a
//! `kill -9` between the append and the next compaction loses nothing:
//! warm start loads the committed `gen-<N>.idx` snapshot and replays the
//! records of the segments at or above it on top.
//!
//! ## On-disk layout
//!
//! ```text
//! header (24 bytes, little-endian):
//!   [0..8)   magic  "SODDWAL\0"
//!   [8..12)  format version (1)
//!   [12..16) reserved (0)
//!   [16..24) generation this segment belongs to
//! records, densely packed:
//!   [0..4)   payload length (u32)
//!   [4..12)  FNV-1a checksum of the payload (u64)
//!   [12..)   payload: doc id (u64) + fingerprint UTF-8 bytes
//! ```
//!
//! The record framing matches the snapshot format's conventions (same
//! FNV-1a, same little-endian fixed-width fields). Unlike the snapshot
//! there is no trailer: a segment is *expected* to end mid-record after
//! a crash. [`replay`] therefore recovers the longest valid record
//! prefix and reports the tail as a typed truncation, never an error —
//! corruption of the *header* (wrong magic, version, or generation) is
//! the only fatal shape, because then the whole segment is
//! untrustworthy, not just its tail.
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy`] decides when appended bytes are forced to the
//! platter:
//!
//! * `always` — fsync inside every append; an acknowledged insert
//!   survives power loss, at the cost of one fsync per request;
//! * `batch:<ms>` (default `batch:5`) — group commit: appends only
//!   write, a flusher thread fsyncs the segment at most once per
//!   window while dirty. Bounded loss window under power failure,
//!   near-`never` throughput. `kill -9` alone loses nothing under any
//!   policy (page-cache writes survive process death);
//! * `never` — leave flushing to the kernel entirely.
//!
//! Chaos hooks: `wal/append` fires before a record's bytes are written,
//! `wal/fsync` before an append's, a group commit's or a warm start's
//! fsync, `wal/replay` at replay entry.
//!
//! Which segments exist, and which one takes appends, is decided by
//! [`crate::journal::Journal`] alone.

use ccd::Fingerprint;
use ngram_index::DocId;
use solidity::AnalysisError;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Magic bytes opening every WAL segment.
pub const WAL_MAGIC: [u8; 8] = *b"SODDWAL\0";

/// Version of the WAL record framing.
pub const WAL_VERSION: u32 = 1;

/// Bytes of segment header before the first record.
pub const WAL_HEADER_LEN: usize = 24;

/// Bytes of record framing (length + checksum) before the payload.
pub const RECORD_HEADER_LEN: usize = 12;

/// Upper bound on a record payload; a decoded length above this is
/// treated as tail corruption rather than an allocation request. Far
/// above the service's 4 MiB body cap.
pub const MAX_RECORD_LEN: usize = 64 << 20;

static WAL_APPENDS: telemetry::Counter = telemetry::Counter::new("wal.appends");
static WAL_APPEND_US: telemetry::Histogram = telemetry::Histogram::duration_us("wal.append_us");
static WAL_FSYNCS: telemetry::Counter = telemetry::Counter::new("wal.fsyncs");
static WAL_REPLAY_TRUNCATED: telemetry::Counter =
    telemetry::Counter::new("wal.replay_truncated");
static WAL_REPLAYED_RECORDS: telemetry::Counter =
    telemetry::Counter::new("wal.replayed_records");

/// When appended records are fsynced — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync inside every append.
    Always,
    /// Group commit: fsync at most once per window (milliseconds) while
    /// the segment is dirty.
    Batch(u64),
    /// Never fsync; the kernel flushes when it pleases.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> FsyncPolicy {
        FsyncPolicy::Batch(5)
    }
}

impl FsyncPolicy {
    /// Parse `always`, `batch:<ms>` or `never` (the `--wal-fsync` flag).
    pub fn parse(text: &str) -> Result<FsyncPolicy, String> {
        match text {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            _ => match text.strip_prefix("batch:") {
                Some(ms) => match ms.parse::<u64>() {
                    Ok(ms) if ms > 0 => Ok(FsyncPolicy::Batch(ms)),
                    _ => Err(format!("bad batch window {ms:?} (want a positive integer)")),
                },
                None => Err(format!(
                    "unknown fsync policy {text:?} (want always, batch:<ms> or never)"
                )),
            },
        }
    }

    /// Canonical spelling, `FsyncPolicy::parse`-compatible.
    pub fn name(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".into(),
            FsyncPolicy::Batch(ms) => format!("batch:{ms}"),
            FsyncPolicy::Never => "never".into(),
        }
    }
}

/// Live counters of an open segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Valid records in the segment (replayed + appended).
    pub records: u64,
    /// Record bytes in the segment, excluding the header.
    pub bytes: u64,
}

/// Result of replaying a segment: the longest valid record prefix.
#[derive(Debug)]
pub struct Replay {
    /// Generation the segment belongs to (validated against the header).
    pub generation: u64,
    /// Decoded records, in append order.
    pub records: Vec<(DocId, Fingerprint)>,
    /// File offset at the end of the last valid record — a writer
    /// resuming this segment truncates here.
    pub valid_bytes: u64,
    /// Why the tail beyond `valid_bytes` was discarded, when it was.
    pub truncated: Option<String>,
}

fn encode_record(doc: DocId, fingerprint: &Fingerprint) -> Vec<u8> {
    let fp = fingerprint.as_str().as_bytes();
    let len = 8 + fp.len();
    let mut payload = Vec::with_capacity(len);
    payload.extend_from_slice(&doc.to_le_bytes());
    payload.extend_from_slice(fp);
    let mut record = Vec::with_capacity(RECORD_HEADER_LEN + len);
    record.extend_from_slice(&(len as u32).to_le_bytes());
    record.extend_from_slice(&telemetry::fnv1a(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

fn encode_header(generation: u64) -> [u8; WAL_HEADER_LEN] {
    let mut header = [0u8; WAL_HEADER_LEN];
    header[0..8].copy_from_slice(&WAL_MAGIC);
    header[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
    header[16..24].copy_from_slice(&generation.to_le_bytes());
    header
}

/// Decode a segment's bytes: header validation is strict (typed
/// `index_corrupt`/`index_version` errors), record validation is
/// forgiving (truncate at the first torn or corrupt record). Never
/// panics on arbitrary input.
pub fn replay_bytes(bytes: &[u8], expected_generation: u64) -> Result<Replay, AnalysisError> {
    if let Some(message) = faultinject::fire("wal/replay") {
        return Err(AnalysisError::internal(format!("injected: {message}")));
    }
    if bytes.len() < WAL_HEADER_LEN {
        // A crash during segment creation can leave a short header; the
        // segment provably holds no records, so recover it as empty.
        WAL_REPLAY_TRUNCATED.incr();
        return Ok(Replay {
            generation: expected_generation,
            records: Vec::new(),
            valid_bytes: 0,
            truncated: Some(format!("header torn at {} of {WAL_HEADER_LEN} bytes", bytes.len())),
        });
    }
    if bytes[0..8] != WAL_MAGIC {
        return Err(AnalysisError::index_corrupt("not a WAL segment (bad magic)"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != WAL_VERSION {
        return Err(AnalysisError::index_version(version, WAL_VERSION));
    }
    if bytes[12..16] != [0, 0, 0, 0] {
        return Err(AnalysisError::index_corrupt("WAL header reserved bytes are not zero"));
    }
    let generation = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    if generation != expected_generation {
        return Err(AnalysisError::index_corrupt(format!(
            "WAL segment claims generation {generation}, expected {expected_generation}"
        )));
    }
    let mut records = Vec::new();
    let mut offset = WAL_HEADER_LEN;
    let mut truncated = None;
    while offset < bytes.len() {
        let Some(step) = decode_record(&bytes[offset..]) else {
            truncated = Some(describe_tail(&bytes[offset..], offset));
            break;
        };
        let (doc, fingerprint, consumed) = step;
        records.push((doc, fingerprint));
        offset += consumed;
    }
    if truncated.is_some() {
        WAL_REPLAY_TRUNCATED.incr();
    }
    Ok(Replay { generation, records, valid_bytes: offset as u64, truncated })
}

/// Decode one record at the head of `bytes`; `None` on any torn or
/// corrupt shape (the caller truncates here).
fn decode_record(bytes: &[u8]) -> Option<(DocId, Fingerprint, usize)> {
    if bytes.len() < RECORD_HEADER_LEN {
        return None;
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    if !(8..=MAX_RECORD_LEN).contains(&len) {
        return None;
    }
    let checksum = u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes"));
    let payload = bytes.get(RECORD_HEADER_LEN..RECORD_HEADER_LEN + len)?;
    if telemetry::fnv1a(payload) != checksum {
        return None;
    }
    let doc = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let fingerprint = std::str::from_utf8(&payload[8..]).ok()?;
    Some((doc, Fingerprint(fingerprint.to_string()), RECORD_HEADER_LEN + len))
}

fn describe_tail(tail: &[u8], offset: usize) -> String {
    if tail.len() < RECORD_HEADER_LEN {
        return format!("torn record framing at offset {offset} ({} trailing bytes)", tail.len());
    }
    let len = u32::from_le_bytes(tail[0..4].try_into().expect("4 bytes")) as usize;
    if !(8..=MAX_RECORD_LEN).contains(&len) {
        return format!("impossible record length {len} at offset {offset}");
    }
    if tail.len() < RECORD_HEADER_LEN + len {
        return format!(
            "torn payload at offset {offset} ({} of {len} bytes)",
            tail.len() - RECORD_HEADER_LEN
        );
    }
    format!("record checksum mismatch at offset {offset}")
}

/// Replay the segment at `path`; `Ok(None)` when it does not exist.
pub fn replay(path: &Path, expected_generation: u64) -> Result<Option<Replay>, AnalysisError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(AnalysisError::index_corrupt(format!(
                "cannot read WAL segment {}: {e}",
                path.display()
            )))
        }
    };
    let replay = replay_bytes(&bytes, expected_generation)?;
    WAL_REPLAYED_RECORDS.add(replay.records.len() as u64);
    if let Some(reason) = &replay.truncated {
        eprintln!(
            "[index-store] WAL tail truncated in {}: {reason} ({} records recovered)",
            path.display(),
            replay.records.len()
        );
    }
    Ok(Some(replay))
}

/// Fsync the segment at `path`: a warm start makes each segment it
/// replayed durable before serving the records again. A failure is an
/// `internal` error, not `index_corrupt`: the bytes validated, and a
/// caller that rebuilds over a corrupt directory must not rebuild over
/// this one.
pub(crate) fn sync_segment(path: &Path) -> Result<(), AnalysisError> {
    let synced = match faultinject::fire("wal/fsync") {
        Some(message) => Err(std::io::Error::other(format!("injected: {message}"))),
        None => File::open(path).and_then(|file| file.sync_data()),
    };
    synced.map_err(|e| {
        AnalysisError::internal(format!("cannot sync WAL segment {}: {e}", path.display()))
    })
}

struct FlushState {
    dirty: bool,
    stop: bool,
}

struct WalShared {
    file: Mutex<File>,
    flush: Mutex<FlushState>,
    flush_wake: Condvar,
    records: AtomicU64,
    bytes: AtomicU64,
}

impl WalShared {
    /// Fsync the segment (best-effort in background contexts — callers
    /// that must surface the error use the returned result).
    fn sync(&self) -> std::io::Result<()> {
        if let Some(message) = faultinject::fire("wal/fsync") {
            return Err(std::io::Error::other(format!("injected: {message}")));
        }
        let file = self.file.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        file.sync_data()?;
        WAL_FSYNCS.incr();
        Ok(())
    }
}

/// Append handle on one WAL segment. Created fresh (truncating) at cold
/// boot and on compaction rotation, or resumed over a replayed tail at
/// warm boot. Dropping the writer stops the flusher thread and, except
/// under [`FsyncPolicy::Never`], fsyncs the final bytes.
pub struct WalWriter {
    shared: Arc<WalShared>,
    flusher: Option<std::thread::JoinHandle<()>>,
    policy: FsyncPolicy,
    generation: u64,
    path: PathBuf,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("path", &self.path)
            .field("generation", &self.generation)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats())
            .finish()
    }
}

impl WalWriter {
    /// Start a fresh segment for `generation`, truncating any previous
    /// file at `path` (cold boot and compaction rotation; a rotation
    /// never targets a segment that holds records).
    pub fn create(
        path: impl Into<PathBuf>,
        generation: u64,
        policy: FsyncPolicy,
    ) -> Result<WalWriter, AnalysisError> {
        let path = path.into();
        let io = |what: &str, e: std::io::Error| {
            AnalysisError::index_corrupt(format!("{what} {}: {e}", path.display()))
        };
        let mut file = File::create(&path).map_err(|e| io("cannot create WAL segment", e))?;
        file.write_all(&encode_header(generation))
            .map_err(|e| io("cannot write WAL header", e))?;
        if policy != FsyncPolicy::Never {
            file.sync_data().map_err(|e| io("cannot sync WAL header", e))?;
            crate::store::sync_parent_dir(&path)?;
        }
        Ok(Self::assemble(path, file, generation, policy, 0, 0))
    }

    /// Resume the segment a [`Replay`] validated: truncate the torn tail
    /// (if any) at `replay.valid_bytes` and append after it.
    pub fn resume(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
        replay: &Replay,
    ) -> Result<WalWriter, AnalysisError> {
        let path = path.into();
        if (replay.valid_bytes as usize) < WAL_HEADER_LEN {
            // The header itself was torn — nothing valid to keep.
            return Self::create(path, replay.generation, policy);
        }
        let io = |what: &str, e: std::io::Error| {
            AnalysisError::index_corrupt(format!("{what} {}: {e}", path.display()))
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io("cannot open WAL segment", e))?;
        file.set_len(replay.valid_bytes).map_err(|e| io("cannot truncate WAL tail", e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| io("cannot seek WAL segment", e))?;
        Ok(Self::assemble(
            path,
            file,
            replay.generation,
            policy,
            replay.records.len() as u64,
            replay.valid_bytes - WAL_HEADER_LEN as u64,
        ))
    }

    fn assemble(
        path: PathBuf,
        file: File,
        generation: u64,
        policy: FsyncPolicy,
        records: u64,
        bytes: u64,
    ) -> WalWriter {
        let shared = Arc::new(WalShared {
            file: Mutex::new(file),
            flush: Mutex::new(FlushState { dirty: false, stop: false }),
            flush_wake: Condvar::new(),
            records: AtomicU64::new(records),
            bytes: AtomicU64::new(bytes),
        });
        let flusher = match policy {
            FsyncPolicy::Batch(ms) => {
                let shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("wal-flusher".into())
                        .spawn(move || flusher_loop(&shared, ms))
                        .expect("spawn wal flusher"),
                )
            }
            _ => None,
        };
        WalWriter { shared, flusher, policy, generation, path }
    }

    /// Generation of the segment this writer appends to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Live counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            records: self.shared.records.load(Ordering::Relaxed),
            bytes: self.shared.bytes.load(Ordering::Relaxed),
        }
    }

    /// Append one record. Under `always` the record is on the platter
    /// when this returns; under `batch` the flusher is poked; under
    /// `never` the bytes are the kernel's problem. A failed append is a
    /// typed error and writes nothing the caller may rely on — the
    /// insert must be rejected, not applied.
    pub fn append(&mut self, doc: DocId, fingerprint: &Fingerprint) -> Result<(), AnalysisError> {
        let start = std::time::Instant::now();
        if let Some(message) = faultinject::fire("wal/append") {
            return Err(AnalysisError::internal(format!("injected: {message}")));
        }
        let record = encode_record(doc, fingerprint);
        {
            let mut file =
                self.shared.file.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            file.write_all(&record).map_err(|e| {
                AnalysisError::index_corrupt(format!(
                    "cannot append to WAL segment {}: {e}",
                    self.path.display()
                ))
            })?;
        }
        self.shared.records.fetch_add(1, Ordering::Relaxed);
        self.shared.bytes.fetch_add(record.len() as u64, Ordering::Relaxed);
        match self.policy {
            FsyncPolicy::Always => self.shared.sync().map_err(|e| {
                AnalysisError::index_corrupt(format!(
                    "cannot sync WAL segment {}: {e}",
                    self.path.display()
                ))
            })?,
            FsyncPolicy::Batch(_) => {
                let mut flush =
                    self.shared.flush.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                flush.dirty = true;
                self.shared.flush_wake.notify_one();
            }
            FsyncPolicy::Never => {}
        }
        WAL_APPENDS.incr();
        WAL_APPEND_US.observe(start.elapsed().as_micros() as u64);
        Ok(())
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        {
            let mut flush =
                self.shared.flush.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            flush.stop = true;
            self.shared.flush_wake.notify_one();
        }
        // Joining the flusher drains any pending group commit; under
        // `always` every append already synced, and `never` means never,
        // even on graceful shutdown.
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
    }
}

/// Group-commit loop: wake on the first dirty append (or every window),
/// fsync once for however many appends accumulated, repeat. One fsync
/// per window bounds the power-loss exposure without paying one fsync
/// per request.
fn flusher_loop(shared: &WalShared, window_ms: u64) {
    let window = std::time::Duration::from_millis(window_ms.max(1));
    let mut flush = shared.flush.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    loop {
        if flush.dirty {
            flush.dirty = false;
            drop(flush);
            if let Err(e) = shared.sync() {
                // Background fsync failure: the records are still in the
                // page cache (kill -9 safe); surface loudly for power-
                // loss durability and keep serving.
                eprintln!("[index-store] WAL group commit fsync failed: {e}");
            }
            // Pace group commits: at most one fsync per window.
            std::thread::sleep(window);
            flush = shared.flush.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            continue;
        }
        if flush.stop {
            return;
        }
        flush = shared
            .flush_wake
            .wait(flush)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;
    use proptest::prelude::*;

    /// A segment path in a fresh directory, removed with the returned
    /// guard.
    fn temp_path(tag: &str) -> (TempDir, PathBuf) {
        let dir = TempDir::new("sodd_wal", tag);
        std::fs::create_dir_all(dir.path()).unwrap();
        let path = dir.path().join("wal-1.log");
        (dir, path)
    }

    fn fp(text: &str) -> Fingerprint {
        Fingerprint(text.to_string())
    }

    fn sample_segment(tag: &str, records: &[(u64, &str)]) -> (TempDir, PathBuf, Vec<u8>) {
        let (dir, path) = temp_path(tag);
        let mut writer = WalWriter::create(&path, 1, FsyncPolicy::Never).unwrap();
        for (doc, text) in records {
            writer.append(*doc, &fp(text)).unwrap();
        }
        drop(writer);
        let bytes = std::fs::read(&path).unwrap();
        (dir, path, bytes)
    }

    const RECORDS: &[(u64, &str)] =
        &[(0, "alpha fingerprint"), (7, "beta"), (u64::MAX, "gamma delta epsilon")];

    #[test]
    fn append_then_replay_roundtrips() {
        let (_dir, path, _) = sample_segment("roundtrip", RECORDS);
        let replay = replay(&path, 1).unwrap().expect("segment exists");
        assert_eq!(replay.generation, 1);
        assert!(replay.truncated.is_none());
        let got: Vec<(u64, String)> =
            replay.records.iter().map(|(d, f)| (*d, f.as_str().to_string())).collect();
        let want: Vec<(u64, String)> =
            RECORDS.iter().map(|(d, t)| (*d, t.to_string())).collect();
        assert_eq!(got, want);
        assert_eq!(replay.valid_bytes, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn missing_segment_is_none() {
        let (_dir, path) = temp_path("missing");
        assert!(replay(&path, 1).unwrap().is_none());
    }

    #[test]
    fn resume_continues_after_replay() {
        let (_dir, path, _) = sample_segment("resume", RECORDS);
        let first = replay(&path, 1).unwrap().unwrap();
        let mut writer = WalWriter::resume(&path, FsyncPolicy::Never, &first).unwrap();
        assert_eq!(writer.stats().records, RECORDS.len() as u64);
        writer.append(9, &fp("resumed")).unwrap();
        drop(writer);
        let second = replay(&path, 1).unwrap().unwrap();
        assert_eq!(second.records.len(), RECORDS.len() + 1);
        assert_eq!(second.records.last().unwrap().0, 9);
    }

    #[test]
    fn generation_mismatch_is_typed() {
        let (_dir, path, _) = sample_segment("genmismatch", RECORDS);
        assert_eq!(replay(&path, 2).unwrap_err().code(), "index_corrupt");
    }

    #[test]
    fn wrong_version_is_typed() {
        let (_dir, path, mut bytes) = sample_segment("version", RECORDS);
        bytes[8] = 99;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(replay(&path, 1).unwrap_err().code(), "index_version");
    }

    #[test]
    fn foreign_bytes_are_typed_corruption() {
        let (_dir, path) = temp_path("foreign");
        std::fs::write(&path, [0x55u8; 64]).unwrap();
        assert_eq!(replay(&path, 1).unwrap_err().code(), "index_corrupt");
    }

    /// The crash shape the WAL exists for: a segment cut at *every*
    /// possible byte offset must replay to the longest valid record
    /// prefix — never a panic, never a wrong record.
    #[test]
    fn torn_tail_at_every_offset_recovers_a_prefix() {
        let (_dir, _, bytes) = sample_segment("torn", RECORDS);
        let full = replay_bytes(&bytes, 1).unwrap();
        let boundaries: Vec<u64> = record_boundaries(&full);
        for cut in 0..bytes.len() {
            let replay = replay_bytes(&bytes[..cut], 1)
                .unwrap_or_else(|e| panic!("cut={cut} must not be fatal: {e}"));
            if cut < WAL_HEADER_LEN {
                // A torn header recovers an empty segment.
                assert_eq!(replay.valid_bytes, 0, "cut={cut}");
                assert!(replay.records.is_empty() && replay.truncated.is_some(), "cut={cut}");
                continue;
            }
            // The recovered prefix ends exactly at a record boundary at
            // or before the cut.
            assert!(boundaries.contains(&replay.valid_bytes), "cut={cut}");
            assert!(replay.valid_bytes <= cut as u64, "cut={cut}");
            let whole: Vec<_> = full.records.iter().take(replay.records.len()).collect();
            let got: Vec<_> = replay.records.iter().collect();
            assert_eq!(got, whole, "cut={cut} must recover a record prefix");
            // A cut exactly on a record boundary leaves a complete (just
            // shorter) segment; everywhere else the tail is flagged.
            assert_eq!(
                replay.truncated.is_some(),
                !boundaries.contains(&(cut as u64)),
                "cut={cut}"
            );
        }
    }

    /// Every single-bit corruption must be caught: header flips are
    /// typed errors, record-region flips truncate the replay strictly
    /// before the full record count. Nothing panics, nothing decodes to
    /// a wrong record.
    #[test]
    fn every_single_bit_flip_is_detected() {
        let (_dir, _, bytes) = sample_segment("bitflip", RECORDS);
        let full = replay_bytes(&bytes, 1).unwrap();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                match replay_bytes(&corrupt, 1) {
                    Err(_) => assert!(
                        byte < WAL_HEADER_LEN,
                        "fatal error outside the header at byte {byte}"
                    ),
                    Ok(replay) => {
                        assert!(
                            replay.records.len() < full.records.len(),
                            "flip at byte {byte} bit {bit} went undetected"
                        );
                        let whole: Vec<_> =
                            full.records.iter().take(replay.records.len()).collect();
                        let got: Vec<_> = replay.records.iter().collect();
                        assert_eq!(got, whole, "flip at byte {byte} bit {bit}");
                    }
                }
            }
        }
    }

    #[test]
    fn random_garbage_tail_never_panics() {
        let (_dir, _, mut bytes) = sample_segment("garbage", &RECORDS[..1]);
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..256 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            bytes.push((state >> 56) as u8);
        }
        let replay = replay_bytes(&bytes, 1).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.truncated.is_some());
    }

    #[test]
    fn fsync_policy_parse_roundtrips() {
        for text in ["always", "never", "batch:1", "batch:250"] {
            assert_eq!(FsyncPolicy::parse(text).unwrap().name(), text);
        }
        assert!(FsyncPolicy::parse("batch:0").is_err());
        assert!(FsyncPolicy::parse("batch:fast").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::default(), FsyncPolicy::Batch(5));
    }

    #[test]
    fn batch_policy_appends_reach_disk() {
        let (_dir, path) = temp_path("batch");
        let mut writer = WalWriter::create(&path, 1, FsyncPolicy::Batch(1)).unwrap();
        for (doc, text) in RECORDS {
            writer.append(*doc, &fp(text)).unwrap();
        }
        drop(writer); // joins the flusher
        let replay = replay(&path, 1).unwrap().unwrap();
        assert_eq!(replay.records.len(), RECORDS.len());
    }

    fn record_boundaries(full: &Replay) -> Vec<u64> {
        let mut at = WAL_HEADER_LEN as u64;
        let mut boundaries = vec![at];
        for (doc, fp) in &full.records {
            at += (RECORD_HEADER_LEN + 8 + fp.as_str().len()) as u64;
            let _ = doc;
            boundaries.push(at);
        }
        boundaries
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary (doc, fingerprint) batches encode and replay back
        /// byte-exactly, in order.
        #[test]
        fn record_batches_roundtrip(
            docs in proptest::collection::vec(0u64..u64::MAX, 1..12),
            texts in proptest::collection::vec("[a-zA-Z0-9 :;={}()]{0,48}", 1..12),
        ) {
            let mut bytes = encode_header(3).to_vec();
            let pairs: Vec<(u64, String)> = docs
                .iter()
                .zip(texts.iter())
                .map(|(d, t)| (*d, t.clone()))
                .collect();
            for (doc, text) in &pairs {
                bytes.extend_from_slice(&encode_record(*doc, &fp(text)));
            }
            let replay = replay_bytes(&bytes, 3).unwrap();
            prop_assert!(replay.truncated.is_none());
            prop_assert_eq!(replay.valid_bytes, bytes.len() as u64);
            let got: Vec<(u64, String)> = replay
                .records
                .iter()
                .map(|(d, f)| (*d, f.as_str().to_string()))
                .collect();
            prop_assert_eq!(got, pairs);
        }
    }
}
