//! Persistent, versioned snapshots of the CCD corpus index.
//!
//! The paper's large-scale experiment (§6) matches submissions against a
//! fixed snippet corpus; the analysis service previously re-fingerprinted
//! that corpus from source on every boot. This crate is the persistence
//! layer that removes the rebuild: the fingerprint set and the N-gram
//! postings are written once into a flat snapshot file ([`format`]) and
//! committed under a generation number with an atomic pointer flip
//! ([`store`]), so a service restart assembles its matcher from
//! validated bytes in milliseconds — no Solidity parsing, no
//! normalization, no re-gramming.
//!
//! * [`format`] — the v1 byte layout: fixed-width header + tables,
//!   interned string blobs, offset-based postings, FNV-1a checksum.
//!   Decoding validates everything and returns typed errors
//!   (`index_corrupt`, `index_version`); hostile bytes never panic.
//! * [`store`] — `gen-<N>.idx` files plus a `CURRENT` pointer, both
//!   written tmp+rename (the `bench::checkpoint` discipline) and fsynced
//!   (file before rename, directory after), so a crash mid-commit always
//!   leaves the previous generation loadable — including across power
//!   loss.
//! * [`wal`] — the write-ahead delta log: one `wal-<N>.log` segment per
//!   generation takes every insert before it is applied in memory, and
//!   warm start replays the tail on top of the snapshot, so live inserts
//!   survive `kill -9` without waiting for a compaction.
//!
//! The live-service layers above — incremental insert, compaction, the
//! near-duplicate front cache and the `/v1/index` admin API — live in
//! `pipeline::corpus_index::CorpusHandle` and `crates/server`; this crate
//! owns only the bytes.

#![warn(missing_docs)]

pub mod format;
pub mod store;
pub mod wal;

pub use format::{decode, encode, FORMAT_VERSION};
pub use store::{Snapshot, SnapshotStore, CURRENT};
pub use wal::{FsyncPolicy, WalStats, WalWriter};
