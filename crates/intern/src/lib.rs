//! Interning and arena support for the analysis frontend.
//!
//! The hand-written lexer, parser and CPG builder originally allocated a
//! `String` per token, identifier and node property. This crate provides
//! the allocation discipline that replaces all of that, mirroring the
//! data-structure layer of production Solidity frontends (cf. ROADMAP
//! item 1, the Solar compiler design):
//!
//! * [`Symbol`] — a `u32` handle to a process-wide, thread-safe string
//!   interner. Equality, hashing and map keys become integer-cheap; the
//!   text is recovered with [`Symbol::as_str`] (a `&'static str`).
//!   Well-known strings (builtins, normalization targets, property keys)
//!   are pre-interned with fixed ids in [`sym`], so hot comparisons
//!   compile to integer compares against constants.
//! * [`Bump`] — a chunked bump arena for byte/string allocation. The
//!   interner stores all symbol text in one.
//! * [`LineIndex`] — O(log n) resolution of `u32` byte offsets to
//!   1-based line/column, replacing the per-token line/col fields the old
//!   lexer threaded through every `Span`.
//!
//! Interned text is deliberately never freed: symbols are handles into an
//! append-only table that lives for the process. Telemetry counters
//! (`intern.symbols`, `intern.bytes`, `intern.bytes_deduped`) expose the
//! table's growth, so a long-running service can watch its working set.

#![warn(missing_docs)]

pub mod arena;
pub mod source_map;
pub mod symbol;
pub mod table;

pub use arena::Bump;
pub use source_map::LineIndex;
pub use table::StrTable;
pub use symbol::{
    intern_fmt, interner_stats, sym, FxBuildHasher, FxHashMap, FxHashSet, FxHasher, Symbol,
    SymbolCache,
};
