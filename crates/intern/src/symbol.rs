//! The string interner and its `Symbol` handles.
//!
//! One process-wide interner lives behind [`Symbol::intern`]: a sharded
//! hash map from string to id plus an append-only id → `&'static str`
//! table whose bytes sit in a [`Bump`] arena that is never
//! freed. Interning is a hash lookup (and, for new strings, one arena
//! copy); resolving is an index load behind a read lock; comparing,
//! hashing and storing symbols is integer work.

use crate::arena::Bump;
use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use telemetry::Counter;

/// Unique strings interned so far (well-known prefill included).
static SYMBOLS: Counter = Counter::new("intern.symbols");
/// Bytes of unique string text stored in the interner arena.
static BYTES: Counter = Counter::new("intern.bytes");
/// Bytes of re-interned text that hit the table instead of allocating.
static BYTES_DEDUPED: Counter = Counter::new("intern.bytes_deduped");

/// An interned string: a `u32` handle whose equality, hashing and copying
/// are integer operations. Resolve with [`Symbol::as_str`]; `Deref<Target
/// = str>` makes `str` methods (`starts_with`, `len`, ...) work directly.
///
/// Ordering is **by text** (so sorted output matches the pre-interning
/// `String` order), while equality and hashing are by id — consistent,
/// since ids and texts are bijective.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Symbol(u32);

impl Symbol {
    /// Intern `s`, returning its symbol. The same text always returns the
    /// same symbol for the life of the process.
    ///
    /// A thread-local cache sits in front of the sharded global tables:
    /// repeat interns of the same text (the overwhelmingly common case —
    /// identifiers recur constantly within a source) cost one `FxHash`
    /// and one probe, with no lock and no atomics. Only first sightings
    /// per thread take the global path. Cache hits bypass the
    /// `intern.bytes_deduped` telemetry counter, which therefore counts
    /// cross-thread dedup only.
    pub fn intern(s: &str) -> Symbol {
        thread_local! {
            static CACHE: std::cell::RefCell<HashMap<&'static str, Symbol, FxBuildHasher>> =
                RefCell::new(HashMap::with_capacity_and_hasher(
                    2048,
                    FxBuildHasher::default(),
                ));
        }
        CACHE.with(|cache| match cache.try_borrow_mut() {
            Ok(mut cache) => {
                if let Some(&sym) = cache.get(s) {
                    return sym;
                }
                let sym = interner().intern(s);
                cache.insert(sym.as_str(), sym);
                sym
            }
            // Re-entrant call (e.g. from a `Debug` impl running inside
            // this frame): fall through to the global tables.
            Err(_) => interner().intern(s),
        })
    }

    /// The interned text. The returned reference is `'static`: symbol
    /// text is never freed.
    #[inline]
    pub fn as_str(self) -> &'static str {
        interner().resolve(self)
    }

    /// The raw id (the index into the intern table).
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl Default for Symbol {
    fn default() -> Symbol {
        sym::EMPTY
    }
}

impl Deref for Symbol {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.as_str()
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

/// A fast, non-cryptographic hasher (FxHash-style multiply-xor), used for
/// the intern shards where DoS resistance is irrelevant and speed is not.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
        }
        let mut tail = 0u64;
        for &b in chunks.remainder() {
            tail = (tail << 8) | b as u64;
        }
        self.hash = (self.hash.rotate_left(5) ^ tail).wrapping_mul(SEED);
    }

    fn write_u32(&mut self, value: u32) {
        self.hash = (self.hash.rotate_left(5) ^ value as u64).wrapping_mul(SEED);
    }

    fn write_u64(&mut self, value: u64) {
        self.hash = (self.hash.rotate_left(5) ^ value).wrapping_mul(SEED);
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with [`FxHasher`] — the right default for `Symbol` (and
/// other integer-like) keys on hot paths, where SipHash's per-hash setup
/// dominates the actual hashing.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Intern the formatted text of `args` without materializing an
/// intermediate `String`: formatting lands in a thread-local scratch
/// buffer that is reused across calls.
///
/// ```
/// let s = intern::intern_fmt(format_args!("{} {}", "struct", "Point"));
/// assert_eq!(s.as_str(), "struct Point");
/// ```
pub fn intern_fmt(args: fmt::Arguments<'_>) -> Symbol {
    thread_local! {
        static SCRATCH: std::cell::RefCell<String> =
            const { std::cell::RefCell::new(String::new()) };
    }
    SCRATCH.with(|cell| {
        let Ok(mut buf) = cell.try_borrow_mut() else {
            // Re-entrant formatting (a `Display` impl that itself calls
            // `intern_fmt`): fall back to a fresh allocation.
            return Symbol::intern(&args.to_string());
        };
        buf.clear();
        fmt::Write::write_fmt(&mut *buf, args).expect("formatting into a String cannot fail");
        Symbol::intern(&buf)
    })
}

/// Slots in a [`SymbolCache`]; must be a power of two.
const SYMBOL_CACHE_SLOTS: usize = 2048;

/// A direct-mapped memo in front of [`Symbol::intern`] for tight loops.
///
/// [`Symbol::intern`] already keeps a thread-local hash map, but a map
/// probe (hash, bucket walk, key compare, `RefCell` discipline) is still
/// the dominant cost when interning every identifier of a source file.
/// This cache is one hash and one slot compare: hash the text, index a
/// fixed-size slot array, verify the hit by comparing against the slot
/// symbol's text. Collisions simply overwrite the slot — the worst case
/// is a redundant probe of the thread-local map, never a wrong symbol.
///
/// Intended use: own one per thread (or borrow a thread-local one) and
/// pass `&mut` into the hot loop, as the lexer does.
pub struct SymbolCache {
    /// `(text hash, symbol)` pairs; an empty slot is `(0, sym::EMPTY)`,
    /// which is self-consistent because the empty string hashes to 0.
    slots: Box<[(u64, Symbol); SYMBOL_CACHE_SLOTS]>,
}

impl SymbolCache {
    /// Create an empty cache.
    pub fn new() -> SymbolCache {
        SymbolCache { slots: Box::new([(0, sym::EMPTY); SYMBOL_CACHE_SLOTS]) }
    }

    /// Intern `s`, consulting the direct-mapped memo first.
    #[inline]
    pub fn intern(&mut self, s: &str) -> Symbol {
        let mut hasher = FxHasher::default();
        hasher.write(s.as_bytes());
        let hash = hasher.finish();
        let slot = &mut self.slots[hash as usize & (SYMBOL_CACHE_SLOTS - 1)];
        if slot.0 == hash && slot.1.as_str() == s {
            return slot.1;
        }
        let sym = Symbol::intern(s);
        *slot = (hash, sym);
        sym
    }
}

impl Default for SymbolCache {
    fn default() -> SymbolCache {
        SymbolCache::new()
    }
}

const SHARD_COUNT: usize = 16;

/// Symbols per chunk of the lock-free id → text table.
const TABLE_CHUNK: usize = 1 << 12;
/// Maximum number of chunks (bounds the table at ~16.7M symbols).
const TABLE_CHUNKS: usize = 1 << 12;

/// Append-only id → `&'static str` table with lock-free reads.
///
/// Texts live in fixed-size heap chunks that are allocated on demand and
/// never moved or freed, so a reader only needs one atomic chunk-pointer
/// load and one indexed load — no lock on the resolve path, which runs on
/// every `Symbol::as_str` (and therefore inside every text comparison).
/// Appends are serialized by the caller (the interner's storage lock).
struct Table {
    chunks: [AtomicPtr<&'static str>; TABLE_CHUNKS],
    len: AtomicUsize,
}

impl Table {
    fn new() -> Table {
        Table {
            chunks: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            len: AtomicUsize::new(0),
        }
    }

    /// Append `s`, returning its id. Caller must hold the interner's
    /// storage lock: appends are serialized, only reads are lock-free.
    fn push(&self, s: &'static str) -> u32 {
        let id = self.len.load(Ordering::Relaxed);
        let (chunk_idx, slot) = (id / TABLE_CHUNK, id % TABLE_CHUNK);
        assert!(chunk_idx < TABLE_CHUNKS, "interner overflowed the symbol table");
        let mut chunk = self.chunks[chunk_idx].load(Ordering::Acquire);
        if chunk.is_null() {
            let boxed: Box<[&'static str; TABLE_CHUNK]> = Box::new([""; TABLE_CHUNK]);
            chunk = Box::into_raw(boxed).cast::<&'static str>();
            self.chunks[chunk_idx].store(chunk, Ordering::Release);
        }
        // SAFETY: `slot < TABLE_CHUNK`, the chunk was allocated with that
        // exact length, and appends are serialized by the storage lock, so
        // no other thread writes this slot.
        unsafe { chunk.add(slot).write(s) };
        self.len.store(id + 1, Ordering::Release);
        u32::try_from(id).expect("interner overflowed u32 symbols")
    }

    /// Read the text of id `id`. Lock-free.
    ///
    /// Sound for any id obtained from [`Table::push`]: the slot write
    /// happens-before the release of the `Symbol` to the caller, and
    /// passing a symbol between threads requires a synchronizing edge
    /// that carries the write along.
    #[inline]
    fn get(&self, id: u32) -> &'static str {
        let id = id as usize;
        let chunk = self.chunks[id / TABLE_CHUNK].load(Ordering::Acquire);
        debug_assert!(!chunk.is_null() && id < self.len.load(Ordering::Acquire));
        // SAFETY: ids are only handed out by `push`, which initialized
        // this slot in an already-installed chunk.
        unsafe { chunk.add(id % TABLE_CHUNK).read() }
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }
}

struct Interner {
    /// text → symbol, sharded by text hash to cut cross-thread contention.
    shards: [Mutex<HashMap<&'static str, Symbol, FxBuildHasher>>; SHARD_COUNT],
    /// id → text. Append-only, lock-free reads.
    strings: Table,
    /// Backing bytes for every interned string. Never freed: the interner
    /// is a process singleton, which is what makes the `&'static`
    /// promotion in `intern` sound. This lock also serializes appends to
    /// `strings`.
    storage: Mutex<Bump>,
}

fn interner() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let interner = Interner {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::default())),
            strings: Table::new(),
            storage: Mutex::new(Bump::new()),
        };
        for (i, text) in WELL_KNOWN.iter().enumerate() {
            let sym = interner.intern(text);
            assert_eq!(
                sym.0 as usize, i,
                "well-known symbol {text:?} interned out of order"
            );
        }
        interner
    })
}

impl Interner {
    fn shard_of(&self, s: &str) -> usize {
        let mut hasher = FxHasher::default();
        s.hash(&mut hasher);
        (hasher.finish() as usize) % SHARD_COUNT
    }

    fn intern(&self, s: &str) -> Symbol {
        let shard = &self.shards[self.shard_of(s)];
        let mut map = shard.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(&sym) = map.get(s) {
            BYTES_DEDUPED.add(s.len() as u64);
            return sym;
        }
        let id = {
            let storage = self.storage.lock().unwrap_or_else(|p| p.into_inner());
            let copied = storage.alloc_str(s);
            // SAFETY: `storage` belongs to the process-global interner
            // created in `interner()`'s OnceLock, which is never dropped,
            // and the Bump arena never frees or moves its chunks. The
            // string therefore lives for the rest of the process.
            let stored: &'static str = unsafe { &*(copied as *const str) };
            // Append while still holding the storage lock, which doubles
            // as the table's append serializer.
            self.strings.push(stored)
        };
        let sym = Symbol(id);
        map.insert(self.strings.get(id), sym);
        SYMBOLS.incr();
        BYTES.add(s.len() as u64);
        sym
    }

    #[inline]
    fn resolve(&self, sym: Symbol) -> &'static str {
        self.strings.get(sym.0)
    }
}

/// Current interner statistics: `(unique symbols, unique bytes stored)`.
/// Unlike the telemetry counters these are exact even when telemetry is
/// disabled.
pub fn interner_stats() -> (usize, usize) {
    let i = interner();
    let symbols = i.strings.len();
    let bytes = i.storage.lock().unwrap_or_else(|p| p.into_inner()).allocated_bytes();
    (symbols, bytes)
}

macro_rules! well_known {
    ($($name:ident => $text:literal,)+) => {
        /// Texts of the pre-interned symbols, in id order.
        const WELL_KNOWN: &[&str] = &[$($text),+];

        #[allow(non_camel_case_types, dead_code, clippy::upper_case_acronyms)]
        #[repr(u32)]
        enum WkIdx { $($name),+ }

        /// Pre-interned well-known symbols with fixed ids: comparisons
        /// against these constants are integer compares with no hashing
        /// or locking.
        #[allow(missing_docs)] // each constant names the string it holds
        pub mod sym {
            use super::{Symbol, WkIdx};
            $(pub const $name: Symbol = Symbol(WkIdx::$name as u32);)+
        }
    };
}

well_known! {
    // The empty string is symbol 0, the `Default` symbol.
    EMPTY => "",
    // Normalization replacement names (ccd::normalize).
    C => "c",
    L => "l",
    I => "i",
    F => "f",
    M => "m",
    S => "s",
    E => "e",
    ERR => "err",
    UNDERSCORE => "_",
    STRING_LITERAL => "stringLiteral",
    MAPPING => "mapping",
    UINT => "uint",
    // Builtin globals and members the detectors and normalizer compare
    // against (msg.sender guards, transfer/call targets, ...).
    MSG => "msg",
    TX => "tx",
    BLOCK => "block",
    NOW => "now",
    THIS => "this",
    SUPER => "super",
    ABI => "abi",
    SENDER => "sender",
    VALUE => "value",
    DATA => "data",
    SIG => "sig",
    GAS => "gas",
    ORIGIN => "origin",
    GASPRICE => "gasprice",
    TIMESTAMP => "timestamp",
    NUMBER => "number",
    DIFFICULTY => "difficulty",
    COINBASE => "coinbase",
    GASLIMIT => "gaslimit",
    BLOCKHASH => "blockhash",
    TRANSFER => "transfer",
    SEND => "send",
    CALL => "call",
    DELEGATECALL => "delegatecall",
    CALLCODE => "callcode",
    STATICCALL => "staticcall",
    LENGTH => "length",
    PUSH => "push",
    POP => "pop",
    BALANCE => "balance",
    REQUIRE => "require",
    ASSERT => "assert",
    REVERT => "revert",
    THROW => "throw",
    SELFDESTRUCT => "selfdestruct",
    SUICIDE => "suicide",
    KECCAK256 => "keccak256",
    SHA3 => "sha3",
    SHA256 => "sha256",
    RIPEMD160 => "ripemd160",
    ECRECOVER => "ecrecover",
    ADDMOD => "addmod",
    MULMOD => "mulmod",
    GASLEFT => "gasleft",
    TYPE => "type",
    OWNER => "owner",
    // Member paths matched as whole `code` strings by the queries.
    MSG_SENDER => "msg.sender",
    MSG_VALUE => "msg.value",
    MSG_DATA => "msg.data",
    TX_ORIGIN => "tx.origin",
    BLOCK_TIMESTAMP => "block.timestamp",
    BLOCK_NUMBER => "block.number",
    // CPG property keys (graphquery lookups). "value" and "type" are
    // already interned above.
    CODE => "code",
    LOCAL_NAME => "localName",
    OPERATOR_CODE => "operatorCode",
    INDEX_KEY => "index",
    IS_INFERRED => "isInferred",
    KIND_KEY => "kind",
    VISIBILITY => "visibility",
    PRAGMA => "pragma",
    FN_KIND => "fn_kind",
    // Builder `extra` keys and unit facts.
    CONSTANT => "constant",
    MUTABILITY => "mutability",
    MODIFIERS => "modifiers",
    UNCHECKED => "unchecked",
    PREFIX => "prefix",
    SOLIDITY08 => "solidity08",
    SAFEMATH => "safemath",
    // Common literal/visibility texts.
    TRUE => "true",
    FALSE => "false",
    PUBLIC => "public",
    PRIVATE => "private",
    INTERNAL => "internal",
    EXTERNAL => "external",
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_text_same_symbol() {
        let a = Symbol::intern("hello");
        let b = Symbol::intern("hello");
        let c = Symbol::intern("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "hello");
        assert_eq!(c.as_str(), "world");
    }

    #[test]
    fn roundtrip_many() {
        let texts: Vec<String> = (0..5_000).map(|i| format!("roundtrip-{i}")).collect();
        let syms: Vec<Symbol> = texts.iter().map(|t| Symbol::intern(t)).collect();
        for (t, s) in texts.iter().zip(&syms) {
            assert_eq!(s.as_str(), t);
            assert_eq!(*s, Symbol::intern(t));
        }
    }

    #[test]
    fn well_known_have_fixed_ids() {
        assert_eq!(sym::EMPTY.as_u32(), 0);
        assert_eq!(sym::EMPTY.as_str(), "");
        assert_eq!(sym::MSG_SENDER.as_str(), "msg.sender");
        assert_eq!(sym::REQUIRE.as_str(), "require");
        assert_eq!(Symbol::intern("msg.sender"), sym::MSG_SENDER);
        assert_eq!(Symbol::default(), sym::EMPTY);
        // Fixed ids really are fixed: the table prefix is WELL_KNOWN.
        for (i, text) in WELL_KNOWN.iter().enumerate() {
            assert_eq!(Symbol::intern(text).as_u32() as usize, i);
        }
    }

    #[test]
    fn ordering_is_textual() {
        let mut syms = [
            Symbol::intern("pear"),
            Symbol::intern("apple"),
            Symbol::intern("banana"),
        ];
        syms.sort();
        let texts: Vec<&str> = syms.iter().map(|s| s.as_str()).collect();
        assert_eq!(texts, ["apple", "banana", "pear"]);
    }

    #[test]
    fn deref_and_str_compares() {
        let s = Symbol::intern("msg.sender");
        assert!(s.starts_with("msg."));
        assert_eq!(s.len(), 10);
        assert!(s == "msg.sender");
        assert!("msg.sender" == s);
        assert_eq!(format!("{s}"), "msg.sender");
        assert_eq!(format!("{s:?}"), "\"msg.sender\"");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..1_000)
                        .map(|i| Symbol::intern(&format!("concurrent-{}", (i + t) % 500)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Symbol>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for syms in &all {
            for s in syms {
                assert!(s.as_str().starts_with("concurrent-"));
            }
        }
        // Same text interned from different threads yields the same id.
        assert_eq!(
            Symbol::intern("concurrent-0"),
            Symbol::intern("concurrent-0")
        );
    }

    #[test]
    fn stats_grow() {
        let (before_syms, before_bytes) = interner_stats();
        Symbol::intern("stats-growth-probe-unique-string");
        let (after_syms, after_bytes) = interner_stats();
        assert!(after_syms > before_syms);
        assert!(after_bytes > before_bytes);
    }
}
