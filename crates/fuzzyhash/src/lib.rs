//! Context-triggered piecewise hashing (CTPH), in the style of ssdeep
//! (Kornblum 2006), plus the edit-distance similarity used by the paper's
//! clone detector (§5.4).
//!
//! Unlike a cryptographic hash, a fuzzy hash splits its input into pieces
//! using a *rolling hash* trigger and hashes each piece independently; a
//! local change only perturbs the pieces it touches, so similar inputs get
//! similar digests. The paper feeds *tokens* one by one into the hasher so
//! that piece boundaries align with token boundaries ("enforcing context"),
//! and compares digests with a normalized edit-distance similarity
//! `δ(s1, s2) = (max(len) − d(s1, s2)) / max(len) · 100`.
//!
//! ```
//! use fuzzyhash::{FuzzyHasher, similarity};
//!
//! let mut a = FuzzyHasher::new(4);
//! let mut b = FuzzyHasher::new(4);
//! for tok in ["contract", "c", "{", "function", "f", "(", ")", "{", "}", "}"] {
//!     a.update_token(tok);
//!     b.update_token(tok);
//! }
//! b.update_token("extra");
//! let (da, db) = (a.finish(), b.finish());
//! assert!(similarity(&da, &db) > 50.0);
//! ```


#![warn(missing_docs)]

use std::collections::VecDeque;

/// Window size of the rolling hash (ssdeep uses 7).
pub const ROLLING_WINDOW: usize = 7;

/// Base64 alphabet used for digest characters (ssdeep-compatible order).
const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// The ssdeep rolling hash: a windowed checksum whose value depends only on
/// the last [`ROLLING_WINDOW`] bytes, so identical contexts produce
/// identical trigger points regardless of position.
#[derive(Debug, Clone)]
pub struct RollingHash {
    window: VecDeque<u8>,
    h1: u32,
    h2: u32,
    h3: u32,
}

impl Default for RollingHash {
    fn default() -> Self {
        Self::new()
    }
}

impl RollingHash {
    /// Fresh state.
    pub fn new() -> Self {
        RollingHash { window: VecDeque::with_capacity(ROLLING_WINDOW), h1: 0, h2: 0, h3: 0 }
    }

    /// Push one byte and return the new hash value.
    pub fn update(&mut self, byte: u8) -> u32 {
        let outgoing = if self.window.len() == ROLLING_WINDOW {
            self.window.pop_front().unwrap_or(0)
        } else {
            0
        };
        self.window.push_back(byte);
        self.h2 = self
            .h2
            .wrapping_sub(self.h1)
            .wrapping_add((ROLLING_WINDOW as u32).wrapping_mul(byte as u32));
        self.h1 = self.h1.wrapping_add(byte as u32).wrapping_sub(outgoing as u32);
        self.h3 = (self.h3 << 5) ^ (byte as u32);
        self.h1.wrapping_add(self.h2).wrapping_add(self.h3)
    }

    /// Current hash value.
    pub fn value(&self) -> u32 {
        self.h1.wrapping_add(self.h2).wrapping_add(self.h3)
    }
}

/// FNV-style piecewise hash (ssdeep's `sum_hash`).
#[derive(Debug, Clone, Copy)]
pub struct PieceHash(u32);

impl Default for PieceHash {
    fn default() -> Self {
        Self::new()
    }
}

impl PieceHash {
    /// ssdeep's initialisation constant.
    pub fn new() -> Self {
        PieceHash(0x2802_1967)
    }

    /// Mix one byte.
    pub fn update(&mut self, byte: u8) {
        self.0 = self.0.wrapping_mul(0x0100_0193) ^ (byte as u32);
    }

    /// Base64 character of the current state.
    pub fn digest_char(self) -> char {
        B64[(self.0 % 64) as usize] as char
    }
}

/// A context-triggered piecewise hasher with a fixed block size.
///
/// The clone detector uses a *fixed* block size for all fingerprints so
/// that digests of different snippets are mutually comparable (classic
/// ssdeep only compares digests of equal or adjacent block sizes).
/// Feeding via [`FuzzyHasher::update_token`] restricts piece boundaries to
/// token boundaries, which is the paper's context-enforcement trick.
#[derive(Debug, Clone)]
pub struct FuzzyHasher {
    block_size: u32,
    roll: RollingHash,
    piece: PieceHash,
    digest: String,
    dirty: bool,
}

impl FuzzyHasher {
    /// Create a hasher with the given trigger block size (the expected
    /// number of tokens per piece).
    pub fn new(block_size: u32) -> Self {
        FuzzyHasher {
            block_size: block_size.max(1),
            roll: RollingHash::new(),
            piece: PieceHash::new(),
            digest: String::new(),
            dirty: false,
        }
    }

    /// Feed raw bytes; a piece may end at any byte, as in classic ssdeep.
    pub fn update_bytes(&mut self, data: &[u8]) {
        for &byte in data {
            self.push_byte(byte);
            self.maybe_cut();
        }
    }

    /// Feed one token; piece boundaries only occur *between* tokens, so a
    /// piece always covers whole tokens (§5.4 context enforcement).
    pub fn update_token(&mut self, token: &str) {
        for &byte in token.as_bytes() {
            self.push_byte(byte);
        }
        // Token separator keeps `ab`,`c` distinct from `a`,`bc`.
        self.push_byte(0x1f);
        self.maybe_cut();
    }

    fn push_byte(&mut self, byte: u8) {
        self.roll.update(byte);
        self.piece.update(byte);
        self.dirty = true;
    }

    fn maybe_cut(&mut self) {
        if self.roll.value() % self.block_size == self.block_size - 1 {
            self.digest.push(self.piece.digest_char());
            self.piece = PieceHash::new();
            self.dirty = false;
        }
    }

    /// Finish the digest, flushing the trailing partial piece.
    pub fn finish(mut self) -> String {
        if self.dirty {
            self.digest.push(self.piece.digest_char());
        }
        self.digest
    }
}

/// Levenshtein edit distance between two strings (two-row DP, O(n·m) time,
/// O(min(n,m)) space).
pub fn edit_distance(a: &str, b: &str) -> usize {
    if a.is_ascii() && b.is_ascii() {
        return edit_distance_slices(a.as_bytes(), b.as_bytes());
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    edit_distance_slices(&a, &b)
}

fn edit_distance_slices<T: Eq>(a: &[T], b: &[T]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut current = vec![0usize; short.len() + 1];
    for (i, lc) in long.iter().enumerate() {
        current[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let cost = if lc == sc { 0 } else { 1 };
            current[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(current[j] + 1);
        }
        std::mem::swap(&mut prev, &mut current);
    }
    prev[short.len()]
}

/// Banded (Ukkonen) edit distance: `Some(d)` iff `d(a, b) <= max_dist`,
/// `None` as soon as the distance provably exceeds the bound.
///
/// Only the `2·max_dist + 1` diagonals around the main one are evaluated,
/// so a tight bound turns the O(n·m) table into O(max_dist·n). This is
/// the fallback kernel of [`similarity_above`] for inputs the
/// bit-parallel kernel cannot take (a non-ASCII side, or a first side
/// longer than 64 bytes).
pub fn edit_distance_bounded(a: &str, b: &str, max_dist: usize) -> Option<usize> {
    if a.is_ascii() && b.is_ascii() {
        return edit_distance_bounded_slices(a.as_bytes(), b.as_bytes(), max_dist);
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    edit_distance_bounded_slices(&a, &b, max_dist)
}

/// Bounded-distance outcomes, recorded by both kernels: the length gap
/// alone proved the distance over the bound, the distance was found over
/// the bound, or it was computed within it.
static PRUNE_LENGTH_GAP: telemetry::Counter =
    telemetry::Counter::new("fuzzyhash.prune.length_gap");
static PRUNE_BAND_ABORT: telemetry::Counter =
    telemetry::Counter::new("fuzzyhash.prune.band_abort");
static DP_COMPLETED: telemetry::Counter = telemetry::Counter::new("fuzzyhash.dp.completed");

fn edit_distance_bounded_slices<T: Eq>(a: &[T], b: &[T], k: usize) -> Option<usize> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let (n, m) = (long.len(), short.len());
    // The length gap is a lower bound on the distance.
    if n - m > k {
        PRUNE_LENGTH_GAP.incr();
        return None;
    }
    if m == 0 {
        return Some(n);
    }
    const INF: usize = usize::MAX / 2;
    // Rows indexed by the long string; columns by the short one. Cells
    // outside the band hold INF; the band only widens by one per row, so
    // invalidating the trailing cell keeps the rows reusable.
    let mut prev: Vec<usize> = vec![INF; m + 1];
    let mut current: Vec<usize> = vec![INF; m + 1];
    for (j, slot) in prev.iter_mut().enumerate().take(m.min(k) + 1) {
        *slot = j;
    }
    for i in 1..=n {
        let lo = i.saturating_sub(k).max(1);
        let hi = (i + k).min(m);
        if lo > hi {
            PRUNE_BAND_ABORT.incr();
            return None;
        }
        current[lo - 1] = if lo == 1 { i } else { INF };
        let mut row_min = current[lo - 1];
        for j in lo..=hi {
            let cost = if long[i - 1] == short[j - 1] { 0 } else { 1 };
            let cell = (prev[j - 1] + cost)
                .min(prev[j] + 1)
                .min(current[j - 1] + 1);
            current[j] = cell;
            row_min = row_min.min(cell);
        }
        if row_min > k {
            PRUNE_BAND_ABORT.incr();
            return None;
        }
        if hi < m {
            current[hi + 1] = INF;
        }
        std::mem::swap(&mut prev, &mut current);
    }
    within(prev[m], k)
}

/// Record and apply the bound to an exact distance.
fn within(d: usize, k: usize) -> Option<usize> {
    if d > k {
        PRUNE_BAND_ABORT.incr();
        None
    } else {
        DP_COMPLETED.incr();
        Some(d)
    }
}

/// Longest pattern the bit-parallel kernel takes: one machine word.
const WORD: usize = 64;

/// Levenshtein distance between a pattern of `m` (1..=64) ASCII bytes,
/// given by its match masks, and the ASCII `text` — Myers' bit-vector
/// algorithm in Hyyrö's edit-distance form. One DP column per text byte
/// is held as two words of vertical +1/−1 deltas; `d` tracks the bottom
/// cell. Bits above `m` carry garbage that never flows down: every
/// operation moves information toward higher bits only.
fn bit_parallel_distance(masks: &[u64; 128], m: usize, text: &[u8]) -> usize {
    let last = 1u64 << (m - 1);
    let (mut vp, mut vn) = (!0u64, 0u64);
    let mut d = m;
    for &byte in text {
        let eq = masks[usize::from(byte)];
        let d0 = (((eq & vp).wrapping_add(vp)) ^ vp) | eq | vn;
        let hp = vn | !(d0 | vp);
        let hn = vp & d0;
        // At most one of the two is set; branch-free, as either is a coin
        // flip for the predictor.
        d = d + usize::from(hp & last != 0) - usize::from(hn & last != 0);
        // The top row D[0][j] = j contributes a +1 horizontal delta.
        let hp = (hp << 1) | 1;
        let hn = hn << 1;
        vp = hn | !(d0 | hp);
        vn = hp & d0;
    }
    d
}

/// The paper's sub-fingerprint similarity (§5.5):
/// `δ(s1, s2) = (max(len) − d(s1, s2)) / max(len) · 100`.
///
/// Two empty strings are identical (100); one empty string is maximally
/// dissimilar to a non-empty one (0).
pub fn similarity(s1: &str, s2: &str) -> f64 {
    let max_len = s1.chars().count().max(s2.chars().count());
    if max_len == 0 {
        return 100.0;
    }
    let d = edit_distance(s1, s2);
    (max_len.saturating_sub(d)) as f64 / max_len as f64 * 100.0
}

/// Pruned [`similarity`]: `Some(δ)` — exactly the value `similarity`
/// would return — whenever `δ` could exceed `floor`, `None` only when the
/// score is provably `<= floor` (scores just below the floor may still be
/// returned; the bound is padded to stay conservative).
///
/// `δ > floor` translates into a bound on the distance; one extra unit
/// absorbs the float rounding of that translation. Since
/// `d >= |len1 − len2|`, the length gap alone often proves `δ <= floor`
/// without computing anything. Otherwise the distance comes from one of
/// two exact kernels, chosen from the input: the bit-parallel kernel
/// when both sides are ASCII and `s1` is at most 64 bytes (every
/// fingerprint piece in practice), else the banded
/// [`edit_distance_bounded`]. Either
/// way the result is `Some` exactly when `d` is within the bound, so
/// callers folding a running maximum can pass the current best as
/// `floor`: skipped scores can never raise the max, and surviving scores
/// are bit-identical to the unpruned ones.
pub fn similarity_above(s1: &str, s2: &str, floor: f64) -> Option<f64> {
    Pattern::new(s1).similarity_above(s2, floor)
}

/// One side of δ prepared for many comparisons: Algorithm 1 scores every
/// sub-fingerprint of one fingerprint against every sub-fingerprint of
/// another, so the per-side work — the character count and, for an
/// ASCII side of at most 64 bytes, the bit-parallel kernel's match masks
/// (`masks[c]` has bit `i` set iff byte `i` is `c`) — is done once per
/// side instead of once per pair.
#[derive(Debug, Clone)]
pub struct Pattern<'a> {
    text: &'a str,
    chars: usize,
    masks: Option<[u64; 128]>,
}

impl<'a> Pattern<'a> {
    /// Prepare `text` as the first argument of [`similarity_above`].
    pub fn new(text: &'a str) -> Pattern<'a> {
        let masks = (text.is_ascii() && text.len() <= WORD).then(|| {
            let mut masks = [0u64; 128];
            for (i, byte) in text.bytes().enumerate() {
                masks[byte as usize] |= 1 << i;
            }
            masks
        });
        let chars = if masks.is_some() { text.len() } else { text.chars().count() };
        Pattern { text, chars, masks }
    }

    /// [`similarity_above`] with this pattern as `s1`: same contract,
    /// same bits.
    pub fn similarity_above(&self, other: &str, floor: f64) -> Option<f64> {
        static CALLS: telemetry::Counter = telemetry::Counter::new("fuzzyhash.similarity.calls");
        CALLS.incr();
        let other_ascii = other.is_ascii();
        let other_chars = if other_ascii { other.len() } else { other.chars().count() };
        let max_len = self.chars.max(other_chars);
        if max_len == 0 {
            return Some(100.0);
        }
        // δ > floor  ⇔  d < max_len·(1 − floor/100); pad by one for float slack.
        let max_dist = if floor <= 0.0 {
            max_len
        } else if floor >= 100.0 {
            1
        } else {
            ((max_len as f64 * (1.0 - floor / 100.0)).floor() as usize + 1).min(max_len)
        };
        let d = self.distance_within(other, other_ascii, other_chars, max_dist)?;
        Some((max_len.saturating_sub(d)) as f64 / max_len as f64 * 100.0)
    }

    /// `Some(d)` iff the edit distance to `other` (of `other_chars`
    /// characters) is at most `k`: the bit-parallel kernel when both sides
    /// are ASCII and this one fits a word, else the banded DP.
    fn distance_within(
        &self,
        other: &str,
        other_ascii: bool,
        other_chars: usize,
        k: usize,
    ) -> Option<usize> {
        let Some(masks) = self.masks.as_ref().filter(|_| other_ascii) else {
            return edit_distance_bounded(self.text, other, k);
        };
        if self.chars.abs_diff(other_chars) > k {
            PRUNE_LENGTH_GAP.incr();
            return None;
        }
        let d = if self.chars == 0 {
            other_chars
        } else {
            bit_parallel_distance(masks, self.chars, other.as_bytes())
        };
        within(d, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Hash a token stream with a fixed block size.
    fn hash_tokens(tokens: &[String], block_size: u32) -> String {
        let mut hasher = FuzzyHasher::new(block_size);
        for token in tokens {
            hasher.update_token(token);
        }
        hasher.finish()
    }

    #[test]
    fn rolling_hash_depends_only_on_window() {
        let mut a = RollingHash::new();
        let mut b = RollingHash::new();
        for byte in b"xxxxxxxabcdefg" {
            a.update(*byte);
        }
        for byte in b"yyyyyyyabcdefg" {
            b.update(*byte);
        }
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn rolling_hash_differs_within_window() {
        let mut a = RollingHash::new();
        let mut b = RollingHash::new();
        for byte in b"abcdefg" {
            a.update(*byte);
        }
        for byte in b"abcdefh" {
            b.update(*byte);
        }
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn deterministic_digests() {
        let tokens: Vec<String> = ["msg", ".", "sender", ".", "transfer", "uint"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(hash_tokens(&tokens, 4), hash_tokens(&tokens, 4));
    }

    #[test]
    fn local_change_preserves_most_of_the_digest() {
        // The Figure 5 property: adding a line only modifies part of the
        // fingerprint.
        let base: Vec<String> = (0..200).map(|i| format!("tok{}", i % 23)).collect();
        let mut modified = base.clone();
        modified.insert(100, "inserted".to_string());
        modified.insert(101, "line".to_string());
        let da = hash_tokens(&base, 4);
        let db = hash_tokens(&modified, 4);
        assert!(da.len() > 10, "digest too short: {da}");
        assert!(
            similarity(&da, &db) > 70.0,
            "local change should keep digests similar: {da} vs {db}"
        );
    }

    #[test]
    fn different_inputs_have_dissimilar_digests() {
        let a: Vec<String> = (0..200).map(|i| format!("a{i}")).collect();
        let b: Vec<String> = (0..200).map(|i| format!("b{i}")).collect();
        let da = hash_tokens(&a, 4);
        let db = hash_tokens(&b, 4);
        assert!(similarity(&da, &db) < 60.0, "{da} vs {db}");
    }

    #[test]
    fn digest_is_much_shorter_than_input() {
        let tokens: Vec<String> = (0..1000).map(|i| format!("tok{i}")).collect();
        let digest = hash_tokens(&tokens, 8);
        assert!(digest.len() < 400, "len = {}", digest.len());
        assert!(!digest.is_empty());
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "axc"), 1);
    }

    #[test]
    fn similarity_formula() {
        assert_eq!(similarity("", ""), 100.0);
        assert_eq!(similarity("abcd", "abcd"), 100.0);
        assert_eq!(similarity("abcd", ""), 0.0);
        // d("abcd","abcx") = 1, max len 4 → 75.
        assert_eq!(similarity("abcd", "abcx"), 75.0);
    }

    #[test]
    fn bounded_edit_distance_basics() {
        assert_eq!(edit_distance_bounded("", "", 0), Some(0));
        assert_eq!(edit_distance_bounded("abc", "", 3), Some(3));
        assert_eq!(edit_distance_bounded("abc", "", 2), None);
        assert_eq!(edit_distance_bounded("kitten", "sitting", 3), Some(3));
        assert_eq!(edit_distance_bounded("kitten", "sitting", 2), None);
        // Band of width 0 still detects equality.
        assert_eq!(edit_distance_bounded("same", "same", 0), Some(0));
        assert_eq!(edit_distance_bounded("same", "sane", 0), None);
    }

    #[test]
    fn similarity_above_prunes_only_below_floor() {
        // δ("abcd","abcx") = 75.
        assert_eq!(similarity_above("abcd", "abcx", 0.0), Some(75.0));
        assert_eq!(similarity_above("abcd", "abcx", 74.9), Some(75.0));
        // δ("aaaa","bbbb") = 0, far below the floor → pruned.
        assert_eq!(similarity_above("aaaa", "bbbb", 80.0), None);
        assert_eq!(similarity_above("", "", 99.0), Some(100.0));
        // Length gap alone rules this pair out at a high floor.
        assert_eq!(similarity_above("a", "abcdefgh", 50.0), None);
    }

    #[test]
    fn word_boundary_lengths_match_the_full_dp_bitwise() {
        // 63 and 64 bytes fit the bit-parallel word and 65 does not, so
        // pairing them every way runs both kernels (a 65-byte first side
        // takes the DP).
        let base: String = (0..65u32).map(|i| char::from(b'a' + (i * 7 % 26) as u8)).collect();
        let mut lengths = Vec::new();
        for len in [63usize, 64, 65] {
            let text = &base[..len];
            let mut near: Vec<u8> = text.bytes().collect();
            near[len / 2] = b'Z';
            near.swap(3, len - 4);
            lengths.push((text.to_string(), String::from_utf8(near).unwrap()));
        }
        for (a, a_near) in &lengths {
            for (b, b_near) in &lengths {
                for (x, y) in [(a, b), (a, b_near), (a_near, b), (a_near, b_near), (a, a_near)] {
                    let exact = similarity(x, y);
                    for floor in [0.0, 50.0, exact - 1e-9, exact] {
                        match similarity_above(x, y, floor) {
                            Some(s) => assert_eq!(s.to_bits(), exact.to_bits(), "{x} vs {y}"),
                            None => assert!(exact <= floor, "{x} vs {y} pruned at {floor}"),
                        }
                    }
                    assert_eq!(
                        similarity_above(x, y, 0.0).map(f64::to_bits),
                        Some(exact.to_bits()),
                        "{x} vs {y}"
                    );
                }
            }
        }
        // Both sides over 64 bytes with one non-ASCII: only the DP applies.
        let long = format!("{}é", &base[..65]);
        assert_eq!(similarity_above(&long, &base, 0.0), Some(similarity(&long, &base)));
    }

    #[test]
    fn token_boundaries_enforce_context() {
        // `ab`,`c` and `a`,`bc` concatenate alike, but the separator after
        // each token puts different bytes into the stream.
        let x = hash_tokens(&["ab".into(), "c".into(), "pad1".into(), "pad2".into()], 2);
        let y = hash_tokens(&["a".into(), "bc".into(), "pad1".into(), "pad2".into()], 2);
        assert_ne!(x, y);
        let x2 = hash_tokens(&["ab".into(), "c".into(), "pad1".into(), "pad2".into()], 2);
        assert_eq!(x, x2);
    }

    proptest! {
        #[test]
        fn edit_distance_symmetric(a in ".{0,40}", b in ".{0,40}") {
            prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
        }

        #[test]
        fn edit_distance_identity(a in ".{0,40}") {
            prop_assert_eq!(edit_distance(&a, &a), 0);
        }

        #[test]
        fn edit_distance_triangle(a in ".{0,20}", b in ".{0,20}", c in ".{0,20}") {
            let ab = edit_distance(&a, &b);
            let bc = edit_distance(&b, &c);
            let ac = edit_distance(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn edit_distance_bounded_by_longer(a in ".{0,40}", b in ".{0,40}") {
            let d = edit_distance(&a, &b);
            let max = a.chars().count().max(b.chars().count());
            prop_assert!(d <= max);
        }

        #[test]
        fn similarity_in_range(a in "[a-zA-Z0-9]{0,40}", b in "[a-zA-Z0-9]{0,40}") {
            let s = similarity(&a, &b);
            prop_assert!((0.0..=100.0).contains(&s));
        }

        #[test]
        fn bounded_agrees_with_exact_within_band(a in ".{0,30}", b in ".{0,30}", k in 0usize..35) {
            let exact = edit_distance(&a, &b);
            match edit_distance_bounded(&a, &b, k) {
                Some(d) => prop_assert_eq!(d, exact),
                None => prop_assert!(exact > k, "pruned at k={} but exact={}", k, exact),
            }
        }

        #[test]
        fn similarity_above_is_exact_or_provably_below(
            a in "[a-zA-Z0-9]{0,100}",
            b in "[a-zA-Z0-9]{0,100}",
            floor in 0.0f64..100.0,
        ) {
            let exact = similarity(&a, &b);
            match similarity_above(&a, &b, floor) {
                // Surviving scores must be bit-identical to the unpruned value.
                Some(s) => prop_assert_eq!(s.to_bits(), exact.to_bits()),
                None => prop_assert!(exact <= floor, "pruned {} at floor {}", exact, floor),
            }
        }

        #[test]
        fn close_pairs_across_the_word_boundary_are_exact(
            a in "[ab]{0,100}",
            edits in proptest::collection::vec((0usize..100, "[abc]{0,2}"), 0..6),
            floor in 0.0f64..100.0,
        ) {
            // Near-copies score high, so the bound is tight and both
            // kernels must land exactly on it.
            let mut b = a.clone();
            for (at, with) in edits {
                let at = at.min(b.len());
                let end = (at + 1).min(b.len());
                b.replace_range(at..end, &with);
            }
            let exact = similarity(&a, &b);
            match similarity_above(&a, &b, floor) {
                Some(s) => prop_assert_eq!(s.to_bits(), exact.to_bits()),
                None => prop_assert!(exact <= floor, "pruned {} at floor {}", exact, floor),
            }
            // δ and its bound are symmetric, so either side can be the
            // prepared one.
            prop_assert_eq!(Pattern::new(&b).similarity_above(&a, floor), similarity_above(&a, &b, floor));
        }

        #[test]
        fn both_kernels_match_the_full_dp(a in ".{0,64}", b in ".{0,90}") {
            // An ASCII pair whose prepared side fits the 64-bit word takes
            // the bit-parallel kernel; any non-ASCII side, or a prepared
            // side over 64 bytes, takes the banded DP.
            let ascii = |s: &str| -> String { s.chars().filter(char::is_ascii).collect() };
            let pairs = [(ascii(&a), ascii(&b)), (ascii(&a), b.clone()), (a.clone(), b.clone())];
            for (x, y) in &pairs {
                let exact = edit_distance(x, y);
                let max_len = x.chars().count().max(y.chars().count());
                for (p, q) in [(x, y), (y, x)] {
                    let (ascii, chars) = (q.is_ascii(), q.chars().count());
                    let d = Pattern::new(p).distance_within(q, ascii, chars, max_len);
                    prop_assert_eq!(d, Some(exact));
                }
            }
        }

        #[test]
        fn hashing_never_panics(tokens in proptest::collection::vec("[a-z]{1,8}", 0..50), bs in 1u32..16) {
            let _ = hash_tokens(&tokens, bs);
        }
    }
}
