//! Inverted N-gram index over fingerprints.
//!
//! The paper stores fingerprint N-grams in an Elasticsearch database and,
//! when matching a fingerprint, first retrieves only candidates sharing at
//! least a fraction η of its N-grams (§5.5, "Execution Time" challenge).
//! This crate is the in-process substitute: an inverted index from N-gram to
//! documents with the same η-threshold candidate retrieval, turning the
//! quadratic all-pairs edit-distance comparison into a cheap filter followed
//! by a small number of exact comparisons.
//!
//! ```
//! use ngram_index::NgramIndex;
//!
//! let mut index = NgramIndex::new(3);
//! index.insert(0, "ABCDEFGH");
//! index.insert(1, "ABCDXXXX");
//! index.insert(2, "ZZZZZZZZ");
//! let candidates = index.candidates("ABCDEFGG", 0.5);
//! assert!(candidates.contains(&0));
//! assert!(!candidates.contains(&2));
//! ```


#![warn(missing_docs)]

use std::collections::HashMap;

/// Document identifier type.
pub type DocId = u64;

/// An inverted index from character N-grams to documents.
///
/// Each document gets a dense *slot*, its insertion position, and the
/// postings store slots (`u32`) rather than ids: η counting then indexes
/// a flat per-query array instead of hashing ids, and a caller that keeps
/// its documents in insertion order (the clone detector's fingerprint
/// vector, the snapshot's doc table) can go from a candidate slot straight
/// to its document.
#[derive(Debug, Clone)]
pub struct NgramIndex {
    n: usize,
    /// N-gram → postings list: the slots of the documents containing it,
    /// ascending.
    postings: HashMap<Box<str>, Vec<u32>>,
    /// Slot → document id.
    ids: Vec<DocId>,
    /// Slot → number of distinct N-grams in the document.
    gram_counts: Vec<usize>,
}

impl NgramIndex {
    /// Create an index over N-grams of size `n` (the paper sweeps
    /// N ∈ {3, 5, 7}; 3 performed best, Appendix C/D).
    pub fn new(n: usize) -> Self {
        NgramIndex { n: n.max(1), postings: HashMap::new(), ids: Vec::new(), gram_counts: Vec::new() }
    }

    /// Build an index over borrowed `(id, text)` documents in one pass;
    /// the i-th document gets slot i.
    ///
    /// Nothing is cloned beyond the N-gram keys the index owns anyway, so
    /// bulk construction (the analysis service's warm-state setup, the
    /// sweep engine's per-N indexes) does not duplicate the corpus text.
    pub fn from_documents<'a, I>(n: usize, docs: I) -> Self
    where
        I: IntoIterator<Item = (DocId, &'a str)>,
    {
        let mut index = NgramIndex::new(n);
        for (id, text) in docs {
            index.insert(id, text);
        }
        index
    }

    /// The configured N-gram size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The slot table: `ids()[slot]` is the document in that slot.
    pub fn ids(&self) -> &[DocId] {
        &self.ids
    }

    /// Distinct N-grams of a text under this index's `n`, as zero-copy
    /// slices of `text`. Texts shorter than `n` yield the whole text as a
    /// single gram so that short fingerprints remain indexable.
    ///
    /// Fingerprint digests are ASCII, so the hot path slides a byte window
    /// over the text and never allocates; non-ASCII text falls back to
    /// char-boundary windows with identical gram semantics (each gram is
    /// still `n` *characters*).
    pub fn grams<'t>(&self, text: &'t str) -> Vec<&'t str> {
        let mut grams: Vec<&'t str> = if text.is_ascii() {
            if text.len() < self.n {
                if text.is_empty() { Vec::new() } else { vec![text] }
            } else {
                (0..=text.len() - self.n).map(|i| &text[i..i + self.n]).collect()
            }
        } else {
            let starts: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
            if starts.len() < self.n {
                if starts.is_empty() { Vec::new() } else { vec![text] }
            } else {
                (0..=starts.len() - self.n)
                    .map(|i| {
                        let end = starts.get(i + self.n).copied().unwrap_or(text.len());
                        &text[starts[i]..end]
                    })
                    .collect()
            }
        };
        grams.sort_unstable();
        grams.dedup();
        grams
    }

    /// Index a document in the next slot. Ids are not checked for
    /// uniqueness — the caller is expected to use fresh ids (documents
    /// are immutable fingerprints).
    pub fn insert(&mut self, id: DocId, text: &str) {
        static INSERTIONS: telemetry::Counter = telemetry::Counter::new("ngram.insertions");
        INSERTIONS.incr();
        let slot = u32::try_from(self.ids.len()).expect("an index holds at most u32::MAX documents");
        let grams = self.grams(text);
        self.ids.push(id);
        self.gram_counts.push(grams.len());
        for gram in grams {
            // Allocate the owned key only on first sight of a gram.
            if let Some(list) = self.postings.get_mut(gram) {
                list.push(slot);
            } else {
                self.postings.insert(gram.into(), vec![slot]);
            }
        }
    }

    /// Slots from `first` on of the documents sharing at least `eta`
    /// (0..=1) of the query's distinct N-grams — the paper's η-threshold
    /// candidate filter — ascending. `first = 0` searches the whole
    /// index; a later `first` searches only the documents inserted since
    /// the index held `first` of them.
    ///
    /// Shared grams are counted in a dense array over the slots
    /// `[first, len)` instead of a hash map, and a slot is taken the
    /// moment its count reaches the threshold, so the counts are never
    /// scanned afterwards. Each postings list is ascending, so its slots
    /// below `first` are skipped with one binary search. An empty query
    /// matches nothing.
    pub fn candidate_slots(&self, text: &str, eta: f64, first: u32) -> Vec<u32> {
        static QUERIES: telemetry::Counter = telemetry::Counter::new("ngram.queries");
        static CANDIDATES: telemetry::Counter = telemetry::Counter::new("ngram.candidates");
        QUERIES.incr();
        let grams = self.grams(text);
        if grams.is_empty() {
            return Vec::new();
        }
        let first = (first as usize).min(self.ids.len());
        // Saturating float-to-int cast: an η above 1 is never reached.
        let needed = (eta * grams.len() as f64).ceil().max(1.0) as u32;
        let mut shared = vec![0u32; self.ids.len() - first];
        let mut slots = Vec::new();
        for gram in &grams {
            if let Some(list) = self.postings.get(*gram) {
                let from = list.partition_point(|&slot| (slot as usize) < first);
                for &slot in &list[from..] {
                    let count = &mut shared[slot as usize - first];
                    *count += 1;
                    if *count == needed {
                        slots.push(slot);
                    }
                }
            }
        }
        slots.sort_unstable();
        CANDIDATES.add(slots.len() as u64);
        slots
    }

    /// Ids of the documents sharing at least `eta` (0..=1) of the query's
    /// distinct N-grams, ascending — [`NgramIndex::candidate_slots`] over
    /// the whole index, mapped through the slot table.
    pub fn candidates(&self, text: &str, eta: f64) -> Vec<DocId> {
        let mut ids: Vec<DocId> = self
            .candidate_slots(text, eta, 0)
            .into_iter()
            .map(|slot| self.ids[slot as usize])
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The postings lists in sorted-gram order, each as `(gram, slots)`.
    ///
    /// This is the flat export used by the snapshot writer in
    /// `index-store`: the order is deterministic (lexicographic by gram),
    /// so identical indexes serialize to identical bytes.
    pub fn postings_sorted(&self) -> Vec<(&str, &[u32])> {
        let mut out: Vec<(&str, &[u32])> =
            self.postings.iter().map(|(g, slots)| (&**g, &**slots)).collect();
        out.sort_unstable_by_key(|(g, _)| *g);
        out
    }

    /// Every indexed document with its distinct-gram count, in slot
    /// order. Companion export to [`NgramIndex::postings_sorted`].
    pub fn documents(&self) -> impl Iterator<Item = (DocId, usize)> + '_ {
        self.ids.iter().copied().zip(self.gram_counts.iter().copied())
    }

    /// Reassemble an index from flat parts without re-computing grams —
    /// the warm-start import path. `docs` lists `(id, gram count)` in slot
    /// order and `postings` holds slots into it. The caller (a validated
    /// snapshot loader) guarantees the parts came from
    /// [`NgramIndex::documents`] / [`NgramIndex::postings_sorted`] of an
    /// index with the same `n`: every slot is below the document count,
    /// no gram is listed twice (a repeat would silently replace the
    /// earlier list), and every postings list is strictly ascending, which
    /// [`NgramIndex::candidate_slots`] relies on to skip the slots below
    /// its first one. Nothing is re-derived or checked here.
    pub fn from_parts<D, P>(n: usize, docs: D, postings: P) -> Self
    where
        D: IntoIterator<Item = (DocId, usize)>,
        P: IntoIterator<Item = (Box<str>, Vec<u32>)>,
    {
        let (ids, gram_counts) = docs.into_iter().unzip();
        NgramIndex { n: n.max(1), postings: postings.into_iter().collect(), ids, gram_counts }
    }

    /// Fraction of the query's distinct N-grams contained in `other` —
    /// useful for tests and threshold tuning.
    pub fn share(&self, query: &str, other: &str) -> f64 {
        let q = self.grams(query);
        if q.is_empty() {
            return 0.0;
        }
        let o = self.grams(other);
        let shared = q.iter().filter(|g| o.binary_search(g).is_ok()).count();
        shared as f64 / q.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn grams_of_short_text() {
        let index = NgramIndex::new(3);
        assert_eq!(index.grams("ab"), vec!["ab"]);
        assert!(index.grams("").is_empty());
    }

    #[test]
    fn grams_are_deduplicated() {
        let index = NgramIndex::new(2);
        assert_eq!(index.grams("aaaa").len(), 1);
    }

    #[test]
    fn identical_text_is_always_a_candidate() {
        let mut index = NgramIndex::new(3);
        index.insert(7, "ABCDEFGHIJ");
        assert_eq!(index.candidates("ABCDEFGHIJ", 1.0), vec![7]);
    }

    #[test]
    fn eta_threshold_filters() {
        let mut index = NgramIndex::new(3);
        index.insert(0, "ABCDEFGH"); // shares the ABC/BCD/CDE prefix grams
        index.insert(1, "WXYZWXYZ"); // shares nothing
        let strict = index.candidates("ABCDEZZZ", 0.9);
        assert!(strict.is_empty());
        let loose = index.candidates("ABCDEZZZ", 0.3);
        assert_eq!(loose, vec![0]);
    }

    #[test]
    fn multiple_documents_ranked_by_threshold() {
        let mut index = NgramIndex::new(3);
        index.insert(0, "AAABBBCCC");
        index.insert(1, "AAABBBZZZ");
        index.insert(2, "ZZZYYYXXX");
        let c = index.candidates("AAABBBCCC", 0.5);
        assert!(c.contains(&0));
        assert!(!c.contains(&2));
    }

    #[test]
    fn share_fraction() {
        let index = NgramIndex::new(3);
        assert_eq!(index.share("ABCDEF", "ABCDEF"), 1.0);
        assert_eq!(index.share("ABCDEF", "ZZZZZZ"), 0.0);
    }

    #[test]
    fn empty_query_matches_nothing() {
        let mut index = NgramIndex::new(3);
        index.insert(0, "ABCDEF");
        assert!(index.candidates("", 0.5).is_empty());
        assert_eq!(index.share("", "ABCDEF"), 0.0);
    }

    #[test]
    fn eta_exactly_at_threshold_boundary() {
        // Query "ABCDE" under n=3 has grams {ABC, BCD, CDE}; the doc
        // shares exactly 2 of 3 → a share of 2/3.
        let mut index = NgramIndex::new(3);
        index.insert(0, "ABCDZZZ");
        assert_eq!(index.share("ABCDE", "ABCDZZZ"), 2.0 / 3.0);
        // needed = ceil(η·3): at η = 2/3 exactly, needed = 2 → included.
        assert_eq!(index.candidates("ABCDE", 2.0 / 3.0), vec![0]);
        // Any η above the boundary pushes needed to 3 → excluded.
        assert!(index.candidates("ABCDE", 0.67).is_empty());
    }

    #[test]
    fn shorter_than_n_takes_single_gram_path() {
        let mut index = NgramIndex::new(5);
        assert_eq!(index.grams("abc"), vec!["abc"]);
        index.insert(3, "abc");
        // The whole text is the one gram: only an exact text matches …
        assert_eq!(index.candidates("abc", 1.0), vec![3]);
        // … and a different short text shares nothing.
        assert!(index.candidates("abd", 0.1).is_empty());
    }

    #[test]
    fn non_ascii_grams_use_char_windows() {
        let index = NgramIndex::new(3);
        // 5 chars → 3 windows of 3 chars each, multi-byte respected.
        let mut expected = vec!["hél", "éll", "llo"];
        expected.sort_unstable();
        assert_eq!(index.grams("héllo"), expected);
        // Short non-ASCII text takes the single-gram path.
        assert_eq!(index.grams("éà"), vec!["éà"]);
    }

    #[test]
    fn flat_roundtrip_preserves_candidates() {
        let mut index = NgramIndex::new(3);
        index.insert(0, "ABCDEFGH");
        index.insert(1, "ABCDXXXX");
        index.insert(2, "ZZZZZZZZ");
        let docs: Vec<(DocId, usize)> = index.documents().collect();
        let posts: Vec<(Box<str>, Vec<u32>)> = index
            .postings_sorted()
            .into_iter()
            .map(|(g, slots)| (g.into(), slots.to_vec()))
            .collect();
        let rebuilt = NgramIndex::from_parts(3, docs, posts);
        assert_eq!(rebuilt.len(), 3);
        for query in ["ABCDEFGG", "ZZZZZZZZ", "ABCDXXXX"] {
            for eta in [0.3, 0.5, 1.0] {
                assert_eq!(rebuilt.candidates(query, eta), index.candidates(query, eta));
                assert_eq!(
                    rebuilt.candidate_slots(query, eta, 0),
                    index.candidate_slots(query, eta, 0)
                );
            }
        }
    }

    #[test]
    fn sorted_exports_are_deterministic() {
        let build = || {
            let mut i = NgramIndex::new(2);
            i.insert(9, "abcd");
            i.insert(3, "bcda");
            i
        };
        let (a, b) = (build(), build());
        assert_eq!(a.postings_sorted(), b.postings_sorted());
        assert!(a.documents().eq(b.documents()));
        // Slot order is insertion order, not id order.
        assert_eq!(a.documents().collect::<Vec<_>>(), vec![(9, 3), (3, 3)]);
        assert_eq!(a.ids(), &[9, 3]);
    }

    #[test]
    fn slots_are_insertion_positions_and_ids_come_back_sorted() {
        let mut index = NgramIndex::new(3);
        index.insert(9, "ABCDEFGH");
        index.insert(3, "ZZZZZZZZ");
        index.insert(7, "ABCDEFXX");
        assert_eq!(index.candidate_slots("ABCDEFGH", 0.5, 0), vec![0, 2]);
        assert_eq!(index.candidate_slots("ABCDEFGH", 0.5, 1), vec![2]);
        assert!(index.candidate_slots("ABCDEFGH", 0.5, 3).is_empty());
        assert_eq!(index.candidates("ABCDEFGH", 0.5), vec![7, 9]);
        let postings = index.postings_sorted();
        let abc = postings.iter().find(|(g, _)| *g == "ABC").unwrap();
        assert_eq!(abc.1, &[0, 2]);
    }

    proptest! {
        #[test]
        fn inserted_doc_is_its_own_candidate(text in "[A-Za-z0-9]{1,64}", n in 1usize..8) {
            let mut index = NgramIndex::new(n);
            index.insert(42, &text);
            let c = index.candidates(&text, 1.0);
            prop_assert!(c.contains(&42));
        }

        #[test]
        fn candidates_subset_of_corpus(
            docs in proptest::collection::vec("[A-D]{4,16}", 1..10),
            query in "[A-D]{4,16}",
            eta in 0.1f64..1.0,
        ) {
            let mut index = NgramIndex::new(3);
            for (i, d) in docs.iter().enumerate() {
                index.insert(i as DocId, d);
            }
            for id in index.candidates(&query, eta) {
                prop_assert!((id as usize) < docs.len());
            }
        }

        #[test]
        fn candidates_are_exactly_the_docs_at_or_above_the_share(
            docs in proptest::collection::vec("[A-D]{0,16}", 1..12),
            query in "[A-D]{0,16}",
            n in 1usize..5,
            quarter in 1usize..5,
        ) {
            // Quarters are exact in binary, so `share >= eta` and the
            // index's `shared >= ceil(eta * grams)` cannot disagree by
            // rounding.
            let eta = quarter as f64 / 4.0;
            let index = NgramIndex::from_documents(
                n,
                docs.iter().enumerate().map(|(i, d)| ((100 - i) as DocId, d.as_str())),
            );
            let expected_slots: Vec<u32> = (0..docs.len() as u32)
                .filter(|&slot| index.share(&query, &docs[slot as usize]) >= eta)
                .collect();
            prop_assert_eq!(index.candidate_slots(&query, eta, 0), expected_slots.clone());
            let mut expected_ids: Vec<DocId> =
                expected_slots.iter().map(|&slot| index.ids()[slot as usize]).collect();
            expected_ids.sort_unstable();
            prop_assert_eq!(index.candidates(&query, eta), expected_ids);
        }

        #[test]
        fn candidates_from_a_slot_are_the_full_list_from_that_slot(
            docs in proptest::collection::vec("[A-D]{0,16}", 0..12),
            query in "[A-D]{0,16}",
            n in 1usize..5,
            quarter in 1usize..5,
        ) {
            let eta = quarter as f64 / 4.0;
            let index = NgramIndex::from_documents(
                n,
                docs.iter().enumerate().map(|(i, d)| ((100 - i) as DocId, d.as_str())),
            );
            let full = index.candidate_slots(&query, eta, 0);
            for first in 0..=docs.len() as u32 {
                let expected: Vec<u32> =
                    full.iter().copied().filter(|&slot| slot >= first).collect();
                prop_assert_eq!(index.candidate_slots(&query, eta, first), expected);
            }
        }

        #[test]
        fn higher_eta_never_adds_candidates(
            docs in proptest::collection::vec("[A-D]{4,16}", 1..10),
            query in "[A-D]{4,16}",
        ) {
            let mut index = NgramIndex::new(3);
            for (i, d) in docs.iter().enumerate() {
                index.insert(i as DocId, d);
            }
            let loose = index.candidates(&query, 0.3);
            let strict = index.candidates(&query, 0.8);
            for id in strict {
                prop_assert!(loose.contains(&id));
            }
        }
    }
}
