//! Fingerprint matching (§5.5 of the paper).
//!
//! Two challenges drive the design: **execution time** — solved by an
//! N-gram pre-filter retrieving only candidates sharing ≥ η of the query's
//! N-grams — and **code order** — solved by the order-independent
//! similarity of Algorithm 1, which matches every sub-fingerprint of one
//! fingerprint against the best-scoring sub-fingerprint of the other.

use crate::fingerprint::Fingerprint;
use crate::normalize::normalize_unit;
use crate::tokenize::tokenize_unit;
use fuzzyhash::Pattern;
use ngram_index::{DocId, NgramIndex};
use solidity::AnalysisError;
use std::collections::HashMap;
use std::sync::Arc;

/// CCD matching parameters (Table 9 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcdParams {
    /// N-gram size for candidate retrieval (paper sweeps {3, 5, 7}).
    pub ngram_size: usize,
    /// η — minimum shared-N-gram fraction for a candidate (0..=1).
    pub eta: f64,
    /// ε — minimum order-independent similarity for a clone (0..=100).
    pub epsilon: f64,
}

impl CcdParams {
    /// The paper's best precision/recall trade-off (§5.7.1): N = 3,
    /// η = 0.5, ε = 0.7.
    pub fn best() -> CcdParams {
        CcdParams { ngram_size: 3, eta: 0.5, epsilon: 70.0 }
    }

    /// The conservative high-confidence configuration of the large-scale
    /// experiment (§6.3): N = 3, η = 0.5, ε = 0.9.
    pub fn conservative() -> CcdParams {
        CcdParams { ngram_size: 3, eta: 0.5, epsilon: 90.0 }
    }
}

impl Default for CcdParams {
    fn default() -> Self {
        CcdParams::best()
    }
}

/// Algorithm 1 — order-independent similarity score ε of two fingerprints.
///
/// Every sub-fingerprint `s1 ∈ f1` is scored against all `s2 ∈ f2` with the
/// δ edit-distance similarity; the final score is the mean of the per-`s1`
/// maxima.
///
/// The per-`s1` running best is threaded into the δ computation as a lower
/// bound ([`fuzzyhash::similarity_above`]): sub-fingerprints whose length
/// gap already caps δ at or below the best are skipped outright, the rest
/// get an exact distance that is discarded once it exceeds the bound. Both
/// prunings only discard scores that provably cannot raise the maximum, so
/// the result is bit-identical to the exhaustive double loop. Each `s1` is
/// prepared for δ once ([`fuzzyhash::Pattern`]), not once per `s2`.
pub fn order_independent_similarity(f1: &Fingerprint, f2: &Fingerprint) -> f64 {
    let subs1 = patterns(f1);
    let subs2 = f2.sub_fingerprints();
    if subs1.is_empty() || subs2.is_empty() {
        return if subs1.is_empty() && subs2.is_empty() { 100.0 } else { 0.0 };
    }
    let mut total = 0.0;
    for s1 in &subs1 {
        let mut best = 0.0f64;
        for s2 in &subs2 {
            if let Some(score) = s1.similarity_above(s2, best) {
                best = best.max(score);
            }
        }
        total += best;
    }
    total / subs1.len() as f64
}

/// The sub-fingerprints of `fingerprint`, each prepared for δ once.
fn patterns(fingerprint: &Fingerprint) -> Vec<Pattern<'_>> {
    fingerprint.sub_fingerprints().into_iter().map(Pattern::new).collect()
}

/// Both directions of Algorithm 1 in a single pass over the
/// |subs(f1)| × |subs(f2)| score matrix: row maxima average to
/// `score(f1 → f2)`, column maxima to `score(f2 → f1)`.
///
/// δ is symmetric, so one matrix serves both directions — this halves the
/// edit-distance work of the all-pairs sweep, which needs both. Pruning
/// uses the *smaller* of the two running bests for a cell (a score can
/// only matter if it raises its row or its column maximum), preserving
/// bit-identity with two independent [`order_independent_similarity`]
/// calls.
pub fn order_independent_similarity_pair(f1: &Fingerprint, f2: &Fingerprint) -> (f64, f64) {
    let subs1 = patterns(f1);
    let subs2 = f2.sub_fingerprints();
    if subs1.is_empty() || subs2.is_empty() {
        let score = if subs1.is_empty() && subs2.is_empty() { 100.0 } else { 0.0 };
        return (score, score);
    }
    let mut col_best = vec![0.0f64; subs2.len()];
    let mut total_rows = 0.0;
    for s1 in &subs1 {
        let mut row_best = 0.0f64;
        for (j, s2) in subs2.iter().enumerate() {
            let floor = row_best.min(col_best[j]);
            if let Some(score) = s1.similarity_above(s2, floor) {
                row_best = row_best.max(score);
                col_best[j] = col_best[j].max(score);
            }
        }
        total_rows += row_best;
    }
    let forward = total_rows / subs1.len() as f64;
    let backward = col_best.iter().sum::<f64>() / subs2.len() as f64;
    (forward, backward)
}

/// A match result: document id and its ε score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloneMatch {
    /// The matched document.
    pub doc: DocId,
    /// Order-independent similarity (0..=100).
    pub score: f64,
}

/// A corpus of fingerprinted documents with N-gram-accelerated clone
/// search — the CCD pipeline of Figure 4.
///
/// The N-gram index numbers documents by slot, and slot *i* is entry *i*
/// of the fingerprint vector, so a candidate slot addresses its
/// fingerprint directly. The detector also interns the corpus's
/// sub-fingerprints: copied functions recur across contracts, so each
/// distinct piece text is stored once and every slot lists its pieces as
/// ids into that table. Matching computes δ once per distinct piece it
/// meets (see [`CloneDetector::matches`]). The table is derived from the
/// fingerprints alone, so snapshots and the WAL do not carry it.
pub struct CloneDetector {
    params: CcdParams,
    index: NgramIndex,
    /// The corpus, in slot order.
    fingerprints: Vec<(DocId, Fingerprint)>,
    /// The interned sub-fingerprints of `fingerprints`, in slot order.
    subs: SubTable,
}

/// A corpus's sub-fingerprints, interned: each distinct text once, and
/// each slot's pieces as ids into the texts, in fingerprint order.
#[derive(Default)]
struct SubTable {
    /// Text → id; each key shares its allocation with `texts[id]`.
    ids: HashMap<Arc<str>, u32>,
    /// Id → text.
    texts: Vec<Arc<str>>,
    /// Every slot's piece ids, slot after slot.
    pieces: Vec<u32>,
    /// Slot *i*'s pieces are `pieces[ends[i - 1]..ends[i]]`, from 0 for
    /// slot 0.
    ends: Vec<u32>,
}

impl SubTable {
    /// Append the next slot's pieces.
    fn push(&mut self, fingerprint: &Fingerprint) {
        for sub in fingerprint.sub_fingerprints() {
            // Allocate the shared text only on first sight of a piece.
            let id = match self.ids.get(sub) {
                Some(&id) => id,
                None => {
                    let id = u32::try_from(self.texts.len())
                        .expect("a corpus holds at most u32::MAX distinct sub-fingerprints");
                    let text: Arc<str> = Arc::from(sub);
                    self.ids.insert(Arc::clone(&text), id);
                    self.texts.push(text);
                    id
                }
            };
            self.pieces.push(id);
        }
        let end = u32::try_from(self.pieces.len())
            .expect("a corpus holds at most u32::MAX sub-fingerprints");
        self.ends.push(end);
    }

    /// The piece ids of `slot`.
    fn slot(&self, slot: u32) -> &[u32] {
        let slot = slot as usize;
        let start = if slot == 0 { 0 } else { self.ends[slot - 1] as usize };
        &self.pieces[start..self.ends[slot] as usize]
    }
}

impl CloneDetector {
    /// Create an empty detector with the given parameters.
    pub fn new(params: CcdParams) -> CloneDetector {
        CloneDetector {
            params,
            index: NgramIndex::new(params.ngram_size),
            fingerprints: Vec::new(),
            subs: SubTable::default(),
        }
    }

    /// Build a detector over an already-fingerprinted corpus, in slot
    /// order: only the N-gram index and the sub-fingerprint table are
    /// constructed. The detector owns its corpus, so an `Arc` held nowhere
    /// else is unwrapped without a copy; one shared elsewhere is cloned.
    pub fn from_shared(params: CcdParams, corpus: Arc<Vec<(DocId, Fingerprint)>>) -> CloneDetector {
        let fingerprints = Arc::unwrap_or_clone(corpus);
        let mut index = NgramIndex::new(params.ngram_size);
        let mut subs = SubTable::default();
        for (doc, fp) in &fingerprints {
            index.insert(*doc, &fp.indexed_text());
            subs.push(fp);
        }
        CloneDetector { params, index, fingerprints, subs }
    }

    /// Reassemble a detector from an already-built N-gram index and its
    /// corpus — the snapshot warm-start path: nothing is re-grammed; only
    /// the sub-fingerprint table is rebuilt from the fingerprints.
    ///
    /// The caller (the validated snapshot loader in `index-store`)
    /// guarantees `index` was built over exactly `corpus`.
    /// What can be checked cheaply is: the index's `n` must match the
    /// parameters, and slot *i* of the index must hold the id of corpus
    /// entry *i* — matching reads candidate slots straight out of the
    /// corpus. Either mismatch is a typed `index_corrupt` error.
    pub fn from_parts(
        params: CcdParams,
        corpus: Vec<(DocId, Fingerprint)>,
        index: NgramIndex,
    ) -> Result<CloneDetector, AnalysisError> {
        if index.n() != params.ngram_size {
            return Err(AnalysisError::index_corrupt(format!(
                "snapshot index has n={}, params want n={}",
                index.n(),
                params.ngram_size
            )));
        }
        if index.len() != corpus.len() {
            return Err(AnalysisError::index_corrupt(format!(
                "snapshot index covers {} docs, corpus has {}",
                index.len(),
                corpus.len()
            )));
        }
        let mismatch = index.ids().iter().zip(corpus.iter()).position(|(id, (doc, _))| id != doc);
        if let Some(slot) = mismatch {
            return Err(AnalysisError::index_corrupt(format!(
                "index slot {slot} holds doc {}, corpus entry {slot} is doc {}",
                index.ids()[slot],
                corpus[slot].0
            )));
        }
        let mut subs = SubTable::default();
        for (_, fp) in &corpus {
            subs.push(fp);
        }
        Ok(CloneDetector { params, index, fingerprints: corpus, subs })
    }

    /// The configured parameters.
    pub fn params(&self) -> CcdParams {
        self.params
    }

    /// The detector's N-gram index — read access for the snapshot writer,
    /// which serializes the postings instead of re-deriving them.
    pub fn index(&self) -> &NgramIndex {
        &self.index
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }

    /// The indexed fingerprints, in insertion order. The detector already
    /// owns every fingerprint, so sweep-style callers iterate here instead
    /// of keeping a shadow copy.
    pub fn iter_fingerprints(&self) -> impl Iterator<Item = (DocId, &Fingerprint)> + '_ {
        self.fingerprints.iter().map(|(doc, fp)| (*doc, fp))
    }

    /// Normalize, tokenize and fingerprint a source fragment, reporting
    /// *why* it is not fingerprintable: a parse failure carries its
    /// location, an empty token stream (nothing hashable in the fragment)
    /// is an invalid request.
    pub fn try_fingerprint_source(source: &str) -> Result<Fingerprint, AnalysisError> {
        static FINGERPRINTS: telemetry::Counter = telemetry::Counter::new("ccd.fingerprints");
        static FAILURES: telemetry::Counter =
            telemetry::Counter::new("ccd.fingerprint_failures");
        static STAGE: telemetry::Stage = telemetry::Stage::new("ccd-fingerprint");
        let _stage = STAGE.enter();
        let fingerprint = (|| {
            let mut unit = solidity::parse_snippet(source)?;
            normalize_unit(&mut unit);
            let tokens = tokenize_unit(&unit);
            if tokens.is_empty() {
                return Err(AnalysisError::invalid(
                    "nothing fingerprintable in the fragment",
                ));
            }
            Ok(Fingerprint::of(&tokens))
        })();
        match fingerprint {
            Ok(_) => FINGERPRINTS.incr(),
            Err(_) => FAILURES.incr(),
        }
        fingerprint
    }

    /// Normalize, tokenize and fingerprint a source fragment. Returns
    /// `None` when the fragment does not parse or nothing is tokenizable;
    /// use [`CloneDetector::try_fingerprint_source`] to learn why.
    pub fn fingerprint_source(source: &str) -> Option<Fingerprint> {
        Self::try_fingerprint_source(source).ok()
    }

    /// Index a pre-computed fingerprint under a document id, in the next
    /// slot.
    pub fn insert_fingerprint(&mut self, doc: DocId, fingerprint: Fingerprint) {
        self.index.insert(doc, &fingerprint.indexed_text());
        self.subs.push(&fingerprint);
        self.fingerprints.push((doc, fingerprint));
    }

    /// Fingerprint and index a source fragment; returns `false` when the
    /// fragment is not fingerprintable.
    pub fn insert_source(&mut self, doc: DocId, source: &str) -> bool {
        match Self::fingerprint_source(source) {
            Some(fp) => {
                self.insert_fingerprint(doc, fp);
                true
            }
            None => false,
        }
    }

    /// All clones of `query` in the corpus: N-gram candidates (η filter)
    /// scored with Algorithm 1 and thresholded at ε. Sorted by descending
    /// score, ties in corpus order.
    ///
    /// Candidates are scored in three steps. First, the distinct
    /// sub-fingerprint ids the candidates hold are collected. Then δ is
    /// computed once per (query piece, distinct corpus piece) into a
    /// per-query memo. Last, each candidate's Algorithm 1 score is read
    /// from the memo. The scores are the bits the per-candidate loop of
    /// [`order_independent_similarity`] gives: every memo entry is the
    /// exact δ, that loop's pruning only skips values at or below a row's
    /// running maximum, so each row maximum is the same, and the rows are
    /// summed in query-piece order and divided as there.
    pub fn matches(&self, query: &Fingerprint) -> Vec<CloneMatch> {
        static QUERIES: telemetry::Counter = telemetry::Counter::new("ccd.matcher.queries");
        static MATCHES: telemetry::Counter = telemetry::Counter::new("ccd.matcher.matches");
        QUERIES.incr();
        static STAGE: telemetry::Stage = telemetry::Stage::new("ccd-match");
        let _stage = STAGE.enter();
        // Chaos hook: matching is infallible, so an injected *error* at
        // `ccd/match` escalates to a panic for the isolation layer.
        if let Some(message) = faultinject::fire("ccd/match") {
            panic!("faultinject: {message}");
        }
        let slots = self.index.candidate_slots(&query.indexed_text(), self.params.eta);
        telemetry::trace::annotate("candidates", slots.len());
        let matches = self.score_slots(query, slots.iter().copied());
        MATCHES.add(matches.len() as u64);
        matches
    }

    /// Brute-force variant without the N-gram pre-filter — the baseline of
    /// the "Execution Time" challenge (§5.5), kept for the ablation bench.
    /// It scores every slot with the same memoized Algorithm 1 as
    /// [`CloneDetector::matches`], so the two differ only in the η filter.
    pub fn matches_bruteforce(&self, query: &Fingerprint) -> Vec<CloneMatch> {
        self.score_slots(query, 0..self.len() as u32)
    }

    /// Algorithm 1 for `query` against `slots` (ascending), kept at ε and
    /// stably sorted by descending score. See [`CloneDetector::matches`].
    fn score_slots(
        &self,
        query: &Fingerprint,
        slots: impl Iterator<Item = u32> + Clone,
    ) -> Vec<CloneMatch> {
        static DELTA_EVALS: telemetry::Counter = telemetry::Counter::new("ccd.matcher.delta_evals");
        static DELTA_LOOKUPS: telemetry::Counter =
            telemetry::Counter::new("ccd.matcher.delta_lookups");
        let query = patterns(query);
        let width = query.len();
        // Memo row of each distinct piece the slots hold, by sub id; the
        // memo holds one row of `width` δ values per distinct piece.
        let mut row = vec![u32::MAX; self.subs.texts.len()];
        let mut distinct: Vec<u32> = Vec::new();
        for slot in slots.clone() {
            for &id in self.subs.slot(slot) {
                if row[id as usize] == u32::MAX {
                    row[id as usize] = distinct.len() as u32;
                    distinct.push(id);
                }
            }
        }
        telemetry::trace::annotate("distinct_subs", distinct.len());
        // A floor of 0 prunes nothing, so every δ is exact; `None` would
        // mean δ ≤ 0, which is δ = 0.
        let mut memo = Vec::with_capacity(distinct.len() * width);
        for &id in &distinct {
            let text = &self.subs.texts[id as usize];
            memo.extend(query.iter().map(|piece| piece.similarity_above(text, 0.0).unwrap_or(0.0)));
        }
        DELTA_EVALS.add(memo.len() as u64);

        let mut best = vec![0.0f64; width];
        let mut lookups = 0;
        // Ascending slots are corpus order, the tie order of the stable
        // sort below.
        let mut matches = Vec::new();
        for slot in slots {
            let pieces = self.subs.slot(slot);
            let score = if width == 0 || pieces.is_empty() {
                if width == 0 && pieces.is_empty() { 100.0 } else { 0.0 }
            } else {
                best.fill(0.0);
                for &id in pieces {
                    let start = row[id as usize] as usize * width;
                    for (max, &delta) in best.iter_mut().zip(&memo[start..start + width]) {
                        *max = max.max(delta);
                    }
                }
                lookups += pieces.len() * width;
                let mut total = 0.0;
                for max in &best {
                    total += max;
                }
                total / width as f64
            };
            if score >= self.params.epsilon {
                matches.push(CloneMatch { doc: self.fingerprints[slot as usize].0, score });
            }
        }
        DELTA_LOOKUPS.add(lookups as u64);
        matches.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
        matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNIPPET: &str = "contract Unsafe { \
        function unsafeWithdraw(uint value) public { msg.sender.transfer(value); } }";

    /// Type II clone: renamed identifiers.
    const RENAMED: &str = "contract Wallet { \
        function takeOut(uint amount) public { msg.sender.transfer(amount); } }";

    /// Type III clone: added statements around the copied function.
    const EXTENDED: &str = "contract Wallet { \
        address deployer; \
        constructor() { deployer = msg.sender; } \
        function takeOut(uint amount) public { msg.sender.transfer(amount); } }";

    const UNRELATED: &str = "contract Voting { \
        mapping(address => bool) voted; uint yes; uint no; \
        function vote(bool support) public { \
          require(!voted[msg.sender]); voted[msg.sender] = true; \
          if (support) { yes += 1; } else { no += 1; } } \
        function tally() public returns (uint, uint) { return (yes, no); } }";

    /// Type III clone of [`EXTENDED`] with a function of [`UNRELATED`]
    /// added: two of its three pieces are copied, so it scores between
    /// ε = 70 and ε = 90 against the extended clone.
    const MIXED: &str = "contract Wallet { \
        address deployer; \
        constructor() { deployer = msg.sender; } \
        function takeOut(uint amount) public { msg.sender.transfer(amount); } \
        function tally() public returns (uint, uint) { return (yes, no); } }";

    fn detector_with_corpus() -> CloneDetector {
        let mut d = CloneDetector::new(CcdParams::best());
        assert!(d.insert_source(0, RENAMED));
        assert!(d.insert_source(1, EXTENDED));
        assert!(d.insert_source(2, UNRELATED));
        d
    }

    #[test]
    fn type_ii_clone_scores_100() {
        let d = detector_with_corpus();
        let q = CloneDetector::fingerprint_source(SNIPPET).unwrap();
        let m = d.matches(&q);
        let exact = m.iter().find(|m| m.doc == 0).expect("renamed clone found");
        assert_eq!(exact.score, 100.0);
    }

    #[test]
    fn type_iii_clone_scores_high_but_below_100() {
        let d = detector_with_corpus();
        let q = CloneDetector::fingerprint_source(SNIPPET).unwrap();
        let m = d.matches(&q);
        let near = m.iter().find(|m| m.doc == 1).expect("extended clone found");
        assert!(near.score >= 70.0, "{}", near.score);
    }

    #[test]
    fn unrelated_contract_is_not_matched() {
        let d = detector_with_corpus();
        let q = CloneDetector::fingerprint_source(SNIPPET).unwrap();
        let m = d.matches(&q);
        assert!(m.iter().all(|m| m.doc != 2), "{m:?}");
    }

    #[test]
    fn order_independence() {
        // Same functions, swapped order → still 100.
        let a = CloneDetector::fingerprint_source(
            "contract C { function f() { x = 1; } function g() { y = 2; } }",
        )
        .unwrap();
        let b = CloneDetector::fingerprint_source(
            "contract C { function g() { y = 2; } function f() { x = 1; } }",
        )
        .unwrap();
        assert_eq!(order_independent_similarity(&a, &b), 100.0);
    }

    #[test]
    fn bruteforce_and_filtered_agree_on_strong_clones() {
        let d = detector_with_corpus();
        let q = CloneDetector::fingerprint_source(SNIPPET).unwrap();
        let filtered: Vec<u64> = d.matches(&q).iter().map(|m| m.doc).collect();
        let brute: Vec<u64> = d.matches_bruteforce(&q).iter().map(|m| m.doc).collect();
        // The filter may drop weak candidates but must keep the exact clone.
        assert!(brute.contains(&0));
        assert!(filtered.contains(&0));
    }

    #[test]
    fn unparsable_source_is_rejected() {
        let mut d = CloneDetector::new(CcdParams::best());
        assert!(!d.insert_source(9, "this is prose, not solidity at all — just words"));
        assert!(d.is_empty());
    }

    #[test]
    fn conservative_params_demand_higher_similarity() {
        let loose = detector_with_corpus();
        let mut strict = CloneDetector::new(CcdParams::conservative());
        for (doc, fp) in loose.iter_fingerprints() {
            strict.insert_fingerprint(doc, fp.clone());
        }
        let mut between = 0;
        for source in [SNIPPET, MIXED] {
            let q = CloneDetector::fingerprint_source(source).unwrap();
            let (loose, strict) = (loose.matches(&q), strict.matches(&q));
            // Raising ε from 70 to 90 keeps exactly the matches scoring ≥ 90.
            let kept: Vec<CloneMatch> =
                loose.iter().copied().filter(|m| m.score >= 90.0).collect();
            assert_eq!(strict, kept, "{source}");
            between += loose.len() - kept.len();
            if source == SNIPPET {
                // The exact clone is in both.
                assert!(strict.iter().any(|m| m.doc == 0 && m.score == 100.0), "{strict:?}");
            }
        }
        assert!(between > 0, "no match scored in [70, 90), so ε went untested");
    }

    #[test]
    fn empty_fingerprints_compare_safely() {
        let empty = Fingerprint(String::new());
        let non_empty = CloneDetector::fingerprint_source(SNIPPET).unwrap();
        assert_eq!(order_independent_similarity(&empty, &empty), 100.0);
        assert_eq!(order_independent_similarity(&empty, &non_empty), 0.0);
        assert_eq!(order_independent_similarity_pair(&empty, &non_empty), (0.0, 0.0));
        assert_eq!(order_independent_similarity_pair(&empty, &empty), (100.0, 100.0));
    }

    #[test]
    fn pair_scoring_matches_two_directed_calls_bitwise() {
        let sources = [SNIPPET, RENAMED, EXTENDED, UNRELATED];
        let fps: Vec<Fingerprint> = sources
            .iter()
            .map(|s| CloneDetector::fingerprint_source(s).unwrap())
            .collect();
        for a in &fps {
            for b in &fps {
                let (fwd, bwd) = order_independent_similarity_pair(a, b);
                assert_eq!(fwd.to_bits(), order_independent_similarity(a, b).to_bits());
                assert_eq!(bwd.to_bits(), order_independent_similarity(b, a).to_bits());
            }
        }
    }

    #[test]
    fn iter_fingerprints_exposes_insertion_order() {
        let d = detector_with_corpus();
        let ids: Vec<u64> = d.iter_fingerprints().map(|(doc, _)| doc).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn from_parts_rejects_a_slot_table_out_of_corpus_order() {
        let d = detector_with_corpus();
        let corpus: Vec<(DocId, Fingerprint)> =
            d.iter_fingerprints().map(|(doc, fp)| (doc, fp.clone())).collect();
        // The same index over the same documents, listed in another order.
        let mut reordered = corpus.clone();
        reordered.swap(0, 2);
        let err = CloneDetector::from_parts(d.params(), reordered, d.index().clone())
            .err()
            .expect("slot 0 holds doc 0, corpus entry 0 is doc 2");
        assert_eq!(err.code(), "index_corrupt");
        assert!(err.to_string().contains("slot 0"), "{err}");
        // In order, the parts reassemble into an equivalent detector.
        let rebuilt = CloneDetector::from_parts(d.params(), corpus, d.index().clone()).unwrap();
        let q = CloneDetector::fingerprint_source(SNIPPET).unwrap();
        assert_eq!(rebuilt.matches(&q), d.matches(&q));
    }

    /// Algorithm 1 the slow way: every pair through the full-DP
    /// [`fuzzyhash::similarity`], no pruning, no preparation.
    fn naive_score(f1: &Fingerprint, f2: &Fingerprint) -> f64 {
        let (subs1, subs2) = (f1.sub_fingerprints(), f2.sub_fingerprints());
        if subs1.is_empty() || subs2.is_empty() {
            return if subs1.is_empty() && subs2.is_empty() { 100.0 } else { 0.0 };
        }
        let best = |s1: &str| {
            subs2.iter().map(|s2| fuzzyhash::similarity(s1, s2)).fold(0.0f64, f64::max)
        };
        subs1.iter().map(|s1| best(s1)).sum::<f64>() / subs1.len() as f64
    }

    /// `(doc, score bits)` of the clones of `query` by [`naive_score`],
    /// over the documents whose gram share passes η (all when `filter`
    /// is off), stably sorted by descending score.
    fn naive_matches(
        detector: &CloneDetector,
        query: &Fingerprint,
        filter: bool,
    ) -> Vec<(DocId, u64)> {
        let params = detector.params();
        let grams = NgramIndex::new(params.ngram_size);
        let text = query.indexed_text();
        let mut scored: Vec<CloneMatch> = detector
            .iter_fingerprints()
            .filter(|(_, fp)| !filter || grams.share(&text, &fp.indexed_text()) >= params.eta)
            .map(|(doc, fp)| CloneMatch { doc, score: naive_score(query, fp) })
            .filter(|m| m.score >= params.epsilon)
            .collect();
        scored.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
        scored.iter().map(|m| (m.doc, m.score.to_bits())).collect()
    }

    fn bits(matches: &[CloneMatch]) -> Vec<(DocId, u64)> {
        matches.iter().map(|m| (m.doc, m.score.to_bits())).collect()
    }

    /// Random fingerprints: up to four pieces of a four-letter alphabet
    /// (so pieces resemble each other), some longer than the 64-byte word.
    fn fingerprint_strategy() -> impl proptest::strategy::Strategy<Value = Fingerprint> {
        let piece = ("[ABCD]{0,12}", 0usize..10, 0usize..2);
        proptest::collection::vec(piece, 0..5).prop_map(|pieces| {
            let mut text = String::new();
            for (i, (piece, stretch, colon)) in pieces.into_iter().enumerate() {
                if i > 0 {
                    text.push(if colon == 1 { ':' } else { '.' });
                }
                // About one piece in ten is stretched past 64 bytes.
                let copies = if stretch == 0 { 7 } else { 1 };
                text.push_str(&piece.repeat(copies));
            }
            Fingerprint(text)
        })
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn matches_agree_with_a_naive_reference(
            corpus in proptest::collection::vec(fingerprint_strategy(), 1..12),
            query in fingerprint_strategy(),
            n in 1usize..4,
            quarter in 1usize..4,
            epsilon in prop_oneof![Just(0.0), Just(50.0), Just(70.0), Just(90.0)],
        ) {
            // Quarters are exact in binary, so the reference's `share >= η`
            // and the index's `shared >= ⌈η·grams⌉` agree without rounding.
            let params = CcdParams { ngram_size: n, eta: quarter as f64 / 4.0, epsilon };
            let mut detector = CloneDetector::new(params);
            for (i, fp) in corpus.iter().enumerate() {
                detector.insert_fingerprint(1000 - 7 * i as DocId, fp.clone());
            }
            let expected = naive_matches(&detector, &query, true);
            let got = bits(&detector.matches(&query));
            prop_assert_eq!(got, expected);
        }
    }

    /// `(piece, colon)` lists for [`pooled`], over a pool of six.
    fn pooled_pieces(
        len: std::ops::Range<usize>,
    ) -> impl proptest::strategy::Strategy<Value = Vec<(usize, usize)>> {
        proptest::collection::vec((0usize..6, 0usize..2), len)
    }

    /// A fingerprint of `pool` pieces: each `(piece, colon)` appends
    /// `pool[piece]`, after a `:` or `.` separator.
    fn pooled(pool: &[String], pieces: &[(usize, usize)]) -> Fingerprint {
        let mut text = String::new();
        for (i, &(piece, colon)) in pieces.iter().enumerate() {
            if i > 0 {
                text.push(if colon == 1 { ':' } else { '.' });
            }
            text.push_str(&pool[piece]);
        }
        Fingerprint(text)
    }

    proptest! {
        #[test]
        fn memoized_scores_agree_with_a_naive_reference_on_repeating_pieces(
            pool in proptest::collection::vec(("[ABCD]{0,10}", 0usize..6), 6),
            first in proptest::collection::vec(pooled_pieces(0..6), 1..10),
            more in proptest::collection::vec(pooled_pieces(0..6), 1..6),
            query in pooled_pieces(0..5),
            n in 1usize..4,
            quarter in 1usize..4,
            epsilon in prop_oneof![Just(0.0), Just(50.0), Just(70.0), Just(90.0)],
        ) {
            // Six shared pieces, so one sub-fingerprint recurs within a
            // document, across documents and in the query; about one in
            // six is stretched past the 64-byte word, and an empty piece
            // is dropped as a sub-fingerprint.
            let pool: Vec<String> = pool
                .into_iter()
                .map(|(piece, stretch)| if stretch == 0 { piece.repeat(7) } else { piece })
                .collect();
            let params = CcdParams { ngram_size: n, eta: quarter as f64 / 4.0, epsilon };
            let query = pooled(&pool, &query);
            let mut detector = CloneDetector::new(params);
            // Two rounds of inserts with queries after each, so the table
            // grows between matches. Ids fall as slots rise, so the tie
            // order is slot order, not id order.
            for batch in [&first, &more] {
                for pieces in batch {
                    let doc = 1000 - 7 * detector.len() as DocId;
                    detector.insert_fingerprint(doc, pooled(&pool, pieces));
                }
                prop_assert_eq!(
                    bits(&detector.matches(&query)),
                    naive_matches(&detector, &query, true)
                );
                prop_assert_eq!(
                    bits(&detector.matches_bruteforce(&query)),
                    naive_matches(&detector, &query, false)
                );
            }
        }
    }

    #[test]
    fn try_fingerprint_reports_parse_and_empty_failures() {
        let err = CloneDetector::try_fingerprint_source("function f( {").unwrap_err();
        assert_eq!(err.code(), "parse");
        let err = CloneDetector::try_fingerprint_source("").unwrap_err();
        assert_eq!(err.code(), "invalid_request");
        assert!(CloneDetector::try_fingerprint_source(SNIPPET).is_ok());
    }
}
