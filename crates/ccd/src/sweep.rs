//! Parameter sweep over the CCD grid (Table 9 / Figure 9 of the paper).
//!
//! The paper evaluates N ∈ {3, 5, 7}, η ∈ {0.5..0.9} and ε ∈ {0.5..0.9}
//! against a labelled clone dataset and reports precision/recall per
//! combination. This module runs the same grid against any labelled corpus.
//!
//! # Sweep-once evaluation
//!
//! Naively the 75-cell grid re-runs the whole detection pipeline per cell,
//! but almost everything in that pipeline is shared between cells:
//!
//! * **fingerprints** do not depend on any parameter → computed once,
//! * the **N-gram index** depends only on N → built 3 times, not 75,
//! * **candidate retrieval** depends only on (N, η) → run 15 times,
//! * **pair scores** (Algorithm 1) depend on no parameter at all → each
//!   unordered document pair is scored exactly once across the whole grid,
//!   both directions in one matrix pass,
//! * the five **ε rows** of a (N, η) cell just re-threshold cached scores.
//!
//! [`SweepEngine`] implements that layering; [`evaluate_reference`] keeps
//! the original one-cell-at-a-time path as the oracle for the equivalence
//! property test (`sweep` output is bit-identical to it).

use crate::fingerprint::Fingerprint;
use crate::matcher::{order_independent_similarity_pair, CcdParams, CloneDetector};
use ngram_index::{DocId, NgramIndex};
use std::collections::{HashMap, HashSet};

/// N values of the Table 9 grid.
const NGRAM_SIZES: [usize; 3] = [3, 5, 7];
/// η values of the Table 9 grid.
const ETAS: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];
/// ε values of the Table 9 grid.
const EPSILONS: [f64; 5] = [50.0, 60.0, 70.0, 80.0, 90.0];

/// The paper's parameter grid (Table 9).
pub fn parameter_grid() -> Vec<CcdParams> {
    let mut grid = Vec::new();
    for n in NGRAM_SIZES {
        for eta in ETAS {
            for epsilon in EPSILONS {
                grid.push(CcdParams { ngram_size: n, eta, epsilon });
            }
        }
    }
    grid
}

/// A labelled clone-detection dataset: documents plus ground-truth clone
/// pairs (unordered).
#[derive(Debug, Default, Clone)]
pub struct LabelledCorpus {
    /// (id, source) documents.
    pub documents: Vec<(DocId, String)>,
    /// Ground-truth clone pairs, stored with `a < b`.
    pub clone_pairs: HashSet<(DocId, DocId)>,
}

impl LabelledCorpus {
    /// Add a document.
    pub fn add_document(&mut self, id: DocId, source: impl Into<String>) {
        self.documents.push((id, source.into()));
    }

    /// Mark two documents as true clones.
    pub fn add_clone_pair(&mut self, a: DocId, b: DocId) {
        self.clone_pairs.insert((a.min(b), a.max(b)));
    }

    /// Whether a pair is a ground-truth clone.
    pub fn is_clone(&self, a: DocId, b: DocId) -> bool {
        self.clone_pairs.contains(&(a.min(b), a.max(b)))
    }
}

/// Precision/recall outcome of one parameter combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Parameters evaluated.
    pub params: CcdParams,
    /// True positives (reported pairs that are ground-truth clones).
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives (ground-truth pairs not reported).
    pub fn_: usize,
}

impl SweepPoint {
    /// Precision; 1.0 when nothing was reported.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall; 1.0 when there is nothing to find.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 score.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Score a reported unordered-pair set against the corpus ground truth.
fn score_reported(
    corpus: &LabelledCorpus,
    params: CcdParams,
    reported: &HashSet<(DocId, DocId)>,
) -> SweepPoint {
    let tp = reported.iter().filter(|(a, b)| corpus.is_clone(*a, *b)).count();
    let fp = reported.len() - tp;
    let fn_ = corpus
        .clone_pairs
        .iter()
        .filter(|(a, b)| !reported.contains(&(*a, *b)))
        .count();
    SweepPoint { params, tp, fp, fn_ }
}

/// Evaluate one parameter combination against a labelled corpus: every
/// document is matched against every other (the §5.7.1 methodology) and
/// reported pairs are scored against the ground truth.
///
/// A pair {a, b} is reported when *either* direction of Algorithm 1
/// passes the (η, ε) filters — the containment semantics of matching a
/// query against a corpus. (The Table 9 honeypot sweep in
/// `pipeline::eval_ccd` additionally requires both directions to agree;
/// see there.)
///
/// This is the reference path: it rebuilds the full detector for its one
/// cell and reuses nothing. [`sweep`] goes through [`SweepEngine`]
/// instead and must produce bit-identical `SweepPoint`s — the equivalence
/// is enforced by a property test.
pub fn evaluate_reference(corpus: &LabelledCorpus, params: CcdParams) -> SweepPoint {
    // Build the detector over all fingerprintable documents; the detector
    // owns the fingerprints, matched back against themselves below.
    let mut detector = CloneDetector::new(params);
    for (id, source) in &corpus.documents {
        if let Some(fp) = CloneDetector::fingerprint_source(source) {
            detector.insert_fingerprint(*id, fp);
        }
    }

    let mut reported: HashSet<(DocId, DocId)> = HashSet::new();
    for (id, fp) in detector.iter_fingerprints() {
        for m in detector.matches(fp) {
            if m.doc != id {
                reported.insert((m.doc.min(id), m.doc.max(id)));
            }
        }
    }
    score_reported(corpus, params, &reported)
}

/// One candidate pair of the sweep, ready for ε thresholding: unordered
/// index pair `(lo, hi)`, directed candidacy flags `(lo→hi, hi→lo)`, and
/// the cached directed scores in the same order.
type ScoredPair = ((usize, usize), (bool, bool), (f64, f64));

/// The sweep-once grid engine: every reusable artifact of the 75-cell
/// evaluation is computed at the outermost layer where its parameters
/// allow (see the module docs for the layering).
///
/// Document ids must be unique; documents that do not fingerprint are
/// skipped, exactly as in [`evaluate_reference`].
pub struct SweepEngine {
    ids: Vec<DocId>,
    fingerprints: Vec<Fingerprint>,
    /// `indexed_text()` of each fingerprint, cached for the 15 candidate
    /// retrievals.
    indexed: Vec<String>,
}

impl SweepEngine {
    /// Fingerprint documents once (fingerprints are parameter-independent).
    pub fn from_documents<'a, I>(docs: I) -> SweepEngine
    where
        I: IntoIterator<Item = (DocId, &'a str)>,
    {
        let mut engine = SweepEngine { ids: Vec::new(), fingerprints: Vec::new(), indexed: Vec::new() };
        for (id, source) in docs {
            if let Some(fp) = CloneDetector::fingerprint_source(source) {
                engine.ids.push(id);
                engine.indexed.push(fp.indexed_text());
                engine.fingerprints.push(fp);
            }
        }
        engine
    }

    /// Engine over a labelled corpus's documents.
    pub fn from_corpus(corpus: &LabelledCorpus) -> SweepEngine {
        Self::from_documents(corpus.documents.iter().map(|(id, s)| (*id, s.as_str())))
    }

    /// Engine over already-computed fingerprints — the `CorpusBuilder`
    /// path in `pipeline::api`, where the fingerprinting pass has been
    /// paid once and the sweep must not repeat it. Documents arrive in the
    /// caller's order; ids must be unique.
    pub fn from_fingerprints<I>(docs: I) -> SweepEngine
    where
        I: IntoIterator<Item = (DocId, Fingerprint)>,
    {
        let mut engine =
            SweepEngine { ids: Vec::new(), fingerprints: Vec::new(), indexed: Vec::new() };
        for (id, fp) in docs {
            engine.ids.push(id);
            engine.indexed.push(fp.indexed_text());
            engine.fingerprints.push(fp);
        }
        engine
    }

    /// Number of fingerprintable documents.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no document fingerprinted.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Visit every cell of the Table 9 grid, in [`parameter_grid`] order,
    /// with the set of *directed* passing pairs: `(query, candidate)`
    /// pairs where the candidate survived the (N, η) filter and
    /// `score(query → candidate) ≥ ε`. Self-pairs are never reported.
    ///
    /// Callers choose the pair semantics: union of directions for the
    /// either-direction corpus sweep ([`sweep`]), intersection for the
    /// both-directions honeypot benchmark (`pipeline::eval_ccd`).
    pub fn for_each_cell<F>(&self, mut visit: F)
    where
        F: FnMut(CcdParams, &HashSet<(DocId, DocId)>),
    {
        static CELLS: telemetry::Counter = telemetry::Counter::new("ccd.sweep.cells");
        static CACHE_HITS: telemetry::Counter =
            telemetry::Counter::new("ccd.sweep.score_cache.hits");
        static CACHE_MISSES: telemetry::Counter =
            telemetry::Counter::new("ccd.sweep.score_cache.misses");
        static SWEEP: telemetry::Stage = telemetry::Stage::new("ccd/sweep");
        static INDEX: telemetry::Stage = telemetry::Stage::new("ccd/sweep/index");
        let _stage = SWEEP.enter();
        // Chaos hook: the sweep is infallible, so an injected *error* at
        // `ccd/sweep` escalates to a panic for the isolation layer.
        if let Some(message) = faultinject::fire("ccd/sweep") {
            panic!("faultinject: {message}");
        }
        // Directed Algorithm 1 scores per unordered index pair (lo < hi):
        // (lo → hi, hi → lo). Scores depend on no parameter, so the cache
        // spans the entire grid.
        let mut scores: HashMap<(usize, usize), (f64, f64)> = HashMap::new();
        for n in NGRAM_SIZES {
            // One index per N; a document's slot is its position.
            let indexing = INDEX.enter();
            let index = NgramIndex::from_documents(
                n,
                self.indexed.iter().enumerate().map(|(i, text)| (i as DocId, text.as_str())),
            );
            drop(indexing);
            for eta in ETAS {
                // One candidate retrieval per (N, η): directed candidacy
                // flags per unordered pair.
                let mut pairs: HashMap<(usize, usize), (bool, bool)> = HashMap::new();
                for (i, text) in self.indexed.iter().enumerate() {
                    for slot in index.candidate_slots(text, eta, 0) {
                        let j = slot as usize;
                        if j == i {
                            continue;
                        }
                        let flags = pairs.entry((i.min(j), i.max(j))).or_insert((false, false));
                        if i < j {
                            flags.0 = true;
                        } else {
                            flags.1 = true;
                        }
                    }
                }
                // Attach scores, computing both directions of a fresh pair
                // in a single matrix pass.
                let scored: Vec<ScoredPair> = pairs
                    .into_iter()
                    .map(|((lo, hi), flags)| {
                        let score = match scores.get(&(lo, hi)) {
                            Some(cached) => {
                                CACHE_HITS.incr();
                                *cached
                            }
                            None => {
                                CACHE_MISSES.incr();
                                let fresh = order_independent_similarity_pair(
                                    &self.fingerprints[lo],
                                    &self.fingerprints[hi],
                                );
                                scores.insert((lo, hi), fresh);
                                fresh
                            }
                        };
                        ((lo, hi), flags, score)
                    })
                    .collect();
                // The five ε rows just re-threshold the cached scores.
                for epsilon in EPSILONS {
                    let mut directed: HashSet<(DocId, DocId)> = HashSet::new();
                    for &((lo, hi), (fwd, bwd), (s_fwd, s_bwd)) in &scored {
                        if fwd && s_fwd >= epsilon {
                            directed.insert((self.ids[lo], self.ids[hi]));
                        }
                        if bwd && s_bwd >= epsilon {
                            directed.insert((self.ids[hi], self.ids[lo]));
                        }
                    }
                    CELLS.incr();
                    visit(CcdParams { ngram_size: n, eta, epsilon }, &directed);
                }
            }
        }
    }
}

/// Run the full Table 9 grid through the sweep-once engine. Output is
/// bit-identical to mapping [`evaluate_reference`] over
/// [`parameter_grid`], at a fraction of the work.
pub fn sweep(corpus: &LabelledCorpus) -> Vec<SweepPoint> {
    let engine = SweepEngine::from_corpus(corpus);
    let mut points = Vec::with_capacity(NGRAM_SIZES.len() * ETAS.len() * EPSILONS.len());
    engine.for_each_cell(|params, directed| {
        let reported: HashSet<(DocId, DocId)> =
            directed.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        points.push(score_reported(corpus, params, &reported));
    });
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus() -> LabelledCorpus {
        let mut corpus = LabelledCorpus::default();
        corpus.add_document(
            0,
            "contract A { function w(uint v) public { msg.sender.transfer(v); } }",
        );
        // Type II clone of 0.
        corpus.add_document(
            1,
            "contract B { function out(uint x) public { msg.sender.transfer(x); } }",
        );
        // Unrelated.
        corpus.add_document(
            2,
            "contract V { mapping(address => bool) voted; uint tally; \
             function vote() public { require(!voted[msg.sender]); \
             voted[msg.sender] = true; tally += 1; } }",
        );
        corpus.add_clone_pair(0, 1);
        corpus
    }

    #[test]
    fn grid_has_75_points() {
        assert_eq!(parameter_grid().len(), 75);
    }

    #[test]
    fn perfect_detection_on_tiny_corpus() {
        let point = evaluate_reference(&tiny_corpus(), CcdParams::best());
        assert_eq!(point.tp, 1, "{point:?}");
        assert_eq!(point.fp, 0, "{point:?}");
        assert_eq!(point.fn_, 0, "{point:?}");
        assert_eq!(point.precision(), 1.0);
        assert_eq!(point.recall(), 1.0);
        assert_eq!(point.f1(), 1.0);
    }

    #[test]
    fn stricter_epsilon_cannot_increase_recall() {
        let corpus = tiny_corpus();
        let loose = evaluate_reference(&corpus, CcdParams { epsilon: 50.0, ..CcdParams::best() });
        let strict = evaluate_reference(&corpus, CcdParams { epsilon: 90.0, ..CcdParams::best() });
        assert!(strict.recall() <= loose.recall() + 1e-9);
    }

    #[test]
    fn empty_corpus_is_well_defined() {
        let point = evaluate_reference(&LabelledCorpus::default(), CcdParams::best());
        assert_eq!(point.precision(), 1.0);
        assert_eq!(point.recall(), 1.0);
        assert_eq!(sweep(&LabelledCorpus::default()).len(), 75);
    }

    #[test]
    fn engine_sweep_matches_reference_on_tiny_corpus() {
        let corpus = tiny_corpus();
        let fast = sweep(&corpus);
        assert_eq!(fast.len(), 75);
        for (point, params) in fast.iter().zip(parameter_grid()) {
            assert_eq!(*point, evaluate_reference(&corpus, params));
        }
    }

    #[test]
    fn engine_skips_unfingerprintable_documents() {
        let mut corpus = tiny_corpus();
        corpus.add_document(99, "not solidity — plain prose that cannot parse");
        let engine = SweepEngine::from_corpus(&corpus);
        assert_eq!(engine.len(), 3);
        for (point, params) in sweep(&corpus).iter().zip(parameter_grid()) {
            assert_eq!(*point, evaluate_reference(&corpus, params));
        }
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// Random parseable contract: a few shapes sharing statement
        /// material, so generated corpora contain near-clones, partial
        /// overlaps and unrelated documents — exercising every filter.
        fn doc_strategy() -> impl Strategy<Value = String> {
            ("[a-z]{3,8}", "[a-z]{3,8}", 0usize..4, 0usize..3).prop_map(
                |(name, var, extra, shape)| {
                    let pool = [
                        "msg.sender.transfer(v);",
                        "total += v;",
                        "require(v > 0);",
                    ];
                    let body: String = pool[..extra.min(pool.len())].join(" ");
                    match shape {
                        0 => format!(
                            "contract C {{ uint total; \
                             function {name}(uint v) public {{ {body} \
                             msg.sender.transfer(v); }} }}"
                        ),
                        1 => format!(
                            "contract C {{ mapping(address => bool) voted; uint {var}; \
                             function {name}(uint v) public {{ \
                             require(!voted[msg.sender]); voted[msg.sender] = true; \
                             {var} += 1; {body} }} }}"
                        ),
                        _ => format!(
                            "contract C {{ uint {var}; uint total; \
                             function {name}(uint v) public {{ {var} = v; {body} }} }}"
                        ),
                    }
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// The tentpole invariant: the sweep-once engine's output is
            /// bit-identical to the per-cell reference across the full
            /// 75-point grid, on seeded random corpora.
            #[test]
            fn sweep_once_bit_identical_to_reference_on_full_grid(
                docs in proptest::collection::vec(doc_strategy(), 3..7),
            ) {
                let mut corpus = LabelledCorpus::default();
                for (i, source) in docs.iter().enumerate() {
                    corpus.add_document(i as DocId, source.clone());
                }
                corpus.add_clone_pair(0, 1);
                let fast = sweep(&corpus);
                let grid = parameter_grid();
                prop_assert_eq!(fast.len(), grid.len());
                for (point, params) in fast.iter().zip(grid) {
                    let reference = evaluate_reference(&corpus, params);
                    prop_assert_eq!(*point, reference);
                }
            }
        }
    }
}
