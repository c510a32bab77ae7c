//! Snapshot-backed vs in-memory equivalence on the honeypot corpus, and
//! the corpus-handle lifecycle: compaction, WAL replay and torn tails.
//! The lifecycle tests that arm a fault plan live in `fault_plans.rs`.

use ccd::{CcdParams, CloneDetector};
use corpus::contracts::{generate_contracts, SanctuaryConfig};
use corpus::honeypots::honeypot_dataset;
use corpus::mutate::type_iii;
use corpus::qa::{generate_qa, QaConfig, SnippetTruth};
use index_store::SnapshotStore;
use pipeline::corpus_index::CorpusBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Barrier;

/// Seed of the recorded honeypot run (`bench::HONEYPOT_SEED`).
const HONEYPOT_SEED: u64 = 1;
/// Subset size: enough lineages for real clone structure, small enough
/// for debug-profile CI.
const TAKE: usize = 48;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sodd_handle_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn snapshot_backed_matches_are_byte_identical_on_honeypots() {
    let dataset = honeypot_dataset(HONEYPOT_SEED);
    let docs: Vec<(u64, &str)> =
        dataset.contracts.iter().take(TAKE).map(|c| (c.id, c.source.as_str())).collect();
    let in_memory = CorpusBuilder::new(CcdParams::best()).from_sources(docs.iter().copied());

    let dir = temp_dir("honeypot");
    CorpusBuilder::new(CcdParams::best())
        .snapshot_dir(&dir)
        .from_sources(docs.iter().copied())
        .compact()
        .expect("commit");
    // The canonical order must make the results independent of the
    // backing store.
    let warm = CorpusBuilder::new(CcdParams::best())
        .snapshot_dir(&dir)
        .load_snapshot()
        .expect("snapshot loads")
        .expect("snapshot exists");
    assert_eq!(warm.len(), in_memory.len());

    // Every corpus document as a query: scores AND order must agree
    // exactly (f64 bit pattern included — same inputs, same arithmetic).
    for (doc, fp) in in_memory.fingerprints() {
        let a = in_memory.matches(&fp);
        let b = warm.matches(&fp);
        assert_eq!(a.len(), b.len(), "doc {doc}: match count diverged");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.doc, y.doc, "doc {doc}: order diverged");
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "doc {doc} vs {}: score diverged",
                x.doc
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every honeypot document's clone list against the whole 379-contract
/// honeypot corpus, folded into one FNV-1a digest over `(query, match
/// count, then doc and score bits per match)`. The pinned value was
/// computed with the hash-map candidate counter and the banded-DP δ that
/// the slot-indexed kernel replaced, so a drift in any candidate, score
/// bit or tie order fails here, not only in a benchmark.
#[test]
fn honeypot_clone_scores_match_the_pinned_digest() {
    let dataset = honeypot_dataset(HONEYPOT_SEED);
    let corpus = CorpusBuilder::new(CcdParams::best())
        .from_sources(dataset.contracts.iter().map(|c| (c.id, c.source.as_str())));
    let mut words: Vec<u8> = Vec::new();
    let mut pairs = 0usize;
    for (query, fp) in corpus.fingerprints() {
        let matches = corpus.matches(&fp);
        words.extend_from_slice(&query.to_le_bytes());
        words.extend_from_slice(&(matches.len() as u64).to_le_bytes());
        for m in &matches {
            words.extend_from_slice(&m.doc.to_le_bytes());
            words.extend_from_slice(&m.score.to_bits().to_le_bytes());
        }
        pairs += matches.len();
    }
    let digest = telemetry::fnv1a(&words);
    assert_eq!(
        (dataset.contracts.len(), corpus.len(), pairs, digest),
        (379, 379, 7132, 6_295_883_656_603_481_363),
        "honeypot clone digest drifted"
    );
}

/// Clone checks on the shape of the service benchmark's corpus, where
/// copied functions make sub-fingerprints repeat (3,992 pieces, 475
/// distinct): the 970 contracts that `generate_contracts` deploys at
/// scale 0.003, queried with Type III mutants of the first 200 unique
/// Solidity originals of the Q&A corpus. Same fold as the honeypot
/// digest, one record per fingerprintable query (numbered by its
/// original). The pinned value was computed with the per-candidate
/// Algorithm 1 loop, before `CloneDetector` interned the corpus's
/// sub-fingerprints and computed δ once per distinct one, so the memo
/// must reproduce every candidate, score bit and tie order.
#[test]
fn qa_clone_scores_match_the_pinned_digest() {
    let qa = generate_qa(QaConfig::default());
    let config = SanctuaryConfig { scale: 0.003, ..SanctuaryConfig::default() };
    let contracts = generate_contracts(config, &qa).contracts;
    let corpus = CorpusBuilder::new(CcdParams::best())
        .from_sources(contracts.iter().map(|c| (c.id, c.source.as_str())));
    // The repetition the memo feeds on.
    let fingerprints = corpus.fingerprints();
    let subs: Vec<&str> = fingerprints.iter().flat_map(|(_, fp)| fp.sub_fingerprints()).collect();
    let distinct = subs.iter().collect::<HashSet<_>>().len();

    let originals = qa.snippets.iter().filter(|s| {
        matches!(s.truth, SnippetTruth::Solidity { duplicate_of: None, .. })
    });
    let mut rng = StdRng::seed_from_u64(1);
    let mut words: Vec<u8> = Vec::new();
    let (mut queries, mut pairs) = (0usize, 0usize);
    for (i, snippet) in originals.take(200).enumerate() {
        let mutant = type_iii(&snippet.text, &mut rng);
        let Some(fp) = CloneDetector::fingerprint_source(&mutant) else { continue };
        let matches = corpus.matches(&fp);
        words.extend_from_slice(&(i as u64).to_le_bytes());
        words.extend_from_slice(&(matches.len() as u64).to_le_bytes());
        for m in &matches {
            words.extend_from_slice(&m.doc.to_le_bytes());
            words.extend_from_slice(&m.score.to_bits().to_le_bytes());
        }
        queries += 1;
        pairs += matches.len();
    }
    let digest = telemetry::fnv1a(&words);
    assert_eq!(
        (contracts.len(), subs.len(), distinct, queries, pairs, digest),
        (970, 3992, 475, 200, 1239, 12_772_565_976_802_293_090),
        "Q&A clone digest drifted"
    );
}

#[test]
fn compaction_lifecycle_advances_generations() {
    let dir = temp_dir("lifecycle");
    let handle = CorpusBuilder::new(CcdParams::best())
        .snapshot_dir(&dir)
        .from_sources([(
            0u64,
            "contract A { function w(uint v) public { msg.sender.transfer(v); } }",
        )]);
    assert_eq!((handle.generation(), handle.deltas()), (0, 0));
    assert_eq!(handle.compact().unwrap(), 1);
    handle
        .insert_source(None, "contract B { uint t; function a(uint v) public { t += v; } }")
        .unwrap();
    assert_eq!((handle.generation(), handle.deltas()), (1, 1));
    assert_eq!(handle.compact().unwrap(), 2);
    assert_eq!((handle.generation(), handle.deltas()), (2, 0));
    // Generation 2 supersedes generation 1's snapshot and both WAL
    // segments before it.
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files, ["CURRENT", "gen-2.idx", "wal-2.log"]);

    // Reload: generation 2 carries both documents.
    let warm = CorpusBuilder::new(CcdParams::best())
        .snapshot_dir(&dir)
        .load_snapshot()
        .unwrap()
        .unwrap();
    assert_eq!(warm.generation(), 2);
    assert_eq!(warm.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

const DOC_A: &str = "contract A { function w(uint v) public { msg.sender.transfer(v); } }";
const DOC_B: &str = "contract B { uint t; function a(uint v) public { t += v; } }";
const DOC_C: &str = "contract C { mapping(address=>uint) m; function s(uint v) public { m[msg.sender] = v; } }";
/// Type-2 near-duplicate of DOC_A (renamed identifiers, extra spaces).
const DOC_A_NEAR: &str =
    "contract Wallet {  function out(uint amount) public { msg.sender.transfer(amount); } }";

/// Slot order is insertion order, which explicit-id inserts make differ
/// from doc order: a compaction writes the slots as they are, a warm
/// start loads them back in that order from the snapshot alone, and
/// `fingerprints()` is sorted by doc id throughout.
#[test]
fn fingerprints_view_is_doc_sorted() {
    let dir = temp_dir("slotorder");
    let builder = || CorpusBuilder::new(CcdParams::best()).snapshot_dir(&dir);
    let store = SnapshotStore::open(&dir).unwrap();
    let committed_slots = || -> Vec<u64> {
        let snapshot = store.load_current().unwrap().expect("a committed generation");
        snapshot.fingerprints().iter().map(|(id, _)| *id).collect()
    };
    let handle = builder().from_sources([(5u64, DOC_A), (1u64, DOC_B)]);
    handle.insert_source(Some(3), DOC_A_NEAR).unwrap();
    handle.insert_source(None, DOC_B).unwrap();
    let ids: Vec<u64> = handle.fingerprints().iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, vec![1, 3, 5, 6]);
    assert_eq!(handle.compact().unwrap(), 1);
    assert_eq!(committed_slots(), vec![5, 1, 3, 6], "slot order is insertion order");
    let warm = builder().load_snapshot().unwrap().expect("generation 1 committed");
    assert_eq!(warm.replayed_on_boot(), 0);
    assert_eq!(warm.fingerprints(), handle.fingerprints());
    for source in [DOC_A, DOC_B, DOC_A_NEAR] {
        let query = CloneDetector::fingerprint_source(source).unwrap();
        assert_eq!(warm.matches(&query), handle.matches(&query));
    }
    // The case the canonical order exists for: one answer holding two
    // documents whose slot order (5 before 3) reverses their doc order.
    let query = CloneDetector::fingerprint_source(DOC_A_NEAR).unwrap();
    let docs: Vec<u64> = handle.matches(&query).iter().map(|m| m.doc).collect();
    assert!(docs.contains(&3) && docs.contains(&5), "DOC_A_NEAR matched {docs:?}");
    // The warm handle holds every document in the slot it had.
    assert_eq!(warm.compact().unwrap(), 2);
    assert_eq!(committed_slots(), vec![5, 1, 3, 6]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole invariant: inserts acknowledged after the last
/// compaction survive a crash (modeled by simply never compacting and
/// loading the directory fresh) and answer byte-identically.
#[test]
fn uncompacted_inserts_survive_a_reload_byte_identically() {
    let dir = temp_dir("walreplay");
    let handle =
        CorpusBuilder::new(CcdParams::best()).snapshot_dir(&dir).from_sources([(0u64, DOC_A)]);
    handle.compact().unwrap();
    handle.insert_source(None, DOC_B).unwrap();
    handle.insert_source(None, DOC_C).unwrap();
    assert_eq!((handle.generation(), handle.deltas()), (1, 2));

    // A fresh handle on the same directory — the kill -9 shape: nothing
    // was compacted, the deltas exist only in snapshot + WAL.
    let warm = CorpusBuilder::new(CcdParams::best())
        .snapshot_dir(&dir)
        .load_snapshot()
        .unwrap()
        .unwrap();
    assert_eq!((warm.generation(), warm.len()), (1, 3));
    assert_eq!((warm.deltas(), warm.replayed_on_boot()), (2, 2));
    for (doc, fp) in handle.fingerprints() {
        let a = handle.matches(&fp);
        let b = warm.matches(&fp);
        assert_eq!(a.len(), b.len(), "doc {doc}: match count diverged");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.doc, x.score.to_bits()), (y.doc, y.score.to_bits()), "doc {doc}");
        }
    }
    // Replayed deltas compact like live ones.
    assert_eq!(warm.compact().unwrap(), 2);
    assert_eq!(warm.deltas(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn WAL tail (half-written record at the moment of the kill) is
/// truncated, and everything before it replays.
#[test]
fn torn_wal_tail_is_truncated_not_fatal() {
    let dir = temp_dir("waltorn");
    let handle =
        CorpusBuilder::new(CcdParams::best()).snapshot_dir(&dir).from_sources([(0u64, DOC_A)]);
    handle.compact().unwrap();
    handle.insert_source(None, DOC_B).unwrap();
    drop(handle);
    // Tear the tail: a record header that promises more bytes than exist.
    let wal_path = dir.join("wal-1.log");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes.extend_from_slice(&[0x40, 0x00, 0x00, 0x00, 0xde, 0xad]);
    std::fs::write(&wal_path, &bytes).unwrap();

    let warm =
        CorpusBuilder::new(CcdParams::best()).snapshot_dir(&dir).load_snapshot().unwrap().unwrap();
    assert_eq!((warm.len(), warm.replayed_on_boot()), (2, 1));
    // The resumed segment truncated the garbage; further inserts append
    // cleanly after the valid prefix.
    warm.insert_source(None, DOC_C).unwrap();
    drop(warm);
    let again =
        CorpusBuilder::new(CcdParams::best()).snapshot_dir(&dir).load_snapshot().unwrap().unwrap();
    assert_eq!((again.len(), again.replayed_on_boot()), (3, 2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corpus rebuilt from source over a snapshot that cannot be loaded
/// commits above every generation the directory names: its first commit
/// retires the old lineage, WAL included, and its own inserts land in the
/// segment the next start replays.
#[test]
fn a_rebuild_over_an_unloadable_snapshot_commits_above_the_old_lineage() {
    let dir = temp_dir("rebuild");
    let builder = || CorpusBuilder::new(CcdParams::best()).snapshot_dir(&dir);
    // The old lineage: generation 2, then an insert only wal-2.log holds.
    let old = builder().from_sources([(0u64, DOC_A)]);
    assert_eq!(old.compact().unwrap(), 1);
    old.insert_source(Some(10), DOC_B).unwrap();
    assert_eq!(old.compact().unwrap(), 2);
    old.insert_source(Some(11), DOC_C).unwrap();
    drop(old);
    let snapshot = std::fs::OpenOptions::new().write(true).open(dir.join("gen-2.idx")).unwrap();
    snapshot.set_len(10).unwrap();
    let loaded = builder().load_snapshot();
    assert_eq!(loaded.err().map(|e| e.code()), Some("index_corrupt"));

    let rebuilt = builder().from_sources([(0u64, DOC_A_NEAR)]);
    let generation = rebuilt.compact().unwrap();
    assert!(generation > 2, "the rebuild committed generation {generation}");
    assert_eq!(rebuilt.generation(), generation);
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let expected_files =
        ["CURRENT".to_string(), format!("gen-{generation}.idx"), format!("wal-{generation}.log")];
    assert_eq!(files, expected_files);
    rebuilt.insert_source(Some(20), DOC_B).unwrap();
    let expected = rebuilt.fingerprints();
    drop(rebuilt);

    let warm = builder().load_snapshot().unwrap().expect("the rebuild committed");
    assert_eq!((warm.generation(), warm.replayed_on_boot()), (generation, 1));
    let ids: Vec<u64> = warm.fingerprints().iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, [0, 20], "nothing of the old lineage (docs 10 and 11) comes back");
    assert_eq!(warm.fingerprints(), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `maybe_auto_compact` folds deltas once the threshold is crossed and
/// stays quiet below it.
#[test]
fn auto_compaction_triggers_at_the_threshold() {
    let dir = temp_dir("autocompact");
    let handle =
        CorpusBuilder::new(CcdParams::best()).snapshot_dir(&dir).from_sources([(0u64, DOC_A)]);
    handle.compact().unwrap();
    handle.insert_source(None, DOC_B).unwrap();
    assert!(!handle.maybe_auto_compact(2), "below the threshold");
    handle.insert_source(None, DOC_C).unwrap();
    assert!(handle.maybe_auto_compact(2));
    // The compaction runs on a background thread; poll for its end.
    // `compact` publishes the new generation before it settles the
    // delta count, so the generation alone is not a completion signal.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while handle.auto_compactions() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!((handle.generation(), handle.deltas()), (2, 0));
    assert_eq!(handle.auto_compactions(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `deltas()` counts exactly the documents the committed generation
/// lacks, even when inserts race a compaction: `compact` reads the count
/// under the read guard that captures the corpus, and an insert bumps it
/// under the write guard that applies the document. Each round starts a
/// burst of inserts and one compaction together, then checks the count
/// against the snapshot that compaction committed.
#[test]
fn deltas_stay_exact_when_inserts_race_compactions() {
    let dir = temp_dir("compactrace");
    let handle =
        CorpusBuilder::new(CcdParams::best()).snapshot_dir(&dir).from_sources([(0u64, DOC_A)]);
    handle.compact().unwrap();
    let store = SnapshotStore::open(&dir).unwrap();
    let fingerprint = CloneDetector::fingerprint_source(DOC_B).unwrap();
    for round in 0..50 {
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for _ in 0..100 {
                    handle.insert_fingerprint(None, fingerprint.clone()).unwrap();
                }
            });
            start.wait();
            handle.compact().unwrap();
        });
        let committed = store.load_current().unwrap().unwrap().fingerprints().len();
        assert_eq!(
            handle.deltas(),
            (handle.len() - committed) as u64,
            "delta count drifted from the committed generation in round {round}"
        );
    }
    assert_eq!(handle.len(), 5001);
    let _ = std::fs::remove_dir_all(&dir);
}
