//! End-to-end tests of the `/v1/index` management API and the snapshot
//! warm-start lifecycle over real sockets.

use pipeline::api::{AnalysisConfig, AnalysisEngine, AnalysisRequest};
use pipeline::corpus_index::CorpusBuilder;
use server::{client, Server, ServerConfig, ShutdownHandle};
use std::path::PathBuf;
use std::sync::Arc;

const CORPUS_CONTRACT: &str = "contract Wallet { \
    function takeOut(uint amount) public { msg.sender.transfer(amount); } }";
const NEW_CONTRACT: &str = "contract Counter { uint total; \
    function add(uint v) public { total += v; } }";

fn start(engine: AnalysisEngine) -> (String, ShutdownHandle, std::thread::JoinHandle<()>) {
    let server =
        Server::bind("127.0.0.1:0", ServerConfig::default(), Arc::new(engine)).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sodd_index_api_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn field(body: &str, name: &str) -> f64 {
    telemetry::json::parse(body)
        .unwrap_or_else(|e| panic!("{body}: {e}"))
        .get(name)
        .and_then(telemetry::json::Value::as_f64)
        .unwrap_or_else(|| panic!("no {name} in {body}"))
}

#[test]
fn insert_compact_and_warm_restart_roundtrip() {
    let dir = temp_dir("lifecycle");
    let config = AnalysisConfig::default();
    let corpus = CorpusBuilder::new(config.ccd_params())
        .snapshot_dir(&dir)
        .from_sources([(1u64, CORPUS_CONTRACT)]);
    corpus.compact().expect("initial commit");
    let (addr, handle, join) = start(AnalysisEngine::with_corpus_handle(config.clone(), corpus));

    // Baseline status: generation 1, one doc, no deltas.
    let (status, body) = client::get(&addr, "/v1/index/status").unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(field(&body, "generation"), 1.0, "{body}");
    assert_eq!(field(&body, "docs"), 1.0, "{body}");
    assert_eq!(field(&body, "deltas"), 0.0, "{body}");

    // Insert a new document; the id is echoed and the delta counted.
    let insert = format!(
        "{{\"v\":1,\"source\":\"{}\",\"id\":9}}",
        telemetry::json::escape(NEW_CONTRACT)
    );
    let (status, body) = client::post(&addr, "/v1/index/insert", &insert).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(field(&body, "doc"), 9.0, "{body}");
    assert_eq!(field(&body, "deltas"), 1.0, "{body}");

    // The inserted document is matchable before any compaction.
    let probe = AnalysisRequest::clone_check(
        "contract Tally { uint total; function bump(uint n) public { total += n; } }",
    );
    let (status, body) = client::post(&addr, "/v1/clone-check", &probe.to_json()).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"doc\":9"), "{body}");

    // Compact: deltas fold into generation 2.
    let (status, body) = client::post(&addr, "/v1/index/compact", "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(field(&body, "generation"), 2.0, "{body}");
    assert_eq!(field(&body, "deltas"), 0.0, "{body}");
    handle.shutdown();
    join.join().unwrap();

    // "Restart": a fresh warm-started service sees generation 2 with both
    // documents — including the one inserted over HTTP.
    let corpus = CorpusBuilder::new(config.ccd_params())
        .snapshot_dir(&dir)
        .load_snapshot()
        .expect("snapshot loads")
        .expect("snapshot exists");
    assert_eq!(corpus.generation(), 2);
    assert_eq!(corpus.len(), 2);
    let (addr, handle, join) = start(AnalysisEngine::with_corpus_handle(config, corpus));
    let (status, body) = client::post(&addr, "/v1/clone-check", &probe.to_json()).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"doc\":9"), "warm-started corpus lost the insert: {body}");
    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_backed_responses_are_byte_identical_to_in_memory() {
    let dir = temp_dir("byteident");
    let config = AnalysisConfig::default();
    let docs = [
        (1u64, CORPUS_CONTRACT),
        (2u64, NEW_CONTRACT),
        (3u64, "contract Escrow { function release(address to) public { to.send(5); } }"),
    ];
    let in_memory = CorpusBuilder::new(config.ccd_params()).from_sources(docs);
    let snapshot_src = CorpusBuilder::new(config.ccd_params())
        .snapshot_dir(&dir)
        .from_sources(docs);
    snapshot_src.compact().expect("commit");
    // Load the snapshot beside the in-memory build — the backing store
    // may not leak into bytes.
    let warm = CorpusBuilder::new(config.ccd_params())
        .snapshot_dir(&dir)
        .load_snapshot()
        .expect("loads")
        .expect("exists");

    let (addr_a, handle_a, join_a) = start(AnalysisEngine::with_corpus_handle(config.clone(), in_memory));
    let (addr_b, handle_b, join_b) = start(AnalysisEngine::with_corpus_handle(config, warm));
    for query in [
        "contract W { function out(uint v) public { msg.sender.transfer(v); } }",
        "contract T { uint total; function inc(uint v) public { total += v; } }",
        "contract Z { function f() public {} }",
    ] {
        let body = AnalysisRequest::clone_check(query).to_json();
        let (sa, ra) = client::post(&addr_a, "/v1/clone-check", &body).unwrap();
        let (sb, rb) = client::post(&addr_b, "/v1/clone-check", &body).unwrap();
        assert_eq!((sa, &ra), (sb, &rb), "snapshot-backed response diverged for {query}");
    }
    handle_a.shutdown();
    handle_b.shutdown();
    join_a.join().unwrap();
    join_b.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The durability contract end-to-end: inserts acknowledged over HTTP but
/// never compacted survive an abrupt stop (the service and handle are
/// simply dropped — the WAL is the only place the deltas live on disk)
/// and the restarted service answers byte-identically.
#[test]
fn uncompacted_inserts_survive_an_abrupt_restart() {
    let dir = temp_dir("waldurable");
    let config = AnalysisConfig::default();
    let corpus = CorpusBuilder::new(config.ccd_params())
        .snapshot_dir(&dir)
        .from_sources([(1u64, CORPUS_CONTRACT)]);
    corpus.compact().expect("initial commit");
    let (addr, handle, join) = start(AnalysisEngine::with_corpus_handle(config.clone(), corpus));

    let insert = format!(
        "{{\"v\":1,\"source\":\"{}\",\"id\":9}}",
        telemetry::json::escape(NEW_CONTRACT)
    );
    let (status, body) = client::post(&addr, "/v1/index/insert", &insert).unwrap();
    assert_eq!(status, 200, "{body}");

    // Status reports the WAL view: one record durable, one replay pending.
    let (status, body) = client::get(&addr, "/v1/index/status").unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(field(&body, "wal_records"), 1.0, "{body}");
    assert!(field(&body, "wal_bytes") > 0.0, "{body}");
    assert_eq!(field(&body, "replayed_on_boot"), 0.0, "{body}");
    assert!(body.contains("\"fsync_policy\":\"batch:5\""), "{body}");

    // Capture the reference answer, then stop WITHOUT compacting.
    let probe = AnalysisRequest::clone_check(
        "contract Tally { uint total; function bump(uint n) public { total += n; } }",
    );
    let (_, reference) = client::post(&addr, "/v1/clone-check", &probe.to_json()).unwrap();
    assert!(reference.contains("\"doc\":9"), "{reference}");
    handle.shutdown();
    join.join().unwrap();

    // Restart: still generation 1, but the delta replays from the WAL and
    // the clone-check response is byte-for-byte the pre-crash one.
    let corpus = CorpusBuilder::new(config.ccd_params())
        .snapshot_dir(&dir)
        .load_snapshot()
        .expect("snapshot loads")
        .expect("snapshot exists");
    assert_eq!((corpus.generation(), corpus.len()), (1, 2));
    assert_eq!((corpus.deltas(), corpus.replayed_on_boot()), (1, 1));
    let (addr, handle, join) = start(AnalysisEngine::with_corpus_handle(config, corpus));
    let (status, body) = client::get(&addr, "/v1/index/status").unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(field(&body, "replayed_on_boot"), 1.0, "{body}");
    let (status, replayed) = client::post(&addr, "/v1/clone-check", &probe.to_json()).unwrap();
    assert_eq!(status, 200);
    assert_eq!(replayed, reference, "replayed corpus diverged from the pre-crash answer");
    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The WAL append histogram reaches `/metrics` under its own name once an
/// insert has gone through the log.
#[test]
fn wal_append_latency_reaches_metrics() {
    telemetry::enable();
    let dir = temp_dir("walmetrics");
    let config = AnalysisConfig::default();
    let corpus = CorpusBuilder::new(config.ccd_params())
        .snapshot_dir(&dir)
        .from_sources([(1u64, CORPUS_CONTRACT)]);
    corpus.compact().expect("initial commit");
    let (addr, handle, join) = start(AnalysisEngine::with_corpus_handle(config, corpus));
    let insert = format!("{{\"v\":1,\"source\":\"{}\"}}", telemetry::json::escape(NEW_CONTRACT));
    let (status, body) = client::post(&addr, "/v1/index/insert", &insert).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, metrics) = client::get(&addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("wal_append_us_count "), "metrics miss wal_append_us:\n{metrics}");
    handle.shutdown();
    join.join().unwrap();
    telemetry::disable();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compact_without_snapshot_dir_is_client_error() {
    let engine = AnalysisEngine::with_corpus(AnalysisConfig::default(), [(1u64, CORPUS_CONTRACT)]);
    let (addr, handle, join) = start(engine);
    let (status, body) = client::post(&addr, "/v1/index/compact", "").unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"invalid_request\""), "{body}");
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn front_cache_hit_rate_rises_under_repeats() {
    let engine = AnalysisEngine::with_corpus(AnalysisConfig::default(), [(1u64, CORPUS_CONTRACT)]);
    let (addr, handle, join) = start(engine);
    let body = AnalysisRequest::clone_check(
        "contract Q { function w(uint v) public { msg.sender.transfer(v); } }",
    )
    .to_json();
    for _ in 0..5 {
        let (status, _) = client::post(&addr, "/v1/clone-check", &body).unwrap();
        assert_eq!(status, 200);
    }
    let (status, status_body) = client::get(&addr, "/v1/index/status").unwrap();
    assert_eq!(status, 200);
    let parsed = telemetry::json::parse(&status_body).unwrap();
    let cache = parsed.get("front_cache").expect("front_cache object");
    let exact = cache.get("exact_hits").and_then(telemetry::json::Value::as_f64).unwrap();
    assert!(exact >= 4.0, "repeated identical checks must hit tier 1: {status_body}");
    handle.shutdown();
    join.join().unwrap();
}
