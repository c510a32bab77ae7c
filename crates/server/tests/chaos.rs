//! Chaos suite: every injected fault must surface as a *typed* error —
//! never an escaped panic, never a dead process.
//!
//! The fault plan is process-global, so every test takes `CHAOS_LOCK`
//! and uninstalls its plan before releasing it (even on panic).

use pipeline::api::{AnalysisConfig, AnalysisEngine, AnalysisRequest};
use server::breaker::BreakerConfig;
use server::{client, Server, ServerConfig};
use std::sync::{Arc, Mutex};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

const VULNERABLE: &str = "function f(address to) public { to.send(1); }";
const CORPUS_CONTRACT: &str = "contract Wallet { \
    function takeOut(uint amount) public { msg.sender.transfer(amount); } }";

/// Run `f` with `spec` installed, serialized against other chaos tests,
/// uninstalling the plan afterwards even if `f` panics.
fn with_plan(spec: &str, seed: u64, f: impl FnOnce()) {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = faultinject::FaultPlan::parse(spec, seed).expect("valid fault spec");
    faultinject::install(Some(plan));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    faultinject::install(None);
    if let Err(payload) = outcome {
        std::panic::resume_unwind(payload);
    }
}

fn engine() -> AnalysisEngine {
    AnalysisEngine::with_corpus(AnalysisConfig::default(), [(1u64, CORPUS_CONTRACT)])
}

#[test]
fn parse_fault_maps_to_parse_error() {
    with_plan("parse:err:1.0", 1, || {
        let error = engine()
            .analyze(&AnalysisRequest::scan(VULNERABLE))
            .expect_err("injected parse fault must fail the request");
        assert_eq!(error.code(), "parse");
    });
}

#[test]
fn cpg_build_fault_maps_to_graph_build_error() {
    with_plan("cpg/build:err:1.0", 1, || {
        let error = engine()
            .analyze(&AnalysisRequest::scan(VULNERABLE))
            .expect_err("injected build fault must fail the request");
        assert_eq!(error.code(), "graph_build");
    });
}

#[test]
fn faults_at_infallible_points_become_isolated_internal_errors() {
    // These sites have no error channel of their own: an injected error
    // escalates to a panic that the isolation layers (per-detector
    // catch_unwind, request-level catch_unwind) must convert.
    for spec in ["cpg/expand:err:1.0", "ccc/detector:err:1.0"] {
        with_plan(spec, 1, || {
            let error = engine()
                .analyze(&AnalysisRequest::scan(VULNERABLE))
                .expect_err("injected fault must fail the request");
            assert_eq!(error.code(), "internal", "spec {spec} leaked code {}", error.code());
        });
    }
    with_plan("ccd/match:err:1.0", 1, || {
        let error = engine()
            .analyze(&AnalysisRequest::clone_check(CORPUS_CONTRACT))
            .expect_err("injected match fault must fail the request");
        assert_eq!(error.code(), "internal");
    });
}

#[test]
fn query_eval_fault_escalates_to_catchable_panic() {
    // The scan detectors are programmatic graph walks; `query/eval` fires
    // on the declarative pattern path (`ccc::cypherlike`), whose faults
    // must surface as marked, catchable panics for the caller's isolation
    // layer (the same contract the sweep point has).
    with_plan("query/eval:err:1.0", 1, || {
        let cpg = cpg::Cpg::from_snippet(VULNERABLE).expect("snippet builds");
        let payload = std::panic::catch_unwind(|| {
            ccc::cypherlike::run_base_pattern(&cpg, &ccc::cypherlike::BASE_PATTERNS[0])
        })
        .expect_err("eval fault must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(message.starts_with("faultinject:"), "unexpected panic: {message}");
    });
}

#[test]
fn sweep_fault_escalates_to_catchable_panic() {
    // The batch sweep has no per-request isolation layer of its own; the
    // contract is that its injected faults are catchable panics with the
    // faultinject marker, which batch drivers absorb via their pool's
    // respawn sentinel.
    with_plan("ccd/sweep:err:1.0", 1, || {
        let payload = std::panic::catch_unwind(|| {
            let mut corpus = ccd::LabelledCorpus::default();
            corpus.add_document(1, CORPUS_CONTRACT);
            corpus.add_document(2, VULNERABLE);
            ccd::sweep(&corpus)
        })
        .expect_err("sweep fault must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(message.starts_with("faultinject:"), "unexpected panic: {message}");
    });
}

#[test]
fn soak_at_low_rates_yields_only_typed_outcomes() {
    // The acceptance regime: ≥1% rates across every in-process injection
    // point at once, a few hundred mixed requests, and every outcome is
    // either a success or a known error code.
    let spec = "parse:err:0.02,cpg:panic:0.01,query:err:0.01,ccc:panic:0.01,ccd:err:0.01";
    with_plan(spec, 0xC4A05, || {
        let engine = engine();
        let before = faultinject::injected_counts();
        let mut failures = 0usize;
        for i in 0..300 {
            let request = if i % 2 == 0 {
                AnalysisRequest::scan(VULNERABLE)
            } else {
                AnalysisRequest::clone_check(CORPUS_CONTRACT)
            };
            match engine.analyze(&request) {
                Ok(_) => {}
                Err(error) => {
                    failures += 1;
                    assert!(
                        matches!(
                            error.code(),
                            "parse" | "graph_build" | "query" | "timeout" | "internal"
                        ),
                        "unknown error code {}",
                        error.code()
                    );
                }
            }
        }
        let after = faultinject::injected_counts();
        let fired = (after.0 - before.0) + (after.1 - before.1);
        assert!(fired > 0, "fault plan never fired over 300 requests");
        assert!(failures > 0, "injected faults never surfaced as errors");
    });
}

#[test]
fn server_request_fault_returns_typed_500() {
    with_plan("server/request:err:1.0", 1, || {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default(), Arc::new(engine()))
            .expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().expect("run"));

        let (status, body) = client::get(&addr, "/health").expect("typed response");
        assert_eq!(status, 500);
        assert!(body.contains("\"code\":\"internal\""), "unexpected body: {body}");

        faultinject::install(None);
        handle.shutdown();
        let _ = client::get(&addr, "/health");
        join.join().unwrap();
    });
}

#[test]
fn worker_panics_are_respawned_and_reported() {
    with_plan("server/request:panic:1.0", 1, || {
        let config = ServerConfig { workers: 2, ..ServerConfig::default() };
        let server =
            Server::bind("127.0.0.1:0", config, Arc::new(engine())).expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().expect("run"));

        // Each request panics its worker mid-connection: the client sees
        // a dead socket, the pool's sentinel respawns the worker.
        for _ in 0..3 {
            assert!(
                client::get(&addr, "/health").is_err(),
                "panicking worker cannot have answered"
            );
        }

        faultinject::install(None);
        let policy = client::RetryPolicy::default();
        let (status, body) =
            client::get_with_retry(&addr, "/health", &policy).expect("daemon recovered");
        assert_eq!(status, 200, "daemon must survive worker panics: {body}");
        let health = telemetry::json::parse(&body).expect("health is JSON");
        let respawns = health
            .get("pool")
            .and_then(|p| p.get("respawns"))
            .and_then(telemetry::json::Value::as_f64)
            .expect("health reports pool.respawns");
        assert!(respawns >= 3.0, "expected ≥3 respawns, saw {respawns}");

        handle.shutdown();
        let _ = client::get(&addr, "/health");
        join.join().unwrap();
    });
}

#[test]
fn breaker_opens_on_internal_errors_and_recovers() {
    // Detector faults produce internal errors (500); the scan endpoint's
    // breaker must open after the configured run of failures, shed with
    // 503, and close again via the half-open probe once faults stop.
    with_plan("ccc/detector:err:1.0", 1, || {
        let config = ServerConfig {
            breaker: BreakerConfig { failure_threshold: 3, open_ms: 300 },
            ..ServerConfig::default()
        };
        let server =
            Server::bind("127.0.0.1:0", config, Arc::new(engine())).expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().expect("run"));

        let scan = AnalysisRequest::scan(VULNERABLE).to_json();
        for i in 0..3 {
            let (status, body) = client::post(&addr, "/v1/scan", &scan).expect("scan");
            assert_eq!(status, 500, "request {i} should fail internally: {body}");
        }
        let (status, body) = client::post(&addr, "/v1/scan", &scan).expect("scan");
        assert_eq!(status, 503, "breaker should be open: {body}");
        assert!(body.contains("\"code\":\"breaker_open\""), "unexpected body: {body}");

        let (_, health) = client::get(&addr, "/health").expect("health");
        assert!(health.contains("\"scan\":\"open\""), "health must report open: {health}");
        // Other endpoints keep their own breakers.
        assert!(health.contains("\"clone_check\":\"closed\""), "health: {health}");

        // Fault cleared + cooldown elapsed: the half-open probe succeeds
        // and the breaker closes.
        faultinject::install(None);
        std::thread::sleep(std::time::Duration::from_millis(400));
        let (status, body) = client::post(&addr, "/v1/scan", &scan).expect("scan");
        assert_eq!(status, 200, "probe after cooldown should succeed: {body}");
        let (_, health) = client::get(&addr, "/health").expect("health");
        assert!(health.contains("\"scan\":\"closed\""), "breaker must reclose: {health}");

        handle.shutdown();
        let _ = client::get(&addr, "/health");
        join.join().unwrap();
    });
}
