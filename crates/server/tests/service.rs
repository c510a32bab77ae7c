//! End-to-end tests of the analysis daemon over real sockets.

use pipeline::api::{AnalysisConfig, AnalysisEngine, AnalysisRequest, AnalysisResponse};
use server::{client, Server, ServerConfig, ShutdownHandle};
use std::sync::Arc;

const VULNERABLE: &str = "function f(address to) public { to.send(1); }";
const CORPUS_CONTRACT: &str = "contract Wallet { \
    function takeOut(uint amount) public { msg.sender.transfer(amount); } }";

fn start(
    config: ServerConfig,
    engine: AnalysisEngine,
) -> (String, ShutdownHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config, Arc::new(engine)).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

fn default_engine() -> AnalysisEngine {
    AnalysisEngine::with_corpus(AnalysisConfig::default(), [(1u64, CORPUS_CONTRACT)])
}

#[test]
fn scan_over_http_is_byte_identical_to_batch() {
    let (addr, handle, join) = start(ServerConfig::default(), default_engine());
    let request = AnalysisRequest::scan(VULNERABLE);
    let (status, body) = client::post(&addr, "/v1/scan", &request.to_json()).expect("scan");
    assert_eq!(status, 200);

    // The batch path: same facade, same engine configuration.
    let batch_engine = default_engine();
    let batch_body = batch_engine.analyze(&request).expect("batch analyze").to_json();
    assert_eq!(body, batch_body, "service and batch JSON must be byte-identical");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn clone_check_over_http_matches_warm_corpus() {
    let (addr, handle, join) = start(ServerConfig::default(), default_engine());
    let query = "contract Unsafe { \
        function unsafeWithdraw(uint value) public { msg.sender.transfer(value); } }";
    let request = AnalysisRequest::clone_check(query);
    let (status, body) = client::post(&addr, "/v1/clone-check", &request.to_json()).unwrap();
    assert_eq!(status, 200);
    match AnalysisResponse::from_json(&body).expect("decodes") {
        AnalysisResponse::Clones(hits) => {
            assert_eq!(hits[0].doc, 1);
            assert_eq!(hits[0].score, 100.0);
        }
        other => panic!("expected clones, got {other:?}"),
    }
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn serves_64_concurrent_requests() {
    let config = ServerConfig { queue_capacity: 256, ..ServerConfig::default() };
    let (addr, handle, join) = start(config, default_engine());
    let body = AnalysisRequest::scan(VULNERABLE).to_json();
    let expected = {
        let engine = default_engine();
        engine.analyze(&AnalysisRequest::scan(VULNERABLE)).unwrap().to_json()
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..64)
            .map(|_| {
                scope.spawn(|| client::post(&addr, "/v1/scan", &body).expect("request"))
            })
            .collect();
        for h in handles {
            let (status, response) = h.join().expect("client thread");
            assert_eq!(status, 200);
            assert_eq!(response, expected, "all concurrent responses byte-identical");
        }
    });
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn sheds_load_with_429_past_the_queue_bound() {
    // One worker, queue of one: concurrent expensive scans must overflow.
    let config = ServerConfig { workers: 1, queue_capacity: 1, ..ServerConfig::default() };
    let expensive = format!(
        "contract C {{ {} }}",
        "function f(uint a) public { total += a; msg.sender.call{value: a}(\"\"); } "
            .repeat(60)
    );
    let (addr, handle, join) = start(config, AnalysisEngine::new(AnalysisConfig::default()));
    let body = AnalysisRequest::scan(expensive).to_json();
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..24)
            .map(|_| scope.spawn(|| client::post(&addr, "/v1/scan", &body).map(|(s, _)| s)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread").unwrap_or(0))
            .collect()
    });
    assert!(
        statuses.contains(&429),
        "no request was shed: {statuses:?}"
    );
    assert!(
        statuses.contains(&200),
        "no request succeeded: {statuses:?}"
    );
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn timeout_maps_to_504() {
    let engine = AnalysisEngine::new(AnalysisConfig::default().with_timeout_ms(0));
    let (addr, handle, join) = start(ServerConfig::default(), engine);
    let (status, body) = client::post(
        &addr,
        "/v1/scan",
        &AnalysisRequest::scan(VULNERABLE).to_json(),
    )
    .unwrap();
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("\"code\":\"timeout\""), "{body}");
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn error_paths_over_http() {
    let (addr, handle, join) = start(ServerConfig::default(), default_engine());
    // Malformed JSON body.
    let (status, body) = client::post(&addr, "/v1/scan", "{oops").unwrap();
    assert_eq!(status, 400, "{body}");
    // Unknown detector name.
    let bad = "{\"v\":1,\"kind\":\"scan\",\"source\":\"x = 1;\",\"detectors\":[\"Nope\"]}";
    let (status, body) = client::post(&addr, "/v1/scan", bad).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("\"code\":\"query\""), "{body}");
    // Zero-length clone-check source.
    let empty = AnalysisRequest::clone_check("").to_json();
    let (status, body) = client::post(&addr, "/v1/clone-check", &empty).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("\"code\":\"invalid_request\""), "{body}");
    // Unknown endpoint.
    let (status, _) = client::get(&addr, "/nope").unwrap();
    assert_eq!(status, 404);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let (addr, _handle, join) = start(ServerConfig::default(), default_engine());
    let (status, body) = client::post(&addr, "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("shutting_down"));
    // run() must return on its own — no handle.shutdown() here.
    join.join().unwrap();
}

#[test]
fn telemetry_endpoint_serves_the_report_schema() {
    let (addr, handle, join) = start(ServerConfig::default(), default_engine());
    let (status, body) = client::get(&addr, "/telemetry").unwrap();
    assert_eq!(status, 200);
    let parsed = telemetry::json::parse(&body).expect("telemetry JSON parses");
    assert!(parsed.get("version").is_some());
    handle.shutdown();
    join.join().unwrap();
}
