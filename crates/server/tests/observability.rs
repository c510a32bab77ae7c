//! Observability contract tests over real sockets: tracing must be a
//! true no-op when off, correlation ids must appear on every response
//! class, adopted trace ids must round-trip to the debug endpoints, and
//! the access log must record what the server did — including the
//! requests it refused.
//!
//! Tracing and id-minting state is process-global, so every test holds
//! `OBS_LOCK` and restores the tracing switch before releasing it.

use pipeline::api::{AnalysisConfig, AnalysisEngine, AnalysisRequest};
use server::{client, Server, ServerConfig, ShutdownHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

static OBS_LOCK: Mutex<()> = Mutex::new(());

const VULNERABLE: &str = "function f(address to) public { to.send(1); }";
const CORPUS_CONTRACT: &str = "contract Wallet { \
    function takeOut(uint amount) public { msg.sender.transfer(amount); } }";

fn start(
    config: ServerConfig,
) -> (String, ShutdownHandle, std::thread::JoinHandle<()>) {
    let engine = AnalysisEngine::with_corpus(AnalysisConfig::default(), [(1u64, CORPUS_CONTRACT)]);
    let server = Server::bind("127.0.0.1:0", config, Arc::new(engine)).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

fn stop(handle: ShutdownHandle, join: std::thread::JoinHandle<()>) {
    handle.shutdown();
    join.join().expect("server thread");
}

/// Run `f` with tracing forced to `on`, restoring "off" afterwards even
/// on panic (the suite's baseline state is tracing disabled).
fn with_tracing(on: bool, f: impl FnOnce()) {
    let _lock = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::trace::set_enabled(on);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    telemetry::trace::set_enabled(false);
    if let Err(payload) = outcome {
        std::panic::resume_unwind(payload);
    }
}

#[test]
fn tracing_state_does_not_change_v1_response_bytes() {
    let _lock = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (addr, handle, join) = start(ServerConfig::default());
    let scan = AnalysisRequest::scan(VULNERABLE).to_json();
    let check = AnalysisRequest::clone_check(CORPUS_CONTRACT).to_json();

    telemetry::trace::set_enabled(false);
    let (status_off, scan_off) = client::post(&addr, "/v1/scan", &scan).expect("scan off");
    let (_, check_off) = client::post(&addr, "/v1/clone-check", &check).expect("check off");

    telemetry::trace::set_enabled(true);
    let (status_on, scan_on) = client::post(&addr, "/v1/scan", &scan).expect("scan on");
    let (_, check_on) = client::post(&addr, "/v1/clone-check", &check).expect("check on");
    telemetry::trace::set_enabled(false);

    stop(handle, join);
    assert_eq!(status_off, 200);
    assert_eq!(status_on, 200);
    assert_eq!(scan_off, scan_on, "tracing changed the scan response body");
    assert_eq!(check_off, check_on, "tracing changed the clone-check response body");
}

#[test]
fn every_response_class_carries_correlation_ids() {
    let _lock = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (addr, handle, join) = start(ServerConfig::default());

    // 404, 405 and analysis-level 400 all answer with both ids.
    let cases: Vec<client::Response> = vec![
        client::request_full(&addr, "GET", "/nope", "", &[]).expect("404"),
        client::request_full(&addr, "DELETE", "/health", "", &[]).expect("405"),
        client::request_full(&addr, "POST", "/v1/scan", "{not json", &[]).expect("400"),
    ];
    for response in &cases {
        assert!(
            response.header("x-trace-id").is_some(),
            "{} response lacks X-Trace-Id",
            response.status
        );
        assert!(
            response.header("x-request-id").is_some(),
            "{} response lacks X-Request-Id",
            response.status
        );
    }
    assert_eq!(
        cases.iter().map(|r| r.status).collect::<Vec<_>>(),
        vec![404, 405, 400]
    );

    // Protocol-level 413 (declared body over the limit): the request
    // never parses, so the ids must be minted, not adopted.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"POST /v1/scan HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        .expect("write oversized head");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read 413");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 413"), "expected 413, got: {text}");
    assert!(text.to_ascii_lowercase().contains("x-trace-id:"), "413 lacks X-Trace-Id: {text}");
    assert!(text.to_ascii_lowercase().contains("x-request-id:"), "413 lacks X-Request-Id: {text}");

    stop(handle, join);
}

#[test]
fn adopted_trace_id_round_trips_through_debug_endpoints() {
    with_tracing(true, || {
        telemetry::enable();
        let (addr, handle, join) = start(ServerConfig::default());
        // A snippet unique to this test: a response-cache hit would elide the
        // parse/cpg-build spans the assertions below require.
        let scan = AnalysisRequest::scan(
            "contract ObsTest { function pay(address to) public { to.send(2); } }",
        )
        .to_json();
        let response = client::request_full(
            &addr,
            "POST",
            "/v1/scan",
            &scan,
            &[("X-Trace-Id", "0000feedfacef00d")],
        )
        .expect("traced scan");
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(response.header("x-trace-id"), Some("0000feedfacef00d"));

        let (status, body) =
            client::get(&addr, "/debug/trace/0000feedfacef00d").expect("trace fetch");
        assert_eq!(status, 200, "{body}");
        for span in ["\"name\":\"request\"", "\"name\":\"parse\"", "\"name\":\"cpg-build\"", "\"name\":\"ccc-check\""] {
            assert!(body.contains(span), "trace missing {span}: {body}");
        }
        telemetry::json::parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"));

        let (status, recent) = client::get(&addr, "/debug/traces/recent").expect("recent");
        assert_eq!(status, 200);
        assert!(recent.contains("0000feedfacef00d"), "recent misses the trace: {recent}");

        let (status, chrome) =
            client::get(&addr, "/debug/trace/0000feedfacef00d?format=chrome").expect("chrome");
        assert_eq!(status, 200);
        assert!(chrome.contains("traceEvents"), "not a Chrome trace document: {chrome}");
        telemetry::json::parse(&chrome).unwrap_or_else(|e| panic!("{e}: {chrome}"));

        // The same stage guards fed the histograms /metrics exports.
        let (status, metrics) = client::get(&addr, "/metrics").expect("metrics");
        assert_eq!(status, 200);
        // So did the wait of each request between its parse and its run,
        // and the flush of each response.
        for stage in ["parse", "queue_wait", "write"] {
            let series = format!("stage_duration_ns_count{{stage=\"{stage}\"}}");
            assert!(metrics.contains(&series), "metrics miss {series}:\n{metrics}");
        }
        // The RED series and the transport gauges keep their names and
        // labels.
        for needle in [
            "http_requests_total{endpoint=\"/v1/scan\",status=\"2xx\"}",
            "http_request_duration_us_count{endpoint=\"/v1/scan\"}",
            "server_conns",
            "server_inflight",
        ] {
            assert!(metrics.contains(needle), "metrics miss {needle}:\n{metrics}");
        }

        stop(handle, join);
        telemetry::disable();
    });
}

/// `server_conns` counts the connections of every loop: with two loops
/// and three keep-alive connections open, `/metrics` reads 3, which no
/// single loop's count could give.
#[test]
fn connection_gauge_counts_every_loop() {
    let _lock = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::enable();
    let (addr, handle, join) = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut conns: Vec<client::Connection> =
        (0..3).map(|_| client::Connection::new(&addr)).collect();
    for conn in &mut conns {
        assert_eq!(conn.get("/health").expect("health").0, 200);
    }
    let (status, metrics) = conns[0].get("/metrics").expect("metrics");
    telemetry::disable();
    stop(handle, join);
    assert_eq!(status, 200);
    let open = metrics
        .lines()
        .find_map(|line| line.strip_prefix("server_conns "))
        .unwrap_or_else(|| panic!("metrics miss server_conns:\n{metrics}"));
    assert_eq!(open, "3", "three connections are open");
}

#[test]
fn unparseable_trace_header_is_replaced_not_adopted() {
    let _lock = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (addr, handle, join) = start(ServerConfig::default());
    let response = client::request_full(
        &addr,
        "GET",
        "/health",
        "",
        &[("X-Trace-Id", "definitely-not-hex")],
    )
    .expect("health");
    let echoed = response.header("x-trace-id").expect("echoed id");
    assert_ne!(echoed, "definitely-not-hex");
    assert_eq!(echoed.len(), 16, "minted ids are 16 hex digits: {echoed}");
    assert!(echoed.chars().all(|c| c.is_ascii_hexdigit()));
    stop(handle, join);
}

#[test]
fn access_log_records_served_and_shed_requests() {
    let _lock = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("obs-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let access_path = dir.join("access.jsonl");
    let slow_path = dir.join("slow.jsonl");
    let _ = std::fs::remove_file(&access_path);
    let _ = std::fs::remove_file(&slow_path);

    // One worker, a one-slot queue and a 300 ms injected stall per
    // request: firing four requests at once forces the queue to refuse
    // at least one of them.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        access_log: Some(access_path.clone()),
        slow_log: Some(slow_path.clone()),
        slow_ms: 100,
        ..ServerConfig::default()
    };
    let plan =
        faultinject::FaultPlan::parse("server/request:delay:300ms", 1).expect("valid spec");
    faultinject::install(Some(plan));
    let (addr, handle, join) = start(config);
    let scan = AnalysisRequest::scan(VULNERABLE).to_json();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    // Shed (429) and served (200) are both acceptable
                    // per-request outcomes here; the log must see both.
                    let (status, _) =
                        client::post(&addr, "/v1/scan", &scan).expect("scan under load");
                    assert!(status == 200 || status == 429, "unexpected status {status}");
                });
            }
        });
    }));
    faultinject::install(None);
    stop(handle, join);
    if let Err(payload) = outcome {
        std::panic::resume_unwind(payload);
    }

    let log = std::fs::read_to_string(&access_path).expect("access log exists");
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 4, "one line per request:\n{log}");
    for line in &lines {
        let value = telemetry::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let trace_id = value
            .get("trace_id")
            .and_then(telemetry::json::Value::as_str)
            .expect("trace_id field");
        assert!(!trace_id.is_empty());
    }
    assert!(log.contains("\"outcome\":\"ok\""), "no served request in log:\n{log}");
    assert!(log.contains("\"outcome\":\"shed\""), "no shed request in log:\n{log}");
    assert!(log.contains("\"status\":429"), "no 429 in log:\n{log}");

    // The 300 ms stall pushes served requests past the 100 ms slow
    // threshold, so the slow log tees them with the slow flag set.
    let slow = std::fs::read_to_string(&slow_path).expect("slow log exists");
    assert!(slow.contains("\"slow\":true"), "slow log missing slow entries:\n{slow}");

    let _ = std::fs::remove_dir_all(&dir);
}
