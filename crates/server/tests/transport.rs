//! Transport-level tests of the event-loop reactor: incremental parsing
//! across arbitrary read boundaries, HTTP/1.1 keep-alive and
//! pipelining, slow-client (slowloris) eviction, the bounded in-flight
//! pipeline depth, and clients that stop sending. Everything here talks
//! raw sockets so the byte-level framing is what is actually asserted.

use pipeline::api::{AnalysisConfig, AnalysisEngine, AnalysisRequest};
use server::{client, Server, ServerConfig, ShutdownHandle};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const VULNERABLE: &str = "function f(address to) public { to.send(1); }";
const CORPUS_CONTRACT: &str = "contract Wallet { \
    function takeOut(uint amount) public { msg.sender.transfer(amount); } }";

/// A scan that takes milliseconds to run: `functions` functions, each
/// with an external call and a state write.
fn expensive_scan(functions: usize) -> String {
    let contract = format!(
        "contract C {{ {} }}",
        "function f(uint a) public { total += a; msg.sender.call{value: a}(\"\"); } "
            .repeat(functions)
    );
    AnalysisRequest::scan(contract).to_json()
}

/// One `POST /v1/scan` request as raw bytes, with extra header lines.
fn scan_request(body: &str, headers: &str) -> String {
    format!("POST /v1/scan HTTP/1.1\r\nHost: t\r\n{headers}Content-Length: {}\r\n\r\n{body}", body.len())
}

fn start(config: ServerConfig) -> (String, ShutdownHandle, std::thread::JoinHandle<()>) {
    let engine = AnalysisEngine::with_corpus(AnalysisConfig::default(), [(1u64, CORPUS_CONTRACT)]);
    let server = Server::bind("127.0.0.1:0", config, Arc::new(engine)).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

/// A scan request plus a health request, as one keep-alive byte stream.
fn pipelined_pair() -> Vec<u8> {
    let body = AnalysisRequest::scan(VULNERABLE).to_json();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(
        format!(
            "POST /v1/scan HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    bytes.extend_from_slice(b"GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    bytes
}

/// Read until EOF and split the stream into individual HTTP responses
/// by `Content-Length` framing; returns their status codes and bodies.
fn read_responses(stream: &mut TcpStream) -> Vec<(u16, String)> {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read responses");
    split_responses(&raw)
}

fn split_responses(mut raw: &[u8]) -> Vec<(u16, String)> {
    let mut out = Vec::new();
    while !raw.is_empty() {
        let head_end = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("response head terminator")
            + 4;
        let head = std::str::from_utf8(&raw[..head_end]).expect("ASCII head");
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
            })
            .expect("Content-Length header");
        let body = String::from_utf8_lossy(&raw[head_end..head_end + length]).into_owned();
        out.push((status, body));
        raw = &raw[head_end + length..];
    }
    out
}

/// Both responses must come back whole and in order no matter where the
/// request byte stream is cut — every split point of the pipelined pair
/// is exercised against one live server.
#[test]
fn requests_split_at_every_byte_parse_whole() {
    let (addr, handle, join) = start(ServerConfig::default());
    let bytes = pipelined_pair();
    // Every-byte coverage on a short prefix window is where the parser
    // state machine lives (request line + headers); past the head the
    // remaining splits land in the body and are sampled more coarsely.
    let splits: Vec<usize> =
        (1..bytes.len()).filter(|&at| at <= 96 || at % 7 == 0 || at + 4 >= bytes.len()).collect();
    for at in splits {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(&bytes[..at]).expect("first fragment");
        stream.flush().unwrap();
        // Give the reactor a chance to consume the partial request
        // before the rest arrives.
        std::thread::sleep(Duration::from_millis(1));
        stream.write_all(&bytes[at..]).expect("second fragment");
        stream.flush().unwrap();
        let responses = read_responses(&mut stream);
        assert_eq!(responses.len(), 2, "split at byte {at}");
        assert_eq!(responses[0].0, 200, "scan after split at byte {at}: {}", responses[0].1);
        assert_eq!(responses[1].0, 200, "health after split at byte {at}");
    }
    handle.shutdown();
    join.join().unwrap();
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

    /// Random multi-way fragmentation: the pair of requests arrives in
    /// arbitrary chunks and must still produce exactly two in-order
    /// responses.
    #[test]
    fn randomly_fragmented_requests_parse_whole(cuts in proptest::collection::vec(0.0f64..1.0, 1..6)) {
        let (addr, handle, join) = start(ServerConfig::default());
        let bytes = pipelined_pair();
        let mut at: Vec<usize> =
            cuts.iter().map(|f| 1 + ((bytes.len() - 2) as f64 * f) as usize).collect();
        at.sort_unstable();
        at.dedup();
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut prev = 0;
        for &cut in at.iter().chain(std::iter::once(&bytes.len())) {
            stream.write_all(&bytes[prev..cut]).expect("fragment");
            stream.flush().unwrap();
            prev = cut;
        }
        let responses = read_responses(&mut stream);
        proptest::prop_assert_eq!(responses.len(), 2);
        proptest::prop_assert_eq!(responses[0].0, 200);
        proptest::prop_assert_eq!(responses[1].0, 200);
        handle.shutdown();
        join.join().unwrap();
    }
}

/// A burst of pipelined requests written as one segment comes back as
/// distinct, in-order responses on the same connection.
#[test]
fn pipelined_burst_in_one_segment_answers_in_order() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut bytes = Vec::new();
    for i in 0..8 {
        let path = if i % 2 == 0 { "/health" } else { "/metrics" };
        bytes.extend_from_slice(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes());
    }
    bytes.extend_from_slice(b"GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(&bytes).unwrap();
    stream.flush().unwrap();
    let responses = read_responses(&mut stream);
    assert_eq!(responses.len(), 9);
    for (i, (status, body)) in responses.iter().enumerate() {
        assert_eq!(*status, 200, "response {i}");
        let expect_health = i == 8 || i % 2 == 0;
        assert_eq!(
            body.contains("\"status\":\"ok\""),
            expect_health,
            "response {i} out of order: {body}"
        );
    }
    handle.shutdown();
    join.join().unwrap();
}

/// A pipelined burst deeper than `max_pipeline` must still answer every
/// request — the reactor stops reading while the in-flight window is
/// full and resumes as responses drain, rather than dropping requests.
#[test]
fn burst_past_the_pipeline_cap_still_answers_everything() {
    let config = ServerConfig { max_pipeline: 4, ..ServerConfig::default() };
    let (addr, handle, join) = start(config);
    let mut bytes = Vec::new();
    for _ in 0..15 {
        bytes.extend_from_slice(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
    }
    bytes.extend_from_slice(b"GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(&bytes).unwrap();
    stream.flush().unwrap();
    let responses = read_responses(&mut stream);
    assert_eq!(responses.len(), 16, "all pipelined requests answered despite cap 4");
    assert!(responses.iter().all(|(status, _)| *status == 200));
    handle.shutdown();
    join.join().unwrap();
}

/// A client that trickles header bytes and then stalls gets a 408 and a
/// closed connection once the read deadline passes — the loop keeps
/// serving other connections instead of hanging.
#[test]
fn slowloris_header_trickle_gets_408_and_close() {
    let config = ServerConfig { read_timeout_ms: 150, ..ServerConfig::default() };
    let (addr, handle, join) = start(config);
    let mut slow = TcpStream::connect(&addr).expect("connect");
    slow.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    slow.write_all(b"GET /health HTTP/1.1\r\nX-Slow").unwrap();
    slow.flush().unwrap();

    // While the slow client stalls, a healthy one is still served.
    let (status, _) = client::get(&addr, "/health").expect("healthy client");
    assert_eq!(status, 200);

    let responses = read_responses(&mut slow);
    assert_eq!(responses.len(), 1, "exactly one timeout response then EOF");
    assert_eq!(responses[0].0, 408, "stalled header read must time out: {}", responses[0].1);
    assert!(responses[0].1.contains("timeout"), "body carries the typed code: {}", responses[0].1);

    handle.shutdown();
    join.join().unwrap();
}

/// An idle keep-alive connection (no partial request buffered) is not
/// subject to the read deadline; it survives quietly between requests.
#[test]
fn idle_keep_alive_connection_outlives_the_read_deadline() {
    let config = ServerConfig { read_timeout_ms: 100, ..ServerConfig::default() };
    let (addr, handle, join) = start(config);
    let mut conn = client::Connection::new(&addr);
    assert_eq!(conn.get("/health").expect("first request").0, 200);
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(conn.get("/health").expect("after idling past deadline").0, 200);
    handle.shutdown();
    join.join().unwrap();
}

/// The keep-alive client reuses its socket across sequential requests
/// against the real daemon, and responses match the connect-per-request
/// path byte for byte.
#[test]
fn keep_alive_client_matches_connection_close_responses() {
    let (addr, handle, join) = start(ServerConfig::default());
    let body = AnalysisRequest::scan(VULNERABLE).to_json();
    let (status, oneshot) = client::post(&addr, "/v1/scan", &body).expect("oneshot");
    assert_eq!(status, 200);
    let mut conn = client::Connection::new(&addr);
    for _ in 0..3 {
        let (status, kept) = conn.post("/v1/scan", &body).expect("keep-alive request");
        assert_eq!(status, 200);
        assert_eq!(kept, oneshot, "keep-alive and close responses byte-identical");
    }
    handle.shutdown();
    join.join().unwrap();
}

/// Graceful drain closes keep-alive connections: responses issued
/// during shutdown carry `Connection: close` and the socket ends.
#[test]
fn drain_ends_keep_alive_connections() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut conn = client::Connection::new(&addr);
    assert_eq!(conn.get("/health").expect("pre-drain request").0, 200);
    handle.shutdown();
    // The connection is idle, so the drain may close it outright; a
    // response, when one arrives, must carry close framing. `send`/
    // `recv` directly (no transparent reconnect) so a closed socket
    // surfaces as an error instead of retrying against a dead daemon.
    // An error means the drain closed the idle connection first.
    if let Ok(response) = conn.send("GET", "/health", "", &[]).and_then(|()| conn.recv()) {
        assert_eq!(response.status, 200);
        assert!(!conn.is_connected(), "drain response must close the connection");
    }
    join.join().unwrap();
}

/// `ShutdownHandle::shutdown` wakes an idle event loop, which waits for
/// no timer: on each of five servers in turn, `run` returns within 100 ms
/// of the call.
#[test]
fn shutdown_wakes_an_idle_event_loop() {
    for round in 0..5 {
        let engine = AnalysisEngine::new(AnalysisConfig::default());
        let server = Server::bind("127.0.0.1:0", ServerConfig::default(), Arc::new(engine))
            .expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || {
            server.run().expect("server run");
            std::time::Instant::now()
        });
        // One answered request puts the loop in service; with its
        // connection closed it goes back to an idle wait.
        assert_eq!(client::get(&addr, "/health").expect("health").0, 200);
        let asked = std::time::Instant::now();
        handle.shutdown();
        let returned = join.join().expect("server thread");
        let took = returned.duration_since(asked);
        assert!(took < Duration::from_millis(100), "round {round}: run returned after {took:?}");
    }
}

/// Requests the loop has read when shutdown is asked for are still run
/// and answered, the last with `Connection: close`, before `run` returns.
/// A health check and two expensive scans are pipelined on one loop,
/// which parses all three in one turn and runs them in turn; once the
/// health answer arrives the first scan is running and the second waits
/// behind it, and shutdown is asked for then.
#[test]
fn shutdown_drains_the_requests_in_flight() {
    let (addr, handle, join) = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let burst = "GET /health HTTP/1.1\r\nHost: t\r\n\r\n".to_string()
        + &scan_request(&expensive_scan(60), "")
        + &scan_request(&expensive_scan(61), "Connection: close\r\n");
    stream.write_all(burst.as_bytes()).unwrap();
    let mut first = [0u8; 1];
    stream.read_exact(&mut first).expect("the health check is answered");
    handle.shutdown();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !join.is_finished() {
        assert!(Instant::now() < deadline, "run did not return after the drain");
        std::thread::sleep(Duration::from_millis(1));
    }
    join.join().expect("server thread");
    // `run` has returned, so every answer is already in the socket.
    let mut raw = first.to_vec();
    stream.read_to_end(&mut raw).expect("read the rest");
    let responses = split_responses(&raw);
    assert_eq!(responses.len(), 3, "{}", String::from_utf8_lossy(&raw));
    assert!(responses.iter().all(|(status, _)| *status == 200), "{responses:?}");
    let text = String::from_utf8_lossy(&raw);
    let last_head = &text[text.rfind("HTTP/1.1 ").expect("last response")..];
    assert!(last_head.contains("Connection: close"), "{last_head}");
}

/// Connections spread across the loops, and a busy loop does not hold up
/// accepting: while one connection's expensive scan runs on its loop, a
/// second connection's `/health` and a new connection's `/health` are
/// answered by the other loop within 100 ms, while the scan's answer is
/// still to come.
#[test]
fn a_slow_request_holds_up_only_its_own_loop() {
    let (addr, handle, join) = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    // One request each, in turn: with no request waiting, each connection
    // goes to the loop with fewer connections, the lower on a tie — the
    // first to loop 0, the second to loop 1. The new one then ties on
    // connections and goes to loop 1, the loop without the scan.
    let mut slow = TcpStream::connect(&addr).expect("connect");
    slow.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    slow.write_all(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut buf = [0u8; 4096];
    assert!(slow.read(&mut buf).expect("health on the first connection") > 0);
    let mut fast = client::Connection::new(&addr);
    assert_eq!(fast.get("/health").expect("health on the second connection").0, 200);

    let body = expensive_scan(300);
    slow.write_all(scan_request(&body, "Connection: close\r\n").as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(5));
    let asked = Instant::now();
    assert_eq!(fast.get("/health").expect("health beside the scan").0, 200);
    let answered = asked.elapsed();
    let asked = Instant::now();
    assert_eq!(client::get(&addr, "/health").expect("health on a new connection").0, 200);
    let accepted = asked.elapsed();
    slow.set_nonblocking(true).unwrap();
    let waiting = slow.peek(&mut buf).map_err(|e| e.kind());
    assert_eq!(waiting, Err(std::io::ErrorKind::WouldBlock), "health waited for the scan");
    assert!(answered < Duration::from_millis(100), "health waited {answered:?}");
    assert!(accepted < Duration::from_millis(100), "a new connection waited {accepted:?}");
    slow.set_nonblocking(false).unwrap();
    let responses = read_responses(&mut slow);
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].0, 200, "{}", responses[0].1);
    handle.shutdown();
    join.join().unwrap();
}

/// A `POST /v1/scan` of exactly `total` bytes: a small scan whose source
/// is padded with trailing spaces.
fn scan_request_of(total: usize) -> Vec<u8> {
    let padded = |pad: usize| {
        let source = format!("{VULNERABLE}{}", " ".repeat(pad));
        scan_request(&AnalysisRequest::scan(source).to_json(), "")
    };
    let mut pad = total - padded(0).len();
    // The padding lengthens `Content-Length` by a digit or more.
    pad -= padded(pad).len() - total;
    let request = padded(pad);
    assert_eq!(request.len(), total);
    request.into_bytes()
}

/// A request whose last bytes arrive together with the client's
/// `shutdown(Write)` is still answered, then the connection ends. The one
/// loop is kept busy with an expensive scan while the request and the
/// close arrive, so it reads both in one turn: a request that fills the
/// loop's 16 KiB reads exactly is the case where the read that meets
/// the close comes in the same event as the request's last bytes.
#[test]
fn a_request_read_together_with_the_close_is_answered() {
    let (addr, handle, join) = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    for total in [16 * 1024, 32 * 1024] {
        // The loop runs a health check and the scan behind it in one
        // turn, so once the health answer arrives it reads nothing more
        // until the scan is done.
        let mut busy = TcpStream::connect(&addr).expect("connect");
        busy.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let burst = "GET /health HTTP/1.1\r\nHost: t\r\n\r\n".to_string()
            + &scan_request(&expensive_scan(300), "Connection: close\r\n");
        busy.write_all(burst.as_bytes()).unwrap();
        let mut first = [0u8; 1];
        busy.read_exact(&mut first).expect("the health check is answered");

        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(&scan_request_of(total)).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut raw = first.to_vec();
        busy.read_to_end(&mut raw).expect("the scan is answered");
        assert_eq!(split_responses(&raw).len(), 2);
        // The loop is free again: the answer is due at once.
        stream.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .unwrap_or_else(|e| panic!("{total} bytes then close: no answer and EOF: {e}"));
        let responses = split_responses(&raw);
        assert_eq!(responses.len(), 1, "{total} bytes: {responses:?}");
        assert_eq!(responses[0].0, 200, "{total} bytes: {}", responses[0].1);
    }
    handle.shutdown();
    join.join().unwrap();
}

/// A client that sends part of a request head and then stops sending
/// gets no answer: the request can never complete, so the connection
/// ends at once instead of waiting out the read deadline.
#[test]
fn a_partial_head_then_shutdown_write_reads_eof() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    stream.write_all(b"GET /health HTTP/1.1\r\nHost: t\r\n").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("EOF within the 1 s read timeout");
    assert!(raw.is_empty(), "{}", String::from_utf8_lossy(&raw));
    handle.shutdown();
    join.join().unwrap();
}

/// A client that sends part of a request head and then closes leaves
/// nothing behind that holds up the drain: `run` returns within 1 s of
/// `shutdown`.
#[test]
fn a_partial_head_then_close_does_not_block_the_drain() {
    let engine = AnalysisEngine::new(AnalysisConfig::default());
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", config, Arc::new(engine)).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.shutdown_handle();
    let (returned, run_returned) = mpsc::channel();
    let join = std::thread::spawn(move || {
        let served = server.run();
        let _ = returned.send(());
        served.expect("server run");
    });
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.write_all(b"GET /health HTTP/1.1\r\nHost: t\r\n").unwrap();
    drop(stream);
    // The one loop sees the head and the close no later than a request
    // on a connection opened after them, so once that is answered the
    // drain begins after the close was read.
    assert_eq!(client::get(&addr, "/health").expect("health").0, 200);
    handle.shutdown();
    run_returned
        .recv_timeout(Duration::from_secs(1))
        .expect("run did not return within 1 s of shutdown");
    join.join().unwrap();
}
