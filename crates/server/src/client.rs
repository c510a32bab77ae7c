//! A tiny blocking HTTP client for driving the daemon — used by the
//! `loadgen` bin, the integration tests and the CI smoke step.
//!
//! [`Connection`] is the one request writer and response reader: one TCP
//! connection serves sequential requests (or a pipelined window via
//! [`Connection::send`] / [`Connection::recv`]), with responses framed by
//! `Content-Length`. The free functions ([`post`], [`get`], [`request`],
//! [`request_full`]) open a fresh connection per call, send
//! `Connection: close` and read one framed response.
//!
//! [`RetryPolicy`] adds bounded retries with exponential backoff and
//! seeded jitter for transient failures: connection errors (a worker
//! died mid-request), 429 (load shed), and 5xx (internal errors, open
//! breakers, timeouts). 4xx client errors never retry — resending a bad
//! request cannot fix it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Bounded-retry tuning for [`post_with_retry`]/[`get_with_retry`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, first try included (clamped to at least 1).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `base_delay_ms << (n-1)`, capped at
    /// `max_delay_ms`, plus jitter in `[0, delay/2]`.
    pub base_delay_ms: u64,
    /// Upper bound on a single backoff (before jitter).
    pub max_delay_ms: u64,
    /// Jitter seed — deterministic for a given policy, so test runs and
    /// chaos reproductions back off identically.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, base_delay_ms: 10, max_delay_ms: 500, seed: 0x5eed }
    }
}

impl RetryPolicy {
    /// The backoff before attempt `attempt` (1-based retry index), with
    /// deterministic jitter drawn from `rng`.
    fn backoff(&self, attempt: u32, rng: &mut faultinject::SeededRng) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        let base = self.base_delay_ms.saturating_mul(1u64 << shift).min(self.max_delay_ms);
        Duration::from_millis(base + rng.next_below(base / 2 + 1))
    }
}

/// Whether a status is worth retrying: overload (429) and server-side
/// failures (5xx) are transient, everything else is final.
pub fn retryable_status(status: u16) -> bool {
    status == 429 || (500..=599).contains(&status)
}

/// Send one request under a retry policy. Returns the first
/// non-retryable outcome, or the last outcome once attempts run out.
pub fn request_with_retry(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    policy: &RetryPolicy,
) -> std::io::Result<(u16, String)> {
    static RETRIES: telemetry::Counter = telemetry::Counter::new("client.retries");
    let mut rng = faultinject::SeededRng::new(policy.seed);
    let attempts = policy.max_attempts.max(1);
    let mut conn = Connection::new(addr);
    let mut last: Option<std::io::Result<(u16, String)>> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            RETRIES.incr();
            std::thread::sleep(policy.backoff(attempt, &mut rng));
        }
        match conn.request_full(method, path, body, &[]) {
            Ok(response) if !retryable_status(response.status) => {
                return Ok((response.status, response.body));
            }
            Ok(response) => last = Some(Ok((response.status, response.body))),
            Err(err) => last = Some(Err(err)),
        }
    }
    last.expect("at least one attempt was made")
}

/// `POST` a JSON body with retries.
pub fn post_with_retry(
    addr: &str,
    path: &str,
    body: &str,
    policy: &RetryPolicy,
) -> std::io::Result<(u16, String)> {
    request_with_retry(addr, "POST", path, body, policy)
}

/// `GET` a path with retries.
pub fn get_with_retry(
    addr: &str,
    path: &str,
    policy: &RetryPolicy,
) -> std::io::Result<(u16, String)> {
    request_with_retry(addr, "GET", path, "", policy)
}

/// A fully-parsed response: status, headers (lowercased names, arrival
/// order) and body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Response headers as `(lowercased-name, trimmed-value)` pairs.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
}

impl Response {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A keep-alive HTTP/1.1 connection. Connects lazily, reuses the socket
/// across sequential requests, and reconnects once (transparently) when
/// a reused socket turns out to be dead — the server may have closed an
/// idle connection between requests.
///
/// [`Connection::send`] and [`Connection::recv`] are split out so
/// callers can pipeline: write a window of requests, then read the
/// responses back in order.
pub struct Connection {
    addr: String,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    pos: usize,
}

impl Connection {
    /// Create a connection to `addr`; no socket is opened until the
    /// first request.
    pub fn new(addr: &str) -> Self {
        Connection { addr: addr.to_string(), stream: None, buf: Vec::new(), pos: 0 }
    }

    /// Whether a socket is currently open (and presumed alive).
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Open the socket now if it is not already open. Lets callers that
    /// time individual requests exclude the connect cost (the load
    /// generator captures its per-request clock at write time).
    pub fn connect(&mut self) -> std::io::Result<()> {
        self.ensure_connected().map(|_| ())
    }

    /// Drop the socket and any buffered bytes; the next request
    /// reconnects.
    pub fn reset(&mut self) {
        self.stream = None;
        self.buf.clear();
        self.pos = 0;
    }

    fn ensure_connected(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            stream.set_write_timeout(Some(Duration::from_secs(30)))?;
            let _ = stream.set_nodelay(true);
            self.buf.clear();
            self.pos = 0;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("stream was just ensured"))
    }

    /// Write one request on the connection without reading the response
    /// (the pipelining half; pair each call with a later [`recv`]).
    ///
    /// [`recv`]: Connection::recv
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<()> {
        let addr = self.addr.clone();
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (name, value) in extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let stream = self.ensure_connected()?;
        let outcome = stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(body.as_bytes()))
            .and_then(|()| stream.flush());
        if outcome.is_err() {
            self.reset();
        }
        outcome
    }

    /// Read one `Content-Length`-framed response off the connection.
    /// A `Connection: close` response is honored by dropping the socket
    /// afterwards, so the next request transparently reconnects.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        match self.read_framed() {
            Ok(response) => {
                if response.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close")) {
                    self.reset();
                } else if self.pos == self.buf.len() {
                    // Fully consumed: recycle the buffer allocation.
                    self.buf.clear();
                    self.pos = 0;
                }
                Ok(response)
            }
            Err(err) => {
                self.reset();
                Err(err)
            }
        }
    }

    fn read_framed(&mut self) -> std::io::Result<Response> {
        let head_end = loop {
            if let Some(at) = find_subsequence(&self.buf[self.pos..], b"\r\n\r\n") {
                break self.pos + at + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[self.pos..head_end]).map_err(invalid_response)?;
        let mut lines = head.lines();
        let status_line = lines.next().ok_or_else(|| invalid_response("missing status line"))?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| invalid_response("bad status line"))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|line| line.split_once(':'))
            .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        let length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[head_end..head_end + length]).into_owned();
        self.pos = head_end + length;
        Ok(Response { status, headers, body })
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotConnected, "not connected"))?;
        let mut chunk = [0u8; 16 * 1024];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Send one request and read its response, reconnecting once if a
    /// *reused* socket fails (it may have been closed by the server
    /// between requests; a fresh-connect failure is propagated as-is).
    pub fn request_full(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<Response> {
        let reused = self.is_connected();
        let first = self.send(method, path, body, extra_headers).and_then(|()| self.recv());
        match first {
            Ok(response) => Ok(response),
            Err(_) if reused => self.send(method, path, body, extra_headers).and_then(|()| self.recv()),
            Err(err) => Err(err),
        }
    }

    /// `POST` a JSON body on the connection; returns `(status, body)`.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let response = self.request_full("POST", path, body, &[])?;
        Ok((response.status, response.body))
    }

    /// `GET` a path on the connection; returns `(status, body)`.
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        let response = self.request_full("GET", path, "", &[])?;
        Ok((response.status, response.body))
    }
}

fn invalid_response(detail: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad HTTP response: {detail}"))
}

fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|window| window == needle)
}

/// Send one request on a fresh connection and return `(status, body)`.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let response = request_full(addr, method, path, body, &[])?;
    Ok((response.status, response.body))
}

/// Send one request with extra headers (e.g. `X-Trace-Id`) on a fresh
/// `Connection: close` connection and return the full response, headers
/// included — the observability smoke asserts on the echoed ids.
pub fn request_full(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<Response> {
    let mut headers = extra_headers.to_vec();
    headers.push(("Connection", "close"));
    let mut conn = Connection::new(addr);
    conn.send(method, path, body, &headers)?;
    conn.recv()
}

/// `POST` a JSON body.
pub fn post(addr: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    request(addr, "POST", path, body)
}

/// `GET` a path.
pub fn get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    request(addr, "GET", path, "")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-shot server answering each accepted connection with the next
    /// canned response; returns the request heads it read.
    fn canned_server(responses: Vec<Vec<u8>>) -> (String, std::thread::JoinHandle<Vec<String>>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let mut requests = Vec::new();
            for response in responses {
                let Ok((mut stream, _)) = listener.accept() else { break };
                let mut buf = [0u8; 4096];
                let n = stream.read(&mut buf).unwrap_or(0);
                requests.push(String::from_utf8_lossy(&buf[..n]).into_owned());
                let _ = stream.write_all(&response);
            }
            requests
        });
        (addr, handle)
    }

    /// Canned `Connection: close` responses with these statuses.
    fn statuses(codes: &[u16]) -> Vec<Vec<u8>> {
        codes
            .iter()
            .map(|status| {
                format!("HTTP/1.1 {status} X\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{{}}")
                    .into_bytes()
            })
            .collect()
    }

    #[test]
    fn parses_a_canned_response() {
        let ok = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}";
        let (addr, _) = canned_server(vec![ok.to_vec()]);
        assert_eq!(get(&addr, "/health").unwrap(), (200, "{}".to_string()));
        let (addr, _) = canned_server(vec![b"garbage".to_vec()]);
        assert!(get(&addr, "/health").is_err());
    }

    #[test]
    fn full_parse_captures_response_headers() {
        let shed = b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\
                     X-Trace-Id: deadbeefcafef00d\r\n\r\n{}";
        let (addr, requests) = canned_server(vec![shed.to_vec()]);
        let response =
            request_full(&addr, "GET", "/health", "", &[("X-Request-Id", "r1")]).unwrap();
        assert_eq!(response.status, 429);
        assert_eq!(response.header("x-trace-id"), Some("deadbeefcafef00d"));
        assert_eq!(response.header("X-TRACE-ID"), Some("deadbeefcafef00d"));
        assert_eq!(response.header("absent"), None);
        assert_eq!(response.body, "{}");
        let requests = requests.join().unwrap();
        assert!(requests[0].contains("X-Request-Id: r1\r\n"), "{}", requests[0]);
        assert!(requests[0].contains("Connection: close\r\n"), "{}", requests[0]);
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy { max_attempts: 4, base_delay_ms: 1, max_delay_ms: 4, seed: 7 }
    }

    #[test]
    fn retries_past_transient_server_errors() {
        let (addr, served) = canned_server(statuses(&[500, 429, 200]));
        let (status, body) = get_with_retry(&addr, "/health", &fast_policy()).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{}");
        assert_eq!(served.join().unwrap().len(), 3, "two retries consumed");
    }

    #[test]
    fn gives_up_with_last_response_after_max_attempts() {
        let (addr, served) = canned_server(statuses(&[503, 503, 503, 503]));
        let (status, _) = get_with_retry(&addr, "/health", &fast_policy()).unwrap();
        assert_eq!(status, 503, "exhausted retries surface the last response");
        assert_eq!(served.join().unwrap().len(), 4);
    }

    #[test]
    fn client_errors_are_not_retried() {
        let (addr, served) = canned_server(statuses(&[400]));
        let (status, _) = get_with_retry(&addr, "/health", &fast_policy()).unwrap();
        assert_eq!(status, 400);
        assert_eq!(served.join().unwrap().len(), 1, "a 4xx must not be retried");
    }

    #[test]
    fn connect_failures_retry_then_error() {
        // Bind then drop to get a port with (very likely) nothing on it.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let policy = RetryPolicy { max_attempts: 2, ..fast_policy() };
        assert!(get_with_retry(&addr, "/health", &policy).is_err());
    }

    /// A server answering `total` keep-alive responses on however many
    /// connections clients open; returns how many connections were
    /// accepted.
    fn keepalive_server(total: usize) -> (String, std::thread::JoinHandle<usize>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let mut conns = 0;
            let mut remaining = total;
            while remaining > 0 {
                let Ok((mut stream, _)) = listener.accept() else { break };
                conns += 1;
                let mut pending = Vec::new();
                while remaining > 0 {
                    let mut chunk = [0u8; 4096];
                    let Ok(n) = stream.read(&mut chunk) else { break };
                    if n == 0 {
                        break;
                    }
                    pending.extend_from_slice(&chunk[..n]);
                    // Answer one response per complete request head.
                    while remaining > 0 {
                        let Some(at) = pending.windows(4).position(|w| w == b"\r\n\r\n") else {
                            break;
                        };
                        pending.drain(..at + 4);
                        let body = format!("{{\"n\":{}}}", total - remaining);
                        let response = format!(
                            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                            body.len()
                        );
                        stream.write_all(response.as_bytes()).unwrap();
                        remaining -= 1;
                    }
                }
            }
            conns
        });
        (addr, handle)
    }

    #[test]
    fn connection_reuses_one_socket_for_sequential_requests() {
        let (addr, conns) = keepalive_server(3);
        let mut conn = Connection::new(&addr);
        for n in 0..3 {
            let (status, body) = conn.get("/health").unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, format!("{{\"n\":{n}}}"));
        }
        drop(conn);
        assert_eq!(conns.join().unwrap(), 1, "all three requests shared one connection");
    }

    #[test]
    fn connection_pipelines_a_window_of_requests() {
        let (addr, conns) = keepalive_server(4);
        let mut conn = Connection::new(&addr);
        for _ in 0..4 {
            conn.send("GET", "/health", "", &[]).unwrap();
        }
        for n in 0..4 {
            let response = conn.recv().unwrap();
            assert_eq!(response.status, 200);
            assert_eq!(response.body, format!("{{\"n\":{n}}}"), "responses arrive in order");
        }
        drop(conn);
        assert_eq!(conns.join().unwrap(), 1);
    }

    #[test]
    fn connection_reconnects_when_the_server_closes() {
        // Each canned response carries `Connection: close`, so the
        // client must transparently reconnect between requests.
        let (addr, served) = canned_server(statuses(&[200, 200]));
        let mut conn = Connection::new(&addr);
        assert_eq!(conn.get("/health").unwrap().0, 200);
        assert!(!conn.is_connected(), "close response drops the socket");
        assert_eq!(conn.get("/health").unwrap().0, 200);
        assert_eq!(served.join().unwrap().len(), 2);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy { max_attempts: 8, base_delay_ms: 10, max_delay_ms: 80, seed: 42 };
        let draw = || {
            let mut rng = faultinject::SeededRng::new(policy.seed);
            (1..8).map(|n| policy.backoff(n, &mut rng).as_millis()).collect::<Vec<_>>()
        };
        let first = draw();
        assert_eq!(first, draw(), "same seed, same backoff schedule");
        for (i, ms) in first.iter().enumerate() {
            let base = (10u64 << i.min(16)).min(80);
            assert!(*ms >= base as u128 && *ms <= (base + base / 2) as u128, "retry {i}: {ms}ms");
        }
    }
}
