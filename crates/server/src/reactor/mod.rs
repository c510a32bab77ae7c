//! The epoll reactor (Linux only): the event-driven transport behind the
//! daemon. One thread runs the event loop and owns the listener and
//! every connection outright — it accepts on readiness, reads
//! non-blockingly into growable buffers, parses with the incremental
//! zero-copy parser from [`crate::http`], keeps connections alive and
//! pipelined with a bounded in-flight depth, and writes responses
//! strictly in request order. Analysis work runs on the server's one
//! worker pool; finished responses come back through the loop's
//! [`Inbox`], whose eventfd wakes `epoll_wait`, so the loop never polls
//! blind.
//!
//! Ordering guarantee: each parsed request reserves a response slot in
//! arrival order; workers may finish out of order but
//! `Conn::collect_ready` only releases the contiguous completed
//! prefix, so pipelined responses are written back in request order.

mod conn;
mod sys;

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::http::{self, HttpError, Parsed, ReqView};
use conn::Conn;
use sys::{Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Epoll token reserved for the inbox's wake eventfd.
const WAKE_TOKEN: u64 = u64::MAX;

/// Epoll token reserved for the listener.
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Bytes per read call; level-triggered epoll re-arms if more is
/// pending, so a bounded chunk keeps one chatty peer from starving the
/// other connections.
const READ_CHUNK: usize = 16 * 1024;

/// Connections accepted per loop turn at most; level-triggered epoll
/// re-reports a listener with more pending, so a connect storm cannot
/// starve the connections already open.
const ACCEPT_BATCH: usize = 64;

/// How long the listener stays out of the interest set after an accept
/// error that no retry can clear at once (out of descriptors, buffers
/// or memory): the backlog stays readable, so polling it sooner would
/// spin the loop.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Longest `epoll_wait` in milliseconds, so read deadlines, the accept
/// backoff and a drain flag set without a wake (a signal delivered to
/// another thread) are all seen within it.
const POLL_CAP_MS: i32 = 250;

static ACCEPTED: telemetry::Counter = telemetry::Counter::new("server.accepted");
static ACCEPT_ERRORS: telemetry::Counter = telemetry::Counter::new("server.accept_errors");
static CONNS: telemetry::Gauge = telemetry::Gauge::new("server.conns");
static INFLIGHT: telemetry::Gauge = telemetry::Gauge::new("server.inflight");

/// How a handler disposed of one parsed request.
pub enum Dispatch {
    /// The response was produced synchronously (shed 429s and other
    /// fast-fail paths); the loop fills the slot immediately.
    Inline(Vec<u8>),
    /// The request was submitted to a worker pool; a completion carrying
    /// the same `(token, seq)` will arrive on the inbox.
    Submitted,
}

/// A finished response travelling from a worker back to the loop.
struct Completion {
    /// Connection token the response belongs to.
    token: u64,
    /// Response-slot sequence number on that connection.
    seq: u64,
    /// The rendered response bytes, or `None` if the worker died before
    /// producing one (a panic that escaped the request job) — the loop
    /// closes the connection so the client sees a hard error rather
    /// than a hang.
    payload: Option<Vec<u8>>,
}

/// The service half the loop drives: routing, metrics, logging, worker
/// dispatch. Implemented in `lib.rs`; the reactor stays transport-only.
pub trait Handler {
    /// Dispose of one parsed request. `keep_alive` is the negotiated
    /// persistence after drain gating — inline responses must be
    /// rendered with a matching `Connection` header.
    fn handle(&self, view: &ReqView<'_>, token: u64, seq: u64, keep_alive: bool) -> Dispatch;

    /// Render the terminal response for a protocol error (400/413).
    /// The connection closes after it flushes.
    fn protocol_error(&self, err: &HttpError) -> Vec<u8>;

    /// Render the 408 sent when a partial request outlives the read
    /// deadline (slowloris). The connection closes after it flushes.
    fn read_timeout_response(&self) -> Vec<u8>;

    /// Whether the server is draining: the listener closes, new requests
    /// are answered with `Connection: close` and idle connections are
    /// shut.
    fn draining(&self) -> bool;
}

/// The loop's completion queue plus the eventfd that wakes it.
pub struct Inbox {
    completions: Mutex<Vec<Completion>>,
    wake: WakeFd,
}

/// Recover the guarded value even if a holder panicked; the queue stays
/// structurally valid across a poison.
fn relock<'a, T>(mutex: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Inbox {
    /// Create an inbox with a fresh eventfd.
    pub fn new() -> io::Result<Arc<Self>> {
        Ok(Arc::new(Inbox { completions: Mutex::new(Vec::new()), wake: WakeFd::new()? }))
    }

    /// Deliver a finished response (worker side).
    fn complete(&self, completion: Completion) {
        relock(&self.completions).push(completion);
        self.wake.wake();
    }

    fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *relock(&self.completions))
    }

    /// Wake the loop without enqueueing anything, so it re-checks the
    /// drain flag at once.
    pub fn notify(&self) {
        self.wake.wake();
    }
}

/// Sends exactly one completion for a dispatched request: the happy
/// path calls [`CompletionGuard::send`]; if the request job panics and
/// unwinds instead, `Drop` reports a `None` payload so the loop closes
/// the connection rather than leaving a slot forever unfilled.
///
/// Construct the guard as the *first* statement of the worker job — a
/// queued job that is rejected or discarded before running then sends
/// nothing, which is correct because the submitter handled the request
/// inline (e.g. the 429 shed path).
pub struct CompletionGuard {
    inbox: Arc<Inbox>,
    token: u64,
    seq: u64,
    sent: bool,
}

impl CompletionGuard {
    /// Arm a guard for `(token, seq)` on `inbox`.
    pub fn new(inbox: Arc<Inbox>, token: u64, seq: u64) -> Self {
        CompletionGuard { inbox, token, seq, sent: false }
    }

    /// Deliver the response and defuse the guard.
    pub fn send(mut self, response: Vec<u8>) {
        self.sent = true;
        self.inbox
            .complete(Completion { token: self.token, seq: self.seq, payload: Some(response) });
    }
}

impl Drop for CompletionGuard {
    fn drop(&mut self) {
        if !self.sent {
            self.inbox
                .complete(Completion { token: self.token, seq: self.seq, payload: None });
        }
    }
}

/// Reactor tuning knobs.
#[derive(Clone, Copy)]
pub struct Config {
    /// How long a partial request may sit in the read buffer before the
    /// loop answers 408 and closes (slowloris bound).
    pub read_timeout: Duration,
    /// Maximum pipelined requests in flight per connection; reads pause
    /// (TCP backpressure) while a connection is at the cap.
    pub max_pipeline: usize,
}

/// The event loop: one epoll instance over the listener, the inbox's
/// eventfd and every connection. Run it with [`Reactor::run`].
pub struct Reactor<H: Handler> {
    epoll: Epoll,
    /// Closed (`None`) once draining starts.
    listener: Option<TcpListener>,
    /// Set while an accept error keeps the listener out of the interest
    /// set: when to poll it again.
    accept_paused_until: Option<Instant>,
    inbox: Arc<Inbox>,
    handler: H,
    cfg: Config,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Requests submitted to the pool whose completion has not been
    /// drained yet.
    inflight: usize,
}

impl<H: Handler> Reactor<H> {
    /// Build the loop over `listener` and register the listener and the
    /// inbox's wakeup with epoll.
    pub fn new(
        listener: TcpListener,
        inbox: Arc<Inbox>,
        handler: H,
        cfg: Config,
    ) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(inbox.wake.raw(), EPOLLIN, WAKE_TOKEN)?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
        Ok(Reactor {
            epoll,
            listener: Some(listener),
            accept_paused_until: None,
            inbox,
            handler,
            cfg,
            conns: HashMap::new(),
            next_token: 0,
            inflight: 0,
        })
    }

    /// The event loop. Returns when the handler reports draining and
    /// every owned connection has finished and closed; returns an error
    /// only when epoll itself fails.
    pub fn run(mut self) -> io::Result<()> {
        let mut events = vec![EpollEvent { events: 0, token: 0 }; 256];
        loop {
            let ready = self.epoll.wait(&mut events, self.poll_timeout())?.len();
            // Drain the wake counter BEFORE taking completions: a worker
            // that enqueues after the drain leaves a fresh wake behind,
            // so nothing is ever lost (a stale extra wake merely causes
            // one empty loop turn).
            self.inbox.wake.drain();
            for completion in self.inbox.take_completions() {
                self.apply_completion(completion);
            }
            for event in &events[..ready] {
                // Copy packed fields by value (no references into the
                // packed struct).
                let (token, mask) = (event.token, event.events);
                match token {
                    WAKE_TOKEN => {}
                    LISTENER_TOKEN => self.accept_ready()?,
                    _ => self.handle_event(token, mask),
                }
            }
            self.sweep_deadlines();
            if self.handler.draining() {
                // Closing the listener takes it out of the interest set.
                self.listener = None;
                self.accept_paused_until = None;
                self.close_idle();
                if self.conns.is_empty() {
                    break;
                }
            } else if self.accept_paused_until.is_some_and(|until| until <= Instant::now()) {
                // The backoff has passed: poll the listener again.
                if let Some(listener) = &self.listener {
                    self.epoll.modify(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
                }
                self.accept_paused_until = None;
            }
            CONNS.set(self.conns.len() as u64);
            INFLIGHT.set(self.inflight as u64);
        }
        Ok(())
    }

    /// Wait bound: the nearest read deadline or accept backoff, capped
    /// at [`POLL_CAP_MS`].
    fn poll_timeout(&self) -> i32 {
        let now = Instant::now();
        self.conns
            .values()
            .filter_map(|c| c.read_deadline)
            .chain(self.accept_paused_until)
            .map(|d| d.saturating_duration_since(now).as_millis().min(POLL_CAP_MS as u128) as i32)
            .min()
            .unwrap_or(POLL_CAP_MS)
    }

    /// Accept up to [`ACCEPT_BATCH`] pending connections. An error that
    /// belongs to one connection skips it; any other (out of descriptors,
    /// buffers or memory) takes the listener out of the interest set for
    /// [`ACCEPT_BACKOFF`], and the loop serves the connections it has.
    fn accept_ready(&mut self) -> io::Result<()> {
        for _ in 0..ACCEPT_BATCH {
            let Some(listener) = &self.listener else { return Ok(()) };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    ACCEPTED.incr();
                    self.register(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => {
                    ACCEPT_ERRORS.incr();
                    self.epoll.modify(listener.as_raw_fd(), 0, LISTENER_TOKEN)?;
                    self.accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        let mut conn = Conn::new(stream, token);
        conn.interest = EPOLLIN | EPOLLRDHUP;
        if self.epoll.add(conn.stream.as_raw_fd(), conn.interest, token).is_err() {
            return; // dropping the stream closes it
        }
        self.conns.insert(token, conn);
    }

    fn apply_completion(&mut self, completion: Completion) {
        self.inflight = self.inflight.saturating_sub(1);
        let Some(conn) = self.conns.get_mut(&completion.token) else {
            return; // connection died while the worker ran
        };
        match completion.payload {
            Some(response) => {
                conn.fill_slot(completion.seq, response);
                self.pump(completion.token);
            }
            None => {
                // The worker panicked mid-request: the response order
                // can never be completed, so fail the whole connection
                // loudly (dropping the stream closes the socket).
                self.conns.remove(&completion.token);
            }
        }
    }

    fn handle_event(&mut self, token: u64, mask: u32) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            self.conns.remove(&token);
            return;
        }
        if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        // Peer finished sending; serve what is buffered
                        // and in flight, then close.
                        conn.closing = true;
                        conn.read_deadline = None;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.conns.remove(&token);
                        return;
                    }
                }
            }
        }
        self.pump(token);
    }

    /// Make all possible progress on one connection: parse buffered
    /// requests up to the pipeline cap, release ordered responses,
    /// flush, and resynchronize epoll interest. Removes the connection
    /// when it reaches its end state.
    fn pump(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let now = Instant::now();
        // Releasing a slot can unblock a request parked at the pipeline
        // cap, which no socket event will report again once its bytes
        // are buffered: parse and release until neither moves.
        loop {
            self.inflight += progress(&self.handler, &self.cfg, conn, now);
            let held = conn.slots.len();
            conn.collect_ready();
            if conn.slots.len() == held {
                break;
            }
        }
        let alive = flush_conn(conn);
        if !alive || (conn.closing && conn.idle() && conn.unparsed().is_empty()) {
            self.conns.remove(&token);
            return;
        }
        let _ = sync_interest(&self.epoll, &self.cfg, conn);
    }

    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.read_deadline.is_some_and(|d| d <= now))
            .map(|(t, _)| *t)
            .collect();
        for token in expired {
            let response = self.handler.read_timeout_response();
            let Some(conn) = self.conns.get_mut(&token) else { continue };
            conn.read_deadline = None;
            conn.closing = true;
            let seq = conn.push_slot(true);
            conn.fill_slot(seq, response);
            self.pump(token);
        }
    }

    fn close_idle(&mut self) {
        self.conns.retain(|_, conn| !(conn.idle() && conn.unparsed().is_empty()));
    }
}

/// Parse-and-dispatch loop over one connection's buffered bytes.
/// Returns how many requests it submitted to the pool.
fn progress<H: Handler>(handler: &H, cfg: &Config, conn: &mut Conn, now: Instant) -> usize {
    let mut submitted = 0;
    while !conn.closing && conn.slots.len() < cfg.max_pipeline {
        // Move the buffer out so the borrowed view and mutations of
        // `conn` coexist; moved back before every exit from the loop.
        let buf = std::mem::take(&mut conn.read_buf);
        match http::parse_request_bytes(&buf[conn.read_pos..]) {
            Ok(Parsed::Partial) => {
                conn.read_buf = buf;
                if conn.unparsed().is_empty() {
                    conn.read_deadline = None;
                } else if conn.read_deadline.is_none() {
                    // Arm the slowloris clock: a partial request now
                    // has `read_timeout` to finish arriving.
                    conn.read_deadline = Some(now + cfg.read_timeout);
                }
                break;
            }
            Ok(Parsed::Complete { view, consumed }) => {
                let keep = view.keep_alive && !handler.draining();
                let seq = conn.push_slot(!keep);
                match handler.handle(&view, conn.token, seq, keep) {
                    Dispatch::Inline(bytes) => {
                        conn.fill_slot(seq, bytes);
                    }
                    Dispatch::Submitted => submitted += 1,
                }
                conn.read_buf = buf;
                conn.consume(consumed);
                conn.read_deadline = None;
                if !keep {
                    conn.closing = true;
                }
            }
            Err(err) => {
                let bytes = handler.protocol_error(&err);
                conn.read_buf = buf;
                let seq = conn.push_slot(true);
                conn.fill_slot(seq, bytes);
                conn.closing = true;
                conn.read_deadline = None;
                break;
            }
        }
    }
    submitted
}

/// Write as much of the backlog as the socket accepts. Returns false
/// when the connection should be dropped.
fn flush_conn(conn: &mut Conn) -> bool {
    while !conn.pending_write().is_empty() {
        let window = conn.write_pos..conn.write_buf.len();
        match conn.stream.write(&conn.write_buf[window]) {
            Ok(0) => return false,
            Ok(n) => conn.advance_write(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    !(conn.flushed() && conn.close_when_flushed)
}

/// Re-register the interest mask the connection currently needs: reads
/// pause at the pipeline cap (or once closing), writes arm only while a
/// backlog is pending.
fn sync_interest(epoll: &Epoll, cfg: &Config, conn: &mut Conn) -> io::Result<()> {
    let mut desired = 0u32;
    if !conn.closing && conn.slots.len() < cfg.max_pipeline {
        desired |= EPOLLIN | EPOLLRDHUP;
    }
    if !conn.flushed() {
        desired |= EPOLLOUT;
    }
    if desired != conn.interest {
        epoll.modify(conn.stream.as_raw_fd(), desired, conn.token)?;
        conn.interest = desired;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Echo handler: responds inline with the request path; no pool.
    struct Echo {
        draining: Arc<AtomicBool>,
    }

    impl Handler for Echo {
        fn handle(&self, view: &ReqView<'_>, _t: u64, _s: u64, keep_alive: bool) -> Dispatch {
            Dispatch::Inline(http::render_response(
                200,
                "text/plain",
                view.path,
                &[],
                keep_alive,
            ))
        }
        fn protocol_error(&self, err: &HttpError) -> Vec<u8> {
            let status = if matches!(err, HttpError::TooLarge) { 413 } else { 400 };
            http::render_response(status, "text/plain", "bad", &[], false)
        }
        fn read_timeout_response(&self) -> Vec<u8> {
            http::render_response(408, "text/plain", "slow", &[], false)
        }
        fn draining(&self) -> bool {
            self.draining.load(Ordering::SeqCst)
        }
    }

    /// A running echo loop: the flag and inbox that stop it, its thread
    /// and its address.
    struct Running {
        draining: Arc<AtomicBool>,
        inbox: Arc<Inbox>,
        thread: std::thread::JoinHandle<()>,
        addr: std::net::SocketAddr,
    }

    fn start_echo(cfg: Config) -> Running {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let inbox = Inbox::new().unwrap();
        let draining = Arc::new(AtomicBool::new(false));
        let handler = Echo { draining: Arc::clone(&draining) };
        let reactor = Reactor::new(listener, Arc::clone(&inbox), handler, cfg).unwrap();
        let thread = std::thread::spawn(move || reactor.run().unwrap());
        Running { draining, inbox, thread, addr }
    }

    fn default_cfg() -> Config {
        Config { read_timeout: Duration::from_secs(5), max_pipeline: 32 }
    }

    fn read_until_close(stream: &mut TcpStream) -> String {
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    }

    fn stop(running: Running) {
        running.draining.store(true, Ordering::SeqCst);
        running.inbox.notify();
        running.thread.join().unwrap();
    }

    #[test]
    fn serves_pipelined_requests_in_order() {
        let running = start_echo(default_cfg());
        let mut stream = TcpStream::connect(running.addr).unwrap();
        let burst =
            "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\nConnection: close\r\n\r\n";
        stream.write_all(burst.as_bytes()).unwrap();
        let text = read_until_close(&mut stream);
        let a = text.find("\r\n\r\n/a").expect("/a echoed");
        let b = text.find("\r\n\r\n/b").expect("/b echoed");
        let c = text.find("\r\n\r\n/c").expect("/c echoed");
        assert!(a < b && b < c, "responses out of order: {text}");
        stop(running);
    }

    #[test]
    fn keep_alive_survives_sequential_requests() {
        let running = start_echo(default_cfg());
        let mut stream = TcpStream::connect(running.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 4096];
        for path in ["/one", "/two", "/three"] {
            stream
                .write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
                .unwrap();
            let n = stream.read(&mut buf).unwrap();
            let text = String::from_utf8_lossy(&buf[..n]);
            assert!(text.contains("Connection: keep-alive"), "{text}");
            assert!(text.ends_with(path), "{text}");
        }
        stop(running);
    }

    #[test]
    fn buffered_requests_past_the_pipeline_cap_are_all_answered() {
        // Every request arrives in one segment and is answered inline,
        // so no later read or completion would wake the parked ones.
        let running = start_echo(Config { max_pipeline: 2, ..default_cfg() });
        let mut stream = TcpStream::connect(running.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut burst: String = (0..6).map(|i| format!("GET /{i} HTTP/1.1\r\n\r\n")).collect();
        burst.push_str("GET /last HTTP/1.1\r\nConnection: close\r\n\r\n");
        stream.write_all(burst.as_bytes()).unwrap();
        let text = read_until_close(&mut stream);
        assert_eq!(text.matches("HTTP/1.1 200").count(), 7, "{text}");
        assert!(text.ends_with("/last"), "{text}");
        stop(running);
    }

    #[test]
    fn slow_header_trickle_gets_408_and_close() {
        let mut cfg = default_cfg();
        cfg.read_timeout = Duration::from_millis(120);
        let running = start_echo(cfg);
        let mut stream = TcpStream::connect(running.addr).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\nX-Slow:").unwrap();
        let text = read_until_close(&mut stream);
        assert!(text.starts_with("HTTP/1.1 408"), "{text}");
        assert!(text.contains("Connection: close"), "{text}");
        stop(running);
    }

    #[test]
    fn drain_closes_idle_connections_and_stops() {
        let running = start_echo(default_cfg());
        let mut stream = TcpStream::connect(running.addr).unwrap();
        stream.write_all(b"GET /x HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = [0u8; 1024];
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = stream.read(&mut buf).unwrap();
        // Idle keep-alive connection is open; drain must close it and
        // let run() return.
        stop(running);
        assert_eq!(stream.read(&mut buf).unwrap(), 0, "server closed the idle conn");
    }
}
