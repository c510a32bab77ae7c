//! The epoll reactor (Linux only): the event-driven transport behind the
//! daemon. A server runs one event loop per worker, and each loop owns
//! its connections outright for their whole life: it reads them
//! non-blockingly into growable buffers, parses with the incremental
//! zero-copy parser from [`crate::http`], runs every request it parsed on
//! its own thread, and writes the responses strictly in request order,
//! keeping connections alive and pipelined with a bounded in-flight
//! depth. Every loop also polls the listening socket through a handle
//! of its own, so a loop busy with a slow request never holds up
//! accepting: whichever loop accepts a connection hands it to the least
//! busy loop through that loop's inbox, whose eventfd wakes `epoll_wait`,
//! so no loop polls blind. The loops share nothing else but the counts and
//! the drain flag in [`Loops`]. An idle loop waits for an event, a wake or
//! its nearest deadline, and for nothing else.
//!
//! A turn parses every ready request first, then runs them in arrival
//! order and flushes each response as soon as it is rendered. Each
//! parsed request queues its answer in arrival order, and
//! `Conn::collect_ready` only releases the answered prefix, so pipelined
//! responses are written back in request order. One rule,
//! `Conn::finished`, closes a connection.

mod conn;
pub(crate) mod sys;

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

static ACCEPTED: telemetry::Counter = telemetry::Counter::new("server.accepted");
static ACCEPT_ERRORS: telemetry::Counter = telemetry::Counter::new("server.accept_errors");
static RESPAWNS: telemetry::Counter = telemetry::Counter::new("pool.respawns");
static CONNS: telemetry::Gauge = telemetry::Gauge::new("server.conns");
static INFLIGHT: telemetry::Gauge = telemetry::Gauge::new("server.inflight");
/// Time from a connection's write backlog becoming non-empty to the
/// flush that drains it.
static WRITE: telemetry::Stage = telemetry::Stage::new("write");

/// The service half the loops drive: turning parsed requests into jobs,
/// running them, and rendering the responses the transport sends on its
/// own. Implemented in `lib.rs`; the reactor knows no routes.
pub trait Handler {
    /// A parsed request, owned, waiting for its run.
    type Job;

    /// Take one parsed request off the read buffer; the loop runs it
    /// later in the same turn. `keep_alive` is the negotiated persistence
    /// after drain gating — the response must be rendered with a
    /// matching `Connection` header.
    fn prepare(&self, view: &ReqView<'_>, keep_alive: bool) -> Self::Job;

    /// Run one job and render its response. A panic closes the job's
    /// connection.
    fn run(&self, job: Self::Job) -> Vec<u8>;

    /// Render the 429 a request parsed past the queue bound gets.
    fn overloaded(&self, view: &ReqView<'_>, keep_alive: bool) -> Vec<u8>;

    /// Render the terminal response for a protocol error (400/413).
    /// The connection closes after it flushes.
    fn protocol_error(&self, err: &HttpError) -> Vec<u8>;

    /// Render the 408 sent when a partial request outlives the read
    /// deadline (slowloris). The connection closes after it flushes.
    fn read_timeout_response(&self) -> Vec<u8>;
}

/// What the event loops of one server share: each loop's inbox, the
/// drain flag, the server-wide request counts behind the queue bound and
/// `/health`, and the count of runs that panicked.
pub struct Loops {
    inboxes: Box<[Inbox]>,
    /// Set once by [`Loops::stop`]: the listener closes, new requests are
    /// answered with `Connection: close` and idle connections are shut.
    draining: AtomicBool,
    /// Most requests parsed but not yet answered, across every loop; a
    /// request parsed past it is answered 429.
    capacity: usize,
    /// Requests parsed but not yet answered.
    pending: AtomicUsize,
    /// Requests parsed but not yet run.
    queued: AtomicUsize,
    /// Runs that panicked; each closed its connection.
    panics: AtomicU64,
}

/// One loop's inbox: the connections the accepting loop hands it, how
/// many requests and connections it owns, and the eventfd that wakes it.
struct Inbox {
    /// Requests this loop parsed and has not yet answered; every request
    /// writes it twice, so no other field shares its cache line.
    unanswered: Padded,
    accepted: Mutex<Vec<TcpStream>>,
    /// Connections handed to this loop and not yet closed.
    conns: AtomicUsize,
    wake: WakeFd,
}

/// A counter alone on its cache line (two: x86 prefetches them in pairs).
#[repr(align(128))]
struct Padded(AtomicUsize);

/// Recover the guarded value even if a holder panicked; the list stays
/// structurally valid across a poison.
fn relock<'a, T>(mutex: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Loops {
    /// The shared state of `count` loops (at least one) under a queue
    /// bound of `capacity` requests (at least one).
    pub fn new(count: usize, capacity: usize) -> io::Result<Arc<Loops>> {
        let inboxes = (0..count.max(1))
            .map(|_| {
                Ok(Inbox {
                    unanswered: Padded(AtomicUsize::new(0)),
                    accepted: Mutex::default(),
                    conns: AtomicUsize::new(0),
                    wake: WakeFd::new()?,
                })
            })
            .collect::<io::Result<_>>()?;
        Ok(Arc::new(Loops {
            inboxes,
            draining: AtomicBool::new(false),
            capacity: capacity.max(1),
            pending: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            panics: AtomicU64::new(0),
        }))
    }

    /// How many loops share this state.
    pub fn count(&self) -> usize {
        self.inboxes.len()
    }

    /// The queue bound in force (at least one).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Start the drain: set the flag and wake every loop, so each closes
    /// its handle on the listener at once.
    pub fn stop(&self) {
        self.draining.store(true, Ordering::SeqCst);
        for inbox in self.inboxes.iter() {
            inbox.wake.wake();
        }
    }

    /// Whether [`Loops::stop`] has been called.
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Requests parsed but not yet run, across every loop.
    pub fn queued(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// Runs that panicked, across every loop.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Close every connection still waiting in an inbox. Call once every
    /// loop has returned: a loop can hand a connection it accepted while
    /// the drain began to a loop that had already stopped.
    pub fn close_unclaimed(&self) {
        for inbox in self.inboxes.iter() {
            relock(&inbox.accepted).clear();
        }
    }

    /// Count one more request parsed by loop `index`, unless `capacity`
    /// are already waiting for their answer.
    fn admit(&self, index: usize) -> bool {
        let capacity = self.capacity;
        let admitted = self
            .pending
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < capacity).then_some(n + 1))
            .is_ok();
        if admitted {
            self.queued.fetch_add(1, Ordering::Relaxed);
            self.inboxes[index].unanswered.0.fetch_add(1, Ordering::Relaxed);
        }
        admitted
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

/// One event loop: an epoll instance over its inbox's eventfd, its
/// handle on the listener and its connections. Run it with
/// [`Reactor::run`].
pub struct Reactor<H: Handler> {
    epoll: Epoll,
    /// This loop's place in `loops`.
    index: usize,
    loops: Arc<Loops>,
    /// This loop's handle on the listening socket, closed (`None`) once
    /// draining starts.
    listener: Option<TcpListener>,
    /// Set while an accept error keeps the listener out of the interest
    /// set: when to poll it again.
    accept_paused_until: Option<Instant>,
    handler: H,
    cfg: Config,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Requests parsed and not yet run, in arrival order, each with its
    /// connection's token.
    parsed: Vec<(u64, H::Job)>,
    /// The buffer every read of this loop lands in first.
    chunk: Box<[u8]>,
}

impl<H: Handler> Reactor<H> {
    /// Build loop `index` of `loops` and register its inbox's wakeup
    /// and its handle on the listening socket with epoll. The
    /// registration is level-triggered and not exclusive: a new
    /// connection wakes every idle loop, one accepts it and the others
    /// find nothing to accept.
    pub fn new(
        index: usize,
        listener: TcpListener,
        loops: Arc<Loops>,
        handler: H,
        cfg: Config,
    ) -> io::Result<Self> {
        let epoll = Epoll::new()?;
        epoll.add(loops.inboxes[index].wake.raw(), EPOLLIN, WAKE_TOKEN)?;
        listener.set_nonblocking(true)?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
        Ok(Reactor {
            epoll,
            index,
            loops,
            listener: Some(listener),
            accept_paused_until: None,
            handler,
            cfg,
            conns: HashMap::new(),
            next_token: 0,
            parsed: Vec::new(),
            chunk: vec![0u8; READ_CHUNK].into_boxed_slice(),
        })
    }

    /// The event loop. Returns once the loops are draining and every
    /// owned connection has finished and closed; returns an error only
    /// when epoll itself fails.
    pub fn run(mut self) -> io::Result<()> {
        let mut events = vec![EpollEvent { events: 0, token: 0 }; 256];
        loop {
            // Requests a run released from the pipeline window wait for
            // no socket event: they run in the next turn at once.
            let timeout = if self.parsed.is_empty() { self.poll_timeout() } else { 0 };
            let ready = self.epoll.wait(&mut events, timeout)?.len();
            for event in &events[..ready] {
                // Copy packed fields by value (no references into the
                // packed struct).
                let (token, mask) = (event.token, event.events);
                match token {
                    WAKE_TOKEN => self.take_hand_offs(),
                    LISTENER_TOKEN => self.accept_ready()?,
                    _ => self.handle_event(token, mask),
                }
            }
            if telemetry::enabled() {
                // Set between the reads and the runs, so a scrape run in
                // this turn counts itself among the requests in flight.
                let conns = self.loops.inboxes.iter().map(|i| i.conns.load(Ordering::Relaxed));
                CONNS.set(conns.sum::<usize>() as u64);
                INFLIGHT.set(self.loops.pending.load(Ordering::Relaxed) as u64);
            }
            self.run_parsed();
            self.sweep_deadlines();
            if self.loops.draining() {
                // Closing the listener takes it out of the interest set.
                self.listener = None;
                self.accept_paused_until = None;
                // The drain path: the close rule, idle connections included.
                let before = self.conns.len();
                self.conns.retain(|_, conn| !conn.finished(true));
                self.inbox().conns.fetch_sub(before - self.conns.len(), Ordering::Relaxed);
                if self.conns.is_empty() && self.parsed.is_empty() {
                    break;
                }
            } else if self.accept_paused_until.is_some_and(|until| until <= Instant::now()) {
                // The backoff has passed: poll the listener again.
                if let Some(listener) = &self.listener {
                    self.epoll.modify(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
                }
                self.accept_paused_until = None;
            }
        }
        Ok(())
    }

    fn inbox(&self) -> &Inbox {
        &self.loops.inboxes[self.index]
    }

    /// Register the connections handed to this loop. Drains the wake
    /// counter BEFORE taking them: a hand-off after the drain leaves a
    /// fresh wake behind, so nothing is ever lost (a stale extra wake
    /// merely causes one empty turn).
    fn take_hand_offs(&mut self) {
        self.inbox().wake.drain();
        let handed = std::mem::take(&mut *relock(&self.inbox().accepted));
        for stream in handed {
            self.register(stream);
        }
    }

    /// Wait bound in milliseconds: the nearest read deadline or accept
    /// backoff, or -1 (no bound) when there is neither.
    fn poll_timeout(&self) -> i32 {
        let now = Instant::now();
        self.conns
            .values()
            .filter_map(|c| c.read_deadline)
            .chain(self.accept_paused_until)
            .map(|d| d.saturating_duration_since(now).as_millis().min(i32::MAX as u128) as i32)
            .min()
            .unwrap_or(-1)
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
                    self.hand_off(stream);
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

    /// Give a new connection for the rest of its life to the loop with
    /// the fewest requests waiting for their answer (so not to one busy
    /// with a slow run while another idles), then the fewest open
    /// connections, then the lowest index.
    fn hand_off(&mut self, stream: TcpStream) {
        let inboxes = &self.loops.inboxes;
        let target = (0..inboxes.len())
            .min_by_key(|&i| {
                let inbox = &inboxes[i];
                (inbox.unanswered.0.load(Ordering::Relaxed), inbox.conns.load(Ordering::Relaxed))
            })
            .unwrap_or(self.index);
        // Counted at once, so the next accept, on any loop, sees it.
        inboxes[target].conns.fetch_add(1, Ordering::Relaxed);
        if target == self.index {
            self.register(stream);
        } else {
            relock(&inboxes[target].accepted).push(stream);
            inboxes[target].wake.wake();
        }
    }

    /// Take ownership of a connection handed to this loop.
    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.inbox().conns.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        let mut conn = Conn::new(stream, token);
        conn.interest = EPOLLIN | EPOLLRDHUP;
        if self.epoll.add(conn.stream.as_raw_fd(), conn.interest, token).is_err() {
            // Dropping the stream closes it.
            self.inbox().conns.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        self.conns.insert(token, conn);
    }

    /// Close a connection (dropping the stream closes the socket).
    fn close(&mut self, token: u64) {
        if self.conns.remove(&token).is_some() {
            self.inbox().conns.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn handle_event(&mut self, token: u64, mask: u32) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(token);
            return;
        }
        if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
            loop {
                match conn.stream.read(&mut self.chunk) {
                    Ok(0) => {
                        // The peer finished sending: parse and answer what
                        // it sent, then close.
                        conn.peer_closed = true;
                        conn.read_deadline = None;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&self.chunk[..n]);
                        if n < self.chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close(token);
                        return;
                    }
                }
            }
        }
        self.pump(token);
    }

    /// Run the requests parsed so far in arrival order, answering each
    /// and flushing its connection as soon as the response is rendered.
    /// A run that panics closes its connection (counted in
    /// `pool.respawns`); a request whose connection has closed is dropped
    /// unrun. Requests a run releases from the pipeline window run in
    /// the next turn, so one deep pipeline cannot starve the others.
    fn run_parsed(&mut self) {
        let mut batch = std::mem::take(&mut self.parsed);
        for (token, job) in batch.drain(..) {
            self.loops.queued.fetch_sub(1, Ordering::Relaxed);
            let ran = self.conns.contains_key(&token).then(|| {
                std::panic::catch_unwind(AssertUnwindSafe(|| self.handler.run(job)))
            });
            self.loops.pending.fetch_sub(1, Ordering::Relaxed);
            self.inbox().unanswered.0.fetch_sub(1, Ordering::Relaxed);
            match ran {
                Some(Ok(response)) => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.fill(response);
                    }
                    self.pump(token);
                }
                Some(Err(_)) => {
                    // The response order of this connection can never be
                    // completed: fail it loudly.
                    self.loops.panics.fetch_add(1, Ordering::Relaxed);
                    RESPAWNS.incr();
                    self.close(token);
                }
                None => {}
            }
        }
        // Keep the allocation unless the runs parsed more requests.
        if self.parsed.is_empty() {
            self.parsed = batch;
        }
    }

    /// Make all possible progress on one connection: parse buffered
    /// requests up to the pipeline cap, release ordered responses,
    /// flush, and resynchronize epoll interest. Closes the connection
    /// once it is finished.
    fn pump(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let now = Instant::now();
        // Releasing an answer can unblock a request parked at the
        // pipeline cap, which no socket event will report again once its
        // bytes are buffered: parse and release until neither moves.
        let (handler, cfg, index) = (&self.handler, &self.cfg, self.index);
        loop {
            progress(handler, cfg, index, &self.loops, &mut self.parsed, conn, now);
            let held = conn.answers.len();
            conn.collect_ready();
            if conn.answers.len() == held {
                break;
            }
        }
        let alive = flush_conn(conn);
        if !alive || conn.finished(self.loops.draining()) {
            self.close(token);
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
            conn.last_request = true;
            conn.answers.push_back(Some(response));
            self.pump(token);
        }
    }
}

/// Parse loop over one connection's buffered bytes, also after its peer
/// stopped sending: each request is queued in `parsed` to run later in
/// the turn on loop `index`, or answered 429 at once when the server is
/// at its queue bound.
fn progress<H: Handler>(
    handler: &H,
    cfg: &Config,
    index: usize,
    loops: &Loops,
    parsed: &mut Vec<(u64, H::Job)>,
    conn: &mut Conn,
    now: Instant,
) {
    while conn.may_parse(cfg.max_pipeline) {
        // Move the buffer out so the borrowed view and mutations of
        // `conn` coexist; moved back before every exit from the loop.
        let buf = std::mem::take(&mut conn.read_buf);
        match http::parse_request_bytes(&buf[conn.read_pos..]) {
            Ok(Parsed::Partial) => {
                conn.read_buf = buf;
                if conn.unparsed().is_empty() {
                    conn.read_deadline = None;
                } else if conn.read_deadline.is_none() && !conn.peer_closed {
                    // Arm the slowloris clock: a partial request now
                    // has `read_timeout` to finish arriving.
                    conn.read_deadline = Some(now + cfg.read_timeout);
                }
                break;
            }
            Ok(Parsed::Complete { view, consumed }) => {
                let keep = view.keep_alive && !loops.draining();
                if loops.admit(index) {
                    conn.answers.push_back(None);
                    parsed.push((conn.token, handler.prepare(&view, keep)));
                } else {
                    // The request is already fully read, so the 429
                    // cannot be destroyed by an RST.
                    conn.answers.push_back(Some(handler.overloaded(&view, keep)));
                }
                conn.read_buf = buf;
                conn.consume(consumed);
                conn.read_deadline = None;
                conn.last_request = !keep;
            }
            Err(err) => {
                conn.answers.push_back(Some(handler.protocol_error(&err)));
                conn.read_buf = buf;
                conn.last_request = true;
                conn.read_deadline = None;
                break;
            }
        }
    }
}

/// Write as much of the backlog as the socket accepts, recording the
/// `write` stage when it drains. Returns false when the connection
/// should be dropped.
fn flush_conn(conn: &mut Conn) -> bool {
    while !conn.pending_write().is_empty() {
        let window = conn.write_pos..conn.write_buf.len();
        match conn.stream.write(&conn.write_buf[window]) {
            Ok(0) => return false,
            Ok(n) => conn.advance_write(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if let Some(since) = conn.write_since.take() {
        WRITE.record_since(since);
    }
    true
}

/// Re-register the interest mask the connection currently needs: reads
/// only while a request may be parsed and the peer is still sending (a
/// level-triggered EOF would be reported for ever), writes only while a
/// backlog is pending.
fn sync_interest(epoll: &Epoll, cfg: &Config, conn: &mut Conn) -> io::Result<()> {
    let mut desired = 0u32;
    if conn.may_parse(cfg.max_pipeline) && !conn.peer_closed {
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

    /// Echo handler: answers with the request path.
    struct Echo;

    impl Handler for Echo {
        type Job = Vec<u8>;
        fn prepare(&self, view: &ReqView<'_>, keep_alive: bool) -> Vec<u8> {
            http::render_response(200, "text/plain", view.path, &[], keep_alive)
        }
        fn run(&self, job: Vec<u8>) -> Vec<u8> {
            job
        }
        fn overloaded(&self, _view: &ReqView<'_>, keep_alive: bool) -> Vec<u8> {
            http::render_response(429, "text/plain", "busy", &[], keep_alive)
        }
        fn protocol_error(&self, err: &HttpError) -> Vec<u8> {
            let status = if matches!(err, HttpError::TooLarge) { 413 } else { 400 };
            http::render_response(status, "text/plain", "bad", &[], false)
        }
        fn read_timeout_response(&self) -> Vec<u8> {
            http::render_response(408, "text/plain", "slow", &[], false)
        }
    }

    /// A running echo loop: the loops that stop it, its thread and its
    /// address.
    struct Running {
        loops: Arc<Loops>,
        thread: std::thread::JoinHandle<()>,
        addr: std::net::SocketAddr,
    }

    fn start_echo(cfg: Config) -> Running {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let loops = Loops::new(1, 64).unwrap();
        let reactor = Reactor::new(0, listener, Arc::clone(&loops), Echo, cfg).unwrap();
        let thread = std::thread::spawn(move || reactor.run().unwrap());
        Running { loops, thread, addr }
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
        running.loops.stop();
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
        // Every request arrives in one segment, so no later read would
        // wake the parked ones.
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
