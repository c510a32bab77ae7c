//! The analysis daemon: a long-lived HTTP service over the
//! [`pipeline::api`] facade.
//!
//! Batch runs pay corpus fingerprinting and index construction on every
//! invocation; the daemon pays them once at startup and then serves
//! scans and clone checks from warm shared state (§5.5's "Execution
//! Time" challenge, applied to interactive use). Architecture:
//!
//! * one [`AnalysisEngine`] behind an `Arc` — warm state (checker,
//!   fingerprint corpus + N-gram index, the scan response cache and the
//!   corpus front cache) shared by every worker; the corpus is one
//!   detector behind one read/write lock, read by clone checks and
//!   updated in place by `/v1/index/insert`,
//! * a sharded epoll reactor (Linux; see [`reactor`]) — one acceptor
//!   thread hands connections round-robin to N shard threads, each
//!   running an event loop with non-blocking reads, an incremental
//!   zero-copy HTTP/1.1 parser, keep-alive and pipelining with a
//!   bounded in-flight depth, and responses written in request order,
//! * bounded per-shard [`WorkerPool`]s (`pipeline::par`) running the
//!   analysis — overload is shed at the edge with HTTP 429 instead of
//!   queueing without bound,
//! * cooperative per-request timeouts inside the engine (HTTP 504),
//! * graceful shutdown: SIGTERM/`POST /shutdown` stop the accept loop,
//!   in-flight requests drain, shards and workers join.
//!
//! Endpoints (JSON bodies use the wire format of [`pipeline::api`]):
//!
//! | Method | Path                   | Purpose                                |
//! |--------|------------------------|----------------------------------------|
//! | POST   | `/v1/scan`             | CCC detectors over a snippet           |
//! | POST   | `/v1/clone-check`      | CCD match against the warm corpus      |
//! | POST   | `/v1/analyze`          | either request kind                    |
//! | POST   | `/v1/batch`            | array of requests, per-item results    |
//! | GET    | `/v1/index/status`     | corpus generation, WAL, cache rates    |
//! | POST   | `/v1/index/insert`     | add a document to the warm corpus      |
//! | POST   | `/v1/index/compact`    | commit deltas as a snapshot generation |
//! | GET    | `/health`              | liveness + corpus size                 |
//! | GET    | `/telemetry`           | telemetry snapshot (run-report schema) |
//! | GET    | `/metrics`             | Prometheus text exposition             |
//! | GET    | `/debug/traces/recent` | summaries of recent traces             |
//! | GET    | `/debug/trace/<id>`    | one span tree (`?format=chrome` too)   |
//! | POST   | `/shutdown`            | graceful stop                          |
//!
//! Every response — including 400/408/413/429/503 error paths — carries
//! `X-Trace-Id` and `X-Request-Id` headers (adopted from the request
//! when parseable, minted otherwise), and every request lands in the
//! structured access log (see [`accesslog`]) keyed by those ids.

#![warn(missing_docs)]

pub mod accesslog;
pub mod breaker;
pub mod client;
pub mod http;
pub mod reactor;

#[cfg(not(target_os = "linux"))]
compile_error!("the server's transport is an epoll reactor: it builds on Linux only");

use accesslog::{AccessLog, AccessRecord};
use breaker::{BreakerConfig, CircuitBreaker};
use http::{HttpError, Request};
use pipeline::api::{error_to_json, AnalysisRequest, AnalysisResponse, TraceContext};
use pipeline::par::{PoolFull, PoolMonitor, WorkerPool};
use pipeline::AnalysisEngine;
use solidity::AnalysisError;
use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::trace::{self, TraceId};

/// Service configuration (the analysis side lives in
/// [`pipeline::api::AnalysisConfig`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving requests (split across reactor shards).
    pub workers: usize,
    /// Maximum pending (accepted but unserved) requests before the
    /// service sheds load with 429 (split across reactor shards).
    pub queue_capacity: usize,
    /// Reactor shard threads; `0` picks `min(available cores, 4)`,
    /// clamped so a shard never exists without a worker or queue slot.
    pub shards: usize,
    /// How long a partial request may trickle in before the connection
    /// is answered 408 and closed (slowloris bound), in milliseconds.
    pub read_timeout_ms: u64,
    /// Maximum pipelined requests in flight per connection; reads pause
    /// (TCP backpressure) while a connection is at the cap.
    pub max_pipeline: usize,
    /// Per-endpoint circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// JSONL access-log path (`None` disables access logging).
    pub access_log: Option<PathBuf>,
    /// Slow-request log path (requires `access_log`).
    pub slow_log: Option<PathBuf>,
    /// Requests at least this slow are flagged `"slow":true` and teed to
    /// the slow log.
    pub slow_ms: u64,
    /// Trigger a background compaction once the corpus delta count
    /// crosses this threshold (`None` disables — compaction stays
    /// manual via `POST /v1/index/compact`).
    pub compact_after: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            queue_capacity: 256,
            shards: 0,
            read_timeout_ms: 10_000,
            max_pipeline: 32,
            breaker: BreakerConfig::default(),
            access_log: None,
            slow_log: None,
            slow_ms: 500,
            compact_after: None,
        }
    }
}

/// A cloneable handle that stops a running server's accept loop.
#[derive(Debug, Clone, Default)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Request a graceful shutdown.
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested (by this handle or a signal).
    pub fn is_shutdown(&self) -> bool {
        self.0.load(Ordering::SeqCst) || signal_stop_requested()
    }
}

static SIGNAL_STOP: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal has been delivered.
pub fn signal_stop_requested() -> bool {
    SIGNAL_STOP.load(Ordering::SeqCst)
}

/// Install SIGTERM/SIGINT handlers that flip the shutdown flag, turning
/// `kill -TERM` into a graceful drain. Uses the C `signal` entry point
/// directly (std already links libc), so no extra dependency is needed.
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        SIGNAL_STOP.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

/// Per-endpoint circuit breakers for the four analysis endpoints and the
/// index-management surface.
struct Breakers {
    scan: CircuitBreaker,
    clone_check: CircuitBreaker,
    analyze: CircuitBreaker,
    batch: CircuitBreaker,
    index: CircuitBreaker,
}

impl Breakers {
    fn new(config: BreakerConfig) -> Breakers {
        Breakers {
            scan: CircuitBreaker::new(config),
            clone_check: CircuitBreaker::new(config),
            analyze: CircuitBreaker::new(config),
            batch: CircuitBreaker::new(config),
            index: CircuitBreaker::new(config),
        }
    }
}

/// Shared immutable state handed to every worker.
struct ServiceState {
    engine: Arc<AnalysisEngine>,
    shutdown: ShutdownHandle,
    workers: usize,
    queue_capacity: usize,
    shards: usize,
    breakers: Breakers,
    /// Health views of the per-shard worker pools; empty only in unit
    /// tests that exercise routing without a pool.
    pools: Vec<PoolMonitor>,
    /// Structured access log; `None` disables logging.
    access_log: Option<AccessLog>,
    /// Delta threshold for background auto-compaction (`None` = off).
    compact_after: Option<u64>,
}

impl ServiceState {
    fn pool_respawns(&self) -> u64 {
        self.pools.iter().map(PoolMonitor::respawns).sum()
    }

    fn pool_queued(&self) -> usize {
        self.pools.iter().map(PoolMonitor::queue_len).sum()
    }
}

static ACCEPTED: telemetry::Counter = telemetry::Counter::new("server.accepted");
static SHED: telemetry::Counter = telemetry::Counter::new("server.shed");

const OVERLOADED_BODY: &str = "{\"v\":1,\"kind\":\"error\",\"code\":\"overloaded\",\
     \"message\":\"request queue is full\"}";

/// The analysis daemon: listener + reactor shards + per-shard worker
/// pools + warm engine.
pub struct Server {
    listener: TcpListener,
    pools: Vec<Arc<WorkerPool>>,
    state: Arc<ServiceState>,
    read_timeout: Duration,
    max_pipeline: usize,
}

/// Shard count actually used: the configured value (or
/// `min(cores, 4)` when 0), clamped so every shard has at least one
/// worker and one queue slot — a `workers: 1, queue_capacity: 1` config
/// keeps its strict single-lane shedding semantics.
fn effective_shards(config: &ServerConfig) -> usize {
    let auto = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4);
    let requested = if config.shards > 0 { config.shards } else { auto };
    requested
        .min(config.workers.max(1))
        .min(config.queue_capacity.max(1))
        .max(1)
}

impl Server {
    /// Bind the service. `addr` accepts anything `TcpListener::bind`
    /// does; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub fn bind(
        addr: &str,
        config: ServerConfig,
        engine: Arc<AnalysisEngine>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let shard_count = effective_shards(&config);
        let per_workers = (config.workers / shard_count).max(1);
        let per_capacity = (config.queue_capacity / shard_count).max(1);
        let pools: Vec<Arc<WorkerPool>> = (0..shard_count)
            .map(|_| Arc::new(WorkerPool::new(per_workers, per_capacity)))
            .collect();
        let access_log = match &config.access_log {
            Some(path) => Some(AccessLog::open(
                path,
                config.slow_log.as_deref(),
                config.slow_ms,
            )?),
            None => None,
        };
        let state = Arc::new(ServiceState {
            engine,
            shutdown: ShutdownHandle::default(),
            workers: config.workers,
            queue_capacity: config.queue_capacity,
            shards: shard_count,
            breakers: Breakers::new(config.breaker),
            pools: pools.iter().map(|p| p.monitor()).collect(),
            access_log,
            compact_after: config.compact_after,
        });
        Ok(Server {
            listener,
            pools,
            state,
            read_timeout: Duration::from_millis(config.read_timeout_ms.max(1)),
            max_pipeline: config.max_pipeline.max(1),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops the accept loop from another thread (or from
    /// the `POST /shutdown` endpoint).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.state.shutdown.clone()
    }

    /// Serve until shutdown is requested, then drain in-flight requests
    /// and join shards and workers. Shard threads own the connections;
    /// this thread accepts and hands them out round-robin through the
    /// shard inboxes.
    pub fn run(self) -> io::Result<()> {
        use reactor::{Shard, ShardConfig, ShardInbox};
        let shard_cfg =
            ShardConfig { read_timeout: self.read_timeout, max_pipeline: self.max_pipeline };
        let mut inboxes = Vec::with_capacity(self.pools.len());
        let mut threads = Vec::with_capacity(self.pools.len());
        for (id, pool) in self.pools.iter().enumerate() {
            let inbox = ShardInbox::new()?;
            let handler = Arc::new(ShardService {
                state: Arc::clone(&self.state),
                pool: Arc::clone(pool),
                inbox: Arc::clone(&inbox),
                read_timeout: self.read_timeout,
                conns: telemetry::Gauge::named(format!("server.shard_conns|shard={id}")),
                inflight: telemetry::Gauge::named(format!("server.shard_inflight|shard={id}")),
            });
            let shard = Shard::new(id, Arc::clone(&inbox), handler, shard_cfg)?;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("shard-{id}"))
                    .spawn(move || shard.run())?,
            );
            inboxes.push(inbox);
        }
        self.listener.set_nonblocking(true)?;
        let mut next = 0usize;
        let mut accept_error = None;
        while !self.state.shutdown.is_shutdown() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    ACCEPTED.incr();
                    inboxes[next % inboxes.len()].hand_off(stream);
                    next += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => {
                    accept_error = Some(e);
                    self.state.shutdown.shutdown();
                    break;
                }
            }
        }
        // Graceful drain: wake every shard so it notices the flag,
        // serves what is in flight, closes its connections, and exits.
        for inbox in &inboxes {
            inbox.notify();
        }
        for thread in threads {
            match thread.join() {
                Ok(result) => result?,
                Err(_) => {
                    return Err(io::Error::other("reactor shard panicked"));
                }
            }
        }
        // All connections are gone, so every dispatched job has
        // completed; join the workers.
        for pool in self.pools {
            if let Some(pool) = Arc::into_inner(pool) {
                pool.shutdown();
            }
        }
        match accept_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

}

/// The per-shard service half of the reactor: routes parsed requests to
/// this shard's worker pool, sheds with 429 when the pool is full, and
/// renders the protocol-level error classes.
struct ShardService {
    state: Arc<ServiceState>,
    pool: Arc<WorkerPool>,
    inbox: Arc<reactor::ShardInbox>,
    read_timeout: Duration,
    /// `server.shard_conns|shard=<id>`, set every reactor tick.
    conns: telemetry::Gauge,
    /// `server.shard_inflight|shard=<id>`, set every reactor tick.
    inflight: telemetry::Gauge,
}

impl reactor::ShardHandler for ShardService {
    fn handle(
        &self,
        view: &http::ReqView<'_>,
        token: u64,
        seq: u64,
        keep_alive: bool,
    ) -> reactor::Dispatch {
        let started = Instant::now();
        let ids = RequestIds::from_view(view);
        let request = view.to_request_lean();
        let state = Arc::clone(&self.state);
        let inbox = Arc::clone(&self.inbox);
        let submitted = self.pool.try_submit(move || {
            // First statement: arm the completion guard so a panic
            // anywhere below still reports (and fails) the connection.
            let guard = reactor::CompletionGuard::new(inbox, token, seq);
            let bytes = run_request(&state, &request, &ids, keep_alive, started);
            guard.send(bytes);
        });
        match submitted {
            Ok(()) => reactor::Dispatch::Submitted,
            Err(PoolFull(job)) => {
                // The job never ran, so its guard was never armed —
                // dropping it sends nothing; the shed response below
                // fills the reserved slot instead. The request is
                // already fully parsed (drained), so the 429 cannot be
                // destroyed by an RST.
                drop(job);
                SHED.incr();
                let ids = RequestIds::from_view(view);
                let bytes = http::render_response(
                    429,
                    JSON,
                    OVERLOADED_BODY,
                    &ids.headers(),
                    keep_alive,
                );
                observe_request(view.path, 429, started.elapsed());
                log_access(
                    &self.state,
                    &ids,
                    view.method,
                    view.path,
                    429,
                    started.elapsed(),
                    "shed",
                    OVERLOADED_BODY.len(),
                );
                reactor::Dispatch::Inline(bytes)
            }
        }
    }

    fn protocol_error(&self, err: &HttpError) -> Vec<u8> {
        let ids = RequestIds::fresh();
        let (status, body) = match err {
            HttpError::TooLarge => (413, error_body("too_large", "request too large")),
            HttpError::Malformed(m) => (400, error_body("bad_request", m)),
        };
        observe_request("?", status, Duration::ZERO);
        log_access(&self.state, &ids, "?", "?", status, Duration::ZERO, "error", body.len());
        http::render_response(status, JSON, &body, &ids.headers(), false)
    }

    fn read_timeout_response(&self) -> Vec<u8> {
        let ids = RequestIds::fresh();
        let body =
            error_body("timeout", "request did not arrive within the read deadline");
        observe_request("?", 408, self.read_timeout);
        log_access(&self.state, &ids, "?", "?", 408, self.read_timeout, "timeout", body.len());
        http::render_response(408, JSON, &body, &ids.headers(), false)
    }

    fn draining(&self) -> bool {
        self.state.shutdown.is_shutdown()
    }

    fn on_tick(&self, _shard_id: usize, conns: usize, inflight: usize) {
        self.conns.set(conns as u64);
        self.inflight.set(inflight as u64);
    }
}

/// Run one request end to end on a worker thread: trace, chaos hook,
/// route, render, metrics, access log. Returns the rendered response
/// bytes for the shard to write in pipeline order.
fn run_request(
    state: &ServiceState,
    request: &Request,
    ids: &RequestIds,
    keep_alive: bool,
    started: Instant,
) -> Vec<u8> {
    // Open the request's trace (inert when tracing is off). The stage
    // spans below — parse, cpg-build, query-eval, detector and matcher
    // spans — attach to it through the thread-local.
    let trace_guard = trace::start(ids.trace, "request");
    trace::annotate("method", &request.method);
    trace::annotate("path", &request.path);
    trace::annotate("request_id", &ids.request_id);
    // Chaos hook at the service edge, after the request is fully parsed
    // (answering earlier would RST the peer's in-flight write). Injected
    // errors answer with a typed 500; injected *panics* unwind through
    // this function, killing the worker — the completion guard fails the
    // connection and the pool's respawn sentinel replaces the worker,
    // exactly the failure the client's retry policy exists for.
    let (status, content_type, body) = match faultinject::fire("server/request") {
        Some(message) => (500, JSON, error_body("internal", &message)),
        None => route(request, state),
    };
    trace::annotate("status", status);
    if status >= 500 {
        trace::mark_error();
    }
    // Finish and buffer the trace *before* the response ships, so a
    // client can immediately GET /debug/trace/<the-echoed-id>.
    drop(trace_guard);
    let bytes = http::render_response(status, content_type, &body, &ids.headers(), keep_alive);
    let elapsed = started.elapsed();
    observe_request(&request.path, status, elapsed);
    log_access(
        state,
        ids,
        &request.method,
        &request.path,
        status,
        elapsed,
        outcome_of(status, &body),
        body.len(),
    );
    bytes
}

/// The ids every response carries: the trace id (adopted from a
/// parseable `X-Trace-Id` header, minted otherwise) and a request id
/// (adopted from `X-Request-Id`, minted otherwise). Both are minted
/// lazily from a cheap process-local stream, so the ids exist — and are
/// echoed — even when tracing is disabled.
struct RequestIds {
    trace: TraceId,
    trace_hex: String,
    request_id: String,
}

impl RequestIds {
    fn new(trace: TraceId, request_id: String) -> RequestIds {
        RequestIds { trace, trace_hex: trace.to_hex(), request_id }
    }

    /// Adopt the ids from the request's `X-Trace-Id` / `X-Request-Id`
    /// headers, read from the zero-copy view.
    fn from_view(view: &http::ReqView<'_>) -> RequestIds {
        let trace = view
            .header("X-Trace-Id")
            .and_then(TraceId::from_hex)
            .unwrap_or_else(trace::new_trace_id);
        let request_id = view
            .header("X-Request-Id")
            .map(sanitize_id)
            .filter(|id| !id.is_empty())
            .unwrap_or_else(|| trace::new_trace_id().to_hex());
        RequestIds::new(trace, request_id)
    }

    fn fresh() -> RequestIds {
        RequestIds::new(trace::new_trace_id(), trace::new_trace_id().to_hex())
    }

    fn trace_hex(&self) -> &str {
        &self.trace_hex
    }

    fn headers(&self) -> [(&'static str, &str); 2] {
        [("X-Trace-Id", &self.trace_hex), ("X-Request-Id", &self.request_id)]
    }
}

/// Clamp a caller-supplied request id to something loggable: printable
/// ASCII, 64 chars max.
fn sanitize_id(raw: &str) -> String {
    raw.chars()
        .filter(|c| c.is_ascii_graphic())
        .take(64)
        .collect()
}

/// Classify a response for the access log's `outcome` field.
fn outcome_of(status: u16, body: &str) -> &'static str {
    match status {
        200..=399 => "ok",
        408 => "timeout",
        429 => "shed",
        503 if body.contains("\"code\":\"breaker_open\"") => "breaker_open",
        504 => "timeout",
        _ => "error",
    }
}

/// Bounded endpoint label for RED metrics: known routes keep their path,
/// the trace-by-id route collapses to one label, everything else is
/// `other` (an attacker scanning paths must not mint unbounded metric
/// names).
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/v1/scan" => "/v1/scan",
        "/v1/clone-check" => "/v1/clone-check",
        "/v1/analyze" => "/v1/analyze",
        "/v1/batch" => "/v1/batch",
        "/v1/index/status" => "/v1/index/status",
        "/v1/index/insert" => "/v1/index/insert",
        "/v1/index/compact" => "/v1/index/compact",
        "/health" => "/health",
        "/telemetry" => "/telemetry",
        "/metrics" => "/metrics",
        "/shutdown" => "/shutdown",
        "/debug/traces/recent" => "/debug/traces/recent",
        _ if path.starts_with("/debug/trace/") => "/debug/trace",
        _ => "other",
    }
}

/// The RED-metric handles of one endpoint label, resolved once: a
/// request counter per status class (2xx, 3xx, 4xx, 5xx) and a
/// log-linear latency histogram.
struct Endpoint {
    label: &'static str,
    requests: [telemetry::Counter; 4],
    duration_us: telemetry::Histogram,
}

macro_rules! endpoints {
    ($($label:literal),* $(,)?) => {
        [$(Endpoint {
            label: $label,
            requests: [
                telemetry::Counter::new(concat!("http.requests|endpoint=", $label, "|status=2xx")),
                telemetry::Counter::new(concat!("http.requests|endpoint=", $label, "|status=3xx")),
                telemetry::Counter::new(concat!("http.requests|endpoint=", $label, "|status=4xx")),
                telemetry::Counter::new(concat!("http.requests|endpoint=", $label, "|status=5xx")),
            ],
            duration_us: telemetry::Histogram::duration_us(
                concat!("http.request_duration_us|endpoint=", $label),
            ),
        }),*]
    };
}

/// The handles of every label [`endpoint_label`] returns; `other` last.
static ENDPOINTS: [Endpoint; 14] = endpoints![
    "/v1/scan",
    "/v1/clone-check",
    "/v1/analyze",
    "/v1/batch",
    "/v1/index/status",
    "/v1/index/insert",
    "/v1/index/compact",
    "/health",
    "/telemetry",
    "/metrics",
    "/shutdown",
    "/debug/traces/recent",
    "/debug/trace",
    "other",
];

/// Record the RED metrics of one request: a counter per endpoint ×
/// status class and a log-linear latency histogram per endpoint.
fn observe_request(path: &str, status: u16, elapsed: Duration) {
    if !telemetry::enabled() {
        return;
    }
    let label = endpoint_label(path);
    let (other, routes) = ENDPOINTS.split_last().expect("the table ends with `other`");
    let endpoint = routes.iter().find(|e| e.label == label).unwrap_or(other);
    let class = match status {
        200..=299 => 0,
        300..=399 => 1,
        400..=499 => 2,
        _ => 3,
    };
    endpoint.requests[class].incr();
    endpoint.duration_us.observe(elapsed.as_micros().min(u64::MAX as u128) as u64);
}

#[allow(clippy::too_many_arguments)]
fn log_access(
    state: &ServiceState,
    ids: &RequestIds,
    method: &str,
    path: &str,
    status: u16,
    elapsed: Duration,
    outcome: &'static str,
    body_bytes: usize,
) {
    let Some(log) = &state.access_log else { return };
    log.record(&AccessRecord {
        trace_id: ids.trace_hex().to_string(),
        request_id: ids.request_id.clone(),
        method: method.to_string(),
        path: path.to_string(),
        status,
        dur_us: elapsed.as_micros().min(u64::MAX as u128) as u64,
        outcome,
        body_bytes,
    });
}

fn error_body(code: &str, message: &str) -> String {
    format!(
        "{{\"v\":1,\"kind\":\"error\",\"code\":\"{}\",\"message\":\"{}\"}}",
        code,
        telemetry::json::escape(message)
    )
}

const JSON: &str = "application/json";
/// The largest doc id a JSON number carries exactly (2^53 − 1): the f64
/// number parser rounds anything above it.
const MAX_EXACT_ID: f64 = 9_007_199_254_740_991.0;
/// Prometheus exposition content type (format 0.0.4).
const PROM: &str = "text/plain; version=0.0.4";

fn route(request: &Request, state: &ServiceState) -> (u16, &'static str, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => (
            200,
            JSON,
            format!(
                "{{\"status\":\"ok\",\"v\":1,\"corpus\":{},\"workers\":{},\"queue_capacity\":{},\
                 \"shards\":{},\"pool\":{{\"respawns\":{},\"queued\":{}}},\
                 \"breakers\":{{\"scan\":\"{}\",\"clone_check\":\"{}\",\"analyze\":\"{}\",\
                 \"batch\":\"{}\",\"index\":\"{}\"}}}}",
                state.engine.corpus_len(),
                state.workers,
                state.queue_capacity,
                state.shards,
                state.pool_respawns(),
                state.pool_queued(),
                state.breakers.scan.state_name(),
                state.breakers.clone_check.state_name(),
                state.breakers.analyze.state_name(),
                state.breakers.batch.state_name(),
                state.breakers.index.state_name(),
            ),
        ),
        ("GET", "/telemetry") => {
            refresh_gauges(state);
            (200, JSON, telemetry::snapshot().to_json())
        }
        ("GET", "/metrics") => {
            refresh_gauges(state);
            (200, PROM, telemetry::prom::render(&telemetry::snapshot()))
        }
        ("GET", "/debug/traces/recent") => {
            let limit = request
                .query_param("limit")
                .and_then(|v| v.parse().ok())
                .unwrap_or(32usize)
                .min(512);
            (200, JSON, trace::recent_json(limit))
        }
        ("GET", path) if path.starts_with("/debug/trace/") => {
            let id_hex = &path["/debug/trace/".len()..];
            let Some(id) = TraceId::from_hex(id_hex) else {
                return (
                    400,
                    JSON,
                    error_body("bad_request", "trace id must be 1-16 hex digits"),
                );
            };
            match trace::find(id) {
                Some(found) => {
                    let body = if request.query_param("format") == Some("chrome") {
                        trace::to_chrome_json(&found)
                    } else {
                        trace::to_json(&found)
                    };
                    (200, JSON, body)
                }
                None => (
                    404,
                    JSON,
                    error_body(
                        "not_found",
                        "no buffered trace with that id (evicted, sampled out, or tracing is off)",
                    ),
                ),
            }
        }
        ("POST", "/shutdown") => {
            state.shutdown.shutdown();
            (200, JSON, "{\"status\":\"shutting_down\"}".to_string())
        }
        ("POST", "/v1/scan") => {
            analyze(request, state, Some(RequestKind::Scan), &state.breakers.scan)
        }
        ("POST", "/v1/clone-check") => {
            analyze(request, state, Some(RequestKind::CloneCheck), &state.breakers.clone_check)
        }
        ("POST", "/v1/analyze") => analyze(request, state, None, &state.breakers.analyze),
        ("POST", "/v1/batch") => batch(request, state),
        ("GET", "/v1/index/status") => index_status(state),
        ("POST", "/v1/index/insert") => index_insert(request, state),
        ("POST", "/v1/index/compact") => index_compact(state),
        (
            _,
            "/health" | "/telemetry" | "/metrics" | "/shutdown" | "/v1/scan" | "/v1/clone-check"
            | "/v1/analyze" | "/v1/batch" | "/v1/index/status" | "/v1/index/insert"
            | "/v1/index/compact" | "/debug/traces/recent",
        ) => (405, JSON, error_body("method_not_allowed", "wrong method for endpoint")),
        (_, path) if path.starts_with("/debug/trace/") => {
            (405, JSON, error_body("method_not_allowed", "wrong method for endpoint"))
        }
        (_, path) => (404, JSON, error_body("not_found", &format!("no such endpoint {path}"))),
    }
}

/// Refresh the point-in-time gauges (pool depth, breaker states,
/// interner size) so a snapshot taken right after reflects live state.
fn refresh_gauges(state: &ServiceState) {
    let (symbols, bytes) = intern::interner_stats();
    telemetry::gauge_set("intern.symbols", symbols as u64);
    telemetry::gauge_set("intern.bytes", bytes as u64);
    telemetry::gauge_set("pool.workers", state.workers as u64);
    telemetry::gauge_set("pool.queue_depth", state.pool_queued() as u64);
    telemetry::gauge_set("pool.respawns", state.pool_respawns());
    telemetry::gauge_set("server.shards", state.shards as u64);
    let corpus = state.engine.corpus_handle();
    telemetry::gauge_set("index.generation", corpus.generation());
    telemetry::gauge_set("index.deltas", corpus.deltas());
    telemetry::gauge_set("index.docs", corpus.len() as u64);
    if let Some(wal) = corpus.wal_stats() {
        telemetry::gauge_set("index.wal_records", wal.records);
        telemetry::gauge_set("index.wal_bytes", wal.bytes);
    }
    telemetry::gauge_set("corpus.auto_compactions", corpus.auto_compactions());
    // Scaled to basis points: gauges are integers, the rate is 0..=1.
    let stats = corpus.front_cache_stats();
    telemetry::gauge_set(
        "index.front_cache_hit_rate_bp",
        (stats.hit_rate() * 10_000.0) as u64,
    );
    for (endpoint, breaker) in [
        ("scan", &state.breakers.scan),
        ("clone_check", &state.breakers.clone_check),
        ("analyze", &state.breakers.analyze),
        ("batch", &state.breakers.batch),
        ("index", &state.breakers.index),
    ] {
        // 1-based so the closed (normal) state still renders: the
        // snapshot omits zero-valued gauges.
        let code = match breaker.state_name() {
            "closed" => 1,
            "open" => 2,
            _ => 3, // half_open
        };
        telemetry::gauge_set(&format!("breaker.state|endpoint={endpoint}"), code);
    }
}

#[derive(PartialEq)]
enum RequestKind {
    Scan,
    CloneCheck,
}

fn analyze(
    request: &Request,
    state: &ServiceState,
    expected: Option<RequestKind>,
    breaker: &CircuitBreaker,
) -> (u16, &'static str, String) {
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => {
            return (400, JSON, error_body("bad_request", "request body is not UTF-8"));
        }
    };
    let parsed = match AnalysisRequest::from_json(body) {
        Ok(parsed) => parsed,
        Err(error) => return (status_of(&error), JSON, error_to_json(&error)),
    };
    let kind_matches = matches!(
        (&parsed, &expected),
        (_, None)
            | (AnalysisRequest::Scan { .. }, Some(RequestKind::Scan))
            | (AnalysisRequest::CloneCheck { .. }, Some(RequestKind::CloneCheck))
    );
    if !kind_matches {
        return (
            400,
            JSON,
            error_body("bad_request", "request kind does not match endpoint"),
        );
    }
    // Acquire the breaker only once the request is validated: malformed
    // requests are the caller's fault and must neither consume a
    // half-open probe nor be shed by an open breaker.
    if !breaker.try_acquire() {
        return (
            503,
            JSON,
            error_body("breaker_open", "circuit breaker is open; retry after cooldown"),
        );
    }
    // Carry the ingress trace identity through the facade explicitly.
    // The ingress already opened this thread's trace, so the engine's
    // own root-span open is a no-op — but a programmatic caller going
    // straight through `pipeline::api` gets the same propagation.
    let trace_ctx = TraceContext { trace_id: trace::current_trace_id() };
    let deadline = state.engine.deadline_from_now();
    match state.engine.analyze_traced(&parsed, trace_ctx, deadline) {
        Ok(response) => {
            breaker.record_success();
            (200, JSON, AnalysisResponse::to_json(&response))
        }
        Err(error) => {
            // Only *internal* errors (our fault) count against the
            // breaker; request-caused errors are successes breaker-wise.
            if error.code() == "internal" {
                breaker.record_failure();
            } else {
                breaker.record_success();
            }
            (status_of(&error), JSON, error_to_json(&error))
        }
    }
}

/// `POST /v1/batch`: a JSON array of analysis requests, answered with
/// one result per item in order. Item N's result is byte-identical to
/// what `/v1/analyze` would have returned for the same request (success
/// or typed error), so errors are isolated per item — one hostile
/// snippet fails its slot, not the batch. The batch breaker is acquired
/// once and charged if *any* item fails internally.
fn batch(request: &Request, state: &ServiceState) -> (u16, &'static str, String) {
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => {
            return (400, JSON, error_body("bad_request", "request body is not UTF-8"));
        }
    };
    let items = match pipeline::api::batch_from_json(body) {
        Ok(items) => items,
        Err(error) => return (status_of(&error), JSON, error_to_json(&error)),
    };
    if !state.breakers.batch.try_acquire() {
        return (
            503,
            JSON,
            error_body("breaker_open", "circuit breaker is open; retry after cooldown"),
        );
    }
    let mut any_internal = false;
    // Pre-size generously: findings responses run a few hundred bytes.
    let mut out = String::with_capacity(64 + items.len() * 128);
    out.push_str("{\"v\":1,\"kind\":\"batch\",\"results\":[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let result = item.as_ref().map_err(Clone::clone).and_then(|request| {
            let trace_ctx = TraceContext { trace_id: trace::current_trace_id() };
            // Each item gets its own full deadline — a slow item times
            // out alone instead of starving its successors.
            let deadline = state.engine.deadline_from_now();
            state.engine.analyze_traced(request, trace_ctx, deadline)
        });
        match result {
            Ok(response) => out.push_str(&AnalysisResponse::to_json(&response)),
            Err(error) => {
                if error.code() == "internal" {
                    any_internal = true;
                }
                out.push_str(&error_to_json(&error));
            }
        }
    }
    out.push_str("]}");
    if any_internal {
        state.breakers.batch.record_failure();
    } else {
        state.breakers.batch.record_success();
    }
    (200, JSON, out)
}

/// `GET /v1/index/status`: the corpus handle's live lifecycle view —
/// committed snapshot generation, document count, write-ahead log
/// durability state and front-cache effectiveness.
fn index_status(state: &ServiceState) -> (u16, &'static str, String) {
    let corpus = state.engine.corpus_handle();
    let stats = corpus.front_cache_stats();
    let wal = corpus.wal_stats().unwrap_or_default();
    (
        200,
        JSON,
        format!(
            "{{\"v\":1,\"kind\":\"index_status\",\"generation\":{},\"docs\":{},\
             \"deltas\":{},\"wal_records\":{},\"wal_bytes\":{},\
             \"replayed_on_boot\":{},\"fsync_policy\":\"{}\",\
             \"auto_compactions\":{},\"front_cache\":{{\"exact_hits\":{},\
             \"near_hits\":{},\"misses\":{},\"hit_rate\":{:.4}}}}}",
            corpus.generation(),
            corpus.len(),
            corpus.deltas(),
            wal.records,
            wal.bytes,
            corpus.replayed_on_boot(),
            corpus.fsync_policy_name(),
            corpus.auto_compactions(),
            stats.exact_hits,
            stats.near_hits,
            stats.misses,
            stats.hit_rate(),
        ),
    )
}

/// `POST /v1/index/insert`: add one document to the warm corpus without a
/// restart. Body: `{"v":1,"source":"...","id":<optional integer>}` — an
/// omitted id is auto-assigned; the response echoes the indexed id. An id
/// must be a JSON integer in `0..=2^53-1`, the range the f64 number
/// parser carries exactly; anything else is a 400 `invalid_request`. The
/// document is a *delta* until the next compaction: served from memory,
/// made crash-durable by the write-ahead log when the server runs with a
/// snapshot directory. With `--compact-after N` a successful insert that
/// pushes the delta count over N kicks off a background compaction.
fn index_insert(request: &Request, state: &ServiceState) -> (u16, &'static str, String) {
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => {
            return (400, JSON, error_body("bad_request", "request body is not UTF-8"));
        }
    };
    let value = match telemetry::json::parse(body) {
        Ok(value) => value,
        Err(e) => {
            return (400, JSON, error_body("bad_request", &format!("body is not JSON: {e}")));
        }
    };
    match value.get("v").and_then(telemetry::json::Value::as_f64) {
        Some(1.0) => {}
        _ => return (400, JSON, error_body("bad_request", "missing or unsupported \"v\"")),
    }
    let Some(source) = value.get("source").and_then(telemetry::json::Value::as_str) else {
        return (400, JSON, error_body("bad_request", "missing \"source\""));
    };
    let id = match value.get("id").map(telemetry::json::Value::as_f64) {
        None => None,
        Some(Some(n)) if n.fract() == 0.0 && (0.0..=MAX_EXACT_ID).contains(&n) => Some(n as u64),
        Some(_) => {
            let error =
                AnalysisError::invalid(format!("\"id\" must be an integer in 0..={MAX_EXACT_ID}"));
            return (400, JSON, error_to_json(&error));
        }
    };
    if !state.breakers.index.try_acquire() {
        return (
            503,
            JSON,
            error_body("breaker_open", "circuit breaker is open; retry after cooldown"),
        );
    }
    let corpus = state.engine.corpus_handle();
    match corpus.insert_source(id, source) {
        Ok(doc) => {
            state.breakers.index.record_success();
            if let Some(threshold) = state.compact_after {
                corpus.maybe_auto_compact(threshold);
            }
            (
                200,
                JSON,
                format!(
                    "{{\"v\":1,\"kind\":\"index_inserted\",\"doc\":{doc},\"docs\":{},\
                     \"generation\":{},\"deltas\":{}}}",
                    corpus.len(),
                    corpus.generation(),
                    corpus.deltas(),
                ),
            )
        }
        Err(error) => {
            record_index_outcome(state, &error);
            (status_of(&error), JSON, error_to_json(&error))
        }
    }
}

/// `POST /v1/index/compact`: fold the in-memory deltas into the next
/// snapshot generation on disk. Answers 503 `index_busy` while another
/// compaction is in flight and 400 when the server runs without a
/// snapshot directory.
fn index_compact(state: &ServiceState) -> (u16, &'static str, String) {
    if !state.breakers.index.try_acquire() {
        return (
            503,
            JSON,
            error_body("breaker_open", "circuit breaker is open; retry after cooldown"),
        );
    }
    let corpus = state.engine.corpus_handle();
    match corpus.compact() {
        Ok(generation) => {
            state.breakers.index.record_success();
            (
                200,
                JSON,
                format!(
                    "{{\"v\":1,\"kind\":\"index_compacted\",\"generation\":{generation},\
                     \"docs\":{},\"deltas\":{}}}",
                    corpus.len(),
                    corpus.deltas(),
                ),
            )
        }
        Err(error) => {
            record_index_outcome(state, &error);
            (status_of(&error), JSON, error_to_json(&error))
        }
    }
}

/// Charge the index breaker only for failures that are the service's
/// fault (I/O corruption, internal errors); caller mistakes and the
/// transient busy state are breaker successes, same rule as `analyze`.
fn record_index_outcome(state: &ServiceState, error: &AnalysisError) {
    if matches!(error.code(), "internal" | "index_corrupt") {
        state.breakers.index.record_failure();
    } else {
        state.breakers.index.record_success();
    }
}

/// HTTP status of an analysis error: timeouts are the gateway's fault
/// (504), internal errors and snapshot corruption are ours (500), a
/// snapshot format mismatch is a version conflict (409), a busy index
/// asks for retry (503), everything else is the request's fault (400).
fn status_of(error: &AnalysisError) -> u16 {
    match error.code() {
        "timeout" => 504,
        "internal" | "index_corrupt" => 500,
        "index_version" => 409,
        "index_busy" => 503,
        _ => 400,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::api::AnalysisConfig;

    fn state() -> Arc<ServiceState> {
        Arc::new(ServiceState {
            engine: Arc::new(AnalysisEngine::new(AnalysisConfig::default())),
            shutdown: ShutdownHandle::default(),
            workers: 1,
            queue_capacity: 1,
            shards: 1,
            breakers: Breakers::new(BreakerConfig::default()),
            pools: Vec::new(),
            access_log: None,
            compact_after: None,
        })
    }

    fn get(path: &str) -> Request {
        Request { method: "GET".into(), path: path.into(), ..Request::default() }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            body: body.as_bytes().to_vec(),
            ..Request::default()
        }
    }

    #[test]
    fn routes_health_and_404() {
        let state = state();
        let (status, _, body) = route(&get("/health"), &state);
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""));
        assert!(body.contains("\"shards\":1"), "{body}");
        assert!(body.contains("\"batch\":\"closed\""), "{body}");
        let (status, _, _) = route(&get("/nope"), &state);
        assert_eq!(status, 404);
        let (status, _, _) = route(
            &Request { method: "DELETE".into(), path: "/health".into(), ..Request::default() },
            &state,
        );
        assert_eq!(status, 405);
    }

    #[test]
    fn scan_endpoint_rejects_clone_check_kind() {
        let state = state();
        let body = AnalysisRequest::clone_check("contract C {}").to_json();
        let (status, _, _) = route(&post("/v1/scan", &body), &state);
        assert_eq!(status, 400);
    }

    #[test]
    fn malformed_body_is_a_400() {
        let state = state();
        let (status, _, body) = route(&post("/v1/scan", "{not json"), &state);
        assert_eq!(status, 400);
        assert!(body.contains("\"code\":\"invalid_request\""), "{body}");
    }

    #[test]
    fn scan_returns_findings_json() {
        let state = state();
        let body =
            AnalysisRequest::scan("function f(address to) public { to.send(1); }").to_json();
        let (status, _, response) = route(&post("/v1/scan", &body), &state);
        assert_eq!(status, 200);
        let decoded = AnalysisResponse::from_json(&response).unwrap();
        match decoded {
            AnalysisResponse::Findings(findings) => assert!(!findings.is_empty()),
            other => panic!("expected findings, got {other:?}"),
        }
    }

    #[test]
    fn empty_clone_check_is_invalid() {
        let state = state();
        let body = AnalysisRequest::clone_check("").to_json();
        let (status, _, response) = route(&post("/v1/clone-check", &body), &state);
        assert_eq!(status, 400);
        assert!(response.contains("\"code\":\"invalid_request\""), "{response}");
    }

    #[test]
    fn batch_returns_per_item_results_in_order() {
        let state = state();
        let scan = AnalysisRequest::scan("function f(address to) public { to.send(1); }");
        let clone = AnalysisRequest::clone_check("contract C { function f() public {} }");
        let body = format!("[{},{}]", scan.to_json(), clone.to_json());
        let (status, _, response) = route(&post("/v1/batch", &body), &state);
        assert_eq!(status, 200, "{response}");
        assert!(response.starts_with("{\"v\":1,\"kind\":\"batch\",\"results\":["), "{response}");
        // Item results match what /v1/analyze yields for the same docs.
        let (_, _, single) = route(&post("/v1/analyze", &scan.to_json()), &state);
        assert!(response.contains(&single), "batch item diverged from single response");
    }

    #[test]
    fn batch_isolates_per_item_errors() {
        let state = state();
        let good = AnalysisRequest::scan("function f(address to) public { to.send(1); }");
        let body = format!("[{},{{\"v\":1,\"kind\":\"nope\"}}]", good.to_json());
        let (status, _, response) = route(&post("/v1/batch", &body), &state);
        assert_eq!(status, 200, "one bad item must not fail the batch: {response}");
        assert!(response.contains("\"kind\":\"findings\""), "{response}");
        assert!(response.contains("\"kind\":\"error\""), "{response}");
        // The breaker saw the request-caused error as a success.
        assert_eq!(state.breakers.batch.state_name(), "closed");
    }

    #[test]
    fn batch_rejects_non_array_and_oversized_bodies() {
        let state = state();
        let (status, _, body) = route(&post("/v1/batch", "{\"v\":1}"), &state);
        assert_eq!(status, 400, "{body}");
        let huge: String = {
            let item = AnalysisRequest::scan("contract C {}").to_json();
            let items: Vec<&str> =
                (0..pipeline::api::MAX_BATCH_ITEMS + 1).map(|_| item.as_str()).collect();
            format!("[{}]", items.join(","))
        };
        let (status, _, body) = route(&post("/v1/batch", &huge), &state);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("invalid_request"), "{body}");
    }

    #[test]
    fn metrics_endpoint_renders_valid_exposition() {
        let state = state();
        telemetry::enable();
        static COUNTER: telemetry::Counter = telemetry::Counter::new("test.metrics_endpoint");
        COUNTER.incr();
        let (status, content_type, body) = route(&get("/metrics"), &state);
        assert_eq!(status, 200);
        assert!(content_type.starts_with("text/plain"));
        telemetry::prom::validate(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    }

    #[test]
    fn debug_trace_handles_bad_and_missing_ids() {
        let state = state();
        let (status, _, body) = route(&get("/debug/trace/zzz"), &state);
        assert_eq!(status, 400, "{body}");
        let (status, _, body) = route(&get("/debug/trace/00000000000000ff"), &state);
        assert_eq!(status, 404, "{body}");
    }

    #[test]
    fn request_ids_adopt_and_sanitize_headers() {
        let ids_of = |raw: &[u8]| match http::parse_request_bytes(raw).expect("parses") {
            http::Parsed::Complete { view, .. } => RequestIds::from_view(&view),
            http::Parsed::Partial => panic!("incomplete request"),
        };
        let ids = ids_of(
            b"GET /health HTTP/1.1\r\nx-trace-id: DEADBEEFCAFEF00D\r\nX-Request-Id: abc\x07def\r\n\r\n",
        );
        assert_eq!(ids.trace_hex(), "deadbeefcafef00d");
        assert_eq!(ids.request_id, "abcdef");
        // A malformed trace id is replaced, not adopted.
        let ids = ids_of(b"GET /health HTTP/1.1\r\nX-Trace-Id: not-hex\r\n\r\n");
        assert_ne!(ids.trace_hex(), "not-hex");
        assert_eq!(ids.trace_hex().len(), 16);
    }

    #[test]
    fn index_status_reports_lifecycle_fields() {
        let state = state();
        let (status, _, body) = route(&get("/v1/index/status"), &state);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"kind\":\"index_status\""), "{body}");
        assert!(body.contains("\"generation\":0"), "{body}");
        assert!(body.contains("\"docs\":0"), "{body}");
        assert!(body.contains("\"front_cache\""), "{body}");
        // Durability fields are present even without a snapshot dir: the
        // WAL is off, stats read zero.
        assert!(body.contains("\"wal_records\":0"), "{body}");
        assert!(body.contains("\"wal_bytes\":0"), "{body}");
        assert!(body.contains("\"replayed_on_boot\":0"), "{body}");
        assert!(body.contains("\"fsync_policy\":\"off\""), "{body}");
        assert!(body.contains("\"auto_compactions\":0"), "{body}");
        // Wrong method is 405, matching the other /v1 endpoints.
        let (status, _, _) = route(&post("/v1/index/status", ""), &state);
        assert_eq!(status, 405);
    }

    #[test]
    fn index_insert_grows_the_corpus_and_echoes_the_id() {
        let state = state();
        let body = "{\"v\":1,\"source\":\"contract A { function w(uint v) public { \
                    msg.sender.transfer(v); } }\",\"id\":7}";
        let (status, _, response) = route(&post("/v1/index/insert", body), &state);
        assert_eq!(status, 200, "{response}");
        assert!(response.contains("\"doc\":7"), "{response}");
        assert!(response.contains("\"deltas\":1"), "{response}");
        assert_eq!(state.engine.corpus_len(), 1);
        // Duplicate id is the caller's fault: 400, breaker stays closed.
        let (status, _, response) = route(&post("/v1/index/insert", body), &state);
        assert_eq!(status, 400, "{response}");
        assert_eq!(state.breakers.index.state_name(), "closed");
        // The inserted document is immediately matchable.
        let check = AnalysisRequest::clone_check(
            "contract B { function out(uint a) public { msg.sender.transfer(a); } }",
        );
        let (status, _, response) = route(&post("/v1/clone-check", &check.to_json()), &state);
        assert_eq!(status, 200);
        assert!(response.contains("\"doc\":7"), "{response}");
    }

    #[test]
    fn index_insert_rejects_malformed_bodies() {
        let state = state();
        for body in ["not json", "{\"v\":1}", "{\"source\":\"contract C {}\"}"] {
            let (status, _, response) = route(&post("/v1/index/insert", body), &state);
            assert_eq!(status, 400, "{body} → {response}");
        }
        // An id the f64 parser cannot carry exactly, or that is no
        // integer at all, is refused before it can be stored as another.
        for id in ["-1", "2.7", "\"7\"", "9007199254740993", "1e30"] {
            let body = format!(
                "{{\"v\":1,\"source\":\"contract C {{ function w(uint v) public {{ \
                 msg.sender.transfer(v); }} }}\",\"id\":{id}}}"
            );
            let (status, _, response) = route(&post("/v1/index/insert", &body), &state);
            assert_eq!(status, 400, "{body} → {response}");
            assert!(response.contains("\"code\":\"invalid_request\""), "{response}");
        }
        assert_eq!(state.engine.corpus_len(), 0);
    }

    #[test]
    fn index_compact_without_snapshot_dir_is_a_400() {
        let state = state();
        let (status, _, body) = route(&post("/v1/index/compact", ""), &state);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("invalid_request"), "{body}");
    }

    #[test]
    fn index_error_codes_map_to_statuses() {
        assert_eq!(status_of(&AnalysisError::index_corrupt("x")), 500);
        assert_eq!(status_of(&AnalysisError::index_version(9, 1)), 409);
        assert_eq!(status_of(&AnalysisError::index_busy("x")), 503);
    }

    #[test]
    fn endpoint_labels_are_bounded() {
        assert_eq!(endpoint_label("/v1/scan"), "/v1/scan");
        assert_eq!(endpoint_label("/v1/batch"), "/v1/batch");
        assert_eq!(endpoint_label("/v1/index/status"), "/v1/index/status");
        assert_eq!(endpoint_label("/v1/index/compact"), "/v1/index/compact");
        assert_eq!(endpoint_label("/debug/trace/deadbeef"), "/debug/trace");
        assert_eq!(endpoint_label("/anything/else"), "other");
    }

    #[test]
    fn every_endpoint_label_has_its_own_handles() {
        for endpoint in &ENDPOINTS {
            let path = match endpoint.label {
                "/debug/trace" => "/debug/trace/deadbeef",
                "other" => "/anything/else",
                label => label,
            };
            assert_eq!(endpoint_label(path), endpoint.label);
        }
    }

    #[test]
    fn outcomes_classify_statuses() {
        assert_eq!(outcome_of(200, "{}"), "ok");
        assert_eq!(outcome_of(302, "{}"), "ok");
        assert_eq!(outcome_of(408, "{}"), "timeout");
        assert_eq!(outcome_of(429, "{}"), "shed");
        assert_eq!(outcome_of(503, "{\"code\":\"breaker_open\"}"), "breaker_open");
        assert_eq!(outcome_of(503, "{\"code\":\"overloaded\"}"), "error");
        assert_eq!(outcome_of(504, "{}"), "timeout");
        assert_eq!(outcome_of(400, "{}"), "error");
    }

    #[test]
    fn effective_shards_respects_worker_and_queue_floors() {
        let mut config = ServerConfig { workers: 1, queue_capacity: 1, ..Default::default() };
        assert_eq!(effective_shards(&config), 1, "single-lane config keeps one shard");
        config.workers = 8;
        config.queue_capacity = 256;
        config.shards = 3;
        assert_eq!(effective_shards(&config), 3);
        config.shards = 100;
        config.queue_capacity = 2;
        assert_eq!(effective_shards(&config), 2, "clamped to queue slots");
    }
}
