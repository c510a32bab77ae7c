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
//!   corpus front cache) shared by every event loop; the corpus is one
//!   detector behind one read/write lock, read by clone checks and
//!   updated in place by `/v1/index/insert`,
//! * one epoll event loop per worker (Linux; see [`reactor`]), each
//!   owning its connections for their whole life: non-blocking reads,
//!   an incremental zero-copy HTTP/1.1 parser, keep-alive and pipelining
//!   with a bounded in-flight depth, the analysis itself, and responses
//!   written in request order — a request is read, run and answered on
//!   one thread. Every loop polls the listener; the loop that accepts a
//!   connection hands it to the loop with the fewest requests waiting for
//!   their answer, then the fewest connections,
//! * one queue bound for the whole server: a request parsed while
//!   `queue_capacity` others wait for their answer is shed with HTTP 429
//!   instead of queueing without bound,
//! * cooperative per-request timeouts inside the engine (HTTP 504),
//! * graceful shutdown: SIGTERM, SIGINT ([`block_stop_signals`],
//!   [`stop_on_signal`]) and `POST /shutdown` set the drain flag and wake
//!   every loop, which stops accepting, answers what it has read, and
//!   returns.
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
use pipeline::api::{error_json, error_to_json, AnalysisRequest, AnalysisResponse};
use pipeline::AnalysisEngine;
use solidity::AnalysisError;
use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::trace::{self, TraceId};

/// Service configuration (the analysis side lives in
/// [`pipeline::api::AnalysisConfig`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Event loops, each reading, running and answering its own
    /// connections' requests on its own thread (at least one; the caller
    /// of [`Server::run`] runs the first).
    pub workers: usize,
    /// Maximum requests parsed but not yet answered across the whole
    /// server; a request parsed past it is answered 429.
    pub queue_capacity: usize,
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
    /// Slow-request log path (requires `access_log`: see
    /// [`ServerConfig::check`]).
    pub slow_log: Option<PathBuf>,
    /// Requests at least this slow are flagged `"slow":true` and teed to
    /// the slow log.
    pub slow_ms: u64,
    /// Trigger a background compaction once the corpus delta count
    /// reaches this threshold (`None` disables — compaction stays
    /// manual via `POST /v1/index/compact`).
    pub compact_after: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            queue_capacity: 256,
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

impl ServerConfig {
    /// Refuse a combination of settings the server cannot honour: a slow
    /// log without an access log, whose slow records it tees. An
    /// `InvalidInput` error names the settings. [`Server::bind`] asks
    /// this before it binds; `serve` asks it before it builds a corpus.
    pub fn check(&self) -> io::Result<()> {
        if self.slow_log.is_some() && self.access_log.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "slow_log (--slow-log) needs access_log (--access-log): \
                 the slow log tees the access log's slow records",
            ));
        }
        Ok(())
    }
}

/// A cloneable handle that stops a running server: it sets the drain
/// flag and wakes every event loop, which closes its handle on the
/// listener at once.
#[derive(Clone)]
pub struct ShutdownHandle {
    loops: Arc<reactor::Loops>,
}

impl ShutdownHandle {
    /// Request a graceful shutdown.
    pub fn shutdown(&self) {
        self.loops.stop();
    }
}

pub use reactor::sys::block_stop_signals;

/// Start a thread that waits for SIGTERM or SIGINT, blocked by
/// [`block_stop_signals`], and stops the server through `handle`. The
/// thread is not joined: the signal may never come, and the process ends
/// when `main` returns.
pub fn stop_on_signal(handle: ShutdownHandle) -> io::Result<()> {
    std::thread::Builder::new().name("signals".to_string()).spawn(move || {
        reactor::sys::wait_for_stop_signal().expect("sigwait on a set of valid signals");
        handle.shutdown();
    })?;
    Ok(())
}

/// Shared state of every event loop; the loops' request handler.
struct ServiceState {
    engine: Arc<AnalysisEngine>,
    /// What the event loops share: hand-offs, the drain flag, the request
    /// counts and the sizing in force.
    loops: Arc<reactor::Loops>,
    /// The read deadline, which a 408 reports as its duration.
    read_timeout: Duration,
    /// The circuit breakers of the four analysis endpoints and the
    /// index-management surface, under the names `/health` and the
    /// `breaker.state|endpoint=<name>` gauges report.
    breakers: [(&'static str, CircuitBreaker); 5],
    /// Structured access log; `None` disables logging.
    access_log: Option<AccessLog>,
    /// Delta threshold for background auto-compaction (`None` = off).
    compact_after: Option<u64>,
}

impl ServiceState {
    fn new(config: &ServerConfig, engine: Arc<AnalysisEngine>) -> io::Result<ServiceState> {
        let access_log = match &config.access_log {
            Some(path) => Some(AccessLog::open(path, config.slow_log.as_deref(), config.slow_ms)?),
            None => None,
        };
        let loops = reactor::Loops::new(config.workers, config.queue_capacity)?;
        Ok(ServiceState {
            engine,
            loops,
            read_timeout: Duration::from_millis(config.read_timeout_ms.max(1)),
            breakers: ["scan", "clone_check", "analyze", "batch", "index"]
                .map(|name| (name, CircuitBreaker::new(config.breaker))),
            access_log,
            compact_after: config.compact_after,
        })
    }

    fn breaker(&self, name: &str) -> &CircuitBreaker {
        let (_, breaker) = self
            .breakers
            .iter()
            .find(|(named, _)| *named == name)
            .expect("every breaker a handler names exists");
        breaker
    }
}

static SHED: telemetry::Counter = telemetry::Counter::new("server.shed");
/// Time from a request's parse to the start of its run.
static QUEUE_WAIT: telemetry::Stage = telemetry::Stage::new("queue_wait");

/// The analysis daemon: listener + one event loop per worker + warm
/// engine.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
    max_pipeline: usize,
}

impl Server {
    /// Bind the service. `addr` accepts anything `TcpListener::bind`
    /// does; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]). `config.workers` event loops serve the
    /// connections.
    pub fn bind(
        addr: &str,
        config: ServerConfig,
        engine: Arc<AnalysisEngine>,
    ) -> io::Result<Server> {
        config.check()?;
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            state: Arc::new(ServiceState::new(&config, engine)?),
            max_pipeline: config.max_pipeline.max(1),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops the server from another thread (or from the
    /// `POST /shutdown` endpoint).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { loops: Arc::clone(&self.state.loops) }
    }

    /// Serve until shutdown is requested, then drain in-flight requests
    /// and return once every event loop has. Loop 0 runs on the calling
    /// thread, the others on threads of their own; each polls the
    /// listener through a handle of its own and reads, parses, runs and
    /// answers its own connections' requests. Returns an error when a
    /// loop cannot be started or its epoll instance fails; the other
    /// loops then drain and stop too.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, state, max_pipeline } = self;
        let config = reactor::Config { read_timeout: state.read_timeout, max_pipeline };
        let run_loop = |index, listener| {
            let loops = Arc::clone(&state.loops);
            let served = reactor::Reactor::new(index, listener, loops, Arc::clone(&state), config)
                .and_then(reactor::Reactor::run);
            if served.is_err() {
                state.loops.stop();
            }
            served
        };
        std::thread::scope(|scope| {
            let mut others = Vec::new();
            let mut served = Ok(());
            for index in 1..state.loops.count() {
                let spawned = listener.try_clone().and_then(|listener| {
                    std::thread::Builder::new()
                        .name(format!("loop-{index}"))
                        .spawn_scoped(scope, move || run_loop(index, listener))
                });
                match spawned {
                    Ok(handle) => others.push(handle),
                    Err(e) => {
                        served = Err(e);
                        break;
                    }
                }
            }
            match served {
                Ok(()) => served = run_loop(0, listener),
                Err(_) => state.loops.stop(),
            }
            for handle in others {
                let joined = handle.join().expect("a loop catches every run's panic");
                served = served.and(joined);
            }
            state.loops.close_unclaimed();
            served
        })
    }
}

/// A request parsed by an event loop, waiting for its run on that loop.
struct Job {
    request: Request,
    ids: RequestIds,
    keep_alive: bool,
    /// When the request finished parsing: where its recorded duration
    /// and its queue wait start.
    parsed: Instant,
}

/// The service half of the event loops: owns each parsed request as a
/// job, runs it, sheds with 429 past the queue bound, and answers the
/// protocol-level error classes.
impl reactor::Handler for Arc<ServiceState> {
    type Job = Job;

    fn prepare(&self, view: &http::ReqView<'_>, keep_alive: bool) -> Job {
        let parsed = Instant::now();
        Job { ids: RequestIds::from_view(view), request: view.to_request_lean(), keep_alive, parsed }
    }

    fn run(&self, job: Job) -> Vec<u8> {
        QUEUE_WAIT.record_since(job.parsed);
        run_request(self, &job.request, &job.ids, job.keep_alive, job.parsed)
    }

    fn overloaded(&self, view: &http::ReqView<'_>, keep_alive: bool) -> Vec<u8> {
        let started = Instant::now();
        SHED.incr();
        let reply = (429, JSON, error_json("overloaded", "request queue is full"));
        let ids = RequestIds::from_view(view);
        respond(self, &ids, view.method, view.path, reply, keep_alive, || started.elapsed())
    }

    fn protocol_error(&self, err: &HttpError) -> Vec<u8> {
        let reply = match err {
            HttpError::TooLarge => (413, JSON, error_json("too_large", "request too large")),
            HttpError::Malformed(m) => (400, JSON, error_json("bad_request", m)),
        };
        respond(self, &RequestIds::fresh(), "?", "?", reply, false, || Duration::ZERO)
    }

    fn read_timeout_response(&self) -> Vec<u8> {
        let body = error_json("timeout", "request did not arrive within the read deadline");
        let reply = (408, JSON, body);
        respond(self, &RequestIds::fresh(), "?", "?", reply, false, || self.read_timeout)
    }
}

/// Run one request end to end on the event loop that read it: trace,
/// chaos hook, route, then [`respond`]. Returns the rendered response
/// bytes for the loop to write in pipeline order.
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
    // errors answer with a typed 500; injected *panics* unwind out of
    // the run — the loop catches the panic and closes the connection,
    // exactly the failure the client's retry policy exists for.
    let reply = match faultinject::fire("server/request") {
        Some(message) => (500, JSON, error_json("internal", &message)),
        None => route(request, state),
    };
    trace::annotate("status", reply.0);
    if reply.0 >= 500 {
        trace::mark_error();
    }
    // Finish and buffer the trace *before* the response ships, so a
    // client can immediately GET /debug/trace/<the-echoed-id>.
    drop(trace_guard);
    respond(state, ids, &request.method, &request.path, reply, keep_alive, || started.elapsed())
}

/// Render a response and record it: the RED metrics of the endpoint
/// serving `path` and the access-log line. Every response the server
/// sends is made here. `elapsed` gives the recorded duration once the
/// response is rendered: the time since the request was parsed, zero for
/// a head that never parsed, the read deadline for a 408.
fn respond(
    state: &ServiceState,
    ids: &RequestIds,
    method: &str,
    path: &str,
    (status, content_type, body): Reply,
    keep_alive: bool,
    elapsed: impl FnOnce() -> Duration,
) -> Vec<u8> {
    let bytes = http::render_response(status, content_type, &body, &ids.headers(), keep_alive);
    let dur_us = elapsed().as_micros().min(u64::MAX as u128) as u64;
    if telemetry::enabled() {
        let red = endpoint(path).map_or(&OTHER, |endpoint| &endpoint.red);
        let class = match status {
            200..=299 => 0,
            300..=399 => 1,
            400..=499 => 2,
            _ => 3,
        };
        red.requests[class].incr();
        red.duration_us.observe(dur_us);
    }
    if let Some(log) = &state.access_log {
        log.record(&AccessRecord {
            trace_id: ids.trace_hex(),
            request_id: &ids.request_id,
            method,
            path,
            status,
            dur_us,
            outcome: outcome_of(status, &body),
            body_bytes: body.len(),
        });
    }
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

/// A handler's answer: status, content type and body.
type Reply = (u16, &'static str, String);

/// The RED-metric handles of one endpoint label, resolved once: a
/// request counter per status class (2xx, 3xx, 4xx, 5xx) and a
/// log-linear latency histogram.
struct Red {
    requests: [telemetry::Counter; 4],
    duration_us: telemetry::Histogram,
}

macro_rules! red {
    ($label:literal) => {
        Red {
            requests: [
                telemetry::Counter::new(concat!("http.requests|endpoint=", $label, "|status=2xx")),
                telemetry::Counter::new(concat!("http.requests|endpoint=", $label, "|status=3xx")),
                telemetry::Counter::new(concat!("http.requests|endpoint=", $label, "|status=4xx")),
                telemetry::Counter::new(concat!("http.requests|endpoint=", $label, "|status=5xx")),
            ],
            duration_us: telemetry::Histogram::duration_us(concat!(
                "http.request_duration_us|endpoint=",
                $label
            )),
        }
    };
}

/// One endpoint: the method and path it serves, its handler, and the
/// RED metrics its requests are counted under, labelled by `path`.
struct Endpoint {
    method: &'static str,
    path: &'static str,
    /// Serve `path/<suffix>` instead of `path` itself.
    prefix: bool,
    handler: fn(&Request, &ServiceState) -> Reply,
    red: Red,
}

macro_rules! endpoint {
    ($method:literal, $path:literal, $prefix:literal, $handler:expr) => {
        Endpoint {
            method: $method,
            path: $path,
            prefix: $prefix,
            handler: $handler,
            red: red!($path),
        }
    };
}

/// Every endpoint the server answers. The table routes a request,
/// answers 405 to a served path under another method and 404 to any
/// other path, and labels each request's RED metrics; a path outside it
/// is labelled `other` ([`OTHER`]), so an attacker scanning paths cannot
/// mint unbounded metric names.
static ENDPOINTS: [Endpoint; 13] = [
    endpoint!("POST", "/v1/scan", false, |request, state| {
        analyze(request, state, Some(RequestKind::Scan), state.breaker("scan"))
    }),
    endpoint!("POST", "/v1/clone-check", false, |request, state| {
        analyze(request, state, Some(RequestKind::CloneCheck), state.breaker("clone_check"))
    }),
    endpoint!("POST", "/v1/analyze", false, |request, state| {
        analyze(request, state, None, state.breaker("analyze"))
    }),
    endpoint!("POST", "/v1/batch", false, batch),
    endpoint!("GET", "/v1/index/status", false, |_, state| index_status(state)),
    endpoint!("POST", "/v1/index/insert", false, index_insert),
    endpoint!("POST", "/v1/index/compact", false, |_, state| index_compact(state)),
    endpoint!("GET", "/health", false, |_, state| health(state)),
    endpoint!("GET", "/telemetry", false, |_, state| {
        refresh_gauges(state);
        (200, JSON, telemetry::snapshot().to_json())
    }),
    endpoint!("GET", "/metrics", false, |_, state| {
        refresh_gauges(state);
        (200, PROM, telemetry::prom::render(&telemetry::snapshot()))
    }),
    endpoint!("POST", "/shutdown", false, |_, state| {
        state.loops.stop();
        (200, JSON, "{\"status\":\"shutting_down\"}".to_string())
    }),
    endpoint!("GET", "/debug/traces/recent", false, |request, _| {
        let limit =
            request.query_param("limit").and_then(|v| v.parse().ok()).unwrap_or(32usize).min(512);
        (200, JSON, trace::recent_json(limit))
    }),
    endpoint!("GET", "/debug/trace", true, |request, _| trace_by_id(request)),
];

/// The RED handles of every request no endpoint serves, and of protocol
/// errors, whose path never parsed.
static OTHER: Red = red!("other");

/// The endpoint serving `path`, under whichever method.
fn endpoint(path: &str) -> Option<&'static Endpoint> {
    ENDPOINTS.iter().find(|endpoint| match path.strip_prefix(endpoint.path) {
        Some(rest) if endpoint.prefix => rest.starts_with('/'),
        Some(rest) => rest.is_empty(),
        None => false,
    })
}

fn route(request: &Request, state: &ServiceState) -> Reply {
    match endpoint(&request.path) {
        Some(endpoint) if endpoint.method == request.method => (endpoint.handler)(request, state),
        Some(_) => (405, JSON, error_json("method_not_allowed", "wrong method for endpoint")),
        None => {
            let message = format!("no such endpoint {}", request.path);
            (404, JSON, error_json("not_found", &message))
        }
    }
}

const JSON: &str = "application/json";
/// The largest doc id a JSON number carries exactly (2^53 − 1): the f64
/// number parser rounds anything above it.
const MAX_EXACT_ID: f64 = 9_007_199_254_740_991.0;
/// Prometheus exposition content type (format 0.0.4).
const PROM: &str = "text/plain; version=0.0.4";

/// `GET /health`: liveness, corpus size, the loop count and queue bound
/// in force (each at least 1, whatever the config asked for), the loops'
/// state (`pool.respawns` counts runs that panicked, `pool.queued`
/// requests parsed but not yet run), and every breaker's state.
fn health(state: &ServiceState) -> Reply {
    let breakers: Vec<String> = state
        .breakers
        .iter()
        .map(|(name, breaker)| format!("\"{name}\":\"{}\"", breaker.state_name()))
        .collect();
    let body = format!(
        "{{\"status\":\"ok\",\"v\":1,\"corpus\":{},\"workers\":{},\"queue_capacity\":{},\
         \"pool\":{{\"respawns\":{},\"queued\":{}}},\"breakers\":{{{}}}}}",
        state.engine.corpus_len(),
        state.loops.count(),
        state.loops.capacity(),
        state.loops.panics(),
        state.loops.queued(),
        breakers.join(","),
    );
    (200, JSON, body)
}

/// `GET /debug/trace/<id>`: one buffered span tree, plain or (with
/// `?format=chrome`) in Chrome's trace-event format.
fn trace_by_id(request: &Request) -> Reply {
    let id_hex = &request.path["/debug/trace/".len()..];
    let Some(id) = TraceId::from_hex(id_hex) else {
        return (400, JSON, error_json("bad_request", "trace id must be 1-16 hex digits"));
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
            error_json(
                "not_found",
                "no buffered trace with that id (evicted, sampled out, or tracing is off)",
            ),
        ),
    }
}

/// Refresh the point-in-time gauges (requests waiting to run, breaker
/// states, interner size) so a snapshot taken right after reflects live
/// state.
fn refresh_gauges(state: &ServiceState) {
    let (symbols, bytes) = intern::interner_stats();
    telemetry::gauge_set("intern.symbols", symbols as u64);
    telemetry::gauge_set("intern.bytes", bytes as u64);
    telemetry::gauge_set("pool.workers", state.loops.count() as u64);
    telemetry::gauge_set("pool.queue_depth", state.loops.queued() as u64);
    telemetry::gauge_set("pool.respawns", state.loops.panics());
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
    for (name, breaker) in &state.breakers {
        // 1-based so the closed (normal) state still renders: the
        // snapshot omits zero-valued gauges.
        let code = match breaker.state_name() {
            "closed" => 1,
            "open" => 2,
            _ => 3, // half_open
        };
        telemetry::gauge_set(&format!("breaker.state|endpoint={name}"), code);
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
) -> Reply {
    let Ok(body) = std::str::from_utf8(&request.body) else { return not_utf8() };
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
            error_json("bad_request", "request kind does not match endpoint"),
        );
    }
    // Acquire the breaker only once the request is validated: malformed
    // requests are the caller's fault and must neither consume a
    // half-open probe nor be shed by an open breaker.
    if !breaker.try_acquire() {
        return breaker_open();
    }
    match state.engine.analyze(&parsed) {
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
fn batch(request: &Request, state: &ServiceState) -> Reply {
    let Ok(body) = std::str::from_utf8(&request.body) else { return not_utf8() };
    let items = match pipeline::api::batch_from_json(body) {
        Ok(items) => items,
        Err(error) => return (status_of(&error), JSON, error_to_json(&error)),
    };
    let breaker = state.breaker("batch");
    if !breaker.try_acquire() {
        return breaker_open();
    }
    let mut any_internal = false;
    // Pre-size generously: findings responses run a few hundred bytes.
    let mut out = String::with_capacity(64 + items.len() * 128);
    out.push_str("{\"v\":1,\"kind\":\"batch\",\"results\":[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Each item gets its own full deadline — a slow item times out
        // alone instead of starving its successors.
        let result = item
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|request| state.engine.analyze(request));
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
        breaker.record_failure();
    } else {
        breaker.record_success();
    }
    (200, JSON, out)
}

/// `GET /v1/index/status`: the corpus handle's live lifecycle view —
/// committed snapshot generation, document count, write-ahead log
/// durability state and front-cache effectiveness.
fn index_status(state: &ServiceState) -> Reply {
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
             \"near_hits\":{},\"misses\":{},\"refreshes\":{},\"hit_rate\":{:.4}}}}}",
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
            stats.refreshes,
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
/// brings the delta count to N or beyond kicks off a background
/// compaction.
fn index_insert(request: &Request, state: &ServiceState) -> Reply {
    let Ok(body) = std::str::from_utf8(&request.body) else { return not_utf8() };
    let value = match telemetry::json::parse(body) {
        Ok(value) => value,
        Err(e) => {
            return (400, JSON, error_json("bad_request", &format!("body is not JSON: {e}")));
        }
    };
    match value.get("v").and_then(telemetry::json::Value::as_f64) {
        Some(1.0) => {}
        _ => return (400, JSON, error_json("bad_request", "missing or unsupported \"v\"")),
    }
    let Some(source) = value.get("source").and_then(telemetry::json::Value::as_str) else {
        return (400, JSON, error_json("bad_request", "missing \"source\""));
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
    let breaker = state.breaker("index");
    if !breaker.try_acquire() {
        return breaker_open();
    }
    let corpus = state.engine.corpus_handle();
    match corpus.insert_source(id, source) {
        Ok(doc) => {
            breaker.record_success();
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
            record_index_outcome(breaker, &error);
            (status_of(&error), JSON, error_to_json(&error))
        }
    }
}

/// `POST /v1/index/compact`: fold the in-memory deltas into the next
/// snapshot generation on disk. Answers 503 `index_busy` while another
/// compaction is in flight and 400 when the server runs without a
/// snapshot directory.
fn index_compact(state: &ServiceState) -> Reply {
    let breaker = state.breaker("index");
    if !breaker.try_acquire() {
        return breaker_open();
    }
    let corpus = state.engine.corpus_handle();
    match corpus.compact() {
        Ok(generation) => {
            breaker.record_success();
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
            record_index_outcome(breaker, &error);
            (status_of(&error), JSON, error_to_json(&error))
        }
    }
}

/// Charge the index breaker only for failures that are the service's
/// fault (I/O corruption, internal errors); caller mistakes and the
/// transient busy state are breaker successes, same rule as `analyze`.
fn record_index_outcome(breaker: &CircuitBreaker, error: &AnalysisError) {
    if matches!(error.code(), "internal" | "index_corrupt") {
        breaker.record_failure();
    } else {
        breaker.record_success();
    }
}

/// The 400 a request body that is not UTF-8 gets.
fn not_utf8() -> Reply {
    (400, JSON, error_json("bad_request", "request body is not UTF-8"))
}

/// The 503 a request gets while its endpoint's circuit breaker is open.
fn breaker_open() -> Reply {
    (503, JSON, error_json("breaker_open", "circuit breaker is open; retry after cooldown"))
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
        let config = ServerConfig { workers: 1, queue_capacity: 1, ..ServerConfig::default() };
        let engine = Arc::new(AnalysisEngine::new(AnalysisConfig::default()));
        Arc::new(ServiceState::new(&config, engine).expect("no access log to open"))
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
    fn health_reports_the_sizing_in_force() {
        // One loop and a queue bound of one request, whatever the config says.
        let config = ServerConfig { workers: 0, queue_capacity: 0, ..ServerConfig::default() };
        let engine = Arc::new(AnalysisEngine::new(AnalysisConfig::default()));
        let state = Arc::new(ServiceState::new(&config, engine).expect("no access log to open"));
        let (status, _, body) = route(&get("/health"), &state);
        assert_eq!(status, 200);
        assert!(body.contains("\"workers\":1,\"queue_capacity\":1,"), "{body}");
    }

    #[test]
    fn a_slow_log_without_an_access_log_is_refused() {
        let slow = std::env::temp_dir().join(format!("slow-only-{}.jsonl", std::process::id()));
        let config = ServerConfig { slow_log: Some(slow.clone()), ..ServerConfig::default() };
        let engine = Arc::new(AnalysisEngine::new(AnalysisConfig::default()));
        let Err(e) = Server::bind("127.0.0.1:0", config, engine) else {
            panic!("a slow log without an access log was accepted");
        };
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        let message = e.to_string();
        assert!(message.contains("slow_log") && message.contains("access_log"), "{message}");
        assert!(!slow.exists(), "the refused slow log was created");
    }

    #[test]
    fn routes_health_and_404() {
        let state = state();
        let (status, _, body) = route(&get("/health"), &state);
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""));
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
        assert_eq!(state.breaker("batch").state_name(), "closed");
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
        assert!(body.contains("\"refreshes\":0"), "{body}");
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
        assert_eq!(state.breaker("index").state_name(), "closed");
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
    fn every_endpoint_row_routes_and_counts_under_its_own_label() {
        let state = state();
        telemetry::enable();
        let mut probes: Vec<(&str, String, &str)> = ENDPOINTS
            .iter()
            .map(|endpoint| {
                let path = match endpoint.prefix {
                    true => format!("{}/zz", endpoint.path),
                    false => endpoint.path.to_string(),
                };
                (endpoint.method, path, endpoint.path)
            })
            .collect();
        probes.push(("GET", "/anything/else".into(), "other"));
        for (method, path, label) in probes {
            let request =
                Request { method: method.into(), path: path.clone(), ..Request::default() };
            let reply = route(&request, &state);
            if label == "other" {
                assert_eq!(reply.0, 404, "{path} → {}", reply.2);
            } else {
                assert!(!matches!(reply.0, 404 | 405), "{method} {path} → {reply:?}");
                let wrong = Request { method: "DELETE".into(), ..request };
                assert_eq!(route(&wrong, &state).0, 405, "DELETE {path}");
            }
            let counter = format!("http.requests|endpoint={label}|status={}xx", reply.0 / 100);
            let count = || telemetry::snapshot().counter(&counter).unwrap_or(0);
            let before = count();
            respond(&state, &RequestIds::fresh(), method, &path, reply, false, || Duration::ZERO);
            assert_eq!(count(), before + 1, "{method} {path} → {counter}");
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
}
