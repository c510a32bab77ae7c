//! Load generator and CI performance gates for the analysis daemon.
//!
//! ```text
//! loadgen <profile> [--addr HOST:PORT] [--requests N] [--concurrency N]
//!         [--out PATH] [--no-append]
//! ```
//!
//! A profile is one row of [`PROFILES`]. The row declares whether `--addr`
//! may point it at a running daemon (otherwise it boots its own
//! in-process [`Daemon`] on an ephemeral port), the workload and the
//! response that counts as a success, the connection shape, the default
//! `--requests`/`--concurrency`, whether it turns telemetry on, its gate,
//! whether it records a trajectory point, and any checks only it makes.
//! Every profile fires requests through one burst function ([`burst`]).
//! Its gate reads a baseline, re-measures a miss and records its points
//! through the trajectory ledger, [`telemetry::trajectory`], into `--out`
//! (default: the workspace's `BENCH_trajectory.json`). A point is
//! recorded only when the gate passes; `--no-append` measures only.
//!
//! | profile | daemon | gate | point |
//! |---|---|---|---|
//! | `serve` | either | every request succeeds | `serve_loadgen` |
//! | `serve-close` | either | as `serve`, one connection per request | `serve_loadgen` |
//! | `serve-pipelined` | either | as `serve`, 16-request pipelined windows | `serve_loadgen` |
//! | `serve-batch` | either | as `serve`, 32 items per `/v1/batch` | `serve_loadgen` |
//! | `smoke` | either | typed health/scan/clone-check checks, then a burst | — |
//! | `chaos` | either | no request breaks through fault isolation; one succeeds | — |
//! | `observability` | either | smoke checks, trace-id echo, span tree, `/metrics` | — |
//! | `trace-overhead` | own | tracing on keeps ≥ 95% of tracing-off throughput | `serve_loadgen` × 2 |
//! | `serve-gate` | own | ≥ 80% of the last keep-alive `serve_loadgen` point | — |
//! | `warmstart` | own | snapshot load ≥ 10× faster than a cold build | `index_warmstart` |
//! | `durability` | own | `batch:5` inserts ≥ ½ `never` and ≥ the recorded floor | `wal_durability` |
//!
//! The `serve*` workload alternates scans of 4 snippets with clone checks
//! of 32 corpus contracts: 36 distinct inputs, so nearly every request is
//! a response- or front-cache hit. `chaos` expects a daemon
//! running under an armed `FAULT_SPEC`: it goes through the retrying
//! client, and a typed error document counts as a correct outcome.

use corpus::honeypots::{honeypot_dataset, HoneypotDataset, HONEYPOT_SEED};
use index_store::FsyncPolicy;
use pipeline::api::{AnalysisConfig, AnalysisEngine, AnalysisRequest, AnalysisResponse};
use pipeline::corpus_index::{CorpusBuilder, CorpusHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use server::{client, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use telemetry::json::Value;
use telemetry::trajectory::{self, append_point, bench_of, gated, last_point};

const SCAN_SNIPPETS: &[&str] = &[
    "function f(address to) public { to.send(1); }",
    "contract Dao { mapping(address => uint) balances; \
     function withdraw() public { uint amount = balances[msg.sender]; \
     msg.sender.call{value: amount}(\"\"); balances[msg.sender] = 0; } }",
    "function kill() public { selfdestruct(msg.sender); }",
    "if (block.timestamp > deadline) { winner = msg.sender; }",
];

/// One row of the profile table.
struct Profile {
    name: &'static str,
    /// Whether `--addr` may name a running daemon. Profiles that own the
    /// daemon's lifecycle (its corpus, tracing switch or fsync policy)
    /// always boot their own.
    external: bool,
    workload: Workload,
    shape: Shape,
    /// Default `--requests` and `--concurrency`.
    requests: usize,
    concurrency: usize,
    /// Turn metrics and tracing on in this process, which an in-process
    /// daemon shares; an external daemon keeps its own switches.
    telemetry: bool,
    gate: Gate,
    /// Whether a passing run appends a trajectory point.
    records: bool,
    /// Checks only this profile makes, run against the target before any
    /// burst.
    checks: Option<fn(&str, &HoneypotDataset)>,
}

/// What a burst fires, and the `200` response that counts as a success.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Scans of [`SCAN_SNIPPETS`] alternating with clone checks of the
    /// odd-indexed contracts among the first 64; success is a decoded
    /// findings/clones document.
    Mixed,
    /// Clone checks of the first 64 contracts, two in three a seeded
    /// Type I/II mutant (the copy-paste traffic that exercises the front
    /// cache); success as for `Mixed`.
    NearDuplicate,
    /// One `/v1/index/insert` of a distinct contract per request; success
    /// is an `index_inserted` document.
    Inserts,
}

/// How burst workers talk to the daemon.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// A fresh connection per request (`Connection: close`).
    Close,
    /// The retrying client, a fresh connection per request; a typed error
    /// document counts as a correct outcome.
    Retry,
    /// One keep-alive connection per worker writing windows of this many
    /// requests before reading the responses back (1 = lockstep). Each
    /// request's clock starts when it is written.
    KeepAlive(usize),
    /// One keep-alive connection per worker, this many items per
    /// `/v1/batch` request; each item counts with the batch's latency.
    Batch(usize),
}

/// What decides pass or fail.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// The row's checks alone; no burst.
    Checks,
    /// Every request succeeds, shed load aside, and at least one does.
    Burst,
    /// No request breaks through fault isolation, and at least one
    /// succeeds.
    Chaos,
    /// Tracing on keeps ≥ 95% of tracing-off throughput; a miss
    /// re-measures both sides.
    TraceOverhead,
    /// ≥ 80% of the last untraced `serve_loadgen` point of the same shape;
    /// a miss re-measures on a fresh, warmed daemon.
    ServeFloor,
    /// A snapshot load (with its WAL replay) ≥ 10× faster than a cold
    /// build; measured once.
    WarmStart,
    /// `batch:5` inserts ≥ ½ the `never` rate and ≥ the last recorded
    /// floor; a miss re-measures `batch:5` only.
    Durability,
}

const SERVE: Profile = Profile {
    name: "serve",
    external: true,
    workload: Workload::Mixed,
    shape: Shape::KeepAlive(1),
    requests: 256,
    concurrency: 16,
    telemetry: false,
    gate: Gate::Burst,
    records: true,
    checks: None,
};

/// Every profile `loadgen` runs.
static PROFILES: &[Profile] = &[
    SERVE,
    Profile { name: "serve-close", shape: Shape::Close, ..SERVE },
    Profile { name: "serve-pipelined", shape: Shape::KeepAlive(16), ..SERVE },
    Profile { name: "serve-batch", shape: Shape::Batch(32), ..SERVE },
    Profile {
        name: "smoke",
        requests: 64,
        concurrency: 8,
        records: false,
        checks: Some(smoke_checks),
        ..SERVE
    },
    Profile {
        name: "chaos",
        shape: Shape::Retry,
        requests: 64,
        concurrency: 8,
        gate: Gate::Chaos,
        records: false,
        checks: Some(chaos_probe),
        ..SERVE
    },
    Profile {
        name: "observability",
        telemetry: true,
        gate: Gate::Checks,
        records: false,
        checks: Some(observability_checks),
        ..SERVE
    },
    Profile {
        name: "trace-overhead",
        external: false,
        telemetry: true,
        gate: Gate::TraceOverhead,
        ..SERVE
    },
    Profile { name: "serve-gate", external: false, gate: Gate::ServeFloor, records: false, ..SERVE },
    Profile {
        name: "warmstart",
        external: false,
        workload: Workload::NearDuplicate,
        gate: Gate::WarmStart,
        ..SERVE
    },
    Profile {
        name: "durability",
        external: false,
        workload: Workload::Inserts,
        gate: Gate::Durability,
        ..SERVE
    },
];

const USAGE: &str = "usage: loadgen <profile> [--addr HOST:PORT] [--requests N] \
                     [--concurrency N] [--out PATH] [--no-append]";

/// A parsed command line.
struct Opts {
    profile: &'static Profile,
    addr: Option<String>,
    requests: usize,
    concurrency: usize,
    out: String,
    append: bool,
}

fn parse_args(argv: &[String]) -> Result<Opts, String> {
    let (name, flags) = argv.split_first().ok_or("missing profile")?;
    let profile = PROFILES
        .iter()
        .find(|p| p.name == name)
        .ok_or_else(|| format!("unknown profile {name}"))?;
    let mut opts = Opts {
        profile,
        addr: None,
        requests: profile.requests,
        concurrency: profile.concurrency,
        out: trajectory::DEFAULT_PATH.to_string(),
        append: profile.records,
    };
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        let mut value = || flags.next().ok_or_else(|| format!("missing value for {flag}"));
        let count = |text: &String| {
            text.parse::<usize>().map_err(|_| format!("{flag} must be a count, not {text:?}"))
        };
        match flag.as_str() {
            "--no-append" => opts.append = false,
            "--addr" if !profile.external => {
                return Err(format!("{name} drives its own in-process daemon; drop --addr"))
            }
            "--addr" => opts.addr = Some(value()?.clone()),
            "--requests" => opts.requests = count(value()?)?,
            "--concurrency" => opts.concurrency = count(value()?)?,
            "--out" => opts.out = value()?.clone(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

/// A gate's verdict: the points to record, or why it failed.
type Run<T> = Result<T, String>;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&argv).unwrap_or_else(|e| {
        let names: Vec<&str> = PROFILES.iter().map(|p| p.name).collect();
        eprintln!("loadgen: {e}\n{USAGE}\nprofiles: {}", names.join(" "));
        std::process::exit(2);
    });
    if opts.profile.telemetry {
        telemetry::enable();
        telemetry::trace::set_enabled(true);
        telemetry::trace::init_from_env();
    }
    let dataset = honeypot_dataset(HONEYPOT_SEED);
    let run = match opts.profile.gate {
        Gate::Checks | Gate::Burst | Gate::Chaos => drive(&opts, &dataset),
        Gate::TraceOverhead => trace_overhead(&opts, &dataset),
        Gate::ServeFloor => serve_floor(&opts, &dataset),
        Gate::WarmStart => warm_start(&opts, &dataset),
        Gate::Durability => durability(&opts, &dataset),
    };
    let points = run.unwrap_or_else(|failure| {
        eprintln!("[loadgen] FAIL: {failure}");
        std::process::exit(1);
    });
    if !opts.append {
        return;
    }
    for point in points {
        if let Err(e) = append_point(&opts.out, &point) {
            eprintln!("[loadgen] FAIL: could not append to {}: {e}", opts.out);
            std::process::exit(1);
        }
        println!("[loadgen] appended point to {}", opts.out);
    }
}

/// An in-process daemon on an ephemeral loopback port. Dropping it shuts
/// the server down and joins its thread.
struct Daemon {
    addr: String,
    shutdown: server::ShutdownHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn start(engine: AnalysisEngine) -> Daemon {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default(), Arc::new(engine))
            .expect("failed to bind in-process server");
        let addr = server.local_addr().expect("bound address").to_string();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run().expect("in-process server failed"));
        Daemon { addr, shutdown, thread: Some(thread) }
    }

    /// The standard target: the first 64 honeypot contracts as the clone
    /// corpus.
    fn standard(dataset: &HoneypotDataset) -> Daemon {
        Daemon::start(AnalysisEngine::with_corpus(
            AnalysisConfig::default(),
            dataset.contracts.iter().take(64).map(|c| (c.id, c.source.as_str())),
        ))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown.shutdown();
        if let Some(Err(_)) = self.thread.take().map(std::thread::JoinHandle::join) {
            eprintln!("[loadgen] in-process daemon panicked");
        }
    }
}

/// One request of a workload: the endpoint and the body.
type Item = (&'static str, String);

impl Workload {
    fn items(self, dataset: &HoneypotDataset, requests: usize) -> Vec<Item> {
        let contracts = &dataset.contracts[..dataset.contracts.len().min(64)];
        let contract = |i: usize| contracts[i % contracts.len()].source.as_str();
        (0..requests)
            .map(|i| match self {
                Workload::Mixed if i % 2 == 0 => {
                    let snippet = SCAN_SNIPPETS[i / 2 % SCAN_SNIPPETS.len()];
                    ("/v1/scan", AnalysisRequest::scan(snippet).to_json())
                }
                Workload::Mixed => {
                    ("/v1/clone-check", AnalysisRequest::clone_check(contract(i)).to_json())
                }
                Workload::NearDuplicate => {
                    let mut rng = StdRng::seed_from_u64(i as u64);
                    let source = match i % 3 {
                        0 => contract(i).to_string(),
                        1 => corpus::mutate::type_i(contract(i), &mut rng),
                        _ => corpus::mutate::type_ii(contract(i), &mut rng),
                    };
                    ("/v1/clone-check", AnalysisRequest::clone_check(&source).to_json())
                }
                Workload::Inserts => {
                    // Distinct contracts: the WAL append is the work being
                    // measured, not front-cache hits.
                    let source = format!(
                        "contract D{i} {{ uint total; function add(uint v) public {{ total += v + {i}; }} }}"
                    );
                    let body =
                        format!("{{\"v\":1,\"source\":\"{}\"}}", telemetry::json::escape(&source));
                    ("/v1/index/insert", body)
                }
            })
            .collect()
    }

    /// Whether a `200` body is this workload's success.
    fn succeeded(self, body: &str) -> bool {
        match self {
            Workload::Inserts => telemetry::json::parse(body)
                .is_ok_and(|doc| doc.get("kind").and_then(Value::as_str) == Some("index_inserted")),
            Workload::Mixed | Workload::NearDuplicate => AnalysisResponse::from_json(body).is_ok(),
        }
    }
}

impl Shape {
    /// The `keepalive`, `pipeline_depth` and `batch` fields of a
    /// `serve_loadgen` point.
    fn fields(self) -> (bool, usize, usize) {
        match self {
            Shape::Close | Shape::Retry => (false, 1, 0),
            Shape::KeepAlive(depth) => (true, depth, 0),
            Shape::Batch(items) => (true, 1, items),
        }
    }
}

/// What one burst produced: sorted success latencies (µs) and failure
/// tallies. Each worker keeps its own and merges it at the end.
#[derive(Default)]
struct Burst {
    lat: Vec<u64>,
    elapsed: Duration,
    failed: usize,
    typed_errors: usize,
    shed: usize,
}

impl Burst {
    fn rps(&self) -> f64 {
        self.lat.len() as f64 / self.elapsed.as_secs_f64()
    }

    /// Latency at quantile `q` (nearest rank; 0 for an empty burst).
    fn pct(&self, q: f64) -> u64 {
        let last = self.lat.len().saturating_sub(1);
        self.lat.get((q * last as f64).round() as usize).copied().unwrap_or(0)
    }

    /// The burst gate: every request succeeded (shed load is correct
    /// behaviour, not a failure) and at least one did.
    fn all_ok(self) -> Run<Burst> {
        if self.failed > 0 || self.lat.is_empty() {
            return Err(format!("{} requests failed, {} succeeded", self.failed, self.lat.len()));
        }
        Ok(self)
    }
}

impl std::fmt::Display for Burst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ok / {} failed in {:.2}s — {:.1} req/s, p50 {} µs, p95 {} µs, p99 {} µs",
            self.lat.len(),
            self.failed,
            self.elapsed.as_secs_f64(),
            self.rps(),
            self.pct(0.50),
            self.pct(0.95),
            self.pct(0.99)
        )
    }
}

/// The one burst function: fire `items` at `addr` from the profile's
/// concurrency in its connection shape.
fn burst(addr: &str, items: &[Item], opts: &Opts) -> Burst {
    let cursor = AtomicUsize::new(0);
    let total = Mutex::new(Burst::default());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..opts.concurrency.max(1) {
            scope.spawn(|| {
                let mut worker = Worker {
                    addr,
                    items,
                    cursor: &cursor,
                    workload: opts.profile.workload,
                    shape: opts.profile.shape,
                    tally: Burst::default(),
                };
                worker.run();
                let mut total = total.lock().expect("tally lock");
                total.lat.extend(worker.tally.lat);
                total.failed += worker.tally.failed;
                total.typed_errors += worker.tally.typed_errors;
                total.shed += worker.tally.shed;
            });
        }
    });
    let mut total = total.into_inner().expect("tally lock");
    total.elapsed = started.elapsed();
    total.lat.sort_unstable();
    total
}

/// One burst thread: claims items from the shared cursor and tallies
/// their outcomes.
struct Worker<'a> {
    addr: &'a str,
    items: &'a [Item],
    cursor: &'a AtomicUsize,
    workload: Workload,
    shape: Shape,
    tally: Burst,
}

/// Retries for the chaos shape.
const CHAOS_RETRY: client::RetryPolicy =
    client::RetryPolicy { max_attempts: 4, base_delay_ms: 5, max_delay_ms: 100, seed: 0xC4A05 };

impl<'a> Worker<'a> {
    /// The next `n` unclaimed items; empty once the workload is spent.
    fn claim(&self, n: usize) -> &'a [Item] {
        let start = self.cursor.fetch_add(n, Ordering::Relaxed).min(self.items.len());
        &self.items[start..(start + n).min(self.items.len())]
    }

    /// Classify one response against a clock started at write time.
    fn classify(&mut self, status: u16, body: &str, t0: Instant) {
        match status {
            200 if self.workload.succeeded(body) => {
                self.tally.lat.push(t0.elapsed().as_micros() as u64)
            }
            // Shed load carries no latency signal.
            429 => self.tally.shed += 1,
            // Under an armed fault plan, an injected fault surfacing as a
            // typed error document is the contract being checked.
            _ if self.shape == Shape::Retry && is_typed_error(body) => self.tally.typed_errors += 1,
            _ => self.tally.failed += 1,
        }
    }

    fn run(&mut self) {
        match self.shape {
            Shape::Close | Shape::Retry => {
                while let [(path, body)] = self.claim(1) {
                    let t0 = Instant::now();
                    let response = match self.shape {
                        Shape::Retry => {
                            client::post_with_retry(self.addr, path, body, &CHAOS_RETRY)
                        }
                        _ => client::post(self.addr, path, body),
                    };
                    match response {
                        Ok((status, body)) => self.classify(status, &body, t0),
                        Err(_) => self.tally.failed += 1,
                    }
                }
            }
            Shape::KeepAlive(depth) => self.pipelined(depth),
            Shape::Batch(items) => self.batched(items),
        }
    }

    /// Write a window of `depth` requests (each clock starts at its write),
    /// then read the responses back in order.
    fn pipelined(&mut self, depth: usize) {
        let mut conn = client::Connection::new(self.addr);
        loop {
            let window = self.claim(depth.max(1));
            if window.is_empty() {
                break;
            }
            if conn.connect().is_err() {
                self.tally.failed += window.len();
                continue;
            }
            let mut sent = Vec::with_capacity(window.len());
            for (path, body) in window {
                let t0 = Instant::now();
                if conn.send("POST", path, body, &[]).is_err() {
                    break;
                }
                sent.push(t0);
            }
            let mut received = 0;
            for t0 in sent {
                let Ok(response) = conn.recv() else { break };
                self.classify(response.status, &response.body, t0);
                received += 1;
            }
            self.tally.failed += window.len() - received;
        }
    }

    /// Fold `n` items into one `/v1/batch` request; each item counts with
    /// the batch's latency.
    fn batched(&mut self, n: usize) {
        let mut conn = client::Connection::new(self.addr);
        loop {
            let window = self.claim(n.max(1));
            if window.is_empty() {
                break;
            }
            let bodies: Vec<&str> = window.iter().map(|(_, body)| body.as_str()).collect();
            let body = format!("[{}]", bodies.join(","));
            if conn.connect().is_err() {
                self.tally.failed += window.len();
                continue;
            }
            let t0 = Instant::now();
            match conn.send("POST", "/v1/batch", &body, &[]).and_then(|()| conn.recv()) {
                Ok(response) if response.status == 200 => {
                    let doc = telemetry::json::parse(&response.body).ok();
                    match doc.as_ref().and_then(|d| d.get("results")).and_then(Value::as_array) {
                        Some(results) if results.len() == window.len() => {
                            for result in results {
                                if result.get("kind").and_then(Value::as_str) == Some("error") {
                                    self.tally.failed += 1;
                                } else {
                                    self.tally.lat.push(t0.elapsed().as_micros() as u64);
                                }
                            }
                        }
                        _ => self.tally.failed += window.len(),
                    }
                }
                Ok(response) if response.status == 429 => self.tally.shed += window.len(),
                _ => self.tally.failed += window.len(),
            }
        }
    }
}

/// Whether `point` is an untraced `serve_loadgen` point measured in
/// `shape`: the serve gate compares like with like.
fn same_shape(point: &Value, shape: Shape) -> bool {
    let (keepalive, depth, batch) = shape.fields();
    let number = |key, default| point.get(key).and_then(Value::as_f64).unwrap_or(default);
    bench_of(point) == Some("serve_loadgen")
        && point.get("keepalive") == Some(&Value::Bool(keepalive))
        && number("pipeline_depth", 1.0) == depth as f64
        && number("batch", 0.0) == batch as f64
        && point.get("tracing").is_none()
}

/// The one `serve_loadgen` point format; `tracing` tags the
/// trace-overhead pair.
fn serve_point(burst: &Burst, opts: &Opts, tracing: Option<&str>) -> String {
    let (keepalive, depth, batch) = opts.profile.shape.fields();
    let tag = tracing.map(|t| format!(", \"tracing\": \"{t}\"")).unwrap_or_default();
    format!(
        "{{\"bench\": \"serve_loadgen\", \"requests\": {}, \"concurrency\": {}, \"keepalive\": {keepalive}, \"pipeline_depth\": {depth}, \"batch\": {batch}, \"rps\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}{tag}}}",
        burst.lat.len(),
        opts.concurrency,
        burst.rps(),
        burst.pct(0.50),
        burst.pct(0.95),
        burst.pct(0.99)
    )
}

/// The profiles that may target a running daemon: the row's checks, then
/// (unless the checks are the whole gate) one burst.
fn drive(opts: &Opts, dataset: &HoneypotDataset) -> Run<Vec<String>> {
    let daemon;
    let addr = match &opts.addr {
        Some(addr) => addr.as_str(),
        None => {
            daemon = Daemon::standard(dataset);
            daemon.addr.as_str()
        }
    };
    if let Some(checks) = opts.profile.checks {
        checks(addr, dataset);
    }
    if opts.profile.gate == Gate::Checks {
        return Ok(Vec::new());
    }
    let outcome = burst(addr, &opts.profile.workload.items(dataset, opts.requests), opts);
    if opts.profile.gate == Gate::Chaos {
        println!(
            "[loadgen] chaos: {} ok, {} typed errors, {} shed, {} failed in {:.2}s",
            outcome.lat.len(),
            outcome.typed_errors,
            outcome.shed,
            outcome.failed,
            outcome.elapsed.as_secs_f64()
        );
        if outcome.failed > 0 {
            return Err(format!("{} requests broke through fault isolation", outcome.failed));
        }
        if outcome.lat.is_empty() {
            return Err("no request succeeded under chaos".to_string());
        }
        return Ok(Vec::new());
    }
    println!("[loadgen] {outcome}");
    let outcome = outcome.all_ok()?;
    Ok(vec![serve_point(&outcome, opts, None)])
}

/// Tracing on against tracing off, both on one warm in-process daemon.
fn trace_overhead(opts: &Opts, dataset: &HoneypotDataset) -> Run<Vec<String>> {
    let daemon = Daemon::standard(dataset);
    let items = opts.profile.workload.items(dataset, opts.requests);
    let traced = |on: bool| {
        telemetry::trace::set_enabled(on);
        burst(&daemon.addr, &items, opts).all_ok()
    };
    // Warm the response and front caches before measuring.
    traced(false)?;
    let ((off, on), passed) = gated(
        || -> Run<(Burst, Burst)> {
            let (off, on) = (traced(false)?, traced(true)?);
            println!(
                "[loadgen] trace overhead: off {:.1} req/s, on {:.1} req/s ({:+.1}%)",
                off.rps(),
                on.rps(),
                (on.rps() / off.rps() - 1.0) * 100.0
            );
            Ok((off, on))
        },
        |(off, on)| on.rps() >= 0.95 * off.rps(),
    )?;
    telemetry::trace::set_enabled(false);
    if !passed {
        return Err(format!(
            "tracing overhead exceeds 5% ({:.1} → {:.1} req/s)",
            off.rps(),
            on.rps()
        ));
    }
    Ok(vec![serve_point(&off, opts, Some("off")), serve_point(&on, opts, Some("on"))])
}

/// A warm burst against a fresh in-process daemon against the last
/// matching point; with no recorded baseline only the burst must succeed.
fn serve_floor(opts: &Opts, dataset: &HoneypotDataset) -> Run<Vec<String>> {
    let baseline = last_point(&opts.out, |p| same_shape(p, opts.profile.shape))
        .and_then(|p| p.get("rps")?.as_f64());
    match baseline {
        Some(rps) => println!("[loadgen] serve gate baseline: {rps:.1} req/s from {}", opts.out),
        None => println!("[loadgen] serve gate: no baseline in {}; liveness only", opts.out),
    }
    let items = opts.profile.workload.items(dataset, opts.requests);
    let (measured, passed) = gated(
        || -> Run<Burst> {
            // Warm the daemon so the measured burst sees the steady state
            // the baseline did.
            let daemon = Daemon::standard(dataset);
            burst(&daemon.addr, &items, opts).all_ok()?;
            let measured = burst(&daemon.addr, &items, opts).all_ok()?;
            println!(
                "[loadgen] serve gate: {:.1} req/s, p99 {} µs",
                measured.rps(),
                measured.pct(0.99)
            );
            Ok(measured)
        },
        |measured| baseline.is_none_or(|rps| measured.rps() >= 0.8 * rps),
    )?;
    if !passed {
        return Err(format!(
            "{:.1} req/s regressed more than 20% below the {:.1} req/s baseline",
            measured.rps(),
            baseline.unwrap_or(0.0)
        ));
    }
    println!("[loadgen] serve gate passed");
    Ok(Vec::new())
}

/// Inserts acknowledged after the snapshot commit and left in the WAL, so
/// the timed warm load pays for replaying them as a post-crash boot does.
const WAL_TAIL: usize = 24;

/// Cold build against snapshot load over the full honeypot corpus, then a
/// near-duplicate burst over the warm index to read the front cache.
fn warm_start(opts: &Opts, dataset: &HoneypotDataset) -> Run<Vec<String>> {
    let dir = scratch_dir("warmstart");
    let (warm, cold_ms, warm_ms) = time_cold_and_warm(&dir);
    let speedup = cold_ms / warm_ms.max(1e-3);
    let docs = warm.len();
    println!(
        "[loadgen] warmstart: cold build {cold_ms:.1} ms, snapshot load {warm_ms:.2} ms \
         ({speedup:.0}x) over {docs} docs"
    );
    let daemon = Daemon::start(AnalysisEngine::with_corpus_handle(AnalysisConfig::default(), warm));
    let items = opts.profile.workload.items(dataset, opts.requests);
    let measured = burst(&daemon.addr, &items, opts).all_ok()?;
    let (status, body) = client::get(&daemon.addr, "/v1/index/status").expect("index status");
    assert_eq!(status, 200, "index status returned {status}: {body}");
    let hit_rate = telemetry::json::parse(&body)
        .ok()
        .and_then(|doc| doc.get("front_cache")?.get("hit_rate")?.as_f64())
        .unwrap_or_else(|| panic!("no front_cache.hit_rate in {body}"));
    println!(
        "[loadgen] warmstart: {} near-duplicate checks at {:.1} req/s, front cache hit rate {:.1}%",
        measured.lat.len(),
        measured.rps(),
        hit_rate * 100.0
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
    // The floor a debug build clears; release builds land far above it.
    if speedup < 10.0 {
        return Err(format!("snapshot load is only {speedup:.1}x faster than a cold rebuild"));
    }
    Ok(vec![format!(
        "{{\"bench\": \"index_warmstart\", \"docs\": {docs}, \"cold_ms\": {cold_ms:.1}, \"warm_ms\": {warm_ms:.2}, \"speedup\": {speedup:.1}, \"wal_replayed\": {WAL_TAIL}, \"requests\": {}, \"front_cache_hit_rate\": {hit_rate:.4}}}",
        measured.lat.len()
    )])
}

/// The warm-start timing: a cold build (materialise the corpus, then
/// fingerprint and index every contract) committed to `dir` with a WAL
/// tail, then a timed snapshot load of it. Returns the warm handle and
/// both times in milliseconds.
fn time_cold_and_warm(dir: &Path) -> (CorpusHandle, f64, f64) {
    let params = AnalysisConfig::default().ccd_params();
    let t0 = Instant::now();
    let cold_dataset = honeypot_dataset(HONEYPOT_SEED);
    let cold = CorpusBuilder::new(params)
        .snapshot_dir(dir)
        .from_sources(cold_dataset.contracts.iter().map(|c| (c.id, c.source.as_str())));
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    cold.compact().expect("snapshot commit");
    for i in 0..WAL_TAIL {
        let source = format!(
            "contract Tail{i} {{ uint total; function add(uint v) public {{ total += v + {i}; }} }}"
        );
        cold.insert_source(None, &source).expect("tail insert");
    }
    let cold_len = cold.len();
    // Release the cold handle's WAL writer before the warm one opens it.
    drop(cold);

    let t0 = Instant::now();
    let warm = CorpusBuilder::new(params)
        .snapshot_dir(dir)
        .load_snapshot()
        .expect("snapshot loads")
        .expect("snapshot exists");
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(warm.len(), cold_len, "snapshot + WAL replay lost documents");
    assert_eq!(
        (warm.deltas() as usize, warm.replayed_on_boot() as usize),
        (WAL_TAIL, WAL_TAIL),
        "the uncompacted tail must replay as deltas"
    );
    (warm, cold_ms, warm_ms)
}

/// Insert throughput under each fsync policy, each on a fresh snapshot
/// directory and daemon.
fn durability(opts: &Opts, dataset: &HoneypotDataset) -> Run<Vec<String>> {
    let floor = last_point(&opts.out, |p| bench_of(p) == Some("wal_durability"))
        .and_then(|p| p.get("floor")?.as_f64());
    let items = opts.profile.workload.items(dataset, opts.requests);
    let rate = |policy: &str| insert_rate(&items, policy, opts);
    let never = rate("never")?;
    let (batch, passed) = gated(
        || rate("batch:5"),
        |&batch| batch >= never / 2.0 && floor.is_none_or(|floor| batch >= floor),
    )?;
    let always = rate("always")?;
    if !passed {
        return Err(format!(
            "batch:5 inserts at {batch:.1} req/s: below half of never ({never:.1} req/s) \
             or the recorded floor ({:.1} req/s)",
            floor.unwrap_or(0.0)
        ));
    }
    Ok(vec![format!(
        "{{\"bench\": \"wal_durability\", \"inserts\": {}, \"concurrency\": {}, \"never_rps\": {never:.1}, \"batch_rps\": {batch:.1}, \"always_rps\": {always:.1}, \"floor\": {:.1}}}",
        opts.requests,
        opts.concurrency,
        batch / 4.0
    )])
}

/// Inserts per second through a fresh daemon over a one-contract corpus
/// committed under `policy`.
fn insert_rate(items: &[Item], policy: &str, opts: &Opts) -> Run<f64> {
    let policy = FsyncPolicy::parse(policy).expect("bench policy parses");
    let name = policy.name();
    let dir = scratch_dir(&format!("durability_{}", name.replace(':', "_")));
    let config = AnalysisConfig::default();
    let seed = "contract Seed { function f(uint v) public { msg.sender.transfer(v); } }";
    let corpus = CorpusBuilder::new(config.ccd_params())
        .snapshot_dir(&dir)
        .wal_fsync(policy)
        .from_sources([(0u64, seed)]);
    corpus.compact().expect("seed commit");
    let daemon = Daemon::start(AnalysisEngine::with_corpus_handle(config, corpus));
    let measured = burst(&daemon.addr, items, opts);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
    if measured.shed > 0 {
        // The rate counts acknowledged inserts; every one must be.
        return Err(format!("{} inserts were shed under --wal-fsync {name}", measured.shed));
    }
    let measured =
        measured.all_ok().map_err(|e| format!("insert burst under --wal-fsync {name}: {e}"))?;
    println!(
        "[loadgen] durability: {} inserts at {:.1} req/s under --wal-fsync {name}",
        measured.lat.len(),
        measured.rps()
    );
    Ok(measured.rps())
}

/// A fresh per-process directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sodd_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The chaos profile's liveness probe: the daemon must answer `/health`
/// through the retrying client (the health route itself can catch an
/// injected `server/request` fault). Payload assertions are skipped:
/// injected faults make those outcomes nondeterministic by design.
fn chaos_probe(addr: &str, _dataset: &HoneypotDataset) {
    let policy = client::RetryPolicy::default();
    let (status, body) =
        client::get_with_retry(addr, "/health", &policy).expect("health request under chaos");
    assert!(
        status == 200 || is_typed_error(&body),
        "health returned {status} with undecodable body: {body}"
    );
    println!("[loadgen] chaos smoke: daemon is answering at {addr}");
}

/// Whether a response body is a well-formed typed error document
/// (`{"kind":"error","code":...}`) as produced by the server's error
/// path — the shape every injected fault must decay to.
fn is_typed_error(body: &str) -> bool {
    let Ok(value) = telemetry::json::parse(body) else { return false };
    value.get("kind").and_then(Value::as_str) == Some("error")
        && value.get("code").and_then(Value::as_str).is_some()
}

/// Correctness spot-checks: health, one scan, one clone-check, all
/// decoded through the typed API.
fn smoke_checks(addr: &str, dataset: &HoneypotDataset) {
    let (status, body) = client::get(addr, "/health").expect("health request");
    assert_eq!(status, 200, "health returned {status}: {body}");
    assert!(body.contains("\"status\":\"ok\""), "unexpected health body: {body}");

    let scan = AnalysisRequest::scan("function f(address to) public { to.send(1); }").to_json();
    let (status, body) = client::post(addr, "/v1/scan", &scan).expect("scan request");
    assert_eq!(status, 200, "scan returned {status}: {body}");
    match AnalysisResponse::from_json(&body).expect("scan response decodes") {
        AnalysisResponse::Findings(findings) => {
            assert!(!findings.is_empty(), "vulnerable snippet produced no findings")
        }
        other => panic!("scan returned {other:?}"),
    }

    let check =
        AnalysisRequest::clone_check(dataset.contracts[0].source.as_str()).to_json();
    let (status, body) = client::post(addr, "/v1/clone-check", &check).expect("clone-check");
    assert_eq!(status, 200, "clone-check returned {status}: {body}");
    match AnalysisResponse::from_json(&body).expect("clone-check response decodes") {
        AnalysisResponse::Clones(hits) => {
            assert!(
                hits.iter().any(|h| h.score == 100.0),
                "corpus contract did not match itself: {hits:?}"
            )
        }
        other => panic!("clone-check returned {other:?}"),
    }
    println!("[loadgen] smoke checks passed against {addr}");
}

/// The smoke checks, then the tracing/metrics walk against a
/// tracing-enabled daemon: id adoption and echo, span-tree retrieval in
/// both formats, recent summaries, Prometheus exposition validity with
/// stage histograms, and ids on error paths.
fn observability_checks(addr: &str, dataset: &HoneypotDataset) {
    const TRACE_HEX: &str = "deadbeefcafef00d";
    smoke_checks(addr, dataset);

    // A traced scan with a caller-chosen trace id, echoed exactly. The
    // snippet is unique to this profile so the response cache cannot
    // satisfy it: the trace must contain real parse and cpg-build spans,
    // not a cache-hit shortcut.
    let scan = AnalysisRequest::scan(
        "contract ObsSmoke { function pay(address to) public { to.send(1); } }",
    )
    .to_json();
    let response = client::request_full(
        addr,
        "POST",
        "/v1/scan",
        &scan,
        &[("X-Trace-Id", TRACE_HEX), ("X-Request-Id", "loadgen-observability")],
    )
    .expect("traced scan request");
    assert_eq!(response.status, 200, "traced scan returned {}: {}", response.status, response.body);
    assert_eq!(
        response.header("x-trace-id"),
        Some(TRACE_HEX),
        "daemon did not echo the adopted trace id"
    );
    assert_eq!(response.header("x-request-id"), Some("loadgen-observability"));

    // The span tree is buffered before the response is written, so it is
    // immediately fetchable — with the pipeline stages at non-zero cost.
    let (status, body) =
        client::get(addr, &format!("/debug/trace/{TRACE_HEX}")).expect("trace fetch");
    assert_eq!(status, 200, "trace fetch returned {status}: {body}");
    let doc = telemetry::json::parse(&body)
        .unwrap_or_else(|e| panic!("trace JSON invalid: {e}\n{body}"));
    let mut spans: Vec<(String, f64)> = Vec::new();
    collect_spans(doc.get("root").expect("trace has a root span"), &mut spans);
    for required in ["parse", "cpg-build"] {
        let (_, dur_ns) = spans
            .iter()
            .find(|(name, _)| name == required)
            .unwrap_or_else(|| panic!("span {required:?} missing from trace: {body}"));
        assert!(*dur_ns > 0.0, "span {required:?} has zero duration: {body}");
    }
    assert!(
        spans.iter().any(|(name, dur_ns)| {
            (name == "ccc-check" || name == "query-eval" || name == "ccd-match") && *dur_ns > 0.0
        }),
        "no query/match span with non-zero duration in trace: {body}"
    );

    // The Chrome export is a traceEvents document Perfetto can load.
    let (status, chrome) =
        client::get(addr, &format!("/debug/trace/{TRACE_HEX}?format=chrome")).expect("chrome");
    assert_eq!(status, 200, "chrome export returned {status}: {chrome}");
    let doc = telemetry::json::parse(&chrome)
        .unwrap_or_else(|e| panic!("chrome JSON invalid: {e}\n{chrome}"));
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("chrome export has a traceEvents array");
    assert!(!events.is_empty(), "chrome export has no events");

    // The recent-trace summaries include our trace.
    let (status, recent) = client::get(addr, "/debug/traces/recent").expect("recent traces");
    assert_eq!(status, 200, "recent traces returned {status}");
    assert!(recent.contains(TRACE_HEX), "recent summaries miss the trace: {recent}");

    // /metrics renders a valid exposition carrying the RED series.
    let (status, metrics) = client::get(addr, "/metrics").expect("metrics fetch");
    assert_eq!(status, 200, "metrics returned {status}");
    telemetry::prom::validate(&metrics)
        .unwrap_or_else(|e| panic!("invalid Prometheus exposition: {e}\n{metrics}"));
    for needle in
        ["http_requests_total", "http_request_duration_us_bucket", "endpoint=\"/v1/scan\""]
    {
        assert!(metrics.contains(needle), "metrics missing {needle}:\n{metrics}");
    }
    // ...and the stage histograms the traced scan's stages fed.
    for stage in ["parse", "cpg-build", "ccc-check"] {
        let needle = format!("{}_count{{stage=\"{stage}\"}}", telemetry::STAGE_METRIC);
        assert!(metrics.contains(&needle), "metrics missing {needle}:\n{metrics}");
    }

    // Error responses carry ids too.
    let response = client::request_full(addr, "GET", "/nope", "", &[]).expect("404 request");
    assert_eq!(response.status, 404);
    assert!(response.header("x-trace-id").is_some(), "404 response lacks X-Trace-Id");
    assert!(response.header("x-request-id").is_some(), "404 response lacks X-Request-Id");

    println!("[loadgen] observability smoke passed against {addr}");
}

/// Flatten a span-tree node into `(name, dur_ns)` rows.
fn collect_spans(span: &Value, out: &mut Vec<(String, f64)>) {
    let name = span.get("name").and_then(Value::as_str).unwrap_or("?").to_string();
    let dur_ns = span.get("dur_ns").and_then(Value::as_f64).unwrap_or(0.0);
    out.push((name, dur_ns));
    if let Some(children) = span.get("children").and_then(Value::as_array) {
        for child in children {
            collect_spans(child, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Opts, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    fn temp_file(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("loadgen_{tag}_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn every_profile_resolves_and_unknown_ones_do_not() {
        for profile in PROFILES {
            let opts = args(profile.name).unwrap();
            assert_eq!(opts.profile.name, profile.name);
            assert_eq!(opts.append, profile.records);
        }
        let defaults = |name: &str| args(name).map(|o| (o.requests, o.concurrency)).unwrap();
        assert_eq!(defaults("smoke"), (64, 8));
        assert_eq!(defaults("chaos"), (64, 8));
        assert_eq!(defaults("serve"), (256, 16));
        assert_eq!(defaults("durability"), (256, 16));

        let opts = args("serve-batch --addr 127.0.0.1:9 --requests 7 --concurrency 3 --out t.json")
            .unwrap();
        assert_eq!(opts.addr.as_deref(), Some("127.0.0.1:9"));
        assert_eq!((opts.requests, opts.concurrency, opts.out.as_str()), (7, 3, "t.json"));
        assert!(opts.append);
        assert!(!args("serve-batch --no-append").unwrap().append);

        for bad in [
            "",
            "serve-gates",
            "--smoke",
            "serve --pipeline-depth 16",
            "serve --no-keepalive",
            "serve --requests",
            "serve --requests many",
        ] {
            assert!(args(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn in_process_profiles_refuse_addr() {
        let own: Vec<&str> = PROFILES.iter().filter(|p| !p.external).map(|p| p.name).collect();
        assert_eq!(own, ["trace-overhead", "serve-gate", "warmstart", "durability"]);
        for name in own {
            let err = args(&format!("{name} --addr 127.0.0.1:9")).err().expect("--addr refused");
            assert!(err.contains("drop --addr"), "{err}");
        }
    }

    /// The `serve_loadgen` and `wal_durability` points of the committed
    /// trajectory, plus a tracing-tagged keep-alive point in the shape
    /// the trace-overhead profile writes.
    const POINTS: &[&str] = &[
        r#"{"bench": "serve_loadgen", "requests": 512, "concurrency": 32, "rps": 1731.6, "p50_us": 17012, "p95_us": 22630, "p99_us": 26967}"#,
        r#"{"bench": "serve_loadgen", "requests": 192, "concurrency": 8, "rps": 1562.0, "p50_us": 5142, "p95_us": 5746, "p99_us": 7575, "tracing": "off"}"#,
        r#"{"bench": "serve_loadgen", "requests": 192, "concurrency": 8, "rps": 1566.3, "p50_us": 5135, "p95_us": 5590, "p99_us": 5685, "tracing": "on"}"#,
        r#"{"bench": "serve_loadgen", "requests": 4096, "concurrency": 8, "keepalive": true, "pipeline_depth": 1, "batch": 0, "rps": 33058.7, "p50_us": 199, "p95_us": 374, "p99_us": 1524}"#,
        r#"{"bench": "serve_loadgen", "requests": 4096, "concurrency": 8, "keepalive": true, "pipeline_depth": 16, "batch": 0, "rps": 38335.2, "p50_us": 2458, "p95_us": 6586, "p99_us": 16169}"#,
        r#"{"bench": "serve_loadgen", "requests": 4096, "concurrency": 8, "keepalive": true, "pipeline_depth": 1, "batch": 32, "rps": 55663.5, "p50_us": 3763, "p95_us": 11308, "p99_us": 14473}"#,
        r#"{"bench": "index_warmstart", "docs": 379, "cold_ms": 41.5, "warm_ms": 0.54, "speedup": 76.4, "requests": 256, "front_cache_hit_rate": 0.5430}"#,
        r#"{"bench": "wal_durability", "inserts": 256, "concurrency": 16, "never_rps": 34469.4, "batch_rps": 32968.1, "always_rps": 6907.1, "floor": 8242.0}"#,
        r#"{"bench": "index_warmstart", "docs": 403, "cold_ms": 31.5, "warm_ms": 0.54, "speedup": 58.4, "wal_replayed": 24, "requests": 256, "front_cache_hit_rate": 0.5430}"#,
        r#"{"bench": "serve_loadgen", "requests": 192, "concurrency": 8, "keepalive": true, "pipeline_depth": 1, "batch": 0, "rps": 9999.9, "p50_us": 1, "p95_us": 2, "p99_us": 3, "tracing": "on"}"#,
    ];

    #[test]
    fn reader_selects_the_gate_baselines() {
        let file = temp_file("reader");
        let path = file.to_str().unwrap();
        for point in POINTS {
            append_point(path, point).unwrap();
        }
        let rps = |shape| {
            last_point(path, |p| same_shape(p, shape)).and_then(|p| p.get("rps")?.as_f64())
        };
        assert_eq!(rps(Shape::KeepAlive(1)), Some(33058.7));
        assert_eq!(rps(Shape::KeepAlive(16)), Some(38335.2));
        assert_eq!(rps(Shape::Batch(32)), Some(55663.5));
        assert_eq!(rps(Shape::Close), None);
        let floor = last_point(path, |p| bench_of(p) == Some("wal_durability"))
            .and_then(|p| p.get("floor")?.as_f64());
        assert_eq!(floor, Some(8242.0));
        assert!(last_point("/nonexistent/trajectory.json", |_| true).is_none());
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn serve_points_keep_the_committed_key_order() {
        fn keys(point: &str) -> Vec<&str> {
            let key = |(at, _): (usize, &str)| point[..at].rsplit('"').next().unwrap();
            point.match_indices("\": ").map(key).collect()
        }
        let burst =
            Burst { lat: vec![100, 200, 300], elapsed: Duration::from_secs(1), ..Burst::default() };
        let opts = args("serve").unwrap();
        let committed = POINTS.iter().find(|p| p.contains("33058.7")).unwrap();
        assert_eq!(keys(&serve_point(&burst, &opts, None)), keys(committed));
        let traced = POINTS.iter().find(|p| p.contains("9999.9")).unwrap();
        assert_eq!(keys(&serve_point(&burst, &opts, Some("on"))), keys(traced));
    }
}
