//! Load generator for the analysis daemon.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--requests N] [--concurrency N]
//!         [--no-keepalive] [--pipeline-depth N] [--batch N]
//!         [--out PATH] [--no-append] [--smoke] [--chaos]
//!         [--observability] [--trace-overhead] [--serve-gate]
//!         [--warmstart] [--durability]
//! ```
//!
//! Drives a running daemon (`--addr`) or spins up an in-process one on an
//! ephemeral port, fires a mixed scan/clone-check workload from
//! `--concurrency` threads, and appends one throughput/latency point
//! (`rps`, `p50/p95/p99` µs, plus the `keepalive`/`pipeline_depth`/
//! `batch` profile) to the benchmark trajectory file. `--smoke` is the CI
//! mode: a small burst plus response well-formedness checks, designed to
//! finish in seconds.
//!
//! Connection profile: requests reuse one keep-alive connection per
//! worker thread by default; `--no-keepalive` restores the old
//! connect-per-request behavior. `--pipeline-depth N` writes windows of
//! N requests before reading the responses back (HTTP/1.1 pipelining);
//! the per-request clock starts at write time, so queueing inside the
//! window is charged to the request, not hidden. `--batch N` folds N
//! workload items into one `POST /v1/batch` request and counts each item
//! toward throughput.
//!
//! `--serve-gate` is the transport-regression gate: it measures a warm
//! keep-alive burst against an in-process daemon and fails if throughput
//! regressed more than 20% below the last keep-alive `serve_loadgen`
//! point in the trajectory file (one re-measure on a miss). Nothing is
//! appended.
//!
//! `--chaos` is the fault-tolerance mode: the daemon is expected to be
//! running under an armed `FAULT_SPEC`, so requests go through the
//! retrying client and a *typed* error response (an `"kind":"error"`
//! document, any status) counts as a correct outcome. The run fails only
//! on transport-level breakage the retry budget cannot absorb or on
//! responses that do not decode — i.e. exactly the failure modes fault
//! isolation is supposed to prevent. No trajectory point is appended.
//!
//! `--observability` is the tracing/metrics smoke: fires a traced scan
//! with a caller-chosen `X-Trace-Id`, asserts the id is echoed, fetches
//! the span tree from `/debug/trace/<id>` (plain and Chrome formats),
//! checks `/debug/traces/recent`, and validates the full `/metrics`
//! Prometheus exposition including the per-endpoint RED series and the
//! `parse`, `cpg-build` and `ccc-check` stage histograms. Ids must also
//! appear on error responses. In-process daemons get tracing
//! enabled automatically; external ones must run with tracing on.
//!
//! `--trace-overhead` is the performance gate: runs the measured burst
//! twice against an in-process daemon — tracing off, then on — and fails
//! if tracing costs more than 5% throughput (one re-measure on a miss,
//! since a single burst is noisy). Appends both points to the trajectory
//! file tagged `"tracing": "off"/"on"`.
//!
//! `--warmstart` is the persistent-index benchmark: it times a cold
//! corpus build (fingerprint + index every honeypot contract from
//! source) against a warm start from the committed snapshot of the same
//! corpus — with a tail of uncompacted inserts left in the write-ahead
//! log, so the timed load includes the replay a real post-crash boot
//! performs — then drives a near-duplicate clone-check burst (Type I/II
//! mutants of corpus contracts, the copy-paste traffic shape from the
//! paper) through an in-process daemon over the warm index to measure
//! the front-cache hit rate. Fails if the snapshot load is not at least
//! 10x faster than the rebuild; appends one `index_warmstart` point
//! (`cold_ms`, `warm_ms`, `speedup`, `wal_replayed`,
//! `front_cache_hit_rate`).
//!
//! `--durability` is the WAL throughput benchmark: it measures the
//! `/v1/index/insert` rate through an in-process daemon under each
//! fsync policy (`never`, `batch:5`, `always`) on its own fresh
//! snapshot directory. Group commit must hold up: the run fails if
//! `batch:5` lands below half the `never` rate or below the floor
//! recorded by the last `wal_durability` trajectory point (one
//! re-measure on a miss — single bursts are noisy). Appends one
//! `wal_durability` point with all three rates.

use corpus::honeypots::honeypot_dataset;
use index_store::FsyncPolicy;
use pipeline::api::{AnalysisConfig, AnalysisEngine, AnalysisRequest, AnalysisResponse};
use pipeline::corpus_index::CorpusBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use server::{client, Server, ServerConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const HONEYPOT_SEED: u64 = 1;

const SCAN_SNIPPETS: &[&str] = &[
    "function f(address to) public { to.send(1); }",
    "contract Dao { mapping(address => uint) balances; \
     function withdraw() public { uint amount = balances[msg.sender]; \
     msg.sender.call{value: amount}(\"\"); balances[msg.sender] = 0; } }",
    "function kill() public { selfdestruct(msg.sender); }",
    "if (block.timestamp > deadline) { winner = msg.sender; }",
];

/// Connection profile for the measured burst.
#[derive(Clone, Copy)]
struct Profile {
    /// Reuse one connection per worker thread (default on).
    keepalive: bool,
    /// Requests written per pipelined window (1 = request/response
    /// lockstep).
    pipeline_depth: usize,
    /// Workload items folded into one `/v1/batch` request (0 = off).
    batch: usize,
}

struct Args {
    addr: Option<String>,
    requests: usize,
    concurrency: usize,
    profile: Profile,
    out: String,
    append: bool,
    smoke: bool,
    chaos: bool,
    observability: bool,
    trace_overhead: bool,
    serve_gate: bool,
    warmstart: bool,
    durability: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut args = Args {
        addr: None,
        requests: 256,
        concurrency: 16,
        profile: Profile { keepalive: true, pipeline_depth: 1, batch: 0 },
        out: "BENCH_trajectory.json".to_string(),
        append: true,
        smoke: false,
        chaos: false,
        observability: false,
        trace_overhead: false,
        serve_gate: false,
        warmstart: false,
        durability: false,
    };
    let mut i = 1;
    while i < argv.len() {
        let value = |i: usize| {
            argv.get(i + 1).unwrap_or_else(|| {
                eprintln!("missing value for {}", argv[i]);
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--addr" => {
                args.addr = Some(value(i).clone());
                i += 2;
            }
            "--requests" => {
                args.requests = value(i).parse().expect("--requests must be a count");
                i += 2;
            }
            "--concurrency" => {
                args.concurrency = value(i).parse().expect("--concurrency must be a count");
                i += 2;
            }
            "--out" => {
                args.out = value(i).clone();
                i += 2;
            }
            "--no-keepalive" => {
                args.profile.keepalive = false;
                i += 1;
            }
            "--pipeline-depth" => {
                args.profile.pipeline_depth =
                    value(i).parse().expect("--pipeline-depth must be a count");
                i += 2;
            }
            "--batch" => {
                args.profile.batch = value(i).parse().expect("--batch must be a count");
                i += 2;
            }
            "--serve-gate" => {
                args.serve_gate = true;
                i += 1;
            }
            "--no-append" => {
                args.append = false;
                i += 1;
            }
            "--smoke" => {
                args.smoke = true;
                i += 1;
            }
            "--chaos" => {
                args.chaos = true;
                i += 1;
            }
            "--observability" => {
                args.observability = true;
                i += 1;
            }
            "--trace-overhead" => {
                args.trace_overhead = true;
                i += 1;
            }
            "--warmstart" => {
                args.warmstart = true;
                i += 1;
            }
            "--durability" => {
                args.durability = true;
                i += 1;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    if args.smoke {
        args.requests = args.requests.min(64);
        args.concurrency = args.concurrency.min(8);
    }
    if args.chaos {
        // Latency points measured through injected faults would poison
        // the trajectory file.
        args.append = false;
    }
    if args.trace_overhead && args.addr.is_some() {
        // The gate toggles the process-global tracing switch, which only
        // reaches an in-process daemon.
        eprintln!("--trace-overhead drives its own in-process daemon; drop --addr");
        std::process::exit(2);
    }
    if args.warmstart && args.addr.is_some() {
        // The benchmark owns the corpus lifecycle (cold build, snapshot
        // commit, warm reload); an external daemon's corpus is opaque.
        eprintln!("--warmstart drives its own in-process daemon; drop --addr");
        std::process::exit(2);
    }
    if args.durability && args.addr.is_some() {
        // The benchmark restarts the daemon once per fsync policy.
        eprintln!("--durability drives its own in-process daemons; drop --addr");
        std::process::exit(2);
    }
    if args.serve_gate {
        if args.addr.is_some() {
            eprintln!("--serve-gate drives its own in-process daemon; drop --addr");
            std::process::exit(2);
        }
        // The gate compares against the recorded baseline; it never
        // writes a point of its own.
        args.append = false;
    }
    if args.profile.pipeline_depth == 0 {
        args.profile.pipeline_depth = 1;
    }
    if args.profile.batch > 0 && !args.profile.keepalive {
        eprintln!("--batch requires keep-alive connections; drop --no-keepalive");
        std::process::exit(2);
    }
    args
}

fn main() {
    let args = parse_args();
    let dataset = honeypot_dataset(HONEYPOT_SEED);

    if args.observability || args.trace_overhead {
        // Both modes read the process-wide metric registry; the traced
        // smoke additionally needs span buffering in the in-process
        // daemon.
        telemetry::enable();
    }
    if args.observability && args.addr.is_none() {
        telemetry::trace::set_enabled(true);
        telemetry::trace::init_from_env();
    }
    if args.trace_overhead {
        trace_overhead_gate(&args, &dataset);
        return;
    }
    if args.serve_gate {
        serve_gate(&args, &dataset);
        return;
    }
    if args.warmstart {
        warmstart_bench(&args, &dataset);
        return;
    }
    if args.durability {
        durability_bench(&args);
        return;
    }

    // Resolve a target: external daemon or an in-process one.
    let mut in_process: Option<(server::ShutdownHandle, std::thread::JoinHandle<()>)> = None;
    let addr = match &args.addr {
        Some(addr) => addr.clone(),
        None => {
            let (addr, handle, join) = spawn_in_process(&dataset);
            in_process = Some((handle, join));
            addr
        }
    };

    if args.chaos {
        chaos_smoke(&addr);
    } else {
        smoke_checks(&addr, &dataset);
    }
    if args.observability {
        observability_smoke(&addr);
        shutdown_in_process(in_process);
        return;
    }

    let (bodies, paths) = build_workload(&dataset, args.requests);
    let outcome = run_burst(
        &addr,
        &bodies,
        &paths,
        args.concurrency,
        args.chaos,
        &retry_policy(),
        args.profile,
    );
    let BurstOutcome { lat, elapsed, failed, typed_errors, shed } = &outcome;
    if args.chaos {
        println!(
            "[loadgen] chaos: {} ok, {} typed errors, {} shed, {} failed in {:.2}s",
            lat.len(),
            typed_errors,
            shed,
            failed,
            elapsed.as_secs_f64()
        );
        if *failed > 0 {
            eprintln!("[loadgen] FAIL: {failed} requests broke through fault isolation");
            std::process::exit(1);
        }
        if lat.is_empty() {
            eprintln!("[loadgen] FAIL: no request succeeded under chaos");
            std::process::exit(1);
        }
        shutdown_in_process(in_process);
        return;
    }
    if lat.is_empty() {
        eprintln!("[loadgen] FAIL: no successful requests ({failed} failures)");
        std::process::exit(1);
    }
    let rps = outcome.rps();
    println!(
        "[loadgen] {} ok / {} failed in {:.2}s — {:.1} req/s, p50 {} µs, p95 {} µs, p99 {} µs",
        lat.len(),
        failed,
        elapsed.as_secs_f64(),
        rps,
        outcome.pct(0.50),
        outcome.pct(0.95),
        outcome.pct(0.99)
    );
    if *failed > 0 {
        eprintln!("[loadgen] FAIL: {failed} requests failed");
        std::process::exit(1);
    }

    if args.append {
        let point = format!(
            "{{\"bench\": \"serve_loadgen\", \"requests\": {}, \"concurrency\": {}, {}, \"rps\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}}",
            lat.len(),
            args.concurrency,
            profile_fields(args.profile),
            rps,
            outcome.pct(0.50),
            outcome.pct(0.95),
            outcome.pct(0.99)
        );
        match append_point(&args.out, &point) {
            Ok(()) => println!("[loadgen] appended point to {}", args.out),
            Err(e) => {
                eprintln!("[loadgen] FAIL: could not append to {}: {e}", args.out);
                std::process::exit(1);
            }
        }
    }

    shutdown_in_process(in_process);
}

/// Bind and run an in-process daemon over the standard 64-contract warm
/// corpus; returns its address, shutdown handle and join handle.
fn spawn_in_process(
    dataset: &corpus::honeypots::HoneypotDataset,
) -> (String, server::ShutdownHandle, std::thread::JoinHandle<()>) {
    let engine = Arc::new(AnalysisEngine::with_corpus(
        AnalysisConfig::default(),
        dataset.contracts.iter().take(64).map(|c| (c.id, c.source.as_str())),
    ));
    let server = Server::bind("127.0.0.1:0", ServerConfig::default(), engine)
        .expect("failed to bind in-process server");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || {
        server.run().expect("in-process server failed");
    });
    (addr, handle, join)
}

fn shutdown_in_process(
    in_process: Option<(server::ShutdownHandle, std::thread::JoinHandle<()>)>,
) {
    if let Some((handle, join)) = in_process {
        handle.shutdown();
        join.join().expect("server thread");
    }
}

/// The measured burst's request mix: a deterministic scan/clone-check
/// alternation over the standard snippets and corpus prefixes.
fn build_workload(
    dataset: &corpus::honeypots::HoneypotDataset,
    requests: usize,
) -> (Vec<String>, Vec<&'static str>) {
    let bodies: Vec<String> = (0..requests)
        .map(|i| {
            if i % 2 == 0 {
                AnalysisRequest::scan(SCAN_SNIPPETS[i / 2 % SCAN_SNIPPETS.len()]).to_json()
            } else {
                let contract = &dataset.contracts[i % dataset.contracts.len().min(64)];
                AnalysisRequest::clone_check(contract.source.as_str()).to_json()
            }
        })
        .collect();
    let paths: Vec<&'static str> = (0..requests)
        .map(|i| if i % 2 == 0 { "/v1/scan" } else { "/v1/clone-check" })
        .collect();
    (bodies, paths)
}

fn retry_policy() -> client::RetryPolicy {
    client::RetryPolicy { max_attempts: 4, base_delay_ms: 5, max_delay_ms: 100, seed: 0xC4A05 }
}

/// What one burst produced: sorted success latencies (µs) plus failure
/// tallies.
struct BurstOutcome {
    lat: Vec<u64>,
    elapsed: std::time::Duration,
    failed: usize,
    typed_errors: usize,
    shed: usize,
}

impl BurstOutcome {
    fn rps(&self) -> f64 {
        self.lat.len() as f64 / self.elapsed.as_secs_f64()
    }

    /// Latency at quantile `q` (nearest-rank on the sorted vector).
    fn pct(&self, q: f64) -> u64 {
        let lat = &self.lat;
        lat[((q * (lat.len() - 1) as f64).round() as usize).min(lat.len() - 1)]
    }
}

/// Per-thread burst bookkeeping, merged into the shared counters when
/// the thread finishes.
#[derive(Default)]
struct Tally {
    lat: Vec<u64>,
    failed: usize,
    typed_errors: usize,
    shed: usize,
}

impl Tally {
    /// Classify one response against a per-request clock captured at
    /// write time.
    fn classify(&mut self, status: u16, body: &str, t0: Instant, chaos: bool) {
        match status {
            200 if AnalysisResponse::from_json(body).is_ok() => {
                self.lat.push(t0.elapsed().as_micros() as u64);
            }
            // Shed load is correct behavior, not a failure, but it
            // carries no latency signal.
            429 => self.shed += 1,
            // Under an armed fault plan, an injected fault surfacing as
            // a typed error document is the contract we are checking.
            _ if chaos && is_typed_error(body) => self.typed_errors += 1,
            _ => self.failed += 1,
        }
    }
}

/// Fire the whole workload from `concurrency` threads and collect the
/// outcome. The profile picks the transport: keep-alive pipelined
/// windows (default), batch requests, or the old connect-per-request
/// path. Chaos mode goes through the retrying client and counts typed
/// error documents as correct.
fn run_burst(
    addr: &str,
    bodies: &[String],
    paths: &[&str],
    concurrency: usize,
    chaos: bool,
    retry_policy: &client::RetryPolicy,
    profile: Profile,
) -> BurstOutcome {
    let cursor = AtomicUsize::new(0);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(bodies.len()));
    let failures = AtomicUsize::new(0);
    let typed_errors = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..concurrency.max(1) {
            scope.spawn(|| {
                let mut tally = Tally::default();
                if profile.batch > 0 && !chaos {
                    batch_worker(addr, bodies, &cursor, profile.batch, &mut tally);
                } else if profile.keepalive && !chaos {
                    pipelined_worker(
                        addr,
                        bodies,
                        paths,
                        &cursor,
                        profile.pipeline_depth,
                        &mut tally,
                    );
                } else {
                    sequential_worker(addr, bodies, paths, &cursor, chaos, retry_policy, &mut tally);
                }
                latencies.lock().expect("latency lock").extend(tally.lat);
                failures.fetch_add(tally.failed, Ordering::Relaxed);
                typed_errors.fetch_add(tally.typed_errors, Ordering::Relaxed);
                shed.fetch_add(tally.shed, Ordering::Relaxed);
            });
        }
    });
    let elapsed = started.elapsed();
    let mut lat = latencies.into_inner().expect("latency lock");
    lat.sort_unstable();
    BurstOutcome {
        lat,
        elapsed,
        failed: failures.load(Ordering::Relaxed),
        typed_errors: typed_errors.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
    }
}

/// The `--no-keepalive` / chaos path: one connection (or retry budget)
/// per request, exactly the pre-reactor behavior.
fn sequential_worker(
    addr: &str,
    bodies: &[String],
    paths: &[&str],
    cursor: &AtomicUsize,
    chaos: bool,
    retry_policy: &client::RetryPolicy,
    tally: &mut Tally,
) {
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= bodies.len() {
            break;
        }
        let t0 = Instant::now();
        let outcome = if chaos {
            client::post_with_retry(addr, paths[i], &bodies[i], retry_policy)
        } else {
            client::post(addr, paths[i], &bodies[i])
        };
        match outcome {
            Ok((status, body)) => tally.classify(status, &body, t0, chaos),
            Err(_) => tally.failed += 1,
        }
    }
}

/// The keep-alive path: claim a window of up to `depth` requests, write
/// them all (clock per request starts at its write), then read the
/// responses back in order. Depth 1 degrades to plain keep-alive
/// request/response lockstep.
fn pipelined_worker(
    addr: &str,
    bodies: &[String],
    paths: &[&str],
    cursor: &AtomicUsize,
    depth: usize,
    tally: &mut Tally,
) {
    let mut conn = client::Connection::new(addr);
    loop {
        let start = cursor.fetch_add(depth, Ordering::Relaxed);
        if start >= bodies.len() {
            break;
        }
        let end = (start + depth).min(bodies.len());
        if conn.connect().is_err() {
            tally.failed += end - start;
            continue;
        }
        let mut t0s: Vec<Instant> = Vec::with_capacity(end - start);
        for i in start..end {
            let t0 = Instant::now();
            if conn.send("POST", paths[i], &bodies[i], &[]).is_err() {
                break;
            }
            t0s.push(t0);
        }
        tally.failed += (end - start) - t0s.len();
        let mut received = 0;
        for t0 in &t0s {
            match conn.recv() {
                Ok(response) => {
                    tally.classify(response.status, &response.body, *t0, false);
                    received += 1;
                }
                Err(_) => break,
            }
        }
        tally.failed += t0s.len() - received;
    }
}

/// The `--batch N` path: fold N workload items into one `/v1/batch`
/// request over a keep-alive connection; each item counts toward
/// throughput with the batch's latency.
fn batch_worker(
    addr: &str,
    bodies: &[String],
    cursor: &AtomicUsize,
    batch: usize,
    tally: &mut Tally,
) {
    use telemetry::json::Value;
    let mut conn = client::Connection::new(addr);
    loop {
        let start = cursor.fetch_add(batch, Ordering::Relaxed);
        if start >= bodies.len() {
            break;
        }
        let end = (start + batch).min(bodies.len());
        let items = end - start;
        let body = format!("[{}]", bodies[start..end].join(","));
        if conn.connect().is_err() {
            tally.failed += items;
            continue;
        }
        let t0 = Instant::now();
        let outcome = conn.send("POST", "/v1/batch", &body, &[]).and_then(|()| conn.recv());
        match outcome {
            Ok(response) if response.status == 200 => {
                let results = telemetry::json::parse(&response.body)
                    .ok()
                    .and_then(|doc| doc.get("results").and_then(Value::as_array).map(<[Value]>::to_vec));
                match results {
                    Some(results) if results.len() == items => {
                        for element in &results {
                            if element.get("kind").and_then(Value::as_str) == Some("error") {
                                tally.failed += 1;
                            } else {
                                tally.lat.push(t0.elapsed().as_micros() as u64);
                            }
                        }
                    }
                    _ => tally.failed += items,
                }
            }
            Ok(response) if response.status == 429 => tally.shed += items,
            _ => tally.failed += items,
        }
    }
}

/// Minimal liveness check for chaos runs: the daemon must answer
/// `/health` (through the retrying client — the health route itself can
/// catch an injected `server/request` fault). Scan/clone-check payload
/// assertions are skipped because injected faults make their outcomes
/// nondeterministic by design.
fn chaos_smoke(addr: &str) {
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
    value.get("kind").and_then(telemetry::json::Value::as_str) == Some("error")
        && value.get("code").and_then(telemetry::json::Value::as_str).is_some()
}

/// Correctness spot-checks before measuring: health, one scan, one
/// clone-check, all decoded through the typed API.
fn smoke_checks(addr: &str, dataset: &corpus::honeypots::HoneypotDataset) {
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

/// End-to-end tracing/metrics smoke against a tracing-enabled daemon:
/// id adoption and echo, span-tree retrieval in both formats, recent
/// summaries, Prometheus exposition validity with stage histograms, and
/// ids on error paths.
fn observability_smoke(addr: &str) {
    use telemetry::json::{parse, Value};
    const TRACE_HEX: &str = "deadbeefcafef00d";

    // A traced scan with a caller-chosen trace id, echoed exactly. The
    // snippet is unique to this mode so the response cache cannot satisfy it:
    // the trace must contain real parse and cpg-build spans, not a
    // cache-hit shortcut.
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
    let doc = parse(&body).unwrap_or_else(|e| panic!("trace JSON invalid: {e}\n{body}"));
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
    let doc = parse(&chrome).unwrap_or_else(|e| panic!("chrome JSON invalid: {e}\n{chrome}"));
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

    // Error responses carry ids too (satellite: every response does).
    let response = client::request_full(addr, "GET", "/nope", "", &[]).expect("404 request");
    assert_eq!(response.status, 404);
    assert!(response.header("x-trace-id").is_some(), "404 response lacks X-Trace-Id");
    assert!(response.header("x-request-id").is_some(), "404 response lacks X-Request-Id");

    println!("[loadgen] observability smoke passed against {addr}");
}

/// Flatten a span-tree node into `(name, dur_ns)` rows.
fn collect_spans(span: &telemetry::json::Value, out: &mut Vec<(String, f64)>) {
    use telemetry::json::Value;
    let name = span.get("name").and_then(Value::as_str).unwrap_or("?").to_string();
    let dur_ns = span.get("dur_ns").and_then(Value::as_f64).unwrap_or(0.0);
    out.push((name, dur_ns));
    if let Some(children) = span.get("children").and_then(Value::as_array) {
        for child in children {
            collect_spans(child, out);
        }
    }
}

/// The tracing-overhead gate: measure the burst with tracing off, then
/// on, against one warm in-process daemon. Tracing must keep at least
/// 95% of the untraced throughput; a miss gets one re-measure (single
/// bursts are noisy). Both points land in the trajectory file.
fn trace_overhead_gate(args: &Args, dataset: &corpus::honeypots::HoneypotDataset) {
    let (addr, handle, join) = spawn_in_process(dataset);
    let (bodies, paths) = build_workload(dataset, args.requests);
    let policy = retry_policy();

    // Warm the daemon (response and front caches) before measuring.
    telemetry::trace::set_enabled(false);
    let warm = run_burst(&addr, &bodies, &paths, args.concurrency, false, &policy, args.profile);
    if warm.lat.is_empty() {
        eprintln!("[loadgen] FAIL: warmup burst had no successes ({} failed)", warm.failed);
        std::process::exit(1);
    }

    let mut measured: Option<(BurstOutcome, BurstOutcome)> = None;
    for attempt in 1..=2 {
        let off = measure(&addr, &bodies, &paths, args.concurrency, &policy, false, args.profile);
        let on = measure(&addr, &bodies, &paths, args.concurrency, &policy, true, args.profile);
        let ratio = on.rps() / off.rps();
        println!(
            "[loadgen] trace overhead attempt {attempt}: off {:.1} req/s, on {:.1} req/s ({:+.1}%)",
            off.rps(),
            on.rps(),
            (ratio - 1.0) * 100.0
        );
        let pass = ratio >= 0.95;
        measured = Some((off, on));
        if pass {
            break;
        }
    }
    telemetry::trace::set_enabled(false);
    handle.shutdown();
    join.join().expect("server thread");

    let (off, on) = measured.expect("at least one measurement attempt");
    if args.append {
        for (tracing, outcome) in [("off", &off), ("on", &on)] {
            let point = format!(
                "{{\"bench\": \"serve_loadgen\", \"requests\": {}, \"concurrency\": {}, {}, \"rps\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"tracing\": \"{tracing}\"}}",
                outcome.lat.len(),
                args.concurrency,
                profile_fields(args.profile),
                outcome.rps(),
                outcome.pct(0.50),
                outcome.pct(0.95),
                outcome.pct(0.99)
            );
            match append_point(&args.out, &point) {
                Ok(()) => println!("[loadgen] appended tracing={tracing} point to {}", args.out),
                Err(e) => {
                    eprintln!("[loadgen] FAIL: could not append to {}: {e}", args.out);
                    std::process::exit(1);
                }
            }
        }
    }
    if on.rps() < 0.95 * off.rps() {
        eprintln!(
            "[loadgen] FAIL: tracing overhead exceeds 5% ({:.1} → {:.1} req/s)",
            off.rps(),
            on.rps()
        );
        std::process::exit(1);
    }
}

/// One overhead measurement: set the tracing switch, fire the burst, and
/// insist every request succeeded (failures would fake a throughput win).
fn measure(
    addr: &str,
    bodies: &[String],
    paths: &[&str],
    concurrency: usize,
    policy: &client::RetryPolicy,
    tracing: bool,
    profile: Profile,
) -> BurstOutcome {
    telemetry::trace::set_enabled(tracing);
    let outcome = run_burst(addr, bodies, paths, concurrency, false, policy, profile);
    if outcome.failed > 0 || outcome.lat.is_empty() {
        eprintln!(
            "[loadgen] FAIL: {} failures / {} ok during overhead measurement (tracing {tracing})",
            outcome.failed,
            outcome.lat.len()
        );
        std::process::exit(1);
    }
    outcome
}

/// The transport-regression gate (`--serve-gate`): a warm keep-alive
/// burst against a fresh in-process daemon must stay within 20% of the
/// last keep-alive `serve_loadgen` point in the trajectory file. A miss
/// gets one re-measure against a fresh daemon — single bursts are noisy.
/// With no recorded baseline the gate only checks the burst succeeds.
fn serve_gate(args: &Args, dataset: &corpus::honeypots::HoneypotDataset) {
    let baseline = baseline_rps(&args.out, args.profile);
    match baseline {
        Some(rps) => println!("[loadgen] serve gate baseline: {rps:.1} req/s from {}", args.out),
        None => {
            println!(
                "[loadgen] serve gate: no keep-alive baseline in {}; checking liveness only",
                args.out
            );
        }
    }
    let (bodies, paths) = build_workload(dataset, args.requests);
    let policy = retry_policy();
    let mut last = 0.0_f64;
    for attempt in 1..=2 {
        let (addr, handle, join) = spawn_in_process(dataset);
        // Warm the daemon (CPG + response caches) so the measured burst
        // sees the same steady state the baseline did.
        let warm = run_burst(&addr, &bodies, &paths, args.concurrency, false, &policy, args.profile);
        if warm.lat.is_empty() {
            eprintln!("[loadgen] FAIL: serve gate warmup had no successes ({} failed)", warm.failed);
            std::process::exit(1);
        }
        let outcome =
            run_burst(&addr, &bodies, &paths, args.concurrency, false, &policy, args.profile);
        handle.shutdown();
        join.join().expect("server thread");
        if outcome.failed > 0 || outcome.lat.is_empty() {
            eprintln!(
                "[loadgen] FAIL: serve gate burst had {} failures / {} ok",
                outcome.failed,
                outcome.lat.len()
            );
            std::process::exit(1);
        }
        last = outcome.rps();
        println!(
            "[loadgen] serve gate attempt {attempt}: {last:.1} req/s, p99 {} µs",
            outcome.pct(0.99)
        );
        if baseline.is_none_or(|rps| last >= 0.8 * rps) {
            println!("[loadgen] serve gate passed");
            return;
        }
    }
    eprintln!(
        "[loadgen] FAIL: {last:.1} req/s regressed more than 20% below the {:.1} req/s baseline",
        baseline.unwrap_or(0.0)
    );
    std::process::exit(1);
}

/// The persistent-index benchmark (`--warmstart`): cold full rebuild vs
/// snapshot load over the full honeypot corpus, then a near-duplicate
/// clone-check burst over the warm index to measure the front cache.
fn warmstart_bench(args: &Args, dataset: &corpus::honeypots::HoneypotDataset) {
    let config = AnalysisConfig::default();
    let dir = std::env::temp_dir().join(format!("sodd_warmstart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold path, exactly what a daemon without a snapshot does on boot:
    // materialize the corpus sources, then fingerprint and index every
    // contract. (The warm path skips all of it, dataset included.)
    let t0 = Instant::now();
    let cold_dataset = honeypot_dataset(HONEYPOT_SEED);
    let cold = CorpusBuilder::new(config.ccd_params())
        .snapshot_dir(&dir)
        .from_sources(cold_dataset.contracts.iter().map(|c| (c.id, c.source.as_str())));
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    cold.compact().expect("snapshot commit");

    // Leave a WAL tail: inserts acknowledged after the commit, exactly
    // what a daemon killed between compactions leaves behind. The timed
    // warm load below must pay for replaying them.
    const WAL_TAIL: usize = 24;
    for i in 0..WAL_TAIL {
        let source = format!(
            "contract Tail{i} {{ uint total; function add(uint v) public {{ total += v + {i}; }} }}"
        );
        cold.insert_source(None, &source).expect("tail insert");
    }
    let cold_len = cold.len();
    // Release the cold handle's WAL writer before a second handle opens
    // the same segment.
    drop(cold);

    // Warm path: assemble the same matcher from the committed snapshot —
    // no tokenizing, no normalization, no re-gramming — plus the WAL
    // replay of the uncompacted tail.
    let t0 = Instant::now();
    let warm = CorpusBuilder::new(config.ccd_params())
        .snapshot_dir(&dir)
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
    let speedup = cold_ms / warm_ms.max(1e-3);
    println!(
        "[loadgen] warmstart: cold build {cold_ms:.1} ms, snapshot load {warm_ms:.2} ms \
         ({speedup:.0}x) over {} docs",
        warm.len()
    );

    // Near-duplicate burst: Type I/II mutants and verbatim repeats of
    // corpus contracts — the copy-paste traffic shape — against a daemon
    // over the warm index. Mutants of one contract share a normalized
    // fingerprint, so repeats land in the front cache's near tier.
    let docs_total = warm.len();
    let engine = Arc::new(AnalysisEngine::with_corpus_handle(config, warm));
    let server = Server::bind("127.0.0.1:0", ServerConfig::default(), engine)
        .expect("failed to bind in-process server");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("in-process server failed"));

    let bodies = near_duplicate_workload(dataset, args.requests);
    let paths: Vec<&'static str> = vec!["/v1/clone-check"; bodies.len()];
    let outcome = run_burst(
        &addr,
        &bodies,
        &paths,
        args.concurrency,
        false,
        &retry_policy(),
        args.profile,
    );
    if outcome.failed > 0 || outcome.lat.is_empty() {
        eprintln!(
            "[loadgen] FAIL: near-duplicate burst had {} failures / {} ok",
            outcome.failed,
            outcome.lat.len()
        );
        std::process::exit(1);
    }
    let (status, body) = client::get(&addr, "/v1/index/status").expect("index status");
    assert_eq!(status, 200, "index status returned {status}: {body}");
    let hit_rate = telemetry::json::parse(&body)
        .ok()
        .and_then(|doc| {
            doc.get("front_cache")?.get("hit_rate").and_then(telemetry::json::Value::as_f64)
        })
        .unwrap_or_else(|| panic!("no front_cache.hit_rate in {body}"));
    println!(
        "[loadgen] warmstart: {} near-duplicate checks at {:.1} req/s, front cache hit rate {:.1}%",
        outcome.lat.len(),
        outcome.rps(),
        hit_rate * 100.0
    );
    handle.shutdown();
    join.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);

    if args.append {
        let point = format!(
            "{{\"bench\": \"index_warmstart\", \"docs\": {docs_total}, \"cold_ms\": {cold_ms:.1}, \"warm_ms\": {warm_ms:.2}, \"speedup\": {speedup:.1}, \"wal_replayed\": {WAL_TAIL}, \"requests\": {}, \"front_cache_hit_rate\": {hit_rate:.4}}}",
            outcome.lat.len()
        );
        match append_point(&args.out, &point) {
            Ok(()) => println!("[loadgen] appended index_warmstart point to {}", args.out),
            Err(e) => {
                eprintln!("[loadgen] FAIL: could not append to {}: {e}", args.out);
                std::process::exit(1);
            }
        }
    }
    // The soft floor CI can hold in a debug build; release builds land
    // far above it (the committed trajectory point records the margin).
    if speedup < 10.0 {
        eprintln!(
            "[loadgen] FAIL: snapshot load is only {speedup:.1}x faster than a cold rebuild"
        );
        std::process::exit(1);
    }
}

/// The WAL throughput benchmark (`--durability`): the `/v1/index/insert`
/// rate under each fsync policy, each on a fresh snapshot directory and
/// in-process daemon. Fails if group commit (`batch:5`, the serve
/// default) costs more than half the `never` rate or lands below the
/// recorded floor; appends one `wal_durability` point.
fn durability_bench(args: &Args) {
    let policies = ["never", "batch:5", "always"];
    let mut rates = Vec::with_capacity(policies.len());
    for name in policies {
        let rps = insert_rate(args, name);
        println!("[loadgen] durability: {} inserts at {rps:.1} req/s under --wal-fsync {name}", args.requests);
        rates.push(rps);
    }
    let (never_rps, mut batch_rps, always_rps) = (rates[0], rates[1], rates[2]);
    let floor = durability_floor(&args.out);
    if batch_rps < never_rps / 2.0 || floor.is_some_and(|f| batch_rps < f) {
        // One re-measure: a single burst on a loaded CI box is noisy.
        eprintln!("[loadgen] durability: batch:5 rate looks low; re-measuring once");
        batch_rps = batch_rps.max(insert_rate(args, "batch:5"));
    }
    if batch_rps < never_rps / 2.0 {
        eprintln!(
            "[loadgen] FAIL: group commit costs too much: batch:5 {batch_rps:.1} req/s \
             vs never {never_rps:.1} req/s"
        );
        std::process::exit(1);
    }
    if let Some(floor) = floor {
        if batch_rps < floor {
            eprintln!(
                "[loadgen] FAIL: batch:5 insert rate {batch_rps:.1} req/s fell below \
                 the recorded floor {floor:.1} req/s"
            );
            std::process::exit(1);
        }
    }
    if args.append {
        let point = format!(
            "{{\"bench\": \"wal_durability\", \"inserts\": {}, \"concurrency\": {}, \"never_rps\": {never_rps:.1}, \"batch_rps\": {batch_rps:.1}, \"always_rps\": {always_rps:.1}, \"floor\": {:.1}}}",
            args.requests,
            args.concurrency,
            batch_rps / 4.0
        );
        match append_point(&args.out, &point) {
            Ok(()) => println!("[loadgen] appended wal_durability point to {}", args.out),
            Err(e) => {
                eprintln!("[loadgen] FAIL: could not append to {}: {e}", args.out);
                std::process::exit(1);
            }
        }
    }
}

/// One durability measurement: a fresh single-document corpus committed
/// under the given fsync policy, an in-process daemon on top, and a
/// keep-alive insert burst of unique contracts from `--concurrency`
/// threads. Returns sustained inserts per second.
fn insert_rate(args: &Args, policy: &str) -> f64 {
    let policy = FsyncPolicy::parse(policy).expect("bench policy parses");
    let dir = std::env::temp_dir().join(format!(
        "sodd_durability_{}_{}",
        policy.name().replace(':', "_"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = AnalysisConfig::default();
    let corpus = CorpusBuilder::new(config.ccd_params())
        .snapshot_dir(&dir)
        .wal_fsync(policy)
        .from_sources([(0u64, "contract Seed { function f(uint v) public { msg.sender.transfer(v); } }")]);
    corpus.compact().expect("seed commit");
    let engine = Arc::new(AnalysisEngine::with_corpus_handle(config, corpus));
    let server = Server::bind("127.0.0.1:0", ServerConfig::default(), engine)
        .expect("failed to bind in-process server");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("in-process server failed"));

    // Every insert is a distinct contract: the WAL append is the work
    // being measured, not front-cache hits.
    let bodies: Vec<String> = (0..args.requests)
        .map(|i| {
            let source = format!(
                "contract D{i} {{ uint total; function add(uint v) public {{ total += v + {i}; }} }}"
            );
            format!("{{\"v\":1,\"source\":\"{}\"}}", telemetry::json::escape(&source))
        })
        .collect();
    let cursor = AtomicUsize::new(0);
    let ok = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..args.concurrency.max(1) {
            scope.spawn(|| {
                let mut conn = client::Connection::new(&addr);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= bodies.len() {
                        break;
                    }
                    let outcome = conn
                        .connect()
                        .and_then(|()| conn.send("POST", "/v1/index/insert", &bodies[i], &[]))
                        .and_then(|()| conn.recv());
                    match outcome {
                        Ok(r) if r.status == 200 && r.body.contains("\"kind\":\"index_inserted\"") => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed();
    handle.shutdown();
    join.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
    let (ok, failed) = (ok.load(Ordering::Relaxed), failed.load(Ordering::Relaxed));
    if failed > 0 || ok == 0 {
        eprintln!(
            "[loadgen] FAIL: insert burst under --wal-fsync {} had {failed} failures / {ok} ok",
            policy.name()
        );
        std::process::exit(1);
    }
    ok as f64 / elapsed.as_secs_f64()
}

/// The floor recorded by the most recent `wal_durability` point, if any.
fn durability_floor(path: &str) -> Option<f64> {
    use telemetry::json::Value;
    let content = std::fs::read_to_string(path).ok()?;
    let doc = telemetry::json::parse(&content).ok()?;
    let points = doc.get("points").and_then(Value::as_array)?;
    points.iter().rev().find_map(|point| {
        if point.get("bench").and_then(Value::as_str) == Some("wal_durability") {
            point.get("floor").and_then(Value::as_f64)
        } else {
            None
        }
    })
}

/// Clone-check bodies for the near-duplicate profile: a rotation over
/// corpus contracts where two of every three requests are Type I/II
/// mutants (deterministically seeded) and the third is verbatim.
fn near_duplicate_workload(
    dataset: &corpus::honeypots::HoneypotDataset,
    requests: usize,
) -> Vec<String> {
    let base_count = dataset.contracts.len().min(64);
    (0..requests)
        .map(|i| {
            let source = dataset.contracts[i % base_count].source.as_str();
            let mut rng = StdRng::seed_from_u64(i as u64);
            let body = match i % 3 {
                0 => source.to_string(),
                1 => corpus::mutate::type_i(source, &mut rng),
                _ => corpus::mutate::type_ii(source, &mut rng),
            };
            AnalysisRequest::clone_check(&body).to_json()
        })
        .collect()
}

/// The most recent keep-alive, non-tracing-tagged `serve_loadgen` point
/// in the trajectory file whose pipeline/batch profile matches the
/// gate's, so the comparison is like for like.
fn baseline_rps(path: &str, profile: Profile) -> Option<f64> {
    use telemetry::json::Value;
    let content = std::fs::read_to_string(path).ok()?;
    let doc = telemetry::json::parse(&content).ok()?;
    let points = doc.get("points").and_then(Value::as_array)?;
    points.iter().rev().find_map(|point| {
        let is_serve =
            point.get("bench").and_then(Value::as_str) == Some("serve_loadgen");
        let keepalive = matches!(point.get("keepalive"), Some(Value::Bool(true)));
        let depth = point.get("pipeline_depth").and_then(Value::as_f64).unwrap_or(1.0);
        let batch = point.get("batch").and_then(Value::as_f64).unwrap_or(0.0);
        if is_serve
            && keepalive
            && depth == profile.pipeline_depth as f64
            && batch == profile.batch as f64
            && point.get("tracing").is_none()
        {
            point.get("rps").and_then(Value::as_f64)
        } else {
            None
        }
    })
}

/// The profile fields every `serve_loadgen` point carries.
fn profile_fields(profile: Profile) -> String {
    format!(
        "\"keepalive\": {}, \"pipeline_depth\": {}, \"batch\": {}",
        profile.keepalive, profile.pipeline_depth, profile.batch
    )
}

/// Append one point to the trajectory file, preserving existing bytes: the
/// new entry is spliced in front of the array's closing bracket, then the
/// whole document is re-parsed as a validity check before writing.
fn append_point(path: &str, point: &str) -> Result<(), String> {
    let content = match std::fs::read_to_string(path) {
        Ok(content) => content,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            "{\n  \"version\": 1,\n  \"points\": [\n  ]\n}\n".to_string()
        }
        Err(e) => return Err(e.to_string()),
    };
    let parsed = telemetry::json::parse(&content)
        .map_err(|e| format!("existing file is not valid JSON: {e}"))?;
    let empty = parsed
        .get("points")
        .and_then(telemetry::json::Value::as_array)
        .ok_or("existing file has no points array")?
        .is_empty();
    let close = content.rfind(']').ok_or("no closing bracket in file")?;
    let (before, after) = content.split_at(close);
    let separator = if empty { "\n    " } else { ",\n    " };
    let updated = format!("{}{separator}{point}\n  {}", before.trim_end(), after);
    telemetry::json::parse(&updated).map_err(|e| format!("splice produced invalid JSON: {e}"))?;
    std::fs::write(path, updated).map_err(|e| e.to_string())
}
