//! The traced run: where a request's time goes, layer by layer.
//!
//! * Phase A sends the first [`TRACE_REQUESTS`] requests of the
//!   workload's stream over HTTP from one untraced client, giving the
//!   mean request time and the bare keep-alive round trip.
//! * Phase B replays the same requests in-process on one thread through
//!   the public call of each layer, cache-free, wrapping every call in a
//!   benchmark-side span. A layer's self time is its span minus its
//!   children. The first [`CONTROL_REQUESTS`] sources also run the path
//!   their request does not take (scan or clone check), so every layer
//!   has a cost on every workload; only the request's own path is
//!   attributed to the HTTP time.
//! * Phase C counts cache effectiveness with telemetry on, through an
//!   engine configured like the daemon's.
//! * Ledgers: per-detector cost, the index layer's insert, compaction
//!   and warm-start costs, and a fit of clone-check cost against corpus
//!   size projected to the paper's full sweep.

use crate::http::Conn;
use crate::service::{analysis_request, Setup, WorkDir, COMPACT_AFTER};
use crate::stats::{mean, percentile};
use crate::workload::{self, Inputs, Workload, CORPUS_SCALE, CORPUS_SEED, INSERT_ID_BASE};
use crate::Metric;
use ccc::{Checker, QueryId};
use ccd::normalize::normalize_unit;
use ccd::tokenize::tokenize_unit;
use ccd::{order_independent_similarity, CcdParams, CloneDetector, Fingerprint};
use cpg::Cpg;
use pipeline::api::{
    batch_from_json, error_to_json, AnalysisConfig, AnalysisEngine, AnalysisRequest,
    AnalysisResponse, CloneHit, Finding,
};
use pipeline::corpus_index::{CorpusBuilder, CorpusHandle};
use solidity::AnalysisError;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests each phase replays.
const TRACE_REQUESTS: u64 = 1024;
/// Requests whose first source also runs the other path and the
/// per-detector ledger.
const CONTROL_REQUESTS: u64 = 256;
const RTT_PROBES: u32 = 1000;
/// Inserts of the index ledger (it compacts every [`COMPACT_AFTER`]).
const LEDGER_INSERTS: u64 = 2000;
/// The second corpus size of the clone-cost fit, and its query count.
const FIT_SCALE: f64 = 0.03;
const FIT_QUERIES: usize = 256;
/// The paper's full sweep: Q&A snippets × deployed contracts.
const PAPER_SNIPPETS: f64 = 39_434.0;

/// Every per-layer metric, in report order, with its unit.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &str)> = [
        ("server.rtt_us", "us"),
        ("api.decode_us", "us"),
        ("api.serialize_us", "us"),
        ("api.response_cache.hit_ratio", "fraction"),
        ("api.cpg_cache.hit_ratio", "fraction"),
        ("solidity.parse_us", "us"),
        ("cpg.build_us", "us"),
        ("cpg.nodes", "count"),
        ("ccc.check_us", "us"),
        ("ccc.findings", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for query in QueryId::ALL {
        all.push((format!("ccc.detector.{}_ns", query.name()), "ns"));
    }
    all.extend(
        [
            ("ccd.normalize_us", "us"),
            ("ccd.tokenize_us", "us"),
            ("ccd.digest_us", "us"),
            ("ccd.score_us", "us"),
            ("ccd.matches_per_query", "count"),
            ("ccd.match_yield", "fraction"),
            ("ngram.candidates_us", "us"),
            ("ngram.candidates_per_query", "count"),
            ("corpus_index.matches_us", "us"),
            ("corpus_index.merge_us", "us"),
            ("corpus_index.front_cache.hit_ratio", "fraction"),
            ("corpus_index.insert_p50_us", "us"),
            ("corpus_index.insert_p99_us", "us"),
            ("corpus_index.compact_ms", "ms"),
            ("index_store.wal_bytes_per_insert", "bytes"),
            ("index_store.snapshot_bytes_per_doc", "bytes"),
            ("index_store.snapshot_load_ms", "ms"),
            ("intern.symbols", "count"),
            ("intern.bytes", "bytes"),
            ("bench.http_mean_us", "us"),
            ("bench.unattributed_us", "us"),
            ("projection.paper_sweep_core_h", "h"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    all
}

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: u64,
}

/// Benchmark-side spans, kept in memory until the run ends.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Spans {
    fn enter(&mut self, name: &'static str) {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request: self.request,
        });
        self.open.push(id);
    }

    fn exit(&mut self) {
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end = self.origin.elapsed();
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = black_box(f());
        self.exit();
        out
    }

    /// Per span: its root's name and its self time (duration minus the
    /// durations of its children).
    fn analyse(&self) -> Vec<(&'static str, Duration)> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.end - span.start;
            }
        }
        let mut roots: Vec<&'static str> = Vec::with_capacity(self.spans.len());
        for span in &self.spans {
            let root = span.parent.map_or(span.name, |p| roots[p]);
            roots.push(root);
        }
        self.spans
            .iter()
            .zip(children)
            .zip(roots)
            .map(|((span, children), root)| {
                (root, (span.end - span.start).saturating_sub(children))
            })
            .collect()
    }

    /// Chrome `trace_event` JSON.
    fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"request\":{},\"span\":{id},\"parent\":{parent}}}}}",
                span.name,
                span.start.as_nanos() as f64 / 1e3,
                (span.end - span.start).as_nanos() as f64 / 1e3,
                span.request,
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The cache-free layer objects Phase B calls, and its counts.
struct Lab {
    params: CcdParams,
    checker: Checker,
    corpus: CorpusHandle,
    /// Unsharded reference detector over the same fingerprints, for the
    /// candidate/score split of `CorpusHandle::matches`.
    reference: CloneDetector,
    fingerprints: HashMap<u64, Fingerprint>,
    scans: u64,
    nodes: u64,
    findings: u64,
    queries: u64,
    candidates: u64,
    matches: u64,
    detector_ns: Vec<f64>,
    detector_cpgs: u64,
}

impl Lab {
    fn scan(&mut self, spans: &mut Spans, source: &str) -> Option<Cpg> {
        match spans.time("solidity.parse", || solidity::parse_snippet(source)) {
            Ok(unit) => {
                let cpg = spans.time("cpg.build", || Cpg::from_unit(&unit));
                let outcome = spans.time("ccc.check", || self.checker.check_isolated(&cpg));
                self.scans += 1;
                self.nodes += cpg.graph.node_count() as u64;
                self.findings += outcome.findings.len() as u64;
                let response = AnalysisResponse::Findings(
                    outcome.findings.into_iter().map(Finding::from).collect(),
                );
                spans.time("api.serialize", || response.to_json());
                Some(cpg)
            }
            Err(e) => {
                spans.time("api.serialize", || error_to_json(&AnalysisError::from(e)));
                None
            }
        }
    }

    /// The clone-check path; returns the query fingerprint for the
    /// candidate/score split.
    fn clone_check(&mut self, spans: &mut Spans, source: &str) -> Option<Fingerprint> {
        let mut unit = match spans.time("solidity.parse", || solidity::parse_snippet(source)) {
            Ok(unit) => unit,
            Err(e) => {
                spans.time("api.serialize", || error_to_json(&AnalysisError::from(e)));
                return None;
            }
        };
        spans.time("ccd.normalize", || normalize_unit(&mut unit));
        let tokens = spans.time("ccd.tokenize", || tokenize_unit(&unit));
        if tokens.is_empty() {
            let error = AnalysisError::invalid("nothing fingerprintable in the fragment");
            spans.time("api.serialize", || error_to_json(&error));
            return None;
        }
        let fingerprint = spans.time("ccd.digest", || Fingerprint::of(&tokens));
        let matches = spans.time("corpus_index.matches", || self.corpus.matches(&fingerprint));
        let response = AnalysisResponse::Clones(
            matches
                .iter()
                .map(|m| CloneHit {
                    doc: m.doc,
                    score: m.score,
                })
                .collect(),
        );
        spans.time("api.serialize", || response.to_json());
        Some(fingerprint)
    }

    /// Split one `matches` call into N-gram retrieval and scoring on the
    /// reference detector.
    fn split(&mut self, spans: &mut Spans, query: &Fingerprint) {
        spans.enter("reference");
        let candidates = spans.time("ngram.candidates", || {
            self.reference
                .index()
                .candidates(&query.indexed_text(), self.params.eta)
        });
        let matched = spans.time("ccd.score", || {
            candidates
                .iter()
                .filter(|doc| {
                    order_independent_similarity(query, &self.fingerprints[doc])
                        >= self.params.epsilon
                })
                .count()
        });
        spans.exit();
        self.queries += 1;
        self.candidates += candidates.len() as u64;
        self.matches += matched as u64;
    }

    fn detectors(&mut self, cpg: &Cpg) {
        for (slot, query) in QueryId::ALL.iter().enumerate() {
            let checker = Checker::with_queries(&[*query]);
            let started = Instant::now();
            black_box(checker.check_isolated(black_box(cpg)));
            self.detector_ns[slot] += started.elapsed().as_nanos() as f64;
        }
        self.detector_cpgs += 1;
    }
}

/// Replay request `index` through the layers, as the daemon would.
fn replay(lab: &mut Lab, spans: &mut Spans, inputs: &Inputs, index: u64, body: &mut Vec<u8>) {
    inputs.request(index, body);
    let text = String::from_utf8(std::mem::take(body)).expect("bodies are UTF-8");
    spans.request = index;
    spans.enter("request");
    let decoded = spans.time("api.decode", || {
        if inputs.batched() {
            batch_from_json(&text)
        } else {
            AnalysisRequest::from_json(&text).map(|request| vec![Ok(request)])
        }
    });
    let mut queries = Vec::new();
    for item in decoded.unwrap_or_default() {
        match item {
            Ok(AnalysisRequest::Scan { source, .. }) => {
                lab.scan(spans, &source);
            }
            Ok(AnalysisRequest::CloneCheck { source }) => {
                queries.extend(lab.clone_check(spans, &source));
            }
            Err(e) => {
                spans.time("api.serialize", || error_to_json(&e));
            }
        }
    }
    spans.exit();
    for query in &queries {
        lab.split(spans, query);
    }
    *body = text.into_bytes();
}

/// Both paths and the detector ledger on the request's first source.
fn control(lab: &mut Lab, spans: &mut Spans, inputs: &Inputs, index: u64) {
    let source = inputs.items(index).remove(0).source;
    spans.request = index;
    spans.enter("control");
    let cpg = lab.scan(spans, &source);
    let query = lab.clone_check(spans, &source);
    spans.exit();
    if let Some(query) = query {
        lab.split(spans, &query);
    }
    if let Some(cpg) = cpg {
        lab.detectors(&cpg);
    }
}

struct PhaseA {
    rtt_us: f64,
    http_mean_us: f64,
    /// Per request, in stream order.
    http_us: Vec<f64>,
    failed: u64,
    symbols: usize,
    bytes: usize,
}

fn phase_a(workload: Workload, seed: u64, seconds: u64, work: &WorkDir) -> Result<PhaseA, String> {
    let setup = Setup::build(workload, seed, seconds, &work.0)?;
    let mut conn = Conn::new(setup.daemon.addr);
    let mut failed = 0;
    let mut rtt = Vec::new();
    for probe in 0..RTT_PROBES + 100 {
        let started = Instant::now();
        let ok = matches!(conn.get("/health"), Ok(r) if r.status == 200);
        if probe >= 100 {
            rtt.push(started.elapsed().as_nanos() as f64 / 1e3);
        }
        failed += u64::from(!ok);
    }
    let mut http = Vec::new();
    let mut body = Vec::new();
    for index in 0..TRACE_REQUESTS {
        let call = setup.inputs.request(index, &mut body);
        let started = Instant::now();
        let ok = matches!(conn.post(call.path, &body), Ok(r) if r.status < 500 && r.status != 429);
        http.push(started.elapsed().as_nanos() as f64 / 1e3);
        failed += u64::from(!ok);
    }
    let (symbols, bytes) = intern::interner_stats();
    setup.daemon.stop()?;
    Ok(PhaseA {
        rtt_us: mean(&rtt),
        http_mean_us: mean(&http),
        http_us: http,
        failed,
        symbols,
        bytes,
    })
}

struct PhaseC {
    response_hit: f64,
    cpg_hit: f64,
    front_hit: f64,
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Cache effectiveness through a daemon-configured engine. Workloads
/// whose requests repeat replay one window to fill the caches first;
/// on `ingest_mixed` each read is followed by an insert, about the mix
/// of the measured run (200 inserts/s beside 200-300 reads/s).
fn phase_c(inputs: &Inputs, corpus: &[(u64, Fingerprint)]) -> PhaseC {
    let params = AnalysisConfig::default().ccd_params();
    let handle = CorpusBuilder::new(params).from_fingerprints(corpus.to_vec());
    let engine = AnalysisEngine::with_corpus_handle(AnalysisConfig::default(), handle);
    let counter = |name: &str| telemetry::snapshot().counter(name).unwrap_or(0);
    let names = [
        "api.response_cache_hits",
        "api.response_cache_misses",
        "api.cache_hits",
        "api.cache_misses",
    ];
    let start = if inputs.workload.repeats() {
        TRACE_REQUESTS
    } else {
        0
    };
    telemetry::enable();
    let mut before = [0u64; 4];
    let mut front_before = engine.corpus_handle().front_cache_stats();
    for index in 0..start + TRACE_REQUESTS {
        if index == start {
            before = names.map(counter);
            front_before = engine.corpus_handle().front_cache_stats();
        }
        for item in inputs.items(index) {
            let _ = black_box(engine.analyze(&analysis_request(&item)));
        }
        if let Some(insert) = inputs.inserts.get(index as usize) {
            let _ = engine
                .corpus_handle()
                .insert_source(Some(insert.id), &insert.source);
        }
    }
    let after = names.map(counter);
    telemetry::disable();
    let front = engine.corpus_handle().front_cache_stats();
    let hits =
        (front.exact_hits + front.near_hits) - (front_before.exact_hits + front_before.near_hits);
    PhaseC {
        response_hit: ratio(after[0] - before[0], after[1] - before[1]),
        cpg_hit: ratio(after[2] - before[2], after[3] - before[3]),
        front_hit: ratio(hits, front.misses - front_before.misses),
    }
}

struct Ledger {
    insert_us: Vec<f64>,
    compact_ms: Vec<f64>,
    wal_bytes_per_insert: f64,
    snapshot_bytes_per_doc: f64,
    load_ms: f64,
}

/// Insert with a write-ahead log, compact every [`COMPACT_AFTER`]
/// inserts, then warm-start from the last generation.
fn index_ledger(
    corpus: &[(u64, Fingerprint)],
    inserts: Vec<Fingerprint>,
    work: &WorkDir,
) -> Result<Ledger, String> {
    let params = AnalysisConfig::default().ccd_params();
    let dir = work.0.join("ledger");
    let builder = || CorpusBuilder::new(params).snapshot_dir(&dir);
    let err = |e: AnalysisError| e.to_string();
    let handle = builder().from_fingerprints(corpus.to_vec());
    let generation = handle.compact().map_err(err)?;
    let store = index_store::SnapshotStore::open(&dir).map_err(err)?;
    let size = std::fs::metadata(store.generation_path(generation))
        .map_err(|e| e.to_string())?
        .len();
    let snapshot_bytes_per_doc = size as f64 / corpus.len() as f64;
    let mut ledger = Ledger {
        insert_us: Vec::new(),
        compact_ms: Vec::new(),
        wal_bytes_per_insert: 0.0,
        snapshot_bytes_per_doc,
        load_ms: 0.0,
    };
    let (mut wal_bytes, mut wal_records) = (0u64, 0u64);
    for (k, fingerprint) in inserts.into_iter().enumerate() {
        let started = Instant::now();
        handle
            .insert_fingerprint(Some(INSERT_ID_BASE + k as u64), fingerprint)
            .map_err(err)?;
        ledger
            .insert_us
            .push(started.elapsed().as_nanos() as f64 / 1e3);
        if (k as u64 + 1).is_multiple_of(COMPACT_AFTER) {
            let wal = handle.wal_stats().unwrap_or_default();
            wal_bytes += wal.bytes;
            wal_records += wal.records;
            let started = Instant::now();
            handle.compact().map_err(err)?;
            ledger
                .compact_ms
                .push(started.elapsed().as_nanos() as f64 / 1e6);
        }
    }
    ledger.wal_bytes_per_insert = wal_bytes as f64 / wal_records.max(1) as f64;
    drop(handle);
    let started = Instant::now();
    let loaded = builder().load_snapshot().map_err(err)?;
    ledger.load_ms = started.elapsed().as_nanos() as f64 / 1e6;
    if loaded.map(|h| h.len()) != Some(corpus.len() + LEDGER_INSERTS as usize) {
        return Err("warm start lost documents".into());
    }
    ledger.insert_us.sort_by(f64::total_cmp);
    Ok(ledger)
}

/// Mean in-process clone-check time (fingerprint + match), µs.
fn clone_cost(corpus: &CorpusHandle, queries: &[String]) -> f64 {
    let started = Instant::now();
    for query in queries {
        if let Ok(fingerprint) = CloneDetector::try_fingerprint_source(query) {
            black_box(corpus.matches(&fingerprint));
        }
    }
    started.elapsed().as_nanos() as f64 / 1e3 / queries.len() as f64
}

pub struct Report {
    pub metrics: Vec<Metric>,
    pub text: String,
    pub failed: u64,
    pub attempted: u64,
}

pub fn trace(workload: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let work = WorkDir::create(&format!("trace-{}", workload.name()))?;
    let params = AnalysisConfig::default().ccd_params();
    telemetry::disable();
    telemetry::trace::set_enabled(false);

    let a = phase_a(workload, seed, seconds, &work)?;

    let qa = workload::population();
    let inputs = Inputs::from_population(&qa, workload, seed, seconds);
    let small = CorpusBuilder::fingerprint_sources(
        workload::contracts(&qa, CORPUS_SCALE, CORPUS_SEED)
            .iter()
            .map(|(id, s)| (*id, s.as_str())),
    );
    let large = CorpusBuilder::fingerprint_sources(
        workload::contracts(&qa, FIT_SCALE, CORPUS_SEED)
            .iter()
            .map(|(id, s)| (*id, s.as_str())),
    );
    let ledger_sources = workload::contracts(
        &qa,
        (LEDGER_INSERTS as f64 + 1.0) / workload::FULL_CONTRACTS,
        seed.wrapping_add(1),
    );

    // Phase B.
    let mut lab = Lab {
        params,
        checker: Checker::new(),
        corpus: CorpusBuilder::new(params)
            .front_cache_capacity(0)
            .from_fingerprints(small.clone()),
        reference: CloneDetector::from_shared(params, Arc::new(small.clone())),
        fingerprints: small.iter().cloned().collect(),
        scans: 0,
        nodes: 0,
        findings: 0,
        queries: 0,
        candidates: 0,
        matches: 0,
        detector_ns: vec![0.0; QueryId::ALL.len()],
        detector_cpgs: 0,
    };
    let mut spans = Spans {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        request: 0,
    };
    let mut body = Vec::new();
    for index in 0..TRACE_REQUESTS {
        replay(&mut lab, &mut spans, &inputs, index, &mut body);
    }
    for index in 0..CONTROL_REQUESTS {
        control(&mut lab, &mut spans, &inputs, index);
    }

    let c = phase_c(&inputs, &small);

    let ledger_fps: Vec<Fingerprint> =
        CorpusBuilder::fingerprint_sources(ledger_sources.iter().map(|(id, s)| (*id, s.as_str())))
            .into_iter()
            .map(|(_, fp)| fp)
            .take(LEDGER_INSERTS as usize)
            .collect();
    if ledger_fps.len() != LEDGER_INSERTS as usize {
        return Err("ledger contracts did not all fingerprint".into());
    }
    let ledger = index_ledger(&small, ledger_fps, &work)?;

    // Clone-check cost against corpus size, from the workload's sources.
    let mut queries: Vec<String> = Vec::new();
    let mut index = 0;
    while queries.len() < FIT_QUERIES {
        queries.extend(inputs.items(index).into_iter().map(|item| item.source));
        index += 1;
    }
    queries.truncate(FIT_QUERIES);
    let fit_handle = |docs: &[(u64, Fingerprint)]| {
        CorpusBuilder::new(params)
            .front_cache_capacity(0)
            .from_fingerprints(docs.to_vec())
    };
    let points = [
        (
            small.len() as f64,
            clone_cost(&fit_handle(&small), &queries),
        ),
        (
            large.len() as f64,
            clone_cost(&fit_handle(&large), &queries),
        ),
    ];
    let slope = (points[1].1 - points[0].1) / (points[1].0 - points[0].0);
    let intercept = points[0].1 - slope * points[0].0;
    let per_query_us = intercept + slope * workload::FULL_CONTRACTS;
    let core_h = PAPER_SNIPPETS * per_query_us / 3.6e9;

    // Self times by layer.
    let analysed = spans.analyse();
    let mut self_total: HashMap<&str, (Duration, u64)> = HashMap::new();
    let mut attributed = HashMap::<&str, Duration>::new();
    let mut in_process = vec![0.0; TRACE_REQUESTS as usize];
    for ((root, own), span) in analysed.iter().zip(&spans.spans) {
        let entry = self_total.entry(span.name).or_default();
        entry.0 += *own;
        entry.1 += 1;
        if *root == "request" && span.name != "request" {
            *attributed.entry(span.name).or_default() += *own;
            in_process[span.request as usize] += own.as_nanos() as f64 / 1e3;
        }
    }
    // Paired per request: HTTP time minus the same request's in-process
    // time. Its median is insensitive to the rare scheduling stalls that
    // inflate the mean on a shared host.
    let mut excess: Vec<f64> = a
        .http_us
        .iter()
        .zip(&in_process)
        .map(|(h, p)| h - p)
        .collect();
    excess.sort_by(f64::total_cmp);
    let self_us = |name: &str| {
        self_total
            .get(name)
            .map_or(0.0, |(total, n)| total.as_nanos() as f64 / 1e3 / *n as f64)
    };
    let attributed_us: f64 = attributed
        .values()
        .map(|d| d.as_nanos() as f64 / 1e3)
        .sum::<f64>()
        / TRACE_REQUESTS as f64
        + a.rtt_us;
    let unattributed = a.http_mean_us - attributed_us;
    let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let merge_us =
        self_us("corpus_index.matches") - self_us("ngram.candidates") - self_us("ccd.score");

    let mut values: HashMap<String, f64> = HashMap::new();
    let mut set = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    set("server.rtt_us", a.rtt_us);
    for name in [
        "api.decode",
        "api.serialize",
        "solidity.parse",
        "cpg.build",
        "ccc.check",
        "ccd.normalize",
        "ccd.tokenize",
        "ccd.digest",
        "ccd.score",
        "ngram.candidates",
        "corpus_index.matches",
    ] {
        set(&format!("{name}_us"), self_us(name));
    }
    set("api.response_cache.hit_ratio", c.response_hit);
    set("api.cpg_cache.hit_ratio", c.cpg_hit);
    set("cpg.nodes", per(lab.nodes, lab.scans));
    set("ccc.findings", per(lab.findings, lab.scans));
    for (slot, query) in QueryId::ALL.iter().enumerate() {
        set(
            &format!("ccc.detector.{}_ns", query.name()),
            lab.detector_ns[slot] / lab.detector_cpgs.max(1) as f64,
        );
    }
    set("ccd.matches_per_query", per(lab.matches, lab.queries));
    set("ccd.match_yield", per(lab.matches, lab.candidates));
    set(
        "ngram.candidates_per_query",
        per(lab.candidates, lab.queries),
    );
    set("corpus_index.merge_us", merge_us);
    set("corpus_index.front_cache.hit_ratio", c.front_hit);
    set(
        "corpus_index.insert_p50_us",
        percentile(&ledger.insert_us, 0.5),
    );
    set(
        "corpus_index.insert_p99_us",
        percentile(&ledger.insert_us, 0.99),
    );
    set("corpus_index.compact_ms", mean(&ledger.compact_ms));
    set(
        "index_store.wal_bytes_per_insert",
        ledger.wal_bytes_per_insert,
    );
    set(
        "index_store.snapshot_bytes_per_doc",
        ledger.snapshot_bytes_per_doc,
    );
    set("index_store.snapshot_load_ms", ledger.load_ms);
    set("intern.symbols", a.symbols as f64);
    set("intern.bytes", a.bytes as f64);
    set("bench.http_mean_us", a.http_mean_us);
    set("bench.unattributed_us", unattributed);
    set("projection.paper_sweep_core_h", core_h);
    let metrics: Vec<Metric> = per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let value = values[&name];
            Metric { name, value, unit }
        })
        .collect();

    let path =
        std::path::Path::new("target/perfbench").join(format!("trace-{}.json", workload.name()));
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(spans.chrome_json().as_bytes()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let mut text = String::new();
    let mut line = |s: String| {
        text.push_str(&s);
        text.push('\n');
    };
    line(format!(
        "traced {}: {TRACE_REQUESTS} requests; spans in {}",
        workload.name(),
        path.display()
    ));
    line(format!(
        "  Phase A: http mean {:.1} us, keep-alive rtt {:.1} us",
        a.http_mean_us, a.rtt_us
    ));
    line("  Phase B: self time per request on the request's own path".to_string());
    let mut rows: Vec<_> = attributed.iter().collect();
    rows.sort_by(|x, y| y.1.cmp(x.1));
    for (name, total) in rows {
        let us = total.as_nanos() as f64 / 1e3 / TRACE_REQUESTS as f64;
        line(format!(
            "    {name:<24} {us:>10.1} us  {:>5.1}%",
            100.0 * us / a.http_mean_us
        ));
    }
    line(format!(
        "    {:<24} {:>10.1} us  {:>5.1}%",
        "server.rtt",
        a.rtt_us,
        100.0 * a.rtt_us / a.http_mean_us
    ));
    line(format!(
        "    {:<24} {:>10.1} us  {:>5.1}%  (http mean minus the rows above)",
        "bench.unattributed",
        unattributed,
        100.0 * unattributed / a.http_mean_us
    ));
    line(format!(
        "    median per-request HTTP time over in-process time: {:.1} us (rtt {:.1} us)",
        percentile(&excess, 0.5),
        a.rtt_us
    ));
    line(format!(
        "  Phase C: response cache {:.3}, cpg cache {:.3}, front cache {:.3} hit ratio",
        c.response_hit, c.cpg_hit, c.front_hit
    ));
    line(format!(
        "  Detector ledger over {} CPGs (mean ns per CPG):",
        lab.detector_cpgs
    ));
    for (slot, query) in QueryId::ALL.iter().enumerate() {
        line(format!(
            "    {:<28} {:<16} {:>10.0}",
            query.name(),
            query.category().name(),
            lab.detector_ns[slot] / lab.detector_cpgs.max(1) as f64
        ));
    }
    line(format!(
        "  Index ledger: insert p50 {:.1} us p99 {:.1} us, compact {:.1} ms, warm start {:.2} ms, \
         {:.1} WAL bytes/insert, {:.1} snapshot bytes/doc",
        percentile(&ledger.insert_us, 0.5),
        percentile(&ledger.insert_us, 0.99),
        mean(&ledger.compact_ms),
        ledger.load_ms,
        ledger.wal_bytes_per_insert,
        ledger.snapshot_bytes_per_doc
    ));
    line(format!(
        "  Projection: clone check {:.1} us at {} docs, {:.1} us at {} docs; \
         a + b*docs = {:.1} us at {} docs; {PAPER_SNIPPETS} x {} = {:.2} core-hours",
        points[0].1,
        points[0].0,
        points[1].1,
        points[1].0,
        per_query_us,
        workload::FULL_CONTRACTS,
        workload::FULL_CONTRACTS,
        core_h
    ));
    Ok(Report {
        metrics,
        text,
        failed: a.failed,
        attempted: u64::from(RTT_PROBES + 100) + TRACE_REQUESTS,
    })
}
