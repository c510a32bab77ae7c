//! One measured run of one workload: set up, warm up, measure, check.

use crate::cpu;
use crate::http::{Conn, Response};
use crate::service::{
    cold_setup, expected_response, reference_engine, setup_in_child, Setup, SetupTime, WorkDir,
};
use crate::stats::percentile;
use crate::workload::{Inputs, Item, Kind, Workload, INSERT_RATE};
use crate::Metric;
use ccd::CloneDetector;
use pipeline::api::{AnalysisResponse, CloneHit};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The gated end-to-end metrics with their units, in `BENCHMARK.json`
/// order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("cpu_us_per_item", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];
/// Cold set-ups per run, each in a fresh process; the median is reported
/// as `setup_s`.
const SETUP_RUNS: usize = 3;
/// Responses each reader keeps for the oracle.
const SAMPLES_PER_READER: usize = 512;
/// `ingest_mixed` post-run checks.
const INGEST_CHECKS: usize = 128;

/// Outcome counts of one phase.
#[derive(Default, Clone, Copy, Debug)]
pub struct Counts {
    pub attempted: u64,
    pub succeeded: u64,
    /// Transport errors, 5xx, 429 and wrong answers.
    pub failed: u64,
    pub shed: u64,
}

impl Counts {
    fn add(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.shed += other.shed;
    }

    fn record(&mut self, ok: bool, shed: bool) {
        self.attempted += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
        if shed {
            self.shed += 1;
        }
    }
}

/// A kept response: request index, status and body hash.
struct Sample {
    index: u64,
    status: u16,
    hash: u64,
}

fn body_hash(body: &[u8]) -> u64 {
    let mut hasher = DefaultHasher::new();
    body.hash(&mut hasher);
    hasher.finish()
}

/// One client thread's share of the measured window `[from, end]`: the
/// items of the requests it started and completed inside it, and its own
/// CPU time from the start of the first such request to the end of the
/// last. The daemon's CPU time is read over the same window, so work
/// that spills past `end` is neither counted nor paid for.
struct Tally {
    from: Instant,
    end: Instant,
    items: u64,
    cpu_from: Option<Duration>,
    cpu_to: Duration,
}

impl Tally {
    fn new(from: Instant, end: Instant) -> Tally {
        Tally {
            from,
            end,
            items: 0,
            cpu_from: None,
            cpu_to: Duration::ZERO,
        }
    }

    /// A request that started at `started`, when the thread's CPU clock
    /// read `cpu_started`, and completed at `done` with the clock at
    /// `cpu_done`. Returns whether it falls inside the window.
    fn add(
        &mut self,
        (started, cpu_started): (Instant, Duration),
        (done, cpu_done): (Instant, Duration),
        items: u64,
    ) -> bool {
        if started < self.from || done > self.end {
            return false;
        }
        self.cpu_from.get_or_insert(cpu_started);
        self.cpu_to = cpu_done;
        self.items += items;
        true
    }

    fn cpu(&self) -> Duration {
        self.cpu_from
            .map_or(Duration::ZERO, |from| self.cpu_to.saturating_sub(from))
    }
}

/// What one reader thread saw.
struct Reader {
    warmup: Counts,
    measured: Counts,
    latencies_us: Vec<f64>,
    tally: Tally,
    samples: Vec<Sample>,
    seen: u64,
}

impl Reader {
    /// Algorithm R over every response, so the sample is uniform over
    /// the run whatever its length.
    fn keep(&mut self, rng: &mut StdRng, sample: Sample) {
        self.seen += 1;
        if self.samples.len() < SAMPLES_PER_READER {
            self.samples.push(sample);
        } else {
            let slot = rng.gen_range(0..self.seen);
            if (slot as usize) < SAMPLES_PER_READER {
                self.samples[slot as usize] = sample;
            }
        }
    }
}

/// Whether a response is an acceptable kind of answer; its content is
/// the oracle's business. 4xx other than 429 are typed request errors.
fn answered(result: &std::io::Result<Response>) -> (bool, bool) {
    match result {
        Ok(r) => (r.status < 500 && r.status != 429, r.status == 429),
        Err(_) => (false, false),
    }
}

/// Say on stderr why a request counts as failed.
fn report_failure(what: &str, index: u64, result: &std::io::Result<Response>) {
    match result {
        Ok(r) => {
            let body = r.text();
            eprintln!(
                "{what} {index} answered {}: {}",
                r.status,
                &body[..body.len().min(300)]
            );
        }
        Err(e) => eprintln!("{what} {index} failed: {e}"),
    }
}

/// Closed loop: send the next request when the last one is answered.
fn read_loop(
    inputs: &Inputs,
    addr: std::net::SocketAddr,
    next: &AtomicU64,
    measure_from: Instant,
    end: Instant,
    sample_seed: u64,
) -> Reader {
    let mut reader = Reader {
        warmup: Counts::default(),
        measured: Counts::default(),
        latencies_us: Vec::new(),
        tally: Tally::new(measure_from, end),
        samples: Vec::new(),
        seen: 0,
    };
    let mut rng = StdRng::seed_from_u64(sample_seed);
    let mut conn = Conn::new(addr);
    let mut body = Vec::new();
    let mut cpu_mark = cpu::thread();
    loop {
        let started = (Instant::now(), cpu_mark);
        if started.0 >= end {
            break;
        }
        let index = next.fetch_add(1, Ordering::Relaxed);
        let call = inputs.request(index, &mut body);
        let result = conn.post(call.path, &body);
        cpu_mark = cpu::thread();
        let done = (Instant::now(), cpu_mark);
        let (ok, shed) = answered(&result);
        if !ok {
            report_failure("request", index, &result);
        }
        if started.0 >= measure_from {
            reader.measured.record(ok, shed);
        } else {
            reader.warmup.record(ok, shed);
        }
        if reader.tally.add(started, done, u64::from(call.items)) {
            let elapsed = done.0 - started.0;
            reader.latencies_us.push(elapsed.as_nanos() as f64 / 1e3);
        }
        if let Ok(response) = result {
            let sample = Sample {
                index,
                status: response.status,
                hash: body_hash(&response.body),
            };
            reader.keep(&mut rng, sample);
        }
    }
    reader
}

/// What the open-loop writer saw.
struct Writer {
    counts: Counts,
    tally: Tally,
    acked: Vec<u64>,
    latencies_us: Vec<f64>,
    late_us: Vec<f64>,
}

/// Open loop: insert `k` is due at `start + k / INSERT_RATE` whether or
/// not earlier inserts have been answered; its latency runs from the due
/// time, so a stall also charges the inserts queued behind it. A writer
/// that falls behind goes on past `end`; those inserts count as attempted
/// but not as work done in the window.
fn write_loop(inputs: &Inputs, addr: std::net::SocketAddr, start: Instant, end: Instant) -> Writer {
    let mut writer = Writer {
        counts: Counts::default(),
        tally: Tally::new(start, end),
        acked: Vec::new(),
        latencies_us: Vec::new(),
        late_us: Vec::new(),
    };
    let mut conn = Conn::new(addr);
    let mut body = Vec::new();
    let interval = Duration::from_secs(1) / INSERT_RATE as u32;
    for (k, insert) in inputs.inserts.iter().enumerate() {
        let due = start + interval * k as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = (Instant::now(), cpu::thread());
        insert.request(&mut body);
        let id = insert.id;
        let result = conn.post("/v1/index/insert", &body);
        let done = (Instant::now(), cpu::thread());
        writer.tally.add(sent, done, 1);
        writer
            .latencies_us
            .push((done.0 - due).as_nanos() as f64 / 1e3);
        writer
            .late_us
            .push(sent.0.saturating_duration_since(due).as_nanos() as f64 / 1e3);
        let acked = matches!(&result, Ok(r) if r.status == 200 && inserted_doc(r) == Some(id));
        writer
            .counts
            .record(acked, matches!(&result, Ok(r) if r.status == 429));
        if acked {
            writer.acked.push(id);
        } else {
            report_failure("insert", k as u64, &result);
        }
    }
    writer
}

fn inserted_doc(response: &Response) -> Option<u64> {
    let value = telemetry::json::parse(response.text()).ok()?;
    value.get("doc").and_then(|v| v.as_f64()).map(|d| d as u64)
}

/// The outcome of one measured run.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub diagnostics: Vec<Metric>,
    pub phases: Vec<(&'static str, Counts)>,
}

impl Outcome {
    pub fn totals(&self) -> Counts {
        let mut total = Counts::default();
        for (_, counts) in &self.phases {
            total.add(*counts);
        }
        total
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let work = WorkDir::create(workload.name())?;
    let (setup, own) = cold_setup(workload, seed, seconds, &work.0)?;
    let mut setups = vec![own];
    for _ in 1..SETUP_RUNS {
        setups.push(setup_in_child(workload, seed, seconds)?);
    }
    let median = |time: fn(&SetupTime) -> f64| {
        let mut times: Vec<f64> = setups.iter().map(time).collect();
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    let (setup_cpu_s, setup_wall_s) = (median(|t| t.cpu_s), median(|t| t.wall_s));
    let Setup {
        inputs,
        corpus,
        daemon,
    } = setup;
    let addr = daemon.addr;

    let measure_from = Instant::now() + workload.warmup();
    let end = measure_from + Duration::from_secs(seconds);
    let next = AtomicU64::new(0);
    let (readers, writer, window_cpu) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..workload.readers())
            .map(|r| {
                let (inputs, next) = (&inputs, &next);
                scope.spawn(move || {
                    read_loop(inputs, addr, next, measure_from, end, seed ^ r as u64)
                })
            })
            .collect();
        let writer = (workload == Workload::IngestMixed)
            .then(|| scope.spawn(|| write_loop(&inputs, addr, measure_from, end)));
        std::thread::sleep(measure_from.saturating_duration_since(Instant::now()));
        let cpu_from = cpu::process();
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        let window_cpu = cpu::process() - cpu_from;
        let readers: Vec<Reader> = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        (
            readers,
            writer.map(|h| h.join().expect("writer thread panicked")),
            window_cpu,
        )
    });
    let peak_rss = peak_rss_mib();
    let front = corpus.front_cache_stats();

    let mut latencies: Vec<f64> = readers
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    latencies.sort_by(f64::total_cmp);
    let items: u64 = readers.iter().map(|r| r.tally.items).sum();
    let mut warmup = Counts::default();
    let mut measured = Counts::default();
    for reader in &readers {
        warmup.add(reader.warmup);
        measured.add(reader.measured);
    }

    // The daemon's CPU time per unit of work: the process's CPU time in
    // the window minus what the client threads spent in it, over the
    // reads and inserts completed in it.
    let tallies: Vec<&Tally> = readers
        .iter()
        .map(|r| &r.tally)
        .chain(writer.as_ref().map(|w| &w.tally))
        .collect();
    let client_cpu: Duration = tallies.iter().map(|t| t.cpu()).sum();
    let work: u64 = tallies.iter().map(|t| t.items).sum();
    let cpu_us_per_item =
        window_cpu.saturating_sub(client_cpu).as_nanos() as f64 / 1e3 / work.max(1) as f64;
    // Wall-clock rates: what a client sees, but on a shared host they
    // move with the neighbours' load, so they are reported, not gated.
    let mut diagnostics = vec![
        Metric::new("throughput_rps", items as f64 / seconds as f64, "items/s"),
        Metric::new("latency_p50_us", percentile(&latencies, 0.5), "us"),
        Metric::new("latency_p99_us", percentile(&latencies, 0.99), "us"),
        Metric::new("latency_samples", latencies.len() as f64, "count"),
        Metric::new("setup_wall_s", setup_wall_s, "s"),
        Metric::new("front_cache_hit_ratio", front.hit_rate(), "fraction"),
    ];
    let mut phases = vec![("warmup", warmup), ("measure", measured)];
    let oracle = if let Some(writer) = writer {
        let mut ins = writer.latencies_us.clone();
        ins.sort_by(f64::total_cmp);
        let mut late = writer.late_us.clone();
        late.sort_by(f64::total_cmp);
        diagnostics.extend([
            Metric::new("insert_p50_us", percentile(&ins, 0.5), "us"),
            Metric::new("insert_p99_us", percentile(&ins, 0.99), "us"),
            Metric::new("bench.insert_late_p99_us", percentile(&late, 0.99), "us"),
            Metric::new(
                "auto_compactions",
                corpus.auto_compactions() as f64,
                "count",
            ),
        ]);
        phases.push(("insert", writer.counts));
        let (counts, stale) = check_ingest(&inputs, &corpus, addr, &readers, &writer.acked, seed)?;
        diagnostics.push(Metric::new("stale_answers", stale as f64, "count"));
        counts
    } else {
        check_samples(&inputs, &readers)
    };
    phases.push(("oracle", oracle));
    daemon.stop()?;

    let attempted = phases.iter().map(|(_, c)| c.attempted).sum::<u64>();
    let failed = phases.iter().map(|(_, c)| c.failed).sum::<u64>();
    diagnostics.push(Metric::new(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "fraction",
    ));
    let metrics = END_TO_END
        .iter()
        .zip([cpu_us_per_item, setup_cpu_s, peak_rss])
        .map(|((name, unit), value)| Metric::new(name, value, unit))
        .collect();
    Ok(Outcome {
        metrics,
        diagnostics,
        phases,
    })
}

/// Compare every kept response with the cache-free reference engine's
/// answer to the same request, byte for byte (through the body hash).
fn check_samples(inputs: &Inputs, readers: &[Reader]) -> Counts {
    let reference = reference_engine(inputs);
    let mut counts = Counts::default();
    for sample in readers.iter().flat_map(|r| &r.samples) {
        let items = inputs.items(sample.index);
        let (status, body) = expected_response(&reference, &items, inputs.batched());
        let ok = status == sample.status && body_hash(body.as_bytes()) == sample.hash;
        if !ok {
            eprintln!(
                "oracle: request {} answered {} unlike the reference",
                sample.index, sample.status
            );
        }
        counts.record(ok, false);
    }
    counts
}

fn clones_of(response: &Response) -> Option<Vec<CloneHit>> {
    match AnalysisResponse::from_json(response.text()) {
        Ok(AnalysisResponse::Clones(hits)) => Some(hits),
        _ => None,
    }
}

/// After the writer stops: the document count, inserted documents
/// finding themselves, and re-issued reads against a reference detector
/// built from the corpus as it then stands.
///
/// These run twice. Right after the writer stops, a clone check that
/// raced the last insert may have cached its pre-insert answer (the
/// front cache stores after the insert invalidated it); such answers
/// are counted as `stale` and reported, not failed, since they come and
/// go with thread timing. Then one more insert, made with no read in
/// flight, clears the cache, and every check must pass.
fn check_ingest(
    inputs: &Inputs,
    corpus: &pipeline::corpus_index::CorpusHandle,
    addr: std::net::SocketAddr,
    readers: &[Reader],
    acked: &[u64],
    seed: u64,
) -> Result<(Counts, u64), String> {
    let mut counts = Counts::default();
    // Reads answered during the run saw a corpus that has since grown;
    // they must at least be clone lists.
    for sample in readers.iter().flat_map(|r| &r.samples) {
        counts.record(sample.status == 200, false);
    }
    // Let an auto-compaction in flight finish, so nothing runs on after
    // the work directory is removed.
    loop {
        match corpus.compact() {
            Ok(_) => break,
            Err(e) if e.code() == "index_busy" => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => return Err(format!("final compaction: {e}")),
        }
    }
    let mut conn = Conn::new(addr);
    let mut picked = acked.to_vec();
    picked.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x1D6E));
    picked.truncate(INGEST_CHECKS);
    let stale = answer_checks(inputs, corpus, &mut conn, &picked, "stale")
        .into_iter()
        .filter(|ok| !ok)
        .count() as u64;

    let fence = inputs.fence.as_ref().ok_or("ingest inputs carry a fence")?;
    let mut body = Vec::new();
    fence.request(&mut body);
    let response = conn.post("/v1/index/insert", &body);
    counts.record(
        matches!(&response, Ok(r) if r.status == 200 && inserted_doc(r) == Some(fence.id)),
        false,
    );
    let status = conn
        .get("/v1/index/status")
        .map_err(|e| format!("status: {e}"))?;
    let docs = telemetry::json::parse(status.text())
        .ok()
        .and_then(|v| v.get("docs").and_then(|d| d.as_f64()));
    let expected_docs = inputs.corpus.len() + acked.len() + 1;
    let ok = docs == Some(expected_docs as f64);
    if !ok {
        eprintln!("oracle: status reports {docs:?} docs, expected {expected_docs}");
    }
    counts.record(ok, false);
    for ok in answer_checks(inputs, corpus, &mut conn, &picked, "oracle") {
        counts.record(ok, false);
    }
    Ok((counts, stale))
}

/// Inserted documents must find themselves with score 100, and
/// re-issued reads must equal a reference detector's answer over the
/// corpus's current fingerprints. One flag per check.
fn answer_checks(
    inputs: &Inputs,
    corpus: &pipeline::corpus_index::CorpusHandle,
    conn: &mut Conn,
    picked: &[u64],
    label: &str,
) -> Vec<bool> {
    let sources: std::collections::HashMap<u64, &str> = inputs
        .inserts
        .iter()
        .map(|i| (i.id, i.source.as_str()))
        .collect();
    let mut flags = Vec::new();
    for id in picked {
        let body = format!(
            "{{\"v\":1,\"kind\":\"clone_check\",\"source\":\"{}\"}}",
            crate::workload::escape(sources[id])
        );
        let response = conn.post("/v1/clone-check", body.as_bytes());
        let finds_itself =
            |hits: Vec<CloneHit>| hits.iter().any(|h| h.doc == *id && h.score == 100.0);
        let ok = matches!(&response, Ok(r) if clones_of(r).is_some_and(finds_itself));
        if !ok {
            eprintln!("{label}: inserted doc {id} does not find itself");
        }
        flags.push(ok);
    }
    let params = pipeline::api::AnalysisConfig::default().ccd_params();
    let reference = CloneDetector::from_shared(params, Arc::new(corpus.fingerprints()));
    let mut body = Vec::new();
    for index in (0..INGEST_CHECKS as u64).map(|n| n * 7919) {
        let Item { kind, source } = inputs.items(index).remove(0);
        debug_assert_eq!(kind, Kind::Clone);
        let expected = match CloneDetector::try_fingerprint_source(&source) {
            Ok(fp) => AnalysisResponse::Clones(
                reference
                    .matches(&fp)
                    .iter()
                    .map(|m| CloneHit {
                        doc: m.doc,
                        score: m.score,
                    })
                    .collect(),
            )
            .to_json(),
            Err(e) => pipeline::api::error_to_json(&e),
        };
        let call = inputs.request(index, &mut body);
        let response = conn.post(call.path, &body);
        let ok = matches!(&response, Ok(r) if r.body == expected.as_bytes());
        if !ok {
            eprintln!("{label}: re-issued read {index} differs from the reference detector");
        }
        flags.push(ok);
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    /// Feed `tally` back-to-back requests of `busy` wall time and `cpu`
    /// CPU time each, the first starting at `first`, request `k` no
    /// earlier than `due(k)`; `n` of them.
    fn feed(
        tally: &mut Tally,
        first: Instant,
        n: u32,
        due: impl Fn(u32) -> Instant,
        (busy, cpu): (Duration, Duration),
    ) {
        let mut free = first;
        for k in 0..n {
            let started = free.max(due(k));
            let done = started + busy;
            tally.add((started, cpu * k), (done, cpu * (k + 1)), 1);
            free = done;
        }
    }

    #[test]
    fn a_late_writer_is_charged_only_for_inserts_done_in_the_window() {
        let from = Instant::now();
        let end = from + 1000 * MS;
        let mut writer = Tally::new(from, end);
        // Due every 5 ms for the whole second, but each takes 8 ms: insert
        // k runs from 8k to 8(k + 1) ms, so 125 end inside the window and
        // the other 75 after it.
        feed(
            &mut writer,
            from,
            200,
            |k| from + 5 * MS * k,
            (8 * MS, MS / 10),
        );
        assert_eq!(writer.items, 125);
        assert_eq!(writer.cpu(), 125 * MS / 10);
    }

    #[test]
    fn requests_that_straddle_either_edge_are_left_out() {
        let from = Instant::now() + 10 * MS;
        let end = from + 100 * MS;
        let mut reader = Tally::new(from, end);
        // 3 ms requests from 1 ms before the window: the first (-1..2 ms)
        // straddles `from`, the last (98..101 ms) straddles `end`, and the
        // 32 between count.
        feed(&mut reader, from - MS, 34, |_| from - MS, (3 * MS, MS));
        assert_eq!(reader.items, 32);
        assert_eq!(reader.cpu(), 32 * MS);
        assert_eq!(Tally::new(from, end).cpu(), Duration::ZERO);
    }
}
