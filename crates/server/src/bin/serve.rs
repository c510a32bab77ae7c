//! The analysis daemon entry point.
//!
//! ```text
//! serve [--port N] [--port-file PATH] [--workers N] [--queue-cap N]
//!       [--read-timeout-ms N] [--max-pipeline N]
//!       [--timeout-ms N] [--corpus N]
//!       [--snapshot-dir PATH]
//!       [--wal-fsync always|batch:<ms>|never] [--compact-after N]
//!       [--breaker-threshold N] [--breaker-open-ms N]
//!       [--trace on|off] [--access-log PATH] [--slow-log PATH] [--slow-ms N]
//! ```
//!
//! Binds `127.0.0.1:<port>` (port 0 → ephemeral; the chosen port is
//! printed and, with `--port-file`, written to a file for scripts to
//! pick up). The clone corpus is the honeypot dataset of the recorded
//! run, truncated to `--corpus` contracts (0 → all 379). SIGTERM and
//! SIGINT trigger a graceful drain, which starts within the event loop's
//! 250 ms poll cap. Running out of file descriptors pauses accepting
//! for a short backoff and never stops the daemon.
//!
//! Warm start: with `--snapshot-dir`, the corpus is loaded from the
//! directory's committed snapshot generation (milliseconds — no
//! re-fingerprinting) when one exists; otherwise it is built from source
//! and committed at once (generation 1 in a fresh directory) so the
//! *next* start is warm. A snapshot that fails validation is rebuilt and
//! committed the same way, above every generation already in the
//! directory, which retires the unloadable lineage; a directory that
//! validated but cannot be recovered (a replayed WAL segment fails to
//! fsync) stops the daemon with exit 1 instead. The `/v1/index`
//! endpoints then manage the live corpus: `insert` adds documents in
//! memory, `compact` folds them into the next generation.
//!
//! Durability: with a snapshot dir every insert is appended to a
//! write-ahead log before it is acknowledged, so acknowledged deltas
//! survive `kill -9` and replay on the next warm start. `--wal-fsync`
//! picks the fsync discipline (`always` per append, `batch:<ms>` group
//! commit — the default `batch:5`, `never` leaves flushing to the OS).
//! `--compact-after N` folds deltas into a new snapshot generation in
//! the background once the delta count reaches N (default off).
//!
//! Observability: metrics and request tracing are on by default in the
//! daemon (`--trace off` or `TELEMETRY=0` disables everything; the kill
//! switch always wins). `--access-log`/`--slow-log` append JSONL request
//! records; `--slow-ms` sets the slow-request threshold (default 500).
//! Tracing tunables come from the environment: `TRACE_SLOW_US`,
//! `TRACE_KEEP_EVERY`, `TRACE_SEED` (see `telemetry::trace`).
//!
//! Chaos testing: `FAULT_SPEC`/`FAULT_SEED` in the environment arm the
//! deterministic fault plan (see the `faultinject` crate); when armed,
//! the active plan is logged at startup.

use corpus::honeypots::honeypot_dataset;
use index_store::FsyncPolicy;
use pipeline::api::{AnalysisConfig, AnalysisEngine};
use pipeline::corpus_index::CorpusBuilder;
use server::{install_signal_handlers, Server, ServerConfig};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the recorded honeypot corpus (see `bench::HONEYPOT_SEED`).
const HONEYPOT_SEED: u64 = 1;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut port: u16 = 0;
    let mut port_file: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut timeout_ms: Option<u64> = None;
    let mut corpus_size: usize = 64;
    let mut snapshot_dir: Option<String> = None;
    let mut wal_fsync = FsyncPolicy::default();
    let mut trace_on = true;
    let mut i = 1;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("missing value for {}", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--port" => {
                port = value(i).parse().expect("--port must be a port number");
                i += 2;
            }
            "--port-file" => {
                port_file = Some(value(i).clone());
                i += 2;
            }
            "--workers" => {
                config.workers = value(i).parse().expect("--workers must be a count");
                i += 2;
            }
            "--queue-cap" => {
                config.queue_capacity = value(i).parse().expect("--queue-cap must be a count");
                i += 2;
            }
            "--read-timeout-ms" => {
                config.read_timeout_ms =
                    value(i).parse().expect("--read-timeout-ms must be milliseconds");
                i += 2;
            }
            "--max-pipeline" => {
                config.max_pipeline = value(i).parse().expect("--max-pipeline must be a count");
                i += 2;
            }
            "--timeout-ms" => {
                timeout_ms = Some(value(i).parse().expect("--timeout-ms must be milliseconds"));
                i += 2;
            }
            "--corpus" => {
                corpus_size = value(i).parse().expect("--corpus must be a count");
                i += 2;
            }
            "--snapshot-dir" => {
                snapshot_dir = Some(value(i).clone());
                i += 2;
            }
            "--wal-fsync" => {
                wal_fsync = FsyncPolicy::parse(value(i)).unwrap_or_else(|e| {
                    eprintln!("--wal-fsync: {e}");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--compact-after" => {
                config.compact_after =
                    Some(value(i).parse().expect("--compact-after must be a count"));
                i += 2;
            }
            "--breaker-threshold" => {
                config.breaker.failure_threshold =
                    value(i).parse().expect("--breaker-threshold must be a count");
                i += 2;
            }
            "--breaker-open-ms" => {
                config.breaker.open_ms =
                    value(i).parse().expect("--breaker-open-ms must be milliseconds");
                i += 2;
            }
            "--trace" => {
                trace_on = match value(i).as_str() {
                    "on" => true,
                    "off" => false,
                    other => {
                        eprintln!("--trace must be on|off, got {other}");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--access-log" => {
                config.access_log = Some(value(i).into());
                i += 2;
            }
            "--slow-log" => {
                config.slow_log = Some(value(i).into());
                i += 2;
            }
            "--slow-ms" => {
                config.slow_ms = value(i).parse().expect("--slow-ms must be milliseconds");
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    faultinject::init_from_env();
    if faultinject::active() {
        eprintln!("[serve] fault injection armed from FAULT_SPEC");
    }

    // The daemon defaults telemetry + tracing ON (it is the observable
    // surface); `--trace off` or the TELEMETRY=0 kill switch turn both
    // off again. `enable()` respects the kill switch internally.
    if trace_on {
        telemetry::enable();
        telemetry::trace::set_enabled(true);
        telemetry::trace::init_from_env();
    } else {
        telemetry::trace::set_enabled(false);
    }

    let mut analysis = AnalysisConfig::default();
    if let Some(ms) = timeout_ms {
        analysis = analysis.with_timeout_ms(ms);
    }

    let builder = || CorpusBuilder::new(analysis.ccd_params()).wal_fsync(wal_fsync);
    let build_cold = |builder: CorpusBuilder| {
        let dataset = honeypot_dataset(HONEYPOT_SEED);
        let take = if corpus_size == 0 { dataset.contracts.len() } else { corpus_size };
        builder.from_sources(dataset.contracts.iter().take(take).map(|c| (c.id, c.source.as_str())))
    };
    let started = Instant::now();
    let corpus = match &snapshot_dir {
        // Warm path: assemble the matcher from the committed snapshot
        // generation — no fingerprinting, no re-gramming.
        Some(dir) => match builder().snapshot_dir(dir).load_snapshot() {
            Ok(Some(handle)) => {
                eprintln!(
                    "[serve] warm start: generation {} ({} docs, {} replayed from WAL) \
                     loaded in {:.1} ms",
                    handle.generation(),
                    handle.len(),
                    handle.replayed_on_boot(),
                    started.elapsed().as_secs_f64() * 1e3,
                );
                handle
            }
            loaded => {
                match loaded {
                    Ok(_) => eprintln!("[serve] no snapshot yet; building warm corpus ..."),
                    Err(e) if matches!(e.code(), "index_corrupt" | "index_version") => {
                        eprintln!("[serve] cannot load snapshot ({e}); rebuilding from source")
                    }
                    // The directory validated but could not be recovered
                    // (a failed fsync of a replayed segment): a cold
                    // rebuild would drop the inserts only its WAL holds.
                    Err(e) => {
                        eprintln!("[serve] cannot recover snapshot directory: {e}");
                        std::process::exit(1);
                    }
                }
                // Commit the cold build at once: the next start is warm,
                // and inserts acknowledged from now on land in a segment
                // that start replays.
                let handle = build_cold(builder().snapshot_dir(dir));
                match handle.compact() {
                    Ok(generation) => {
                        eprintln!("[serve] corpus committed as snapshot generation {generation}")
                    }
                    Err(e) => eprintln!("[serve] snapshot commit failed: {e}"),
                }
                handle
            }
        },
        None => {
            eprintln!("[serve] building warm corpus ...");
            build_cold(builder())
        }
    };
    eprintln!("[serve] corpus ready: {} fingerprinted contracts", corpus.len());
    let engine = Arc::new(AnalysisEngine::with_corpus_handle(analysis, corpus));

    install_signal_handlers();
    let server = Server::bind(&format!("127.0.0.1:{port}"), config, engine)
        .expect("failed to bind service port");
    let addr = server.local_addr().expect("bound listener has an address");
    if let Some(path) = port_file {
        let mut f = std::fs::File::create(&path).expect("failed to create port file");
        writeln!(f, "{}", addr.port()).expect("failed to write port file");
    }
    println!("listening on {addr}");
    match server.run() {
        Ok(()) => eprintln!("[serve] drained and stopped"),
        Err(e) => {
            eprintln!("[serve] event loop failed: {e}");
            std::process::exit(1);
        }
    }
}
