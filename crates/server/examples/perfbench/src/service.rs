//! The daemon under test, the set-up that boots it, and the cache-free
//! reference engine the oracle compares its answers with.

use crate::cpu;
use crate::http::Conn;
use crate::workload::{Inputs, Item, Kind, Workload};
use pipeline::api::{error_to_json, AnalysisConfig, AnalysisEngine, AnalysisRequest};
use pipeline::corpus_index::{CorpusBuilder, CorpusHandle};
use server::{Server, ServerConfig, ShutdownHandle};
use solidity::AnalysisError;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// `ingest_mixed` folds deltas into a snapshot generation every this
/// many inserts (`serve --compact-after`).
pub const COMPACT_AFTER: u64 = 1000;

/// A daemon serving on an ephemeral loopback port from its own thread.
pub struct Daemon {
    pub addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    pub fn start(engine: Arc<AnalysisEngine>, config: ServerConfig) -> Result<Daemon, String> {
        let server =
            Server::bind("127.0.0.1:0", config, engine).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let shutdown = server.shutdown_handle();
        let thread = std::thread::Builder::new()
            .name("daemon".into())
            .spawn(move || server.run())
            .map_err(|e| format!("spawn daemon: {e}"))?;
        Ok(Daemon {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }

    /// Drain and join the daemon.
    pub fn stop(mut self) -> Result<(), String> {
        self.join()
    }

    fn join(&mut self) -> Result<(), String> {
        self.shutdown.shutdown();
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(Ok(()))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("daemon failed: {e}")),
            Some(Err(_)) => Err("daemon thread panicked".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

/// A scratch directory under `target/perfbench` removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(name: &str) -> Result<WorkDir, String> {
        let dir = Path::new("target/perfbench").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything one measured run serves from.
pub struct Setup {
    pub inputs: Inputs,
    pub corpus: CorpusHandle,
    pub daemon: Daemon,
}

impl Setup {
    /// Generate the inputs, build the corpus (and commit it as snapshot
    /// generation 1 on `ingest_mixed`), bind the daemon and see it answer.
    pub fn build(workload: Workload, seed: u64, seconds: u64, dir: &Path) -> Result<Setup, String> {
        let inputs = Inputs::generate(workload, seed, seconds);
        let builder = CorpusBuilder::new(AnalysisConfig::default().ccd_params());
        let mut config = ServerConfig::default();
        let corpus = match workload {
            Workload::ScanCold => builder.empty(),
            Workload::CloneCold | Workload::QaZipf => builder.from_sources(inputs.corpus_docs()),
            Workload::IngestMixed => {
                let snapshots = dir.join("snapshots");
                let _ = std::fs::remove_dir_all(&snapshots);
                let corpus = builder
                    .snapshot_dir(&snapshots)
                    .from_sources(inputs.corpus_docs());
                corpus
                    .compact()
                    .map_err(|e| format!("snapshot commit: {e}"))?;
                config.compact_after = Some(COMPACT_AFTER);
                corpus
            }
        };
        let engine = Arc::new(AnalysisEngine::with_corpus_handle(
            AnalysisConfig::default(),
            corpus.clone(),
        ));
        let daemon = Daemon::start(engine, config)?;
        let health = Conn::new(daemon.addr)
            .get("/health")
            .map_err(|e| format!("health: {e}"))?;
        if health.status != 200 {
            return Err(format!("health answered {}", health.status));
        }
        Ok(Setup {
            inputs,
            corpus,
            daemon,
        })
    }
}

/// How long one set-up took: CPU seconds of the whole process from its
/// start, and wall seconds of the build.
#[derive(Clone, Copy, Debug)]
pub struct SetupTime {
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// Prefix of the line on which `perfbench setup` reports its time.
const SETUP_LINE: &str = "perfbench-setup ";

/// Set up in a process that has not set up before, so the interner, the
/// caches and the allocator start cold, as they do for a real worker.
/// The CPU time counts from the start of the process.
pub fn cold_setup(
    workload: Workload,
    seed: u64,
    seconds: u64,
    dir: &Path,
) -> Result<(Setup, SetupTime), String> {
    let started = Instant::now();
    let setup = Setup::build(workload, seed, seconds, dir)?;
    let time = SetupTime {
        cpu_s: cpu::process().as_secs_f64(),
        wall_s: started.elapsed().as_secs_f64(),
    };
    Ok((setup, time))
}

/// `perfbench setup`: one cold set-up, torn down again, its time printed
/// on a `SETUP_LINE`.
pub fn setup_only(workload: Workload, seed: u64, seconds: u64) -> Result<(), String> {
    let work = WorkDir::create(workload.name())?;
    let (setup, time) = cold_setup(workload, seed, seconds, &work.0)?;
    setup.daemon.stop()?;
    println!("{SETUP_LINE}{} {}", time.cpu_s, time.wall_s);
    Ok(())
}

/// One more cold set-up, in a fresh `perfbench setup` process.
pub fn setup_in_child(workload: Workload, seed: u64, seconds: u64) -> Result<SetupTime, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["setup", "--workload", workload.name()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn set-up: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let times: Option<Vec<f64>> = stdout
        .lines()
        .find_map(|line| line.strip_prefix(SETUP_LINE))
        .map(|rest| rest.split(' ').filter_map(|t| t.parse().ok()).collect());
    match times.as_deref() {
        Some(&[cpu_s, wall_s]) if output.status.success() => Ok(SetupTime { cpu_s, wall_s }),
        _ => Err(format!("set-up process failed ({})", output.status)),
    }
}

/// An engine with every cache off over the same corpus: the oracle's
/// reference.
pub fn reference_engine(inputs: &Inputs) -> AnalysisEngine {
    let config = AnalysisConfig::default()
        .with_cache_capacity(0)
        .with_response_cache_capacity(0);
    let corpus = CorpusBuilder::new(config.ccd_params())
        .front_cache_capacity(0)
        .from_sources(inputs.corpus_docs());
    AnalysisEngine::with_corpus_handle(config, corpus)
}

pub fn analysis_request(item: &Item) -> AnalysisRequest {
    match item.kind {
        Kind::Scan => AnalysisRequest::scan(item.source.clone()),
        Kind::Clone => AnalysisRequest::clone_check(item.source.clone()),
    }
}

/// The HTTP status the daemon answers an analysis error with.
fn status_of(error: &AnalysisError) -> u16 {
    match error.code() {
        "timeout" => 504,
        "internal" | "index_corrupt" => 500,
        "index_version" => 409,
        "index_busy" => 503,
        _ => 400,
    }
}

/// The status and body the daemon should answer request `items` with.
pub fn expected_response(engine: &AnalysisEngine, items: &[Item], batch: bool) -> (u16, String) {
    let answer = |item: &Item| match engine.analyze(&analysis_request(item)) {
        Ok(response) => (200, response.to_json()),
        Err(error) => (status_of(&error), error_to_json(&error)),
    };
    if !batch {
        return answer(&items[0]);
    }
    let results: Vec<String> = items.iter().map(|item| answer(item).1).collect();
    (
        200,
        format!(
            "{{\"v\":1,\"kind\":\"batch\",\"results\":[{}]}}",
            results.join(",")
        ),
    )
}
