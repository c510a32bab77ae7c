//! `perfbench`: the analysis service's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload W --seed S --seconds T --trace 0|1
//! perfbench run [--seed S] [--seconds T] [--repeats N] [--out FILE]
//! perfbench trace --workload W [--seed S]
//! perfbench setup --workload W [--seed S] [--seconds T]
//! perfbench compare A B
//! ```
//!
//! The first form runs one workload in this process and prints, as its
//! last line, one JSON object: the end-to-end metrics untraced
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! `run` re-executes itself once per workload, so each starts in a fresh
//! process, and writes every result to one file; `compare` applies the
//! bounds of `BENCHMARK.json` to two such files. `setup` only sets a
//! workload up and reports how long that took; a measured run starts
//! two of them to time cold set-ups beside its own. Run from the
//! repository root; scratch files and traces go under `target/perfbench/`.

mod compare;
mod cpu;
mod http;
mod run;
mod service;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use workload::Workload;

/// The default seed, and the measured seconds of one run.
pub const DEFAULT_SEED: u64 = 1;
pub const DEFAULT_SECONDS: u64 = 15;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// `{"name":{"value":v,"unit":"u"},...}` with every digit of each value.
fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        metrics_json(metrics)
    )
}

pub fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prefix of the line that carries a run's diagnostics to `run`.
const DIAGNOSTICS: &str = "perfbench-diagnostics ";

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<36} {:>16.3} {}", m.name, m.value, m.unit);
    }
}

struct Args {
    rest: Vec<String>,
}

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.rest
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.rest.get(i + 1))
            .map(String::as_str)
    }

    fn number(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} takes a whole number, got {v:?}")),
            None => Ok(default),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.value("--workload").ok_or("--workload is required")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

/// One workload in this process: untraced end-to-end metrics, or the
/// per-layer metrics of a traced run.
fn single(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload()?;
    let seed = args.number("--seed", DEFAULT_SEED)?;
    let seconds = args.number("--seconds", DEFAULT_SECONDS)?.max(1);
    let traced = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    telemetry::disable();
    telemetry::trace::set_enabled(false);
    if traced {
        let report = trace::trace(workload, seed, seconds)?;
        print!("{}", report.text);
        let correct = report.failed == 0;
        println!(
            "{}",
            result_json(correct, report.attempted, report.failed, &report.metrics)
        );
        return Ok(exit_code(correct));
    }
    let outcome = run::run(workload, seed, seconds)?;
    let totals = outcome.totals();
    println!("{} seed {seed}, {seconds} s measured", workload.name());
    for (phase, c) in &outcome.phases {
        println!(
            "  {phase:<8} attempted {:>8} succeeded {:>8} failed {:>4} shed {:>4}",
            c.attempted, c.succeeded, c.failed, c.shed
        );
    }
    print_metrics("end-to-end", &outcome.metrics);
    print_metrics("diagnostics", &outcome.diagnostics);
    let phases: Vec<String> = outcome
        .phases
        .iter()
        .map(|(phase, c)| {
            format!(
                "\"{phase}\":{{\"attempted\":{},\"succeeded\":{},\"failed\":{},\"shed\":{}}}",
                c.attempted, c.succeeded, c.failed, c.shed
            )
        })
        .collect();
    println!(
        "{DIAGNOSTICS}{{\"diagnostics\":{},\"phases\":{{{}}}}}",
        metrics_json(&outcome.diagnostics),
        phases.join(",")
    );
    let correct = totals.failed == 0;
    println!(
        "{}",
        result_json(correct, totals.attempted, totals.failed, &outcome.metrics)
    );
    Ok(exit_code(correct))
}

/// Every workload, each in a fresh process, `repeats` times; all results
/// go to one file for `compare`.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("--seed", DEFAULT_SEED)?;
    let seconds = args.number("--seconds", DEFAULT_SECONDS)?;
    let repeats = args.number("--repeats", 1)?;
    let default_out = format!("target/perfbench/run-seed{seed}.json");
    let out = args.value("--out").unwrap_or(&default_out).to_string();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    for repeat in 0..repeats {
        for workload in &Workload::ALL {
            eprintln!("[perfbench] {} repeat {repeat}", workload.name());
            let output = std::process::Command::new(&exe)
                .args(["--workload", workload.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn worker: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            all_ok &= output.status.success();
            let result = stdout.lines().last().filter(|l| l.starts_with('{'));
            let diagnostics = stdout.lines().find_map(|l| l.strip_prefix(DIAGNOSTICS));
            match (result, diagnostics) {
                (Some(result), Some(diagnostics)) => runs.push(format!(
                    "{{\"workload\":\"{}\",\"repeat\":{repeat},\"result\":{result},\"extra\":{diagnostics}}}",
                    workload.name()
                )),
                _ => {
                    all_ok = false;
                    eprintln!("[perfbench] {} printed no result", workload.name());
                }
            }
        }
    }
    let document = format!(
        "{{\"seed\":{seed},\"seconds\":{seconds},\"runs\":[\n{}\n]}}\n",
        runs.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, document).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("[perfbench] results in {out}");
    Ok(exit_code(all_ok))
}

fn setup_only(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload()?;
    let seed = args.number("--seed", DEFAULT_SEED)?;
    let seconds = args.number("--seconds", DEFAULT_SECONDS)?.max(1);
    telemetry::disable();
    telemetry::trace::set_enabled(false);
    service::setup_only(workload, seed, seconds)?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut rest: Vec<String> = std::env::args().skip(1).collect();
    let command = match rest.first().map(String::as_str) {
        Some("run" | "trace" | "setup" | "compare") => rest.remove(0),
        _ => String::new(),
    };
    let args = Args { rest };
    let result = match command.as_str() {
        "run" => run_all(&args),
        "setup" => setup_only(&args),
        "trace" => {
            let mut rest = vec!["--trace".to_string(), "1".to_string()];
            rest.extend(args.rest);
            single(&Args { rest })
        }
        "compare" => compare::main(&args.rest),
        _ => single(&args),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this program prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let bench = telemetry::json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let per_layer: Vec<(String, String)> = trace::per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), per_layer);
        let end_to_end: Vec<(String, String)> = run::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), end_to_end);
        let workloads: Vec<String> = names_of(&bench, "workloads");
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        assert_eq!(
            bench.get("run_seconds").and_then(|v| v.as_f64()),
            Some(DEFAULT_SECONDS as f64)
        );
    }

    fn names_of(bench: &telemetry::json::Value, key: &str) -> Vec<String> {
        bench
            .get(key)
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect()
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 10, 0, &[Metric::new("setup_s", 0.8127, "s")]);
        let value = telemetry::json::parse(&line).unwrap();
        assert_eq!(value.get("attempted").and_then(|v| v.as_f64()), Some(10.0));
        let setup = value.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
