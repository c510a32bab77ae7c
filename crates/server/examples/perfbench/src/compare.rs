//! `compare A B`: apply the bounds of `BENCHMARK.json` to two result
//! files written by `run`.
//!
//! A row is "unresolved" when either side's own spread (distance between
//! quartiles over the median) exceeds the bound: the runs cannot tell a
//! change that size from noise. Otherwise it "agrees" when the medians
//! differ by less than the bound, and "disagrees" (better or worse)
//! when they do not.

use crate::stats::{quartiles, spread};
use std::collections::BTreeMap;
use std::process::ExitCode;
use telemetry::json::Value;

/// Repeats each side needs.
const MIN_REPEATS: usize = 3;

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    telemetry::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value.get(key).ok_or_else(|| format!("missing {key:?}"))
}

fn bounds(bench: &Value) -> Result<Vec<Bound>, String> {
    let list = field(bench, "end_to_end")?
        .as_array()
        .ok_or("end_to_end is not a list")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| -> Result<String, String> {
                Ok(field(m, key)?
                    .as_str()
                    .ok_or(format!("{key} is not a string"))?
                    .to_string())
            };
            Ok(Bound {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: field(m, "bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Every value of each `(workload, metric)`.
type Values = BTreeMap<(String, String), Vec<f64>>;

/// A result file's values, and its workloads in first-seen order.
fn load(path: &str) -> Result<(Vec<String>, Values), String> {
    let document = read_json(path)?;
    let runs = field(&document, "runs")?
        .as_array()
        .ok_or("runs is not a list")?;
    let mut order = Vec::new();
    let mut values = Values::new();
    for run in runs {
        let workload = field(run, "workload")?
            .as_str()
            .ok_or("workload is not a string")?;
        if !order.iter().any(|w| w == workload) {
            order.push(workload.to_string());
        }
        let Some(Value::Object(metrics)) = field(run, "result")?.get("metrics") else {
            return Err(format!("{path}: a {workload} run has no metrics"));
        };
        for (name, metric) in metrics {
            let value = field(metric, "value")?
                .as_f64()
                .ok_or("value is not a number")?;
            values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok((order, values))
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: perfbench compare A B".into());
    };
    let bounds = bounds(&read_json("BENCHMARK.json")?)?;
    let (order, a) = load(a_path)?;
    let (_, b) = load(b_path)?;
    println!(
        "{:<13} {:<15} {:>32} {:>32} {:>7} {:>6}  verdict",
        "workload", "metric", "A q1 / median / q3", "B q1 / median / q3", "delta", "bound"
    );
    let mut disagreements = 0;
    for workload in &order {
        for bound in &bounds {
            let key = (workload.clone(), bound.name.clone());
            let (Some(xs), Some(ys)) = (a.get(&key), b.get(&key)) else {
                return Err(format!(
                    "{workload}/{} is missing from a result file",
                    bound.name
                ));
            };
            if xs.len() < MIN_REPEATS || ys.len() < MIN_REPEATS {
                return Err(format!(
                    "{workload}/{}: {} and {} repeats; each side needs {MIN_REPEATS}",
                    bound.name,
                    xs.len(),
                    ys.len()
                ));
            }
            let (qa, qb) = (quartiles(xs), quartiles(ys));
            let delta = (qb.1 - qa.1) / qa.1;
            let verdict = if spread(xs) > bound.bound || spread(ys) > bound.bound {
                "unresolved"
            } else if delta.abs() < bound.bound {
                "agree"
            } else {
                disagreements += 1;
                if (delta < 0.0) == bound.lower_is_better {
                    "disagree (B better)"
                } else {
                    "disagree (B worse)"
                }
            };
            let side = |q: (f64, f64, f64)| format!("{:.4} / {:.4} / {:.4}", q.0, q.1, q.2);
            println!(
                "{workload:<13} {:<15} {:>32} {:>32} {:>+6.1}% {:>5.0}%  {verdict}  [{}]",
                bound.name,
                side(qa),
                side(qb),
                100.0 * delta,
                100.0 * bound.bound,
                bound.unit
            );
        }
    }
    Ok(crate::exit_code(disagreements == 0))
}
