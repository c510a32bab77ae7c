//! End-to-end checks of the `tables` binary's telemetry surface:
//! disabled-mode output is byte-identical, `--out` tees faithfully, and
//! `--telemetry` appends the report tables and writes parsable JSON.

use std::process::Command;

fn run_tables(args: &[&str], envs: &[(&str, &str)]) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tables"));
    cmd.args(args);
    cmd.env_remove("TELEMETRY");
    for (key, value) in envs {
        cmd.env(key, value);
    }
    let output = cmd.output().expect("tables binary runs");
    assert!(output.status.success(), "tables failed: {:?}", output.status);
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

fn scratch_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sodd_{}_{name}", std::process::id()))
}

#[test]
fn output_is_byte_identical_with_telemetry_off_or_absent() {
    let plain = run_tables(&["figure5"], &[]);
    assert!(plain.contains("Figure 5"), "sanity: {plain}");
    // TELEMETRY=0 is a hard kill switch: even --telemetry must not change
    // a byte of the table output.
    let killed = run_tables(&["figure5", "--telemetry"], &[("TELEMETRY", "0")]);
    assert_eq!(plain, killed);
    let env_off = run_tables(&["figure5"], &[("TELEMETRY", "0")]);
    assert_eq!(plain, env_off);
}

#[test]
fn out_flag_tees_stdout_to_file() {
    let path = scratch_path("tee.txt");
    let stdout = run_tables(&["figure5", "--out", path.to_str().unwrap()], &[]);
    let teed = std::fs::read_to_string(&path).expect("tee file written");
    let _ = std::fs::remove_file(&path);
    assert_eq!(stdout, teed);
}

#[test]
fn telemetry_flag_appends_report_and_writes_json() {
    let json_path = scratch_path("run.json");
    let stdout = run_tables(
        &["figure5", "table1", "--telemetry", "--telemetry-out", json_path.to_str().unwrap()],
        &[],
    );
    assert!(stdout.contains("== Telemetry"), "telemetry tables appended: {stdout}");
    let text = std::fs::read_to_string(&json_path).expect("JSON report written");
    let _ = std::fs::remove_file(&json_path);
    let doc = telemetry::json::parse(&text).expect("report parses");
    assert_eq!(
        doc.get("version").and_then(telemetry::json::Value::as_f64),
        Some(2.0)
    );
    // figure5 fingerprints two snippets through the CCD frontend.
    let counters = doc.get("counters").and_then(telemetry::json::Value::as_array).unwrap();
    assert!(counters.iter().any(|c| {
        c.get("name").and_then(telemetry::json::Value::as_str) == Some("ccd.fingerprints")
    }));
    // table1 runs the 17 CCC detectors, each timed by its stage.
    let histograms = doc.get("histograms").and_then(telemetry::json::Value::as_array).unwrap();
    let reentrancy = telemetry::stage_metric("Reentrancy");
    assert!(histograms.iter().any(|h| {
        h.get("name").and_then(telemetry::json::Value::as_str) == Some(reentrancy.as_str())
            && h.get("count").and_then(telemetry::json::Value::as_f64) > Some(0.0)
    }));
}
