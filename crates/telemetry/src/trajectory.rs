//! The performance trajectory, `BENCH_trajectory.json` at the workspace
//! root: a `points` array of one JSON object per measurement, oldest
//! first. Every gate reads its baseline with [`last_point`] and
//! re-measures a miss with [`gated`]; every recorder appends with
//! [`append_point`], which leaves every existing byte in place.

use crate::json::{self, Value};

/// The workspace's trajectory file.
pub const DEFAULT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trajectory.json");

/// The `bench` name of a point.
pub fn bench_of(point: &Value) -> Option<&str> {
    point.get("bench").and_then(Value::as_str)
}

/// The last point in the file at `path` that `matches`, if the file
/// parses.
pub fn last_point(path: &str, matches: impl Fn(&Value) -> bool) -> Option<Value> {
    let doc = json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    doc.get("points")?.as_array()?.iter().rev().find(|point| matches(point)).cloned()
}

/// The one re-measure rule: measure, and on a miss measure once more
/// (single measurements are noisy on a shared host). The gate passes if
/// either attempt passes; returns the passing attempt, or else the
/// second. A measurement that fails ends the gate with its error.
pub fn gated<M, E>(
    mut measure: impl FnMut() -> Result<M, E>,
    pass: impl Fn(&M) -> bool,
) -> Result<(M, bool), E> {
    let first = measure()?;
    if pass(&first) {
        return Ok((first, true));
    }
    println!("gate missed; re-measuring once");
    let second = measure()?;
    let passed = pass(&second);
    Ok((second, passed))
}

/// Append `point`, one JSON object on one line, to the trajectory file at
/// `path` (created when missing), preserving existing bytes. The entry is
/// spliced in front of the points array's closing bracket, then the whole
/// document is re-parsed as a validity check before writing.
pub fn append_point(path: &str, point: &str) -> Result<(), String> {
    let content = match std::fs::read_to_string(path) {
        Ok(content) => content,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            "{\n  \"version\": 1,\n  \"points\": [\n  ]\n}\n".to_string()
        }
        Err(e) => return Err(e.to_string()),
    };
    let parsed =
        json::parse(&content).map_err(|e| format!("existing file is not valid JSON: {e}"))?;
    let empty = parsed
        .get("points")
        .and_then(Value::as_array)
        .ok_or("existing file has no points array")?
        .is_empty();
    let close = content.rfind(']').ok_or("no closing bracket in file")?;
    let (before, after) = content.split_at(close);
    let separator = if empty { "\n    " } else { ",\n    " };
    let updated = format!("{}{separator}{point}\n  {}", before.trim_end(), after);
    json::parse(&updated).map_err(|e| format!("splice produced invalid JSON: {e}"))?;
    std::fs::write(path, updated).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_file(tag: &str) -> PathBuf {
        let name = format!("trajectory_{tag}_{}.json", std::process::id());
        let path = std::env::temp_dir().join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    const TRAJECTORY: &str = r#"{
  "version": 1,
  "points": [
    {"bench": "frontend", "stage": "interned", "sources": 240, "bytes": 245821, "pass_ns": 6372646, "mb_per_s": 38.57},
    {"bench": "wal_durability", "inserts": 256, "concurrency": 16, "never_rps": 34469.4, "batch_rps": 32968.1, "always_rps": 6907.1, "floor": 8242.0},
    {"bench": "frontend", "stage": "pre_intern", "sources": 240, "bytes": 245821, "pass_ns": 22565456, "mb_per_s": 10.89}
  ]
}
"#;

    #[test]
    fn appending_keeps_existing_bytes_and_reparses() {
        const POINT: &str = r#"{"bench": "test", "n": 1}"#;
        let empty = "{\n  \"version\": 1,\n  \"points\": [\n  ]\n}\n";
        let cases = [("missing", None), ("empty", Some(empty)), ("full", Some(TRAJECTORY))];
        for (tag, existing) in cases {
            let path = temp_file(tag);
            if let Some(existing) = existing {
                std::fs::write(&path, existing).unwrap();
            }
            append_point(path.to_str().unwrap(), POINT).unwrap();
            let updated = std::fs::read_to_string(&path).unwrap();
            let original = existing.unwrap_or(empty);
            let close = original.rfind(']').unwrap();
            assert!(updated.starts_with(original[..close].trim_end()), "{tag}: prefix rewritten");
            assert!(updated.ends_with(&original[close..]), "{tag}: suffix rewritten");
            let doc = json::parse(&updated).unwrap();
            let points = doc.get("points").and_then(Value::as_array).unwrap();
            assert_eq!(points.last(), Some(&json::parse(POINT).unwrap()), "{tag}");
            let _ = std::fs::remove_file(&path);
        }
    }

    /// `gated` over a scripted series of measurements: the verdict, the
    /// measurement it reports and how many were taken.
    fn gate(script: &[u32]) -> (Result<(u32, bool), String>, usize) {
        let mut taken = 0;
        let verdict = gated(
            || {
                let next = script[taken];
                taken += 1;
                if next == 0 {
                    return Err("measurement failed".to_string());
                }
                Ok(next)
            },
            |&value| value >= 10,
        );
        (verdict, taken)
    }

    #[test]
    fn a_gate_re_measures_a_miss_exactly_once() {
        // A pass measures once.
        assert_eq!(gate(&[12, 1]), (Ok((12, true)), 1));
        // A miss re-measures once and passes on the second attempt.
        assert_eq!(gate(&[5, 11, 1]), (Ok((11, true)), 2));
        // Two misses fail and report the second measurement.
        assert_eq!(gate(&[5, 7, 20]), (Ok((7, false)), 2));
        // A failed measurement ends the gate at once.
        assert_eq!(gate(&[0, 20]), (Err("measurement failed".to_string()), 1));
        assert_eq!(gate(&[5, 0, 20]), (Err("measurement failed".to_string()), 2));
    }
}
