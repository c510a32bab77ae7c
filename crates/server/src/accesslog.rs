//! JSONL structured access logging, correlated with traces by trace id.
//!
//! One line per request, appended to the configured sink:
//!
//! ```json
//! {"ts_ms":1754650000123,"trace_id":"9a1f...","request_id":"9a1f...",
//!  "method":"POST","path":"/v1/scan","status":200,"dur_us":17012,
//!  "outcome":"ok","body_bytes":812,"slow":false}
//! ```
//!
//! `outcome` classifies how the request left the server: `ok`, `error`
//! (4xx/5xx analysis or protocol errors), `shed` (429 worker-pool
//! rejection), `breaker_open` (503 circuit breaker), `timeout` (504).
//! Shed and breaker-rejected requests get a line like any other — load
//! that the server refuses is exactly the load an operator needs to see.
//!
//! Requests at least as slow as the configured threshold are re-appended
//! to the optional slow-request sink (same schema, `"slow":true`), so a
//! tail-latency investigation starts from a pre-filtered file whose
//! `trace_id`s join against `/debug/trace/<id>`.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use telemetry::json::escape;

/// One access-log record, borrowing the request's strings.
#[derive(Debug, Clone)]
pub struct AccessRecord<'a> {
    /// Trace id (hex) echoed on the response.
    pub trace_id: &'a str,
    /// Request id (hex) echoed on the response.
    pub request_id: &'a str,
    /// Request method (`GET`, `POST`, or `?` when the head never parsed).
    pub method: &'a str,
    /// Request path.
    pub path: &'a str,
    /// Response status code.
    pub status: u16,
    /// Wall time from accept to response write, microseconds.
    pub dur_us: u64,
    /// Outcome class (`ok`, `error`, `shed`, `breaker_open`, `timeout`).
    pub outcome: &'static str,
    /// Response body size in bytes.
    pub body_bytes: usize,
}

/// A thread-safe JSONL access log with an optional slow-request tee.
pub struct AccessLog {
    sink: Mutex<Box<dyn Write + Send>>,
    slow_sink: Option<Mutex<Box<dyn Write + Send>>>,
    slow_us: u64,
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessLog").field("slow_us", &self.slow_us).finish_non_exhaustive()
    }
}

impl AccessLog {
    /// Open (append) an access log at `path`, with an optional slow log
    /// and a slow threshold in milliseconds.
    pub fn open(
        path: &Path,
        slow_path: Option<&Path>,
        slow_ms: u64,
    ) -> std::io::Result<AccessLog> {
        let sink = append_file(path)?;
        let slow_sink = match slow_path {
            Some(p) => Some(Mutex::new(Box::new(append_file(p)?) as Box<dyn Write + Send>)),
            None => None,
        };
        Ok(AccessLog {
            sink: Mutex::new(Box::new(sink)),
            slow_sink,
            slow_us: slow_ms.saturating_mul(1000),
        })
    }

    /// An access log writing to arbitrary sinks (tests use in-memory
    /// buffers).
    pub fn from_sinks(
        sink: Box<dyn Write + Send>,
        slow_sink: Option<Box<dyn Write + Send>>,
        slow_ms: u64,
    ) -> AccessLog {
        AccessLog {
            sink: Mutex::new(sink),
            slow_sink: slow_sink.map(Mutex::new),
            slow_us: slow_ms.saturating_mul(1000),
        }
    }

    /// Append one record (and tee it to the slow log when it qualifies).
    /// Write errors are swallowed: logging must never fail a request.
    pub fn record(&self, rec: &AccessRecord<'_>) {
        let slow = rec.dur_us >= self.slow_us;
        let line = render_line(rec, slow);
        {
            let mut sink = lock(&self.sink);
            let _ = sink.write_all(line.as_bytes());
            let _ = sink.flush();
        }
        if slow {
            if let Some(slow_sink) = &self.slow_sink {
                let mut sink = lock(slow_sink);
                let _ = sink.write_all(line.as_bytes());
                let _ = sink.flush();
            }
        }
    }
}

fn lock<T: ?Sized>(
    m: &Mutex<Box<T>>,
) -> std::sync::MutexGuard<'_, Box<T>> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn append_file(path: &Path) -> std::io::Result<File> {
    OpenOptions::new().create(true).append(true).open(path)
}

fn render_line(rec: &AccessRecord<'_>, slow: bool) -> String {
    let ts_ms = std::time::UNIX_EPOCH
        .elapsed()
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0);
    format!(
        "{{\"ts_ms\":{ts_ms},\"trace_id\":\"{}\",\"request_id\":\"{}\",\"method\":\"{}\",\
         \"path\":\"{}\",\"status\":{},\"dur_us\":{},\"outcome\":\"{}\",\"body_bytes\":{},\
         \"slow\":{slow}}}\n",
        escape(rec.trace_id),
        escape(rec.request_id),
        escape(rec.method),
        escape(rec.path),
        rec.status,
        rec.dur_us,
        rec.outcome,
        rec.body_bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A cloneable in-memory sink.
    #[derive(Clone, Default)]
    struct Buffer(Arc<Mutex<Vec<u8>>>);

    impl Buffer {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for Buffer {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn record(dur_us: u64, status: u16, outcome: &'static str) -> AccessRecord<'static> {
        AccessRecord {
            trace_id: "00000000deadbeef",
            request_id: "00000000cafef00d",
            method: "POST",
            path: "/v1/scan",
            status,
            dur_us,
            outcome,
            body_bytes: 42,
        }
    }

    #[test]
    fn records_jsonl_lines_and_tees_slow_requests() {
        let main = Buffer::default();
        let slow = Buffer::default();
        let log = AccessLog::from_sinks(
            Box::new(main.clone()),
            Some(Box::new(slow.clone())),
            100, // 100ms threshold
        );
        log.record(&record(5_000, 200, "ok"));
        log.record(&record(250_000, 200, "ok"));
        log.record(&record(1_000, 429, "shed"));
        let lines: Vec<String> =
            main.contents().lines().map(String::from).collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"slow\":false"), "{}", lines[0]);
        assert!(lines[0].contains("\"trace_id\":\"00000000deadbeef\""), "{}", lines[0]);
        assert!(lines[1].contains("\"slow\":true"), "{}", lines[1]);
        assert!(lines[2].contains("\"outcome\":\"shed\""), "{}", lines[2]);
        assert!(lines[2].contains("\"status\":429"), "{}", lines[2]);
        // Only the slow request reaches the slow log.
        let slow_lines: Vec<String> =
            slow.contents().lines().map(String::from).collect();
        assert_eq!(slow_lines.len(), 1);
        assert!(slow_lines[0].contains("\"dur_us\":250000"), "{}", slow_lines[0]);
        // Every line parses as JSON.
        for line in lines.iter().chain(&slow_lines) {
            telemetry::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
    }

    #[test]
    fn escapes_hostile_paths() {
        let main = Buffer::default();
        let log = AccessLog::from_sinks(Box::new(main.clone()), None, 1000);
        let mut rec = record(10, 404, "error");
        rec.path = "/x\"y\\z\nq";
        log.record(&rec);
        let text = main.contents();
        telemetry::json::parse(text.trim()).unwrap_or_else(|e| panic!("{e}: {text}"));
    }
}
