//! Crash-safe batch checkpointing for the `tables` bin.
//!
//! A [`Journal`] records, per completed shard (one table/figure target),
//! the exact stdout the shard produced. The journal file is JSON,
//! rewritten atomically (tmp + rename) after every shard, so a batch run
//! killed mid-flight loses at most the shard in progress. A rerun with
//! `--resume` replays completed shards verbatim — byte-identical output
//! — and computes only what is missing.
//!
//! Journal document:
//!
//! ```json
//! {"v":1,"key":"scale=0.05","shards":[{"name":"table1","output":"..."}]}
//! ```
//!
//! `key` encodes the run parameters that change shard output (currently
//! the study scale); a journal written under a different key is ignored
//! rather than replayed wrongly.

use telemetry::json::{escape, Value};

/// Version tag of the journal format.
pub const JOURNAL_VERSION: u32 = 1;

/// A per-shard progress journal backed by an atomically-rewritten JSON
/// file.
pub struct Journal {
    path: std::path::PathBuf,
    key: String,
    shards: Vec<(String, String)>,
}

impl Journal {
    /// Open a journal at `path`. With `resume`, previously recorded
    /// shards are loaded — unless the file is unreadable or was written
    /// under a different `key`, in which case it is ignored and the run
    /// starts clean. Without `resume`, any existing journal is discarded.
    pub fn open(path: &str, key: &str, resume: bool) -> Journal {
        let mut journal =
            Journal { path: path.into(), key: key.to_string(), shards: Vec::new() };
        if resume {
            if let Ok(text) = std::fs::read_to_string(&journal.path) {
                journal.load(&text);
            }
        }
        journal
    }

    fn load(&mut self, text: &str) {
        let Ok(value) = telemetry::json::parse(text) else {
            eprintln!("[checkpoint] ignoring unparsable journal {}", self.path.display());
            return;
        };
        if value.get("v").and_then(Value::as_f64) != Some(JOURNAL_VERSION as f64) {
            eprintln!("[checkpoint] ignoring journal with unknown version");
            return;
        }
        if value.get("key").and_then(Value::as_str) != Some(self.key.as_str()) {
            eprintln!(
                "[checkpoint] journal was written for different parameters; starting clean"
            );
            return;
        }
        let Some(shards) = value.get("shards").and_then(Value::as_array) else { return };
        for shard in shards {
            let name = shard.get("name").and_then(Value::as_str);
            let output = shard.get("output").and_then(Value::as_str);
            if let (Some(name), Some(output)) = (name, output) {
                self.shards.push((name.to_string(), output.to_string()));
            }
        }
    }

    /// The recorded stdout of `name`, if that shard already completed.
    pub fn completed(&self, name: &str) -> Option<&str> {
        self.shards
            .iter()
            .find(|(shard, _)| shard == name)
            .map(|(_, output)| output.as_str())
    }

    /// Number of completed shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether no shard has completed yet.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Record a completed shard and persist the journal. Persistence is
    /// atomic: the new document is written to `<path>.tmp` and renamed
    /// over the journal, so a kill mid-write cannot corrupt it.
    pub fn record(&mut self, name: &str, output: &str) {
        if self.completed(name).is_some() {
            return;
        }
        self.shards.push((name.to_string(), output.to_string()));
        self.persist();
    }

    fn persist(&self) {
        let mut doc = format!(
            "{{\"v\":{JOURNAL_VERSION},\"key\":\"{}\",\"shards\":[",
            escape(&self.key)
        );
        for (i, (name, output)) in self.shards.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&format!(
                "{{\"name\":\"{}\",\"output\":\"{}\"}}",
                escape(name),
                escape(output)
            ));
        }
        doc.push_str("]}");
        let tmp = self.path.with_extension("tmp");
        let written = std::fs::write(&tmp, &doc)
            .and_then(|()| std::fs::rename(&tmp, &self.path));
        if let Err(error) = written {
            eprintln!("[checkpoint] cannot persist {}: {error}", self.path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> String {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        dir.join(format!("sodd_journal_{tag}_{pid}.json")).display().to_string()
    }

    #[test]
    fn records_persist_and_reload() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::open(&path, "scale=0.05", false);
        assert!(journal.is_empty());
        journal.record("table1", "line one\nline \"two\"\n");
        journal.record("figure2", "digraph {}\n");
        let reloaded = Journal::open(&path, "scale=0.05", true);
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.completed("table1"), Some("line one\nline \"two\"\n"));
        assert_eq!(reloaded.completed("figure2"), Some("digraph {}\n"));
        assert_eq!(reloaded.completed("table3"), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn key_mismatch_starts_clean() {
        let path = temp_path("key");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::open(&path, "scale=0.05", false);
        journal.record("table1", "output\n");
        let other = Journal::open(&path, "scale=0.10", true);
        assert!(other.is_empty(), "different key must invalidate the journal");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn without_resume_existing_journal_is_ignored() {
        let path = temp_path("fresh");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::open(&path, "k", false);
        journal.record("table1", "stale\n");
        let fresh = Journal::open(&path, "k", false);
        assert!(fresh.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_journal_is_ignored() {
        let path = temp_path("garbage");
        std::fs::write(&path, "not json at all {{{").unwrap();
        let journal = Journal::open(&path, "k", true);
        assert!(journal.is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
