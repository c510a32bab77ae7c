//! Prometheus text exposition (format 0.0.4) for the metrics registry —
//! the `GET /metrics` document.
//!
//! The registry's flat metric names map onto Prometheus names and labels
//! by convention: a name of the form `base|k=v|k2=v2` renders as
//! `base{k="v",k2="v2"}` (the server's RED metrics use this to label per
//! endpoint and status class), and every non-`[a-zA-Z0-9_:]` character
//! in a name, label key or label value position is mangled to `_`
//! (values keep their text, only escaped). Counters get the canonical
//! `_total` suffix; histograms render cumulative `_bucket{le=...}`
//! series from their [`BucketLayout`](crate::BucketLayout) upper bounds
//! plus `_sum`/`_count` (stage timings are the
//! `stage_duration_ns{stage="..."}` family).
//!
//! Empty histogram buckets are skipped (cumulative values stay correct;
//! `+Inf` is always present), which keeps the 105-bucket duration
//! histograms compact on the wire.
//!
//! [`validate`] is a strict-enough checker for the subset this module
//! emits — CI smokes and unit tests run every exposition through it.

use crate::report::Snapshot;

/// Split a registry name on the `|k=v` label convention.
fn split_labels(name: &str) -> (String, Vec<(String, String)>) {
    let mut parts = name.split('|');
    let base = mangle(parts.next().unwrap_or(""));
    let mut labels = Vec::new();
    for part in parts {
        match part.split_once('=') {
            Some((k, v)) => labels.push((mangle(k), v.to_string())),
            // A malformed segment becomes a value under a stable key
            // rather than corrupting the exposition.
            None => labels.push(("label".to_string(), part.to_string())),
        }
    }
    (base, labels)
}

/// Mangle a name into the Prometheus name charset `[a-zA-Z0-9_:]`
/// (leading digits get an underscore prefix).
fn mangle(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value per the exposition format.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

fn labels_with(labels: &[(String, String)], key: &str, value: &str) -> String {
    let mut all = labels.to_vec();
    all.push((key.to_string(), value.to_string()));
    render_labels(&all)
}

/// One metric family being accumulated: TYPE line first, then samples.
struct Family {
    out: String,
    typed: std::collections::BTreeSet<String>,
}

impl Family {
    fn type_line(&mut self, base: &str, kind: &str) {
        if self.typed.insert(base.to_string()) {
            self.out.push_str(&format!("# TYPE {base} {kind}\n"));
        }
    }
}

/// Parsed label pairs of one series.
type Labels = Vec<(String, String)>;

/// Render a frozen [`Snapshot`] as a Prometheus text exposition
/// document.
pub fn render(snapshot: &Snapshot) -> String {
    let mut fam = Family { out: String::with_capacity(8192), typed: Default::default() };

    // Group samples by base name so all series of one family sit under
    // one TYPE line (the format requires family contiguity).
    let mut counters: Vec<(String, Labels, u64)> = snapshot
        .counters
        .iter()
        .map(|(name, value)| {
            let (base, labels) = split_labels(name);
            (base, labels, *value)
        })
        .collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    let mut i = 0;
    while i < counters.len() {
        let base = counters[i].0.clone();
        fam.type_line(&format!("{base}_total"), "counter");
        while i < counters.len() && counters[i].0 == base {
            let (_, labels, value) = &counters[i];
            fam.out
                .push_str(&format!("{base}_total{} {value}\n", render_labels(labels)));
            i += 1;
        }
    }

    let mut gauges: Vec<(String, Labels, u64)> = snapshot
        .gauges
        .iter()
        .map(|(name, value)| {
            let (base, labels) = split_labels(name);
            (base, labels, *value)
        })
        .collect();
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    let mut i = 0;
    while i < gauges.len() {
        let base = gauges[i].0.clone();
        fam.type_line(&base, "gauge");
        while i < gauges.len() && gauges[i].0 == base {
            let (_, labels, value) = &gauges[i];
            fam.out.push_str(&format!("{base}{} {value}\n", render_labels(labels)));
            i += 1;
        }
    }

    let mut hists: Vec<(String, Labels, &crate::HistogramStat)> = snapshot
        .histograms
        .iter()
        .map(|h| {
            let (base, labels) = split_labels(&h.name);
            (base, labels, h)
        })
        .collect();
    hists.sort_by(|a, b| a.0.cmp(&b.0));
    let mut i = 0;
    while i < hists.len() {
        let base = hists[i].0.clone();
        fam.type_line(&base, "histogram");
        while i < hists.len() && hists[i].0 == base {
            let (_, labels, h) = &hists[i];
            let mut cumulative = 0u64;
            for (idx, &count) in h.buckets.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                cumulative += count;
                let le = match h.layout.upper_bound(idx) {
                    Some(upper) => upper.to_string(),
                    None => "+Inf".to_string(),
                };
                if le != "+Inf" {
                    fam.out.push_str(&format!(
                        "{base}_bucket{} {cumulative}\n",
                        labels_with(labels, "le", &le)
                    ));
                }
            }
            fam.out.push_str(&format!(
                "{base}_bucket{} {}\n",
                labels_with(labels, "le", "+Inf"),
                h.count
            ));
            fam.out
                .push_str(&format!("{base}_sum{} {}\n", render_labels(labels), h.sum));
            fam.out
                .push_str(&format!("{base}_count{} {}\n", render_labels(labels), h.count));
            i += 1;
        }
    }

    fam.out
}

/// Validate a text exposition document against the subset of format
/// 0.0.4 this module emits: well-formed sample/comment lines, `# TYPE`
/// declared before any sample of its family, monotone non-decreasing
/// cumulative `_bucket` series per labelset, and `le="+Inf"` equal to
/// `_count`. Returns the first problem found.
pub fn validate(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    // (family, labels-minus-le) → (last cumulative, last le as f64, inf seen)
    let mut bucket_state: BTreeMap<String, (u64, f64, Option<u64>)> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts.next().ok_or(format!("line {n}: TYPE without name"))?;
                let kind = parts.next().ok_or(format!("line {n}: TYPE without kind"))?;
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(format!("line {n}: unknown TYPE kind {kind}"));
                }
                types.insert(name.to_string(), kind.to_string());
            }
            continue;
        }
        let (name_and_labels, value) = split_sample(line)
            .ok_or(format!("line {n}: malformed sample line: {line:?}"))?;
        let (name, labels) = match name_and_labels.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or(format!("line {n}: unterminated label set"))?;
                (name, Some(labels))
            }
            None => (name_and_labels, None),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.chars().next().is_some_and(|c| c.is_ascii_digit())
        {
            return Err(format!("line {n}: invalid metric name {name:?}"));
        }
        let parsed: f64 = value
            .parse()
            .map_err(|_| format!("line {n}: non-numeric value {value:?}"))?;
        // Family = name minus the histogram/counter suffix used for TYPE.
        let family = ["_bucket", "_sum", "_count", "_total"]
            .iter()
            .find_map(|s| name.strip_suffix(s))
            .filter(|f| types.contains_key(*f))
            .unwrap_or(name);
        if !types.contains_key(family) {
            return Err(format!("line {n}: sample {name} before its # TYPE line"));
        }
        let labels = labels.unwrap_or("");
        if !labels.is_empty() {
            validate_labels(labels).map_err(|e| format!("line {n}: {e}"))?;
        }
        if let Some(family) = name.strip_suffix("_bucket") {
            let (le, rest_labels) = extract_le(labels)
                .ok_or(format!("line {n}: _bucket sample without le label"))?;
            let key = format!("{family}{{{rest_labels}}}");
            let cumulative = parsed as u64;
            let le_num = if le == "+Inf" { f64::INFINITY } else { le.parse().map_err(|_| format!("line {n}: bad le {le:?}"))? };
            let entry = bucket_state.entry(key).or_insert((0, f64::NEG_INFINITY, None));
            if le_num <= entry.1 {
                return Err(format!("line {n}: le values not increasing"));
            }
            if cumulative < entry.0 {
                return Err(format!("line {n}: cumulative bucket counts decreased"));
            }
            entry.0 = cumulative;
            entry.1 = le_num;
            if le == "+Inf" {
                entry.2 = Some(cumulative);
            }
        } else if let Some(family) = name.strip_suffix("_count") {
            if types.get(family).map(String::as_str) == Some("histogram") {
                counts.insert(format!("{family}{{{labels}}}"), parsed as u64);
            }
        }
    }
    // Every histogram labelset's +Inf bucket must equal its _count.
    for (key, (_, _, inf)) in &bucket_state {
        let inf = inf.ok_or(format!("{key}: no +Inf bucket"))?;
        // Reconstruct the _count key: same family+labels.
        if let Some(count) = counts.get(key) {
            if *count != inf {
                return Err(format!("{key}: +Inf bucket {inf} != count {count}"));
            }
        }
    }
    Ok(())
}

/// Split a sample line into (name-with-labels, value). Labels may
/// contain spaces inside quoted values, so scan for the closing brace.
fn split_sample(line: &str) -> Option<(&str, &str)> {
    let split_at = match line.find('{') {
        Some(open) => {
            let mut in_quotes = false;
            let mut close = None;
            for (i, c) in line[open..].char_indices() {
                match c {
                    '"' if !line[..open + i].ends_with('\\') => in_quotes = !in_quotes,
                    '}' if !in_quotes => {
                        close = Some(open + i);
                        break;
                    }
                    _ => {}
                }
            }
            close? + 1
        }
        None => line.find(' ')?,
    };
    let (head, tail) = line.split_at(split_at);
    let value = tail.trim();
    // A sample may carry a trailing timestamp; take the first token.
    let value = value.split_whitespace().next()?;
    if value.is_empty() {
        return None;
    }
    Some((head, value))
}

fn validate_labels(labels: &str) -> Result<(), String> {
    // Parse k="v" pairs separated by commas; values may contain escaped
    // quotes and commas inside quotes.
    let mut rest = labels;
    loop {
        let (key, after_key) = rest
            .split_once('=')
            .ok_or(format!("label segment without '=': {rest:?}"))?;
        if key.is_empty()
            || !key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            return Err(format!("invalid label name {key:?}"));
        }
        let after_key = after_key
            .strip_prefix('"')
            .ok_or(format!("unquoted label value after {key}"))?;
        // Find the closing unescaped quote.
        let mut end = None;
        let mut prev_backslash = false;
        for (i, c) in after_key.char_indices() {
            match c {
                '\\' => prev_backslash = !prev_backslash,
                '"' if !prev_backslash => {
                    end = Some(i);
                    break;
                }
                _ => prev_backslash = false,
            }
        }
        let end = end.ok_or(format!("unterminated label value for {key}"))?;
        rest = &after_key[end + 1..];
        if rest.is_empty() {
            return Ok(());
        }
        rest = rest
            .strip_prefix(',')
            .ok_or(format!("junk after label value: {rest:?}"))?;
    }
}

/// Pull the `le` label out of a label string, returning (le value,
/// remaining labels joined back).
fn extract_le(labels: &str) -> Option<(String, String)> {
    let mut le = None;
    let mut rest = Vec::new();
    for part in split_label_pairs(labels) {
        match part.strip_prefix("le=\"").and_then(|v| v.strip_suffix('"')) {
            Some(v) => le = Some(v.to_string()),
            None => rest.push(part),
        }
    }
    Some((le?, rest.join(",")))
}

/// Split a label string on commas outside quotes.
fn split_label_pairs(labels: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut prev_backslash = false;
    for c in labels.chars() {
        match c {
            '"' if !prev_backslash => {
                in_quotes = !in_quotes;
                current.push(c);
            }
            ',' if !in_quotes => {
                out.push(std::mem::take(&mut current));
            }
            c => {
                prev_backslash = c == '\\' && !prev_backslash;
                current.push(c);
            }
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::HistogramStat;
    use crate::{BucketLayout, Snapshot};

    fn sample_snapshot() -> Snapshot {
        let mut buckets = vec![0u64; crate::metrics::DURATION_BUCKETS];
        buckets[crate::metrics::duration_bucket_of(17_012)] = 3;
        buckets[crate::metrics::duration_bucket_of(27_000)] = 2;
        buckets[crate::metrics::DURATION_BUCKETS - 1] = 1;
        Snapshot {
            counters: vec![
                ("api.requests".into(), 10),
                ("http.requests|endpoint=/v1/scan|status=2xx".into(), 7),
                ("http.requests|endpoint=/v1/scan|status=4xx".into(), 1),
            ],
            gauges: vec![("pool.workers".into(), 8)],
            histograms: vec![HistogramStat {
                name: "http.request_duration_us|endpoint=/v1/scan".into(),
                count: 6,
                sum: 130_036,
                layout: BucketLayout::DurationUs,
                buckets,
            }],
        }
    }

    #[test]
    fn renders_labeled_families_and_validates() {
        let text = render(&sample_snapshot());
        assert!(text.contains("# TYPE http_requests_total counter"), "{text}");
        assert!(
            text.contains("http_requests_total{endpoint=\"/v1/scan\",status=\"2xx\"} 7"),
            "{text}"
        );
        assert!(text.contains("# TYPE http_request_duration_us histogram"), "{text}");
        assert!(
            text.contains("http_request_duration_us_bucket{endpoint=\"/v1/scan\",le=\"+Inf\"} 6"),
            "{text}"
        );
        assert!(
            text.contains("http_request_duration_us_sum{endpoint=\"/v1/scan\"} 130036"),
            "{text}"
        );
        assert!(text.contains("pool_workers 8"), "{text}");
        validate(&text).expect("emitted exposition validates");
    }

    #[test]
    fn bucket_series_are_cumulative() {
        let text = render(&sample_snapshot());
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines() {
            if line.starts_with("http_request_duration_us_bucket") {
                let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(value >= last, "{line}");
                last = value;
                bucket_lines += 1;
            }
        }
        // Two non-empty finite buckets + overflow merged into +Inf.
        assert_eq!(bucket_lines, 3, "{text}");
        assert_eq!(last, 6);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("foo_total 1\n").is_err(), "sample before TYPE");
        assert!(validate("# TYPE foo counter\nfoo_total x\n").is_err(), "bad value");
        assert!(validate("# TYPE foo counter\n9foo_total 1\n").is_err(), "bad name");
        assert!(
            validate("# TYPE h histogram\nh_bucket{le=\"5\"} 4\nh_bucket{le=\"10\"} 3\nh_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 4\n")
                .is_err(),
            "decreasing cumulative buckets"
        );
        assert!(
            validate("# TYPE h histogram\nh_bucket{le=\"5\"} 4\nh_sum 9\nh_count 4\n").is_err(),
            "missing +Inf"
        );
        assert!(
            validate("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 4\n").is_err(),
            "+Inf != count"
        );
    }

    #[test]
    fn validate_accepts_the_live_registry_render() {
        let _guard = crate::test_lock::hold();
        crate::reset();
        crate::enable();
        static HITS: crate::Counter = crate::Counter::new("prom.test.hits|endpoint=/x");
        static LAT: crate::Histogram = crate::Histogram::duration_us("prom.test.lat|endpoint=/x");
        static SIZES: crate::Histogram = crate::Histogram::new("prom.test.sizes");
        HITS.add(2);
        crate::gauge_set("prom.test.depth", 5);
        LAT.observe(17_012);
        SIZES.observe(1024);
        static STAGE: crate::Stage = crate::Stage::new("prom/test");
        drop(STAGE.enter());
        let text = render(&crate::snapshot());
        validate(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert!(text.contains("prom_test_hits_total{endpoint=\"/x\"} 2"), "{text}");
        assert!(text.contains("stage_duration_ns_count{stage=\"prom/test\"} 1"), "{text}");
        crate::disable();
    }
}
