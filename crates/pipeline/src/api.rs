//! The unified analysis facade: one typed request/response surface over
//! CCC scanning and CCD clone checking.
//!
//! Both consumption modes of the toolchain sit on this module: the batch
//! bins (`tables`, the evaluators) construct an [`AnalysisEngine`] and
//! drive it in a loop, the analysis service (`crates/server`) keeps one
//! warm engine behind an `Arc` and feeds it decoded HTTP bodies. Requests
//! and responses have a versioned JSON encoding (`"v": 1`) parsed with
//! [`telemetry::json`], so service and batch results are byte-comparable.
//!
//! ```
//! use pipeline::api::{AnalysisConfig, AnalysisEngine, AnalysisRequest, AnalysisResponse};
//!
//! let engine = AnalysisEngine::new(AnalysisConfig::default());
//! let request = AnalysisRequest::scan("function f(address to) public { to.send(1); }");
//! match engine.analyze(&request).unwrap() {
//!     AnalysisResponse::Findings(findings) => assert!(!findings.is_empty()),
//!     other => panic!("expected findings, got {other:?}"),
//! }
//! ```

use crate::cache::Lru;
use crate::corpus_index::{CorpusBuilder, CorpusHandle};
use ccc::{Checker, Dasp, QueryId};
use ccd::{CcdParams, CloneDetector};
use cpg::Cpg;
use solidity::AnalysisError;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::json::{escape, Value};

/// Version tag of the JSON wire encoding.
pub const API_VERSION: u32 = 1;

/// Default capacity of the engine's whole-response cache.
pub const DEFAULT_RESPONSE_CACHE_CAPACITY: usize = 2048;

/// Maximum items accepted in one batch request.
pub const MAX_BATCH_ITEMS: usize = 256;

/// Builder-style configuration of an [`AnalysisEngine`].
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    detectors: Option<Vec<QueryId>>,
    ccd: CcdParams,
    max_path: usize,
    timeout_ms: Option<u64>,
    response_cache_capacity: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            detectors: None,
            ccd: CcdParams::best(),
            max_path: usize::MAX,
            timeout_ms: None,
            response_cache_capacity: DEFAULT_RESPONSE_CACHE_CAPACITY,
        }
    }
}

impl AnalysisConfig {
    /// Restrict scans to detectors given by their stable names
    /// ([`QueryId::name`]); unknown names are a query error.
    pub fn with_detector_names<S: AsRef<str>>(
        mut self,
        names: &[S],
    ) -> Result<Self, AnalysisError> {
        self.detectors = Some(parse_detector_names(names)?);
        Ok(self)
    }

    /// CCD matching parameters for clone checks.
    pub fn with_ccd_params(mut self, params: CcdParams) -> Self {
        self.ccd = params;
        self
    }

    /// Maximum transitive data-flow path length of the checker.
    pub fn with_max_path(mut self, max_path: usize) -> Self {
        self.max_path = max_path;
        self
    }

    /// Per-request wall-clock budget; requests exceeding it fail with
    /// [`AnalysisError::Timeout`] at the next stage boundary.
    pub fn with_timeout_ms(mut self, timeout_ms: u64) -> Self {
        self.timeout_ms = Some(timeout_ms);
        self
    }

    /// Has no effect: the engine keeps no CPG cache (it never hit behind
    /// the response cache). Kept only for callers built against the old
    /// configuration surface.
    pub fn with_cache_capacity(self, _capacity: usize) -> Self {
        self
    }

    /// Capacity of the whole-response cache of scans, keyed by the
    /// detector subset and the full source (0 disables it). Successful
    /// responses are memoized so a repeated request skips the entire
    /// pipeline; errors are never cached, and the cache is bypassed while
    /// fault injection is armed so chaos runs always exercise the real
    /// stages.
    pub fn with_response_cache_capacity(mut self, capacity: usize) -> Self {
        self.response_cache_capacity = capacity;
        self
    }

    /// The configured detector subset, `None` for all 17.
    pub fn detectors(&self) -> Option<&[QueryId]> {
        self.detectors.as_deref()
    }

    /// The configured CCD parameters.
    pub fn ccd_params(&self) -> CcdParams {
        self.ccd
    }

    /// The configured per-request budget.
    pub fn timeout_ms(&self) -> Option<u64> {
        self.timeout_ms
    }

    fn checker(&self) -> Checker {
        let checker = match &self.detectors {
            Some(queries) => Checker::with_queries(queries),
            None => Checker::new(),
        };
        checker.bounded(self.max_path)
    }
}

fn parse_detector_names<S: AsRef<str>>(names: &[S]) -> Result<Vec<QueryId>, AnalysisError> {
    names
        .iter()
        .map(|name| {
            QueryId::parse_name(name.as_ref()).ok_or_else(|| {
                AnalysisError::query(format!("unknown detector {:?}", name.as_ref()))
            })
        })
        .collect()
}

/// A typed analysis request — the facade's single entry point.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisRequest {
    /// Scan a snippet with the CCC detectors.
    Scan {
        /// The Solidity fragment to scan.
        source: String,
        /// Detector subset for this request; `None` uses the engine's
        /// configured set.
        detectors: Option<Vec<QueryId>>,
    },
    /// Match a contract against the engine's warm clone corpus.
    CloneCheck {
        /// The contract (or snippet) to fingerprint and match.
        source: String,
    },
}

impl AnalysisRequest {
    /// A scan request with the engine's configured detectors.
    pub fn scan(source: impl Into<String>) -> AnalysisRequest {
        AnalysisRequest::Scan { source: source.into(), detectors: None }
    }

    /// A clone-check request.
    pub fn clone_check(source: impl Into<String>) -> AnalysisRequest {
        AnalysisRequest::CloneCheck { source: source.into() }
    }

    /// Encode as versioned JSON.
    pub fn to_json(&self) -> String {
        match self {
            AnalysisRequest::Scan { source, detectors } => {
                let mut out = format!(
                    "{{\"v\":{API_VERSION},\"kind\":\"scan\",\"source\":\"{}\"",
                    escape(source)
                );
                if let Some(detectors) = detectors {
                    out.push_str(",\"detectors\":[");
                    for (i, d) in detectors.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('"');
                        out.push_str(d.name());
                        out.push('"');
                    }
                    out.push(']');
                }
                out.push('}');
                out
            }
            AnalysisRequest::CloneCheck { source } => format!(
                "{{\"v\":{API_VERSION},\"kind\":\"clone_check\",\"source\":\"{}\"}}",
                escape(source)
            ),
        }
    }

    /// Decode a versioned JSON request.
    pub fn from_json(text: &str) -> Result<AnalysisRequest, AnalysisError> {
        let value = telemetry::json::parse(text)
            .map_err(|e| AnalysisError::invalid(format!("malformed JSON request: {e}")))?;
        Self::from_value(&value)
    }

    /// Decode one request from an already-parsed JSON value (shared by
    /// [`AnalysisRequest::from_json`] and [`batch_from_json`]).
    fn from_value(value: &Value) -> Result<AnalysisRequest, AnalysisError> {
        check_version(value)?;
        let kind = value
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| AnalysisError::invalid("request is missing \"kind\""))?;
        let source = value
            .get("source")
            .and_then(Value::as_str)
            .ok_or_else(|| AnalysisError::invalid("request is missing \"source\""))?
            .to_string();
        match kind {
            "scan" => {
                let detectors = match value.get("detectors") {
                    None => None,
                    Some(list) => {
                        let names: Vec<&str> = list
                            .as_array()
                            .ok_or_else(|| {
                                AnalysisError::invalid("\"detectors\" must be an array")
                            })?
                            .iter()
                            .map(|v| {
                                v.as_str().ok_or_else(|| {
                                    AnalysisError::invalid("detector names must be strings")
                                })
                            })
                            .collect::<Result<_, _>>()?;
                        Some(parse_detector_names(&names)?)
                    }
                };
                Ok(AnalysisRequest::Scan { source, detectors })
            }
            "clone_check" => Ok(AnalysisRequest::CloneCheck { source }),
            other => Err(AnalysisError::invalid(format!("unknown request kind {other:?}"))),
        }
    }
}

/// Decode a batch request: a JSON array of at most [`MAX_BATCH_ITEMS`]
/// versioned request documents. The outer `Err` covers batch-level
/// faults (not JSON, not an array, too many items); each element decodes
/// independently, so one malformed item yields an `Err` in its slot
/// without failing its siblings — the transport answers it with the same
/// typed error document a single request would have received.
pub fn batch_from_json(
    text: &str,
) -> Result<Vec<Result<AnalysisRequest, AnalysisError>>, AnalysisError> {
    let value = telemetry::json::parse(text)
        .map_err(|e| AnalysisError::invalid(format!("malformed JSON request: {e}")))?;
    let items = value
        .as_array()
        .ok_or_else(|| AnalysisError::invalid("batch request must be a JSON array"))?;
    if items.len() > MAX_BATCH_ITEMS {
        return Err(AnalysisError::invalid(format!(
            "batch of {} items exceeds the limit of {MAX_BATCH_ITEMS}",
            items.len()
        )));
    }
    Ok(items.iter().map(AnalysisRequest::from_value).collect())
}

/// One vulnerability finding, as reported through the facade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The detector that fired.
    pub detector: QueryId,
    /// 1-based source line of the reported node.
    pub line: u32,
    /// Canonical code of the reported node.
    pub code: String,
}

impl Finding {
    /// The DASP category of the finding.
    pub fn category(&self) -> Dasp {
        self.detector.category()
    }
}

impl From<ccc::Finding> for Finding {
    fn from(f: ccc::Finding) -> Finding {
        Finding { detector: f.query, line: f.line, code: f.code }
    }
}

/// One clone match, as reported through the facade.
#[derive(Debug, Clone, PartialEq)]
pub struct CloneHit {
    /// The matched corpus document.
    pub doc: u64,
    /// Order-independent similarity (0..=100).
    pub score: f64,
}

/// A typed analysis response.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisResponse {
    /// Scan findings, sorted by (line, detector).
    Findings(Vec<Finding>),
    /// Clone matches, sorted by descending score.
    Clones(Vec<CloneHit>),
}

impl AnalysisResponse {
    /// Encode as versioned JSON. Scores use Rust's shortest-roundtrip
    /// `f64` rendering, so equal scores are byte-equal across service and
    /// batch output.
    pub fn to_json(&self) -> String {
        match self {
            AnalysisResponse::Findings(findings) => {
                let mut out =
                    format!("{{\"v\":{API_VERSION},\"kind\":\"findings\",\"findings\":[");
                for (i, f) in findings.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"detector\":\"{}\",\"category\":\"{}\",\"line\":{},\"code\":\"{}\"}}",
                        f.detector.name(),
                        f.category().name(),
                        f.line,
                        escape(&f.code)
                    ));
                }
                out.push_str("]}");
                out
            }
            AnalysisResponse::Clones(hits) => {
                let mut out = format!("{{\"v\":{API_VERSION},\"kind\":\"clones\",\"clones\":[");
                for (i, hit) in hits.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{{\"doc\":{},\"score\":{}}}", hit.doc, hit.score));
                }
                out.push_str("]}");
                out
            }
        }
    }

    /// Decode a versioned JSON response; an `"error"` document decodes
    /// into the transported [`AnalysisError`].
    pub fn from_json(text: &str) -> Result<AnalysisResponse, AnalysisError> {
        let value = telemetry::json::parse(text)
            .map_err(|e| AnalysisError::invalid(format!("malformed JSON response: {e}")))?;
        check_version(&value)?;
        let kind = value
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| AnalysisError::invalid("response is missing \"kind\""))?;
        match kind {
            "findings" => {
                let items = value
                    .get("findings")
                    .and_then(Value::as_array)
                    .ok_or_else(|| AnalysisError::invalid("missing \"findings\" array"))?;
                let findings = items
                    .iter()
                    .map(|item| {
                        let detector = item
                            .get("detector")
                            .and_then(Value::as_str)
                            .and_then(QueryId::parse_name)
                            .ok_or_else(|| AnalysisError::invalid("bad finding detector"))?;
                        let line = item
                            .get("line")
                            .and_then(Value::as_f64)
                            .ok_or_else(|| AnalysisError::invalid("bad finding line"))?;
                        let code = item
                            .get("code")
                            .and_then(Value::as_str)
                            .ok_or_else(|| AnalysisError::invalid("bad finding code"))?;
                        Ok(Finding { detector, line: line as u32, code: code.to_string() })
                    })
                    .collect::<Result<_, AnalysisError>>()?;
                Ok(AnalysisResponse::Findings(findings))
            }
            "clones" => {
                let items = value
                    .get("clones")
                    .and_then(Value::as_array)
                    .ok_or_else(|| AnalysisError::invalid("missing \"clones\" array"))?;
                let hits = items
                    .iter()
                    .map(|item| {
                        let doc = item
                            .get("doc")
                            .and_then(Value::as_f64)
                            .ok_or_else(|| AnalysisError::invalid("bad clone doc"))?;
                        let score = item
                            .get("score")
                            .and_then(Value::as_f64)
                            .ok_or_else(|| AnalysisError::invalid("bad clone score"))?;
                        Ok(CloneHit { doc: doc as u64, score })
                    })
                    .collect::<Result<_, AnalysisError>>()?;
                Ok(AnalysisResponse::Clones(hits))
            }
            "error" => Err(decode_error(&value)),
            other => Err(AnalysisError::invalid(format!("unknown response kind {other:?}"))),
        }
    }
}

/// Encode an [`AnalysisError`] as a versioned JSON error document — the
/// wire form of the facade's `Err` arm.
pub fn error_to_json(error: &AnalysisError) -> String {
    let mut out = error_json(error.code(), &error.to_string());
    out.pop(); // reopen the document for the kind's own fields
    match error {
        AnalysisError::Parse { line, col, .. } => {
            out.push_str(&format!(",\"line\":{line},\"col\":{col}"));
        }
        AnalysisError::Timeout { stage, budget_ms } => {
            out.push_str(&format!(",\"stage\":\"{}\",\"budget_ms\":{budget_ms}", escape(stage)));
        }
        AnalysisError::IndexVersion { found, expected } => {
            out.push_str(&format!(",\"found\":{found},\"expected\":{expected}"));
        }
        _ => {}
    }
    out.push('}');
    out
}

/// The versioned JSON error document with `code` and `message` alone:
/// the shape [`error_to_json`] extends, and the body of every error the
/// service raises itself (a shed request, a malformed HTTP head).
pub fn error_json(code: &str, message: &str) -> String {
    format!(
        "{{\"v\":{API_VERSION},\"kind\":\"error\",\"code\":\"{code}\",\"message\":\"{}\"}}",
        escape(message)
    )
}

fn decode_error(value: &Value) -> AnalysisError {
    let message = value
        .get("message")
        .and_then(Value::as_str)
        .unwrap_or("unknown error")
        .to_string();
    match value.get("code").and_then(Value::as_str) {
        Some("parse") => AnalysisError::Parse {
            message,
            line: value.get("line").and_then(Value::as_f64).unwrap_or(0.0) as u32,
            col: value.get("col").and_then(Value::as_f64).unwrap_or(0.0) as u32,
        },
        Some("graph_build") => AnalysisError::GraphBuild { message },
        Some("internal") => AnalysisError::Internal { message },
        Some("query") => AnalysisError::query(message),
        Some("timeout") => AnalysisError::timeout(
            value.get("stage").and_then(Value::as_str).unwrap_or("unknown"),
            value.get("budget_ms").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        ),
        Some("index_corrupt") => AnalysisError::IndexCorrupt { message },
        Some("index_version") => AnalysisError::index_version(
            value.get("found").and_then(Value::as_f64).unwrap_or(0.0) as u32,
            value.get("expected").and_then(Value::as_f64).unwrap_or(0.0) as u32,
        ),
        Some("index_busy") => AnalysisError::IndexBusy { message },
        _ => AnalysisError::invalid(message),
    }
}

fn check_version(value: &Value) -> Result<(), AnalysisError> {
    match value.get("v").and_then(Value::as_f64) {
        Some(v) if v == API_VERSION as f64 => Ok(()),
        Some(v) => Err(AnalysisError::invalid(format!("unsupported API version {v}"))),
        None => Err(AnalysisError::invalid("missing API version \"v\"")),
    }
}

/// The warm analysis engine: a configured checker, a shared clone-corpus
/// handle and a scan response cache behind one facade. All methods take
/// `&self`, so one engine can serve many threads through an `Arc`; the
/// corpus itself can grow live through
/// [`AnalysisEngine::corpus_handle`] (incremental insert, compaction)
/// without touching in-flight requests.
pub struct AnalysisEngine {
    config: AnalysisConfig,
    checker: Checker,
    corpus: CorpusHandle,
    responses: Lru<Arc<str>, AnalysisResponse>,
}

impl AnalysisEngine {
    /// An engine with an empty clone corpus (scan-only use).
    pub fn new(config: AnalysisConfig) -> AnalysisEngine {
        let corpus = CorpusBuilder::new(config.ccd).empty();
        Self::assemble(config, corpus)
    }

    /// An engine with a clone corpus fingerprinted from sources. Documents
    /// that do not fingerprint (parse failure, nothing tokenizable) are
    /// skipped, mirroring `CloneDetector::insert_source`.
    pub fn with_corpus<'a, I>(config: AnalysisConfig, docs: I) -> AnalysisEngine
    where
        I: IntoIterator<Item = (u64, &'a str)>,
    {
        let corpus = CorpusBuilder::new(config.ccd).from_sources(docs);
        Self::assemble(config, corpus)
    }

    /// An engine over a prepared [`CorpusHandle`] — the service path: the
    /// handle carries the corpus lifetime (snapshot warm-start, live
    /// inserts) and the engine layers scanning and caching over it.
    pub fn with_corpus_handle(config: AnalysisConfig, corpus: CorpusHandle) -> AnalysisEngine {
        Self::assemble(config, corpus)
    }

    fn assemble(config: AnalysisConfig, corpus: CorpusHandle) -> AnalysisEngine {
        let checker = config.checker();
        let responses = Lru::new(config.response_cache_capacity);
        AnalysisEngine { config, checker, corpus, responses }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The configured checker (for batch callers that drive CCC directly).
    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    /// The shared corpus handle (batch callers doing all-pairs work on the
    /// corpus without re-fingerprinting every query; the service's
    /// `/v1/index` management surface).
    pub fn corpus_handle(&self) -> &CorpusHandle {
        &self.corpus
    }

    /// Number of documents in the warm clone corpus.
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }

    /// Run one request to completion, applying the configured per-request
    /// timeout (if any) from this call's start.
    pub fn analyze(&self, request: &AnalysisRequest) -> Result<AnalysisResponse, AnalysisError> {
        self.analyze_deadline(request, self.deadline_from_now())
    }

    /// The deadline a request starting now would run under, per the
    /// configured per-request timeout (`None` when unlimited).
    fn deadline_from_now(&self) -> Option<Instant> {
        self.config
            .timeout_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms))
    }

    /// Run one request with an explicit deadline. The deadline is checked
    /// cooperatively at stage boundaries (before graph construction,
    /// before query execution, before clone matching), so an expensive
    /// stage overruns by at most its own duration.
    fn analyze_deadline(
        &self,
        request: &AnalysisRequest,
        deadline: Option<Instant>,
    ) -> Result<AnalysisResponse, AnalysisError> {
        static REQUESTS: telemetry::Counter = telemetry::Counter::new("api.requests");
        static ERRORS: telemetry::Counter = telemetry::Counter::new("api.errors");
        static PANICS: telemetry::Counter = telemetry::Counter::new("api.panics_isolated");
        static STAGE: telemetry::Stage = telemetry::Stage::new("api/analyze");
        let _stage = STAGE.enter();
        REQUESTS.incr();
        // Panic isolation: a panic anywhere below the facade (a poisoned
        // input, an injected fault) becomes a typed internal error instead
        // of unwinding into the caller's worker thread.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match request {
                AnalysisRequest::Scan { source, detectors } => {
                    self.scan(source, detectors.as_deref(), deadline)
                }
                AnalysisRequest::CloneCheck { source } => self.clone_check(source, deadline),
            }
        }))
        .unwrap_or_else(|payload| {
            PANICS.incr();
            Err(AnalysisError::from_panic(payload, "analysis request"))
        });
        if let Err(e) = &result {
            ERRORS.incr();
            telemetry::trace::annotate("error_code", e.code());
            telemetry::trace::mark_error();
        }
        result
    }

    fn scan(
        &self,
        source: &str,
        detectors: Option<&[QueryId]>,
        deadline: Option<Instant>,
    ) -> Result<AnalysisResponse, AnalysisError> {
        static SCANS: telemetry::Counter = telemetry::Counter::new("api.scans");
        static HITS: telemetry::Counter = telemetry::Counter::new("api.response_cache_hits");
        static MISSES: telemetry::Counter = telemetry::Counter::new("api.response_cache_misses");
        SCANS.incr();
        // The deadline check stays ahead of the response cache so a
        // zero-budget request times out identically whether or not the
        // answer is memoized.
        self.check_deadline(deadline, "parse")?;
        let key = response_key(detectors, source);
        if let Some(hit) = self.responses.get(key.as_str()) {
            HITS.incr();
            telemetry::trace::annotate("response_cache", "hit");
            return Ok(hit);
        }
        let epoch = self.responses.epoch();
        let cpg = Cpg::from_snippet(source)?;
        self.check_deadline(deadline, "check")?;
        let outcome = match detectors {
            // A per-request subset gets a throwaway checker with the same
            // path bound; results for the engine's own subset are
            // byte-identical to the warm checker by construction.
            Some(queries) => Checker::with_queries(queries)
                .bounded(self.config.max_path)
                .check_isolated(&cpg),
            None => self.checker.check_isolated(&cpg),
        };
        // A degraded scan must not masquerade as a clean one: a partial
        // finding list would silently under-report, so any detector panic
        // fails the whole request with a typed internal error.
        if let Some((query, error)) = outcome.detector_errors.first() {
            return Err(AnalysisError::internal(format!(
                "detector {} failed: {error}",
                query.name()
            )));
        }
        let response = AnalysisResponse::Findings(
            outcome.findings.into_iter().map(Finding::from).collect(),
        );
        // Only successes are memoized (and counted as misses): errors
        // must re-run and re-fail so retries observe live state.
        MISSES.incr();
        self.responses.insert(epoch, key.into(), response.clone());
        Ok(response)
    }

    fn clone_check(
        &self,
        source: &str,
        deadline: Option<Instant>,
    ) -> Result<AnalysisResponse, AnalysisError> {
        static CLONE_CHECKS: telemetry::Counter = telemetry::Counter::new("api.clone_checks");
        CLONE_CHECKS.incr();
        if source.is_empty() {
            return Err(AnalysisError::invalid("clone-check source is empty"));
        }
        self.check_deadline(deadline, "fingerprint")?;
        // Clone checks memoize through the corpus handle's front cache
        // (not the response LRU): the handle invalidates it on every
        // insert, so a grown corpus is never shadowed by a stale cached
        // answer — and its fingerprint tier also catches near-duplicate
        // sources the byte-keyed response cache cannot.
        if let Some(hit) = self.corpus.cached_by_source(source) {
            return Ok(Self::clones_response(&hit));
        }
        let fingerprint = CloneDetector::try_fingerprint_source(source)?;
        if let Some(hit) = self.corpus.cached_by_fingerprint(&fingerprint) {
            return Ok(Self::clones_response(&hit));
        }
        self.check_deadline(deadline, "match")?;
        let matches = self.corpus.matches_and_cache(source, &fingerprint);
        Ok(Self::clones_response(&matches))
    }

    fn clones_response(matches: &[ccd::CloneMatch]) -> AnalysisResponse {
        AnalysisResponse::Clones(
            matches.iter().map(|m| CloneHit { doc: m.doc, score: m.score }).collect(),
        )
    }

    fn check_deadline(
        &self,
        deadline: Option<Instant>,
        stage: &str,
    ) -> Result<(), AnalysisError> {
        match deadline {
            Some(d) if Instant::now() >= d => {
                Err(AnalysisError::timeout(stage, self.config.timeout_ms.unwrap_or(0)))
            }
            _ => Ok(()),
        }
    }
}

/// The response cache's key for a scan: the detector subset, a NUL, then
/// the source. Detector names hold no NUL, so the first NUL ends the
/// subset; an explicit subset (even an empty one) is marked apart from
/// the engine's configured set.
fn response_key(detectors: Option<&[QueryId]>, source: &str) -> String {
    let mut key = String::with_capacity(source.len() + 1);
    if let Some(detectors) = detectors {
        key.push('=');
        for detector in detectors {
            key.push_str(detector.name());
            key.push(',');
        }
    }
    key.push('\0');
    key.push_str(source);
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    const VULNERABLE: &str = "function f(address to) public { to.send(1); }";

    #[test]
    fn scan_matches_direct_checker_output() {
        let engine = AnalysisEngine::new(AnalysisConfig::default());
        let response = engine.analyze(&AnalysisRequest::scan(VULNERABLE)).unwrap();
        let direct = Checker::new().check_snippet(VULNERABLE).unwrap();
        match response {
            AnalysisResponse::Findings(findings) => {
                assert_eq!(findings.len(), direct.len());
                for (api, raw) in findings.iter().zip(&direct) {
                    assert_eq!(api.detector, raw.query);
                    assert_eq!(api.line, raw.line);
                    assert_eq!(api.code, raw.code);
                }
            }
            other => panic!("expected findings, got {other:?}"),
        }
    }

    #[test]
    fn clone_check_finds_corpus_clones() {
        let corpus = [(7u64, "contract W { function t(uint a) public { msg.sender.transfer(a); } }")];
        let engine = AnalysisEngine::with_corpus(
            AnalysisConfig::default(),
            corpus.iter().map(|(id, s)| (*id, *s)),
        );
        let request = AnalysisRequest::clone_check(
            "contract U { function w(uint v) public { msg.sender.transfer(v); } }",
        );
        match engine.analyze(&request).unwrap() {
            AnalysisResponse::Clones(hits) => {
                assert_eq!(hits[0].doc, 7);
                assert_eq!(hits[0].score, 100.0);
            }
            other => panic!("expected clones, got {other:?}"),
        }
    }

    #[test]
    fn zero_timeout_fails_with_timeout_error() {
        let engine =
            AnalysisEngine::new(AnalysisConfig::default().with_timeout_ms(0));
        let err = engine.analyze(&AnalysisRequest::scan(VULNERABLE)).unwrap_err();
        assert_eq!(err.code(), "timeout");
    }

    #[test]
    fn detector_subset_restricts_findings() {
        let src = "contract C { function f(address to) public { to.send(1); } \
                   function kill() public { selfdestruct(msg.sender); } }";
        let engine = AnalysisEngine::new(
            AnalysisConfig::default()
                .with_detector_names(&["UncheckedCall"])
                .unwrap(),
        );
        match engine.analyze(&AnalysisRequest::scan(src)).unwrap() {
            AnalysisResponse::Findings(findings) => {
                assert!(!findings.is_empty());
                assert!(findings.iter().all(|f| f.detector == QueryId::UncheckedCall));
            }
            other => panic!("expected findings, got {other:?}"),
        }
    }

    #[test]
    fn unknown_detector_name_is_a_query_error() {
        let err = AnalysisConfig::default()
            .with_detector_names(&["NoSuchDetector"])
            .unwrap_err();
        assert_eq!(err.code(), "query");
    }

    #[test]
    fn batch_decodes_items_independently() {
        let scan = AnalysisRequest::scan("contract C {}").to_json();
        let body = format!("[{scan},{{\"v\":1,\"kind\":\"nope\",\"source\":\"x\"}}]");
        let items = batch_from_json(&body).unwrap();
        assert_eq!(items.len(), 2);
        assert!(matches!(items[0], Ok(AnalysisRequest::Scan { .. })));
        assert_eq!(items[1].as_ref().unwrap_err().code(), "invalid_request");
    }

    #[test]
    fn batch_rejects_non_arrays_and_oversize() {
        assert_eq!(batch_from_json("{\"v\":1}").unwrap_err().code(), "invalid_request");
        assert_eq!(batch_from_json("not json").unwrap_err().code(), "invalid_request");
        let item = AnalysisRequest::scan("contract C {}").to_json();
        let huge = format!(
            "[{}]",
            std::iter::repeat_n(item.as_str(), MAX_BATCH_ITEMS + 1)
                .collect::<Vec<_>>()
                .join(",")
        );
        assert_eq!(batch_from_json(&huge).unwrap_err().code(), "invalid_request");
        assert_eq!(batch_from_json("[]").unwrap().len(), 0);
    }

    #[test]
    fn response_cache_returns_identical_bytes() {
        let engine = AnalysisEngine::new(AnalysisConfig::default());
        let request = AnalysisRequest::scan(VULNERABLE);
        let first = engine.analyze(&request).unwrap().to_json();
        assert_eq!(engine.responses.len(), 1);
        let second = engine.analyze(&request).unwrap().to_json();
        assert_eq!(first, second, "memoized response must be byte-identical");
        // Still one entry: the repeat was a hit, not a second insert.
        assert_eq!(engine.responses.len(), 1);
    }

    #[test]
    fn response_cache_keys_detector_subsets_apart() {
        let engine = AnalysisEngine::new(AnalysisConfig::default());
        let scan = |detectors| AnalysisRequest::Scan { source: VULNERABLE.into(), detectors };
        engine.analyze(&scan(None)).unwrap();
        // TxOrigin does not fire on a send() snippet, and an explicitly
        // empty subset runs no detector: neither may get the default
        // set's cached findings.
        for subset in [vec![QueryId::AcTxOrigin], vec![]] {
            let response = engine.analyze(&scan(Some(subset))).unwrap();
            assert_eq!(response, AnalysisResponse::Findings(vec![]));
        }
        assert_eq!(engine.responses.len(), 3);
    }
}
