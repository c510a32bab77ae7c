//! The end-to-end study pipeline (§6 of the paper).
//!
//! Wires the substrates together into the experiment of Figure 6:
//!
//! * [`funnel`] — Q&A data collection funnel (Table 4),
//! * [`mapping`] — CCD snippet→contract clone mapping + deduplication,
//! * [`temporal`] — All/Disseminator/Source grouping and the Spearman
//!   popularity correlations (Table 5),
//! * [`study`] — the two-phase vulnerability validation (Tables 6 and 7),
//! * [`manual`] — the stratified oracle audit (Table 8),
//! * [`eval_ccc`] — the CCC benchmark against eight baselines
//!   (Tables 1 and 2),
//! * [`eval_ccd`] — the CCD benchmark against SmartEmbed and the
//!   parameter sweep (Tables 3 and 9, Figure 9),
//! * [`report`] — plain-text table rendering,
//! * [`api`] — the unified analysis facade (typed requests/responses with
//!   a versioned JSON encoding) shared by the batch bins and the analysis
//!   service (`crates/server`),
//! * [`corpus_index`] — the clone-corpus lifecycle behind one handle:
//!   [`corpus_index::CorpusBuilder`] builds in-memory or snapshot-backed
//!   corpora, [`corpus_index::CorpusHandle`] serves matching,
//!   incremental insert, compaction, and the near-duplicate front cache,
//! * [`cache`] — [`cache::Cache`], the full-key S3-FIFO cache behind the
//!   response cache and both front-cache tiers: popular answers outlive
//!   one-time keys.


#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod corpus_index;
pub mod eval_ccc;
pub mod eval_ccd;
pub mod funnel;
pub mod manual;
pub mod mapping;
pub mod par;
pub mod report;
pub mod study;
pub mod telemetry_report;
pub mod temporal;

pub use api::{
    AnalysisConfig, AnalysisEngine, AnalysisRequest, AnalysisResponse, CloneHit, Finding,
};
pub use corpus_index::{CorpusBuilder, CorpusHandle, FrontCacheStats};
pub use funnel::{run_funnel, FunnelOutput, UniqueSnippet};
pub use manual::{run_audit, AuditGrid};
pub use mapping::{dedup_contracts, map_snippets, CloneMapping};
pub use study::{run_study, StudyConfig, StudyResult, ValidationOutcome};
pub use temporal::{adoptions, correlations, Adoption, TemporalGroup};
