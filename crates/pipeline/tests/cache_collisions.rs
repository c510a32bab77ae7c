//! Inputs whose 64-bit FNV-1a hashes collide. The engine's caches used to
//! key on those hashes, so one input was answered with the other's
//! result; every cached answer here must equal a cache-free engine's.

use pipeline::api::{AnalysisConfig, AnalysisEngine, AnalysisRequest, AnalysisResponse};
use pipeline::corpus_index::CorpusBuilder;

/// FNV-1a 64 of either source is `0x80172218226d4bfd`.
const SOURCE_PAIR: [&str; 2] = [
    "function f(address to) public { to.send(1); }\n// 8d97cd8d8bb3682c",
    "function g() public { selfdestruct(msg.sender); }\n// dc00d9bbcd226ad5",
];

/// FNV-1a 64 of `"scan\0\0"` followed by either source is
/// `0xdcb220a4b3e23d02`.
const SCAN_KEY_PAIR: [&str; 2] = [
    "function g() public { selfdestruct(msg.sender); }\n// 3a39d2f9e9750895",
    "function f(address to) public { to.send(1); }\n// 811d2e8442a2c7e6",
];

const CORPUS: [(u64, &str); 2] = [
    (1, "contract X { function f(address to) public { to.send(1); } }"),
    (2, "contract Y { function g() public { selfdestruct(msg.sender); } }"),
];

/// A fresh engine with every cache off, so no earlier request can leak
/// into the answer.
fn uncached(request: &AnalysisRequest) -> AnalysisResponse {
    let config = AnalysisConfig::default().with_response_cache_capacity(0);
    let corpus =
        CorpusBuilder::new(config.ccd_params()).front_cache_capacity(0).from_sources(CORPUS);
    AnalysisEngine::with_corpus_handle(config, corpus).analyze(request).unwrap()
}

/// Send the pair twice through one cached engine (a miss, then a hit, for
/// each) and compare every answer with the cache-free one.
fn assert_cached_answers_are_exact(pair: [AnalysisRequest; 2]) {
    assert_ne!(uncached(&pair[0]), uncached(&pair[1]), "the pair must answer differently");
    let engine = AnalysisEngine::with_corpus(AnalysisConfig::default(), CORPUS);
    for request in pair.iter().chain(&pair) {
        assert_eq!(engine.analyze(request).unwrap(), uncached(request), "{request:?}");
    }
}

#[test]
fn scans_of_colliding_sources_get_their_own_findings() {
    assert_cached_answers_are_exact(SOURCE_PAIR.map(AnalysisRequest::scan));
}

#[test]
fn clone_checks_of_colliding_sources_get_their_own_clones() {
    assert_cached_answers_are_exact(SOURCE_PAIR.map(AnalysisRequest::clone_check));
}

#[test]
fn scans_with_colliding_response_keys_get_their_own_findings() {
    assert_cached_answers_are_exact(SCAN_KEY_PAIR.map(AnalysisRequest::scan));
}
