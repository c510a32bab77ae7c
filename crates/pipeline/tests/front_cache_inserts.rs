//! Clone-check answers cached by the corpus handle's front cache survive
//! inserts: a hit matches only the documents added since the answer was
//! cached. Whatever the order of inserts and checks, every answer through
//! a cached engine must be the bytes a cache-free engine gives over the
//! same corpus.

use pipeline::api::{error_to_json, AnalysisConfig, AnalysisEngine, AnalysisRequest};
use pipeline::corpus_index::CorpusBuilder;
use proptest::prelude::*;

/// The corpus both engines start from.
const SEED: [(u64, &str); 2] = [
    (0, "contract A { function w(uint v) public { msg.sender.transfer(v); } }"),
    (
        1,
        "contract Vote { mapping(address => bool) voted; uint yes; \
         function vote() public { require(!voted[msg.sender]); voted[msg.sender] = true; yes += 1; } }",
    ),
];

/// Clone-check sources. The first two share a fingerprint, so the second
/// is a tier-2 hit on the first's answer; the last does not parse.
const QUERIES: [&str; 5] = [
    "contract Q { function w(uint v) public { msg.sender.transfer(v); } }",
    "contract Wallet {  function out(uint amount) public { msg.sender.transfer(amount); } }",
    "contract B { uint total; function add(uint v) public { total += v; } }",
    "contract P { mapping(address => uint) bal; \
     function pay(address to, uint v) public { bal[to] -= v; to.transfer(v); } }",
    "this is prose, not solidity",
];

/// Inserted contracts: near-duplicates of the queries (renamed, and with
/// code added around the copied function) and unrelated contracts.
const INSERTS: [&str; 6] = [
    "contract Copy { function take(uint x) public { msg.sender.transfer(x); } }",
    "contract Ext { address owner; constructor() { owner = msg.sender; } \
     function take(uint x) public { msg.sender.transfer(x); } }",
    "contract Sum { uint s; function plus(uint k) public { s += k; } }",
    "contract Pay { mapping(address => uint) owed; \
     function settle(address who, uint n) public { owed[who] -= n; who.transfer(n); } }",
    "contract Token { mapping(address => uint) balances; \
     function mint(address to, uint v) public { balances[to] += v; } }",
    "contract Clock { uint last; function tick() public { last = block.timestamp; } }",
];

/// The wire bytes of a clone check: the response or the error document.
fn answer(engine: &AnalysisEngine, source: &str) -> String {
    match engine.analyze(&AnalysisRequest::clone_check(source)) {
        Ok(response) => response.to_json(),
        Err(error) => error_to_json(&error),
    }
}

proptest! {
    /// Ops: 0 and 1 = clone check, 2 = insert under an auto-assigned id,
    /// 3 = insert under an explicit id, which may already be taken.
    #[test]
    fn cached_answers_equal_a_cache_free_engine_across_inserts(
        ops in proptest::collection::vec((0u8..4, 0usize..6, 0u64..12), 1..40),
    ) {
        let config = AnalysisConfig::default();
        let cached = AnalysisEngine::with_corpus(config.clone(), SEED);
        let uncached = AnalysisEngine::with_corpus_handle(
            config.clone(),
            CorpusBuilder::new(config.ccd_params()).front_cache_capacity(0).from_sources(SEED),
        );
        for (op, pick, id) in ops {
            if op < 2 {
                let source = QUERIES[pick % QUERIES.len()];
                prop_assert_eq!(answer(&cached, source), answer(&uncached, source));
            } else {
                let source = INSERTS[pick % INSERTS.len()];
                let id = (op == 3).then_some(id);
                let got = cached.corpus_handle().insert_source(id, source);
                let want = uncached.corpus_handle().insert_source(id, source);
                prop_assert_eq!(got.map_err(|e| e.code()), want.map_err(|e| e.code()));
            }
        }
        // Every query once more, after the last insert.
        for source in QUERIES {
            prop_assert_eq!(answer(&cached, source), answer(&uncached, source));
        }
    }
}
