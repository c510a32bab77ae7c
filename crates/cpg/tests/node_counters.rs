//! The CPG build's node counters. Telemetry is process-global, so this
//! test has a binary of its own: no other build can add to the counters
//! between its build and its snapshot.

use cpg::kinds::ALL_KINDS;

#[test]
fn per_kind_node_counters_sum_to_the_total() {
    telemetry::reset();
    telemetry::enable();
    let cpg = cpg::Cpg::from_snippet(
        "contract C { uint total; modifier only() { require(msg.sender == address(0)); _; } \
         function f(address a, uint v) public only { if (v > 0) { a.send(v); } total += v; } }",
    )
    .expect("snippet parses");
    let snapshot = telemetry::snapshot();
    telemetry::disable();

    let total = snapshot.counter("cpg.nodes").expect("cpg.nodes recorded");
    assert_eq!(total, cpg.graph.node_count() as u64);
    let per_kind: u64 = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("cpg.nodes."))
        .map(|(_, count)| count)
        .sum();
    assert_eq!(per_kind, total, "per-kind counters must sum to cpg.nodes");
    // Each counter carries its own kind's count.
    for kind in ALL_KINDS {
        let nodes = cpg.graph.nodes_of_kind(*kind).count() as u64;
        let counted = snapshot.counter(&format!("cpg.nodes.{kind:?}")).unwrap_or(0);
        assert_eq!(counted, nodes, "{kind:?}");
    }
}
