//! Structural identity of the code property graphs the builder produces.
//!
//! Builds `Cpg::from_snippet` for every honeypot contract, every curated
//! source at its three levels (contracts, functions, statements) and the
//! unique snippets of a small Q&A corpus, and folds each graph into one
//! FNV-1a digest: its nodes in id order (kind, `{:?}` of the properties,
//! span), then each node's outgoing edges in list order. A parse failure
//! folds its error code instead. The pinned digest and totals were
//! computed before the builder's phase-3 function lookup, inheritance
//! walks and operand translation were each reduced to one, so any change
//! in node ids, properties, spans, edge order or edge set fails here, not
//! only when a detector happens to notice.

use corpus::smartbugs::{derive_functions, derive_statements};
use cpg::Cpg;
use std::fmt::Write;

/// Q&A scale of the snippet sample (the funnel's unique snippets).
const QA_SCALE: f64 = 0.02;

#[derive(Default)]
struct Fold {
    graphs: usize,
    failures: usize,
    nodes: usize,
    edges: usize,
    digests: Vec<u8>,
    buf: String,
}

impl Fold {
    fn add(&mut self, src: &str) {
        self.buf.clear();
        match Cpg::from_snippet(src) {
            Ok(cpg) => {
                let g = &cpg.graph;
                self.graphs += 1;
                self.nodes += g.node_count();
                self.edges += g.edge_count();
                for id in g.node_ids() {
                    let node = g.node(id);
                    let _ = writeln!(self.buf, "{:?}|{:?}|{:?}", node.kind, node.props, node.span);
                    for edge in g.out_edges(id) {
                        let _ = writeln!(self.buf, "  {:?}->{}", edge.kind, edge.to.0);
                    }
                }
            }
            Err(e) => {
                self.failures += 1;
                self.buf.push_str(e.code());
            }
        }
        let digest = telemetry::fnv1a(self.buf.as_bytes());
        self.digests.extend_from_slice(&digest.to_le_bytes());
    }
}

#[test]
fn graphs_match_the_pinned_digest() {
    let mut fold = Fold::default();
    for hp in &bench::honeypots().contracts {
        fold.add(&hp.source);
    }
    let curated = bench::curated();
    for dataset in [derive_functions(&curated), derive_statements(&curated), curated] {
        for file in &dataset.files {
            fold.add(&file.source());
        }
    }
    for snippet in &pipeline::run_funnel(&bench::qa(QA_SCALE)).unique {
        fold.add(&snippet.text);
    }
    let digest = telemetry::fnv1a(&fold.digests);
    assert_eq!(
        (fold.graphs, fold.failures, fold.nodes, fold.edges, digest),
        (1161, 0, 73_300, 191_708, 8_608_210_631_785_539_958),
        "CPG structure drifted"
    );
}
