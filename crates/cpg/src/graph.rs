//! The property-graph arena.
//!
//! Nodes carry a [`NodeKind`] label plus a property bag; edges are typed by
//! [`EdgeKind`]. The graph offers the traversal primitives the vulnerability
//! detectors and the query engine build on: kind-filtered iteration,
//! in/out-edge walks, and bounded transitive reachability over edge-kind
//! sets (the `-[:DFG*]->` / `-[:EOG|INVOKES*]->` patterns of the paper's
//! Cypher queries).

use crate::kinds::{AstRole, EdgeKind, NodeKind};
use intern::{LineIndex, Symbol};
use solidity::Span;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the node arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Properties of a graph node. Field names mirror the upstream CPG property
/// keys used in queries (`code`, `localName`, `operatorCode`, `value`, ...).
///
/// Every textual property is an interned [`Symbol`]: copies are free,
/// equality is an integer compare, and [`Props::get`] can hand out borrowed
/// `&'static str` views without cloning.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Props {
    /// Canonical source form of the node (`msg.sender`, `a + b`, ...).
    pub code: Symbol,
    /// Unqualified name: the member name of a member expression, the callee
    /// name of a call, the declared name of a declaration.
    pub local_name: Symbol,
    /// Operator text for binary/unary operators (`+`, `==`, `+=`, ...).
    pub operator_code: Option<Symbol>,
    /// Literal value text.
    pub value: Option<Symbol>,
    /// Declared or inferred type, canonical text form.
    pub ty: Option<Symbol>,
    /// Parameter position (0-based) for `ParamVariableDeclaration`s.
    pub index: Option<usize>,
    /// Whether the node was synthesized during inference (missing outer
    /// declarations of a snippet, cf. §4.2).
    pub is_inferred: bool,
    /// Record kind: `contract`, `interface`, `library`, `struct`.
    pub record_kind: Option<Symbol>,
    /// Declared visibility for functions and fields.
    pub visibility: Option<Symbol>,
    /// Anything else, e.g. `pragma` on the translation unit.
    pub extra: BTreeMap<Symbol, Symbol>,
}

impl Props {
    /// Property lookup by upstream key name, for the query engine.
    ///
    /// Returns a borrowed view for every stored text property; only the
    /// numeric `index` key allocates (it must be formatted).
    pub fn get(&self, key: &str) -> Option<Cow<'static, str>> {
        match key {
            "code" => Some(Cow::Borrowed(self.code.as_str())),
            "localName" => Some(Cow::Borrowed(self.local_name.as_str())),
            "operatorCode" => self.operator_code.map(|s| Cow::Borrowed(s.as_str())),
            "value" => self.value.map(|s| Cow::Borrowed(s.as_str())),
            "type" => self.ty.map(|s| Cow::Borrowed(s.as_str())),
            "index" => self.index.map(|i| Cow::Owned(i.to_string())),
            "isInferred" => {
                Some(Cow::Borrowed(if self.is_inferred { "true" } else { "false" }))
            }
            "kind" => self.record_kind.map(|s| Cow::Borrowed(s.as_str())),
            "visibility" => self.visibility.map(|s| Cow::Borrowed(s.as_str())),
            other => self.extra.get(other).map(|s| Cow::Borrowed(s.as_str())),
        }
    }
}

/// A node: label + properties + source span.
#[derive(Debug, Clone)]
pub struct Node {
    /// Label.
    pub kind: NodeKind,
    /// Property bag.
    pub props: Props,
    /// Source span in the translated text.
    pub span: Span,
}

/// A directed, typed edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Edge type.
    pub kind: EdgeKind,
    /// Target node.
    pub to: NodeId,
}

/// Sentinel for "no edge" in the intrusive adjacency lists.
const NIL: u32 = u32::MAX;

/// One stored edge plus its links in the per-node adjacency lists.
#[derive(Debug, Clone, Copy)]
struct EdgeCell {
    edge: Edge,
    next_out: u32,
    next_in: u32,
}

/// Per-node heads and tails of the outgoing and incoming edge lists.
#[derive(Debug, Clone, Copy)]
struct AdjHead {
    first_out: u32,
    last_out: u32,
    first_in: u32,
    last_in: u32,
}

impl AdjHead {
    const EMPTY: AdjHead =
        AdjHead { first_out: NIL, last_out: NIL, first_in: NIL, last_in: NIL };
}

/// The code property graph.
///
/// Edges live in one arena (`cells`), threaded through per-node intrusive
/// lists — adding a node or an edge performs no allocation beyond the
/// amortized growth of three flat `Vec`s. The previous representation
/// (one out-`Vec` and one in-`Vec` per node) spent two heap allocations
/// on every connected node, which dominated the translation hot path.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    nodes: Vec<Node>,
    cells: Vec<EdgeCell>,
    adj: Vec<AdjHead>,
    /// Membership index over `cells` so `add_edge` dedup is O(1) instead
    /// of a walk of the source node's out-list.
    dedup: intern::FxHashSet<Edge>,
    line_index: Option<Arc<LineIndex>>,
}

/// Iterator over one direction of a node's adjacency list, in insertion
/// order.
pub struct EdgeIter<'g> {
    cells: &'g [EdgeCell],
    next: u32,
    forward: bool,
}

impl Iterator for EdgeIter<'_> {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        if self.next == NIL {
            return None;
        }
        let cell = &self.cells[self.next as usize];
        self.next = if self.forward { cell.next_out } else { cell.next_in };
        Some(cell.edge)
    }
}

impl Graph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Pre-size the node and edge storage. Translation knows a reasonable
    /// ballpark up front; reserving once avoids the incremental rehash and
    /// regrow churn that otherwise dominates graph construction.
    pub fn reserve(&mut self, nodes: usize, edges: usize) {
        self.nodes.reserve(nodes);
        self.adj.reserve(nodes);
        self.cells.reserve(edges);
        self.dedup.reserve(edges);
    }

    /// Attach the line index of the translated source, so spans can be
    /// resolved to 1-based line numbers on demand instead of storing a
    /// line per token.
    pub fn set_line_index(&mut self, index: Arc<LineIndex>) {
        self.line_index = Some(index);
    }

    /// Resolve a span to its 1-based start line (0 for dummy spans or when
    /// no line index is attached).
    pub fn line_of(&self, span: Span) -> u32 {
        if span.is_dummy() {
            return 0;
        }
        match &self.line_index {
            Some(index) => index.line_of(span.start),
            None => 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.cells.len()
    }

    /// Add a node and return its id.
    pub fn add_node(&mut self, kind: NodeKind, props: Props, span: Span) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { kind, props, span });
        self.adj.push(AdjHead::EMPTY);
        id
    }

    /// Add a typed edge. Parallel edges of the same kind are deduplicated.
    pub fn add_edge(&mut self, from: NodeId, kind: EdgeKind, to: NodeId) {
        let edge = Edge { from, kind, to };
        if !self.dedup.insert(edge) {
            return;
        }
        let idx = self.cells.len() as u32;
        self.cells.push(EdgeCell { edge, next_out: NIL, next_in: NIL });
        let from_adj = &mut self.adj[from.index()];
        if from_adj.last_out == NIL {
            from_adj.first_out = idx;
        } else {
            self.cells[from_adj.last_out as usize].next_out = idx;
        }
        let from_adj = &mut self.adj[from.index()];
        from_adj.last_out = idx;
        let to_adj = &mut self.adj[to.index()];
        if to_adj.last_in == NIL {
            let first = idx;
            to_adj.first_in = first;
        } else {
            self.cells[to_adj.last_in as usize].next_in = idx;
        }
        self.adj[to.index()].last_in = idx;
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable node access (used by passes to refine properties).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All nodes of a given kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(move |id| self.node(*id).kind == kind)
    }

    /// Outgoing edges of a node, in insertion order.
    pub fn out_edges(&self, id: NodeId) -> EdgeIter<'_> {
        EdgeIter { cells: &self.cells, next: self.adj[id.index()].first_out, forward: true }
    }

    /// Incoming edges of a node, in insertion order.
    pub fn in_edges(&self, id: NodeId) -> EdgeIter<'_> {
        EdgeIter { cells: &self.cells, next: self.adj[id.index()].first_in, forward: false }
    }

    /// Outgoing neighbors over edges matching `pred`.
    pub fn out_by<'a>(
        &'a self,
        id: NodeId,
        pred: impl Fn(EdgeKind) -> bool + 'a,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.out_edges(id).filter(move |edge| pred(edge.kind)).map(|edge| edge.to)
    }

    /// Incoming neighbors over edges matching `pred`.
    pub fn in_by<'a>(
        &'a self,
        id: NodeId,
        pred: impl Fn(EdgeKind) -> bool + 'a,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.in_edges(id).filter(move |edge| pred(edge.kind)).map(|edge| edge.from)
    }

    /// Outgoing neighbors over exactly one edge kind.
    pub fn out_kind<'a>(&'a self, id: NodeId, kind: EdgeKind) -> impl Iterator<Item = NodeId> + 'a {
        self.out_by(id, move |k| k == kind)
    }

    /// Incoming neighbors over exactly one edge kind.
    pub fn in_kind<'a>(&'a self, id: NodeId, kind: EdgeKind) -> impl Iterator<Item = NodeId> + 'a {
        self.in_by(id, move |k| k == kind)
    }

    /// Outgoing AST children of any role.
    pub fn ast_children<'a>(&'a self, id: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        self.out_by(id, |k| k.is_ast())
    }

    /// The AST child in a specific role, if any.
    pub fn ast_child(&self, id: NodeId, role: AstRole) -> Option<NodeId> {
        self.out_kind(id, EdgeKind::Ast(role)).next()
    }

    /// All AST children in a specific role.
    pub fn ast_children_role<'a>(
        &'a self,
        id: NodeId,
        role: AstRole,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.out_kind(id, EdgeKind::Ast(role))
    }

    /// The AST parent, if any.
    pub fn ast_parent(&self, id: NodeId) -> Option<NodeId> {
        self.in_by(id, |k| k.is_ast()).next()
    }

    /// Walk up AST parents until a node satisfies `pred`.
    pub fn enclosing(&self, id: NodeId, pred: impl Fn(&Node) -> bool) -> Option<NodeId> {
        let mut current = self.ast_parent(id);
        while let Some(node) = current {
            if pred(self.node(node)) {
                return Some(node);
            }
            current = self.ast_parent(node);
        }
        None
    }

    /// The enclosing function or constructor of a node, if any.
    pub fn enclosing_function(&self, id: NodeId) -> Option<NodeId> {
        if self.node(id).kind.is_function_like() {
            return Some(id);
        }
        self.enclosing(id, |n| n.kind.is_function_like())
    }

    /// All AST descendants of a node (excluding the node itself).
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut result = Vec::new();
        let mut stack: Vec<NodeId> = self.ast_children(id).collect();
        while let Some(node) = stack.pop() {
            result.push(node);
            stack.extend(self.ast_children(node));
        }
        result
    }

    /// Forward reachability over edge kinds matching `pred`, up to
    /// `max_depth` hops (`usize::MAX` for unbounded). Returns the set of
    /// reached nodes, excluding the start unless it lies on a cycle.
    ///
    /// `max_depth` is the lever behind the paper's second validation phase
    /// (§6.3): iteratively reducing the maximal data-flow path length to
    /// avoid path explosion.
    pub fn reach_forward(
        &self,
        start: NodeId,
        pred: impl Fn(EdgeKind) -> bool,
        max_depth: usize,
    ) -> HashSet<NodeId> {
        self.reach(start, &pred, max_depth, true)
    }

    /// Backward reachability over edge kinds matching `pred`.
    pub fn reach_backward(
        &self,
        start: NodeId,
        pred: impl Fn(EdgeKind) -> bool,
        max_depth: usize,
    ) -> HashSet<NodeId> {
        self.reach(start, &pred, max_depth, false)
    }

    fn reach(
        &self,
        start: NodeId,
        pred: &impl Fn(EdgeKind) -> bool,
        max_depth: usize,
        forward: bool,
    ) -> HashSet<NodeId> {
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back((start, 0usize));
        while let Some((node, depth)) = queue.pop_front() {
            if depth >= max_depth {
                continue;
            }
            let edges = if forward { self.out_edges(node) } else { self.in_edges(node) };
            for edge in edges {
                if !pred(edge.kind) {
                    continue;
                }
                let next = if forward { edge.to } else { edge.from };
                if seen.insert(next) {
                    queue.push_back((next, depth + 1));
                }
            }
        }
        seen
    }

    /// Whether `to` is reachable from `from` over edges matching `pred`
    /// within `max_depth` hops.
    pub fn reaches(
        &self,
        from: NodeId,
        to: NodeId,
        pred: impl Fn(EdgeKind) -> bool,
        max_depth: usize,
    ) -> bool {
        if from == to {
            return true;
        }
        // Targeted BFS with early exit.
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back((from, 0usize));
        while let Some((node, depth)) = queue.pop_front() {
            if depth >= max_depth {
                continue;
            }
            for edge in self.out_edges(node) {
                if !pred(edge.kind) {
                    continue;
                }
                if edge.to == to {
                    return true;
                }
                if seen.insert(edge.to) {
                    queue.push_back((edge.to, depth + 1));
                }
            }
        }
        false
    }

    /// Whether data flows from `from` to `to` (`-[:DFG*]->`), unbounded.
    pub fn dfg_reaches(&self, from: NodeId, to: NodeId) -> bool {
        self.reaches(from, to, |k| k == EdgeKind::Dfg, usize::MAX)
    }

    /// Whether `to` is evaluation-order reachable from `from`
    /// (`-[:EOG*]->`), unbounded.
    pub fn eog_reaches(&self, from: NodeId, to: NodeId) -> bool {
        self.reaches(from, to, |k| k == EdgeKind::Eog, usize::MAX)
    }

    /// One shortest path (list of node ids, start and end inclusive) from
    /// `from` to `to` over edges matching `pred`, if one exists.
    pub fn shortest_path(
        &self,
        from: NodeId,
        to: NodeId,
        pred: impl Fn(EdgeKind) -> bool,
    ) -> Option<Vec<NodeId>> {
        if from == to {
            return Some(vec![from]);
        }
        let mut prev: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(from);
        while let Some(node) = queue.pop_front() {
            for edge in self.out_edges(node) {
                if !pred(edge.kind) || prev.contains_key(&edge.to) || edge.to == from {
                    continue;
                }
                prev.insert(edge.to, node);
                if edge.to == to {
                    let mut path = vec![to];
                    let mut current = to;
                    while let Some(&parent) = prev.get(&current) {
                        path.push(parent);
                        current = parent;
                        if current == from {
                            break;
                        }
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(edge.to);
            }
        }
        None
    }

    /// The declaration a reference resolves to, if resolved.
    pub fn refers_to(&self, reference: NodeId) -> Option<NodeId> {
        self.out_kind(reference, EdgeKind::RefersTo).next()
    }

    /// All references resolving to a declaration.
    pub fn references_of<'a>(&'a self, decl: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        self.in_kind(decl, EdgeKind::RefersTo)
    }

    /// Whether the node has no outgoing EOG edge — i.e. it terminates a
    /// program path (queries match `not exists ((last)-[:EOG]->())`).
    pub fn is_eog_exit(&self, id: NodeId) -> bool {
        self.out_kind(id, EdgeKind::Eog).next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(g: &mut Graph, kind: NodeKind, code: &str) -> NodeId {
        g.add_node(
            kind,
            Props { code: code.into(), ..Props::default() },
            Span::DUMMY,
        )
    }

    #[test]
    fn add_and_query() {
        let mut g = Graph::new();
        let a = n(&mut g, NodeKind::CallExpression, "f()");
        let b = n(&mut g, NodeKind::FieldDeclaration, "x");
        g.add_edge(a, EdgeKind::Dfg, b);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(g.dfg_reaches(a, b));
        assert!(!g.dfg_reaches(b, a));
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut g = Graph::new();
        let a = n(&mut g, NodeKind::Literal, "1");
        let b = n(&mut g, NodeKind::Literal, "2");
        g.add_edge(a, EdgeKind::Eog, b);
        g.add_edge(a, EdgeKind::Eog, b);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn transitive_reachability_with_depth_limit() {
        let mut g = Graph::new();
        let chain: Vec<NodeId> =
            (0..5).map(|i| n(&mut g, NodeKind::Literal, &i.to_string())).collect();
        for w in chain.windows(2) {
            g.add_edge(w[0], EdgeKind::Dfg, w[1]);
        }
        assert!(g.reaches(chain[0], chain[4], |k| k == EdgeKind::Dfg, usize::MAX));
        assert!(g.reaches(chain[0], chain[4], |k| k == EdgeKind::Dfg, 4));
        assert!(!g.reaches(chain[0], chain[4], |k| k == EdgeKind::Dfg, 3));
    }

    #[test]
    fn reach_handles_cycles() {
        let mut g = Graph::new();
        let a = n(&mut g, NodeKind::Literal, "a");
        let b = n(&mut g, NodeKind::Literal, "b");
        g.add_edge(a, EdgeKind::Eog, b);
        g.add_edge(b, EdgeKind::Eog, a);
        let reached = g.reach_forward(a, |k| k == EdgeKind::Eog, usize::MAX);
        assert!(reached.contains(&a));
        assert!(reached.contains(&b));
    }

    #[test]
    fn shortest_path_found() {
        let mut g = Graph::new();
        let a = n(&mut g, NodeKind::Literal, "a");
        let b = n(&mut g, NodeKind::Literal, "b");
        let c = n(&mut g, NodeKind::Literal, "c");
        g.add_edge(a, EdgeKind::Eog, b);
        g.add_edge(b, EdgeKind::Eog, c);
        g.add_edge(a, EdgeKind::Dfg, c);
        let p = g.shortest_path(a, c, |k| k == EdgeKind::Eog).unwrap();
        assert_eq!(p, vec![a, b, c]);
        assert!(g.shortest_path(c, a, |k| k == EdgeKind::Eog).is_none());
    }

    #[test]
    fn props_lookup_by_key() {
        let props = Props {
            code: "a + b".into(),
            operator_code: Some("+".into()),
            is_inferred: true,
            ..Props::default()
        };
        assert_eq!(props.get("code").as_deref(), Some("a + b"));
        assert_eq!(props.get("operatorCode").as_deref(), Some("+"));
        assert_eq!(props.get("isInferred").as_deref(), Some("true"));
        assert_eq!(props.get("missing"), None);
    }
}
