//! Query evaluation: backtracking pattern matching over a [`GraphSource`].

use crate::syntax::{CmpOp, Cond, Direction, EdgePat, NodePat, Operand, PathPat, Query, Value};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet, VecDeque};

/// Abstraction over a queryable property graph. Implemented for
/// [`cpg::Graph`] in [`crate::adapter`], and trivially implementable for
/// test graphs.
pub trait GraphSource {
    /// Number of nodes; ids are `0..node_count()`.
    fn node_count(&self) -> usize;
    /// Labels of a node (a node may carry more than one, mirroring label
    /// inheritance in the upstream CPG, e.g. `ConstructorDeclaration` is
    /// also a `FunctionDeclaration`).
    fn labels(&self, node: u32) -> Vec<&'static str>;
    /// Property lookup by key. Borrowed values avoid a per-probe
    /// allocation on the hot matching path; implementations that must
    /// synthesize a value return [`Cow::Owned`].
    fn prop(&self, node: u32, key: &str) -> Option<Cow<'_, str>>;
    /// Outgoing neighbors over relationships of `kind` (`None` = any).
    fn neighbors_out(&self, node: u32, kind: Option<&str>) -> Vec<u32>;
    /// Incoming neighbors over relationships of `kind` (`None` = any).
    fn neighbors_in(&self, node: u32, kind: Option<&str>) -> Vec<u32>;

    /// All node ids carrying a label; default scans everything.
    fn nodes_with_label(&self, label: &str) -> Vec<u32> {
        (0..self.node_count() as u32)
            .filter(|n| self.labels(*n).contains(&label))
            .collect()
    }
}

/// Variable bindings of one (partial) match.
pub type Bindings = BTreeMap<String, u32>;

/// Result rows of a query: one map per match, restricted to the RETURN
/// variables (all bound variables if RETURN is empty), deduplicated.
pub fn run<S: GraphSource>(query: &Query, source: &S) -> Vec<Bindings> {
    static QUERIES: telemetry::Counter = telemetry::Counter::new("graphquery.queries");
    static SOLUTIONS: telemetry::Counter = telemetry::Counter::new("graphquery.solutions");
    static ROWS: telemetry::Counter = telemetry::Counter::new("graphquery.rows");
    QUERIES.incr();
    static STAGE: telemetry::Stage = telemetry::Stage::new("query-eval");
    let _stage = STAGE.enter();
    // Chaos hook: evaluation is infallible, so an injected error at
    // `query/eval` escalates to a panic for the isolation layer to catch.
    if let Some(message) = faultinject::fire("query/eval") {
        panic!("faultinject: {message}");
    }
    let mut rows: Vec<Bindings> = Vec::new();
    let mut seen: HashSet<Vec<(String, u32)>> = HashSet::new();
    let mut solutions = Vec::new();
    match_patterns(source, &query.patterns, Bindings::new(), &mut solutions, usize::MAX);
    SOLUTIONS.add(solutions.len() as u64);
    for binding in solutions {
        if let Some(cond) = &query.cond {
            if !eval_cond(source, cond, &binding) {
                continue;
            }
        }
        let row: Bindings = if query.returns.is_empty() {
            binding
        } else {
            query
                .returns
                .iter()
                .filter_map(|v| binding.get(v).map(|n| (v.clone(), *n)))
                .collect()
        };
        let key: Vec<(String, u32)> = row.iter().map(|(k, v)| (k.clone(), *v)).collect();
        if seen.insert(key) {
            rows.push(row);
        }
    }
    ROWS.add(rows.len() as u64);
    rows
}

/// Convenience: run a query and collect the node ids bound to `var`.
pub fn run_var<S: GraphSource>(query: &Query, source: &S, var: &str) -> Vec<u32> {
    let mut ids: Vec<u32> = run(query, source)
        .into_iter()
        .filter_map(|row| row.get(var).copied())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

const MAX_SOLUTIONS: usize = 100_000;

fn match_patterns<S: GraphSource>(
    source: &S,
    patterns: &[PathPat],
    bindings: Bindings,
    out: &mut Vec<Bindings>,
    limit: usize,
) {
    if out.len() >= limit.min(MAX_SOLUTIONS) {
        return;
    }
    let Some((first, rest)) = patterns.split_first() else {
        out.push(bindings);
        return;
    };
    // A path with no node patterns cannot come out of the query parser,
    // but a hand-built `Query` could carry one; treat it as vacuously
    // matched instead of indexing out of bounds.
    let Some(first_node) = first.nodes.first() else {
        match_patterns(source, rest, bindings, out, limit);
        return;
    };
    let starts = candidates(source, first_node, &bindings);
    for start in starts {
        let mut b = bindings.clone();
        if !bind(&mut b, first_node, start) {
            continue;
        }
        extend_path(source, first, 0, start, b, rest, out, limit);
        if out.len() >= limit.min(MAX_SOLUTIONS) {
            return;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn extend_path<S: GraphSource>(
    source: &S,
    path: &PathPat,
    edge_idx: usize,
    current: u32,
    bindings: Bindings,
    rest: &[PathPat],
    out: &mut Vec<Bindings>,
    limit: usize,
) {
    if out.len() >= limit.min(MAX_SOLUTIONS) {
        return;
    }
    if edge_idx == path.edges.len() {
        match_patterns(source, rest, bindings, out, limit);
        return;
    }
    let edge = &path.edges[edge_idx];
    // Malformed hand-built paths (fewer nodes than edges + 1) match
    // nothing rather than panicking.
    let Some(target_pat) = path.nodes.get(edge_idx + 1) else {
        return;
    };
    for next in edge_targets(source, current, edge) {
        if !node_matches(source, target_pat, next) {
            continue;
        }
        let mut b = bindings.clone();
        if !bind(&mut b, target_pat, next) {
            continue;
        }
        extend_path(source, path, edge_idx + 1, next, b, rest, out, limit);
        if out.len() >= limit.min(MAX_SOLUTIONS) {
            return;
        }
    }
}

/// All nodes reachable from `from` over one application of the edge pattern
/// (one hop, or the 1.. closure for `*`).
fn edge_targets<S: GraphSource>(source: &S, from: u32, edge: &EdgePat) -> Vec<u32> {
    let step = |node: u32| -> Vec<u32> {
        let mut result = Vec::new();
        let kinds: Vec<Option<&str>> = if edge.kinds.is_empty() {
            vec![None]
        } else {
            edge.kinds.iter().map(|k| Some(k.as_str())).collect()
        };
        for kind in kinds {
            let neighbors = match edge.direction {
                Direction::Right => source.neighbors_out(node, kind),
                Direction::Left => source.neighbors_in(node, kind),
            };
            result.extend(neighbors);
        }
        result.sort_unstable();
        result.dedup();
        result
    };
    if !edge.star {
        return step(from);
    }
    // Closure: 1 or more hops, BFS.
    let mut seen = HashSet::new();
    let mut queue = VecDeque::new();
    queue.push_back(from);
    let mut result = Vec::new();
    while let Some(node) = queue.pop_front() {
        for next in step(node) {
            if seen.insert(next) {
                result.push(next);
                queue.push_back(next);
            }
        }
    }
    result
}

fn candidates<S: GraphSource>(source: &S, pat: &NodePat, bindings: &Bindings) -> Vec<u32> {
    if let Some(var) = &pat.var {
        if let Some(bound) = bindings.get(var) {
            return if node_matches(source, pat, *bound) {
                vec![*bound]
            } else {
                vec![]
            };
        }
    }
    let pool: Vec<u32> = match pat.labels.first() {
        Some(label) => source.nodes_with_label(label),
        None => (0..source.node_count() as u32).collect(),
    };
    pool.into_iter().filter(|n| node_matches(source, pat, *n)).collect()
}

fn node_matches<S: GraphSource>(source: &S, pat: &NodePat, node: u32) -> bool {
    static NODES_VISITED: telemetry::Counter =
        telemetry::Counter::new("graphquery.nodes_visited");
    NODES_VISITED.incr();
    let labels = source.labels(node);
    if !pat.labels.iter().all(|l| labels.contains(&l.as_str())) {
        return false;
    }
    for (key, expected) in &pat.props {
        let actual = source.prop(node, key);
        let matches = match (actual, expected) {
            (Some(a), Value::Str(s)) => a == s.as_str(),
            (Some(a), Value::Num(n)) => a.parse::<f64>().map(|x| x == *n).unwrap_or(false),
            (Some(a), Value::Bool(b)) => a == b.to_string(),
            (None, Value::Null) => true,
            _ => false,
        };
        if !matches {
            return false;
        }
    }
    true
}

fn bind(bindings: &mut Bindings, pat: &NodePat, node: u32) -> bool {
    if let Some(var) = &pat.var {
        match bindings.get(var) {
            Some(existing) => return *existing == node,
            None => {
                bindings.insert(var.clone(), node);
            }
        }
    }
    true
}

// ===== conditions ===========================================================

fn eval_cond<S: GraphSource>(source: &S, cond: &Cond, bindings: &Bindings) -> bool {
    match cond {
        Cond::And(a, b) => eval_cond(source, a, bindings) && eval_cond(source, b, bindings),
        Cond::Or(a, b) => eval_cond(source, a, bindings) || eval_cond(source, b, bindings),
        Cond::Not(inner) => !eval_cond(source, inner, bindings),
        Cond::Exists { patterns, cond } => {
            let mut solutions = Vec::new();
            match_patterns(source, patterns, bindings.clone(), &mut solutions, usize::MAX);
            match cond {
                None => !solutions.is_empty(),
                Some(inner) => solutions.iter().any(|b| eval_cond(source, inner, b)),
            }
        }
        Cond::IsNull(operand) => eval_operand(source, operand, bindings).is_none(),
        Cond::Cmp { lhs, op, rhs } => {
            // Node identity comparison `a <> b` / `a = b`.
            if let (Operand::Var(a), Operand::Var(b)) = (lhs, rhs) {
                let (Some(na), Some(nb)) = (bindings.get(a), bindings.get(b)) else {
                    return false;
                };
                return match op {
                    CmpOp::Eq => na == nb,
                    CmpOp::Ne => na != nb,
                    _ => false,
                };
            }
            let lv = eval_operand(source, lhs, bindings);
            let rv = eval_operand(source, rhs, bindings);
            match op {
                CmpOp::Eq => match (&lv, &rv) {
                    (Some(a), Some(b)) => value_eq(a, b),
                    (None, Some(Value::Null)) | (Some(Value::Null), None) => true,
                    _ => false,
                },
                CmpOp::Ne => match (&lv, &rv) {
                    (Some(a), Some(b)) => !value_eq(a, b),
                    _ => false,
                },
                CmpOp::In => match (&lv, &rv) {
                    (Some(a), Some(Value::List(items))) => {
                        items.iter().any(|item| value_eq(a, item))
                    }
                    _ => false,
                },
                CmpOp::Contains => match (&lv, &rv) {
                    (Some(Value::Str(a)), Some(Value::Str(b))) => a.contains(b.as_str()),
                    _ => false,
                },
                CmpOp::StartsWith => match (&lv, &rv) {
                    (Some(Value::Str(a)), Some(Value::Str(b))) => a.starts_with(b.as_str()),
                    _ => false,
                },
            }
        }
    }
}

fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Num(x), Value::Num(y)) => x == y,
        (Value::Str(x), Value::Num(y)) | (Value::Num(y), Value::Str(x)) => {
            x.parse::<f64>().map(|v| v == *y).unwrap_or(false)
        }
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Str(x), Value::Bool(y)) | (Value::Bool(y), Value::Str(x)) => {
            x == &y.to_string()
        }
        (Value::Null, Value::Null) => true,
        _ => false,
    }
}

fn eval_operand<S: GraphSource>(
    source: &S,
    operand: &Operand,
    bindings: &Bindings,
) -> Option<Value> {
    match operand {
        Operand::Lit(v) => Some(v.clone()),
        Operand::Prop(var, key) => {
            let node = bindings.get(var)?;
            source.prop(*node, key).map(|v| Value::Str(v.into_owned()))
        }
        Operand::Var(_) => None,
        Operand::ToUpper(inner) => match eval_operand(source, inner, bindings)? {
            Value::Str(s) => Some(Value::Str(s.to_uppercase())),
            other => Some(other),
        },
        Operand::Labels(var) => {
            let node = bindings.get(var)?;
            Some(Value::List(
                source
                    .labels(*node)
                    .into_iter()
                    .map(|l| Value::Str(l.to_string()))
                    .collect(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::parse_query;

    /// A tiny hand-built graph for engine tests.
    struct TestGraph {
        labels: Vec<Vec<&'static str>>,
        props: Vec<Vec<(&'static str, &'static str)>>,
        edges: Vec<(u32, &'static str, u32)>,
    }

    impl GraphSource for TestGraph {
        fn node_count(&self) -> usize {
            self.labels.len()
        }
        fn labels(&self, node: u32) -> Vec<&'static str> {
            self.labels[node as usize].clone()
        }
        fn prop(&self, node: u32, key: &str) -> Option<Cow<'_, str>> {
            self.props[node as usize]
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| Cow::Borrowed(*v))
        }
        fn neighbors_out(&self, node: u32, kind: Option<&str>) -> Vec<u32> {
            self.edges
                .iter()
                .filter(|(f, k, _)| *f == node && kind.map(|x| x == *k).unwrap_or(true))
                .map(|(_, _, t)| *t)
                .collect()
        }
        fn neighbors_in(&self, node: u32, kind: Option<&str>) -> Vec<u32> {
            self.edges
                .iter()
                .filter(|(_, k, t)| *t == node && kind.map(|x| x == *k).unwrap_or(true))
                .map(|(f, _, _)| *f)
                .collect()
        }
    }

    fn diamond() -> TestGraph {
        // 0:Param(code=amount) -DFG-> 1:Ref -DFG-> 2:Field(code=total)
        //                      \-DFG-> 3:Ref(dead end)
        TestGraph {
            labels: vec![
                vec!["ParamVariableDeclaration"],
                vec!["DeclaredReferenceExpression"],
                vec!["FieldDeclaration"],
                vec!["DeclaredReferenceExpression"],
            ],
            props: vec![
                vec![("code", "amount"), ("localName", "amount")],
                vec![("code", "amount")],
                vec![("code", "total"), ("localName", "total")],
                vec![("code", "amount")],
            ],
            edges: vec![(0, "DFG", 1), (1, "DFG", 2), (0, "DFG", 3)],
        }
    }

    fn q(text: &str) -> crate::syntax::Query {
        parse_query(text).unwrap()
    }

    #[test]
    fn star_closure_reaches_field() {
        let g = diamond();
        let rows = run_var(
            &q("MATCH (p:ParamVariableDeclaration)-[:DFG*]->(f:FieldDeclaration) RETURN p"),
            &g,
            "p",
        );
        assert_eq!(rows, vec![0]);
    }

    #[test]
    fn single_hop_does_not_transit() {
        let g = diamond();
        let rows = run_var(
            &q("MATCH (p:ParamVariableDeclaration)-[:DFG]->(f:FieldDeclaration) RETURN p"),
            &g,
            "p",
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn property_filter() {
        let g = diamond();
        let rows = run_var(&q("MATCH (n {code: 'total'}) RETURN n"), &g, "n");
        assert_eq!(rows, vec![2]);
    }

    #[test]
    fn where_equality_and_in() {
        let g = diamond();
        let rows = run_var(
            &q("MATCH (n) WHERE n.localName IN ['amount', 'other'] RETURN n"),
            &g,
            "n",
        );
        assert_eq!(rows, vec![0]);
    }

    #[test]
    fn not_exists_prunes() {
        let g = diamond();
        // References with no outgoing DFG (the dead end).
        let rows = run_var(
            &q("MATCH (r:DeclaredReferenceExpression) \
                WHERE NOT EXISTS { (r)-[:DFG]->(x) } RETURN r"),
            &g,
            "r",
        );
        assert_eq!(rows, vec![3]);
    }

    #[test]
    fn reverse_direction() {
        let g = diamond();
        let rows = run_var(
            &q("MATCH (f:FieldDeclaration)<-[:DFG*]-(p:ParamVariableDeclaration) RETURN f"),
            &g,
            "f",
        );
        assert_eq!(rows, vec![2]);
    }

    #[test]
    fn labels_function() {
        let g = diamond();
        let rows = run_var(
            &q("MATCH (n) WHERE 'FieldDeclaration' IN labels(n) RETURN n"),
            &g,
            "n",
        );
        assert_eq!(rows, vec![2]);
    }

    #[test]
    fn toupper() {
        let g = diamond();
        let rows = run_var(
            &q("MATCH (n) WHERE toUpper(n.localName) = 'TOTAL' RETURN n"),
            &g,
            "n",
        );
        assert_eq!(rows, vec![2]);
    }

    #[test]
    fn variable_identity_constraints() {
        let g = diamond();
        // Two refs with the same code but different identity.
        let rows = run(
            &q("MATCH (a:DeclaredReferenceExpression), (b:DeclaredReferenceExpression) \
                WHERE a <> b RETURN a, b"),
            &g,
        );
        assert_eq!(rows.len(), 2); // (1,3) and (3,1)
    }

    #[test]
    fn rebinding_same_var_must_agree() {
        let g = diamond();
        // (a)-[:DFG]->(b), (a)-[:DFG]->(c): a must be consistent.
        let rows = run(&q("MATCH (a)-[:DFG]->(b), (a)-[:DFG]->(c) WHERE b <> c RETURN a"), &g);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["a"], 0);
    }

    #[test]
    fn cycle_safe_closure() {
        let g = TestGraph {
            labels: vec![vec!["A"], vec!["A"]],
            props: vec![vec![], vec![]],
            edges: vec![(0, "EOG", 1), (1, "EOG", 0)],
        };
        let rows = run_var(&q("MATCH (a:A)-[:EOG*]->(b:A) RETURN b"), &g, "b");
        assert_eq!(rows, vec![0, 1]);
    }

    #[test]
    fn is_null_matches_missing_prop() {
        let g = diamond();
        let rows = run_var(&q("MATCH (n) WHERE n.operatorCode IS NULL RETURN n"), &g, "n");
        assert_eq!(rows.len(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::syntax::parse_query;
    use proptest::prelude::*;

    /// A random small graph over labels A/B and kinds X/Y.
    #[derive(Debug, Clone)]
    struct RandomGraph {
        labels: Vec<&'static str>,
        edges: Vec<(u32, &'static str, u32)>,
    }

    impl GraphSource for RandomGraph {
        fn node_count(&self) -> usize {
            self.labels.len()
        }
        fn labels(&self, node: u32) -> Vec<&'static str> {
            vec![self.labels[node as usize]]
        }
        fn prop(&self, node: u32, key: &str) -> Option<Cow<'_, str>> {
            (key == "id").then(|| Cow::Owned(node.to_string()))
        }
        fn neighbors_out(&self, node: u32, kind: Option<&str>) -> Vec<u32> {
            self.edges
                .iter()
                .filter(|(f, k, _)| *f == node && kind.map(|x| x == *k).unwrap_or(true))
                .map(|(_, _, t)| *t)
                .collect()
        }
        fn neighbors_in(&self, node: u32, kind: Option<&str>) -> Vec<u32> {
            self.edges
                .iter()
                .filter(|(_, k, t)| *t == node && kind.map(|x| x == *k).unwrap_or(true))
                .map(|(f, _, _)| *f)
                .collect()
        }
    }

    fn arbitrary_graph() -> impl Strategy<Value = RandomGraph> {
        (2usize..8).prop_flat_map(|n| {
            let labels = proptest::collection::vec(
                prop_oneof![Just("A"), Just("B")],
                n,
            );
            let edges = proptest::collection::vec(
                (0..n as u32, prop_oneof![Just("X"), Just("Y")], 0..n as u32),
                0..16,
            );
            (labels, edges).prop_map(|(labels, edges)| RandomGraph { labels, edges })
        })
    }

    proptest! {
        /// The `*` closure equals the transitive closure of single hops.
        #[test]
        fn star_is_transitive_closure(g in arbitrary_graph()) {
            let starred = parse_query("MATCH (a)-[:X*]->(b) RETURN a, b").unwrap();
            let star_pairs: std::collections::HashSet<(u32, u32)> = run(&starred, &g)
                .into_iter()
                .map(|row| (row["a"], row["b"]))
                .collect();
            // Floyd-Warshall-style reference closure over X edges.
            let n = g.node_count();
            let mut reach = vec![vec![false; n]; n];
            for (f, k, t) in &g.edges {
                if *k == "X" {
                    reach[*f as usize][*t as usize] = true;
                }
            }
            for m in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        if reach[i][m] && reach[m][j] {
                            reach[i][j] = true;
                        }
                    }
                }
            }
            for (i, row) in reach.iter().enumerate() {
                for (j, &reached) in row.iter().enumerate() {
                    prop_assert_eq!(
                        reached,
                        star_pairs.contains(&(i as u32, j as u32)),
                        "closure mismatch at ({}, {})", i, j
                    );
                }
            }
        }

        /// Reversing the pattern direction transposes the result.
        #[test]
        fn direction_reversal_transposes(g in arbitrary_graph()) {
            let fwd = parse_query("MATCH (a)-[:X]->(b) RETURN a, b").unwrap();
            let bwd = parse_query("MATCH (b)<-[:X]-(a) RETURN a, b").unwrap();
            let f: std::collections::HashSet<(u32, u32)> =
                run(&fwd, &g).into_iter().map(|r| (r["a"], r["b"])).collect();
            let b: std::collections::HashSet<(u32, u32)> =
                run(&bwd, &g).into_iter().map(|r| (r["a"], r["b"])).collect();
            prop_assert_eq!(f, b);
        }

        /// Adding a label constraint can only shrink the result set.
        #[test]
        fn labels_restrict(g in arbitrary_graph()) {
            let all = parse_query("MATCH (a)-[:X]->(b) RETURN a").unwrap();
            let restricted = parse_query("MATCH (a:A)-[:X]->(b) RETURN a").unwrap();
            let all_set: std::collections::HashSet<u32> =
                run_var(&all, &g, "a").into_iter().collect();
            for a in run_var(&restricted, &g, "a") {
                prop_assert!(all_set.contains(&a));
            }
        }

        /// EXISTS and its negation partition the candidates.
        #[test]
        fn exists_partitions(g in arbitrary_graph()) {
            let base = parse_query("MATCH (a) RETURN a").unwrap();
            let with = parse_query("MATCH (a) WHERE EXISTS { (a)-[:X]->(b) } RETURN a").unwrap();
            let without =
                parse_query("MATCH (a) WHERE NOT EXISTS { (a)-[:X]->(b) } RETURN a").unwrap();
            let all = run_var(&base, &g, "a").len();
            let yes = run_var(&with, &g, "a").len();
            let no = run_var(&without, &g, "a").len();
            prop_assert_eq!(all, yes + no);
        }
    }
}
