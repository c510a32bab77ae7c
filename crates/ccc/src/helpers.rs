//! Shared graph predicates used by the vulnerability queries.
//!
//! Each helper mirrors a sub-pattern that recurs across the Appendix B
//! queries: external calls, ether transfers, attacker-controlled data,
//! access-control guards, field writes, and rollback-guarded branches.

use cpg::{AstRole, Cpg, EdgeKind, NodeId, NodeKind};
use std::collections::HashSet;

/// Low-level call names that reach external code.
pub const EXTERNAL_CALL_NAMES: &[&str] =
    &["call", "delegatecall", "callcode", "staticcall", "send", "transfer"];

/// Calls that forward enough gas for the callee to re-enter.
pub const REENTRANT_CALL_NAMES: &[&str] = &["call", "delegatecall", "callcode"];

/// Builtin member codes that an attacker controls directly.
pub const ATTACKER_SOURCES: &[&str] = &["msg.sender", "msg.value", "msg.data", "tx.origin"];

/// Analysis context: the graph plus the maximum data-flow path length.
///
/// `max_path` implements the paper's path-reduction mechanism (§6.3): the
/// second validation phase re-runs queries with iteratively reduced maximal
/// data-flow path lengths to escape path explosion.
pub struct Ctx<'a> {
    /// The analyzed CPG.
    pub cpg: &'a Cpg,
    /// Maximum number of hops for transitive `DFG`/`EOG` traversals.
    pub max_path: usize,
}

impl<'a> Ctx<'a> {
    /// Create a context with the given path bound.
    pub fn new(cpg: &'a Cpg, max_path: usize) -> Self {
        Ctx { cpg, max_path }
    }

    fn g(&self) -> &cpg::Graph {
        &self.cpg.graph
    }

    // ----- calls ------------------------------------------------------------

    /// All call expressions whose local name is in `names`.
    pub fn calls_named(&self, names: &[&str]) -> Vec<NodeId> {
        self.g()
            .nodes_of_kind(NodeKind::CallExpression)
            .filter(|c| names.contains(&self.g().node(*c).props.local_name.as_str()))
            .collect()
    }

    /// The base expression of a method call (`a.b` in `a.b(x)`), if any.
    pub fn call_base(&self, call: NodeId) -> Option<NodeId> {
        self.g().ast_child(call, AstRole::Base)
    }

    /// Whether the call carries a `{value: ..}` option (or folded legacy
    /// `.value(..)`), i.e. sends ether.
    pub fn has_value_option(&self, call: NodeId) -> bool {
        let Some(spec) = self.g().ast_child(call, AstRole::Specifiers) else {
            return false;
        };
        self.g()
            .ast_children(spec)
            .any(|kv| self.g().node(kv).props.local_name == "value")
    }

    /// The value expression of a `{value: ..}` option.
    pub fn value_option(&self, call: NodeId) -> Option<NodeId> {
        let spec = self.g().ast_child(call, AstRole::Specifiers)?;
        let kv = self
            .g()
            .ast_children(spec)
            .find(|kv| self.g().node(*kv).props.local_name == "value")?;
        self.g().ast_child(kv, AstRole::Value)
    }

    /// Whether the call transfers ether: `send`/`transfer`, or a low-level
    /// call with a value option.
    pub fn is_ether_transfer(&self, call: NodeId) -> bool {
        let name = self.g().node(call).props.local_name.as_str();
        match name {
            "send" | "transfer" => self.call_base(call).is_some(),
            "call" | "callcode" => self.has_value_option(call),
            _ => false,
        }
    }

    /// All ether-transferring call sites of the unit.
    pub fn ether_transfers(&self) -> Vec<NodeId> {
        self.calls_named(&["send", "transfer", "call", "callcode"])
            .into_iter()
            .filter(|c| self.is_ether_transfer(*c))
            .collect()
    }

    /// Whether the call reaches external code (any low-level call, or a
    /// method call on an address-typed / unresolved contract-typed base).
    pub fn is_external_call(&self, call: NodeId) -> bool {
        let name = self.g().node(call).props.local_name.as_str();
        if EXTERNAL_CALL_NAMES.contains(&name) && self.call_base(call).is_some() {
            return true;
        }
        // A method call on a base that is not `this` and does not resolve
        // within the unit (no INVOKES edge) is external.
        if self.g().node(call).kind == NodeKind::CallExpression {
            if let Some(base) = self.call_base(call) {
                let base_code = &self.g().node(base).props.code;
                let resolved = self
                    .g()
                    .out_kind(call, EdgeKind::Invokes)
                    .next()
                    .is_some();
                return base_code != "this" && !resolved;
            }
        }
        false
    }

    // ----- data flow ---------------------------------------------------------

    /// Backward data-flow cone of a node, bounded by `max_path`.
    pub fn dfg_sources(&self, node: NodeId) -> HashSet<NodeId> {
        self.g().reach_backward(node, |k| k == EdgeKind::Dfg, self.max_path)
    }

    /// Whether data from a node whose `code` is in `codes` flows into `node`.
    pub fn flows_from_code(&self, node: NodeId, codes: &[&str]) -> bool {
        if codes.contains(&self.g().node(node).props.code.as_str()) {
            return true;
        }
        self.dfg_sources(node)
            .into_iter()
            .any(|src| codes.contains(&self.g().node(src).props.code.as_str()))
    }

    /// Whether a parameter of an externally callable, non-constructor
    /// function flows into `node`; returns the parameter.
    pub fn flows_from_public_param(&self, node: NodeId) -> Option<NodeId> {
        let mut sources: Vec<NodeId> = self.dfg_sources(node).into_iter().collect();
        sources.push(node);
        sources
            .into_iter()
            .filter(|src| self.g().node(*src).kind == NodeKind::ParamVariableDeclaration)
            .find(|param| {
                let Some(f) = self.g().ast_parent(*param) else { return false };
                if self.g().node(f).kind == NodeKind::ConstructorDeclaration {
                    return false;
                }
                !matches!(
                    self.g().node(f).props.visibility.as_deref(),
                    Some("internal") | Some("private")
                )
            })
    }

    /// Whether the node's value is attacker-controlled: derived from
    /// `msg.*`/`tx.origin` or from a public function parameter.
    pub fn attacker_controlled(&self, node: NodeId) -> bool {
        self.flows_from_code(node, ATTACKER_SOURCES)
            || self.flows_from_public_param(node).is_some()
    }

    /// All (writer node, field) pairs: references, member or subscript
    /// expressions through which a field declaration is written.
    pub fn field_writes(&self) -> Vec<(NodeId, NodeId)> {
        let mut writes = Vec::new();
        for field in self.g().nodes_of_kind(NodeKind::FieldDeclaration) {
            for writer in self.g().in_kind(field, EdgeKind::Dfg) {
                if matches!(
                    self.g().node(writer).kind,
                    NodeKind::DeclaredReferenceExpression
                        | NodeKind::MemberExpression
                        | NodeKind::SubscriptExpression
                ) {
                    writes.push((writer, field));
                }
            }
        }
        writes
    }

    /// Fields read inside access-control guards: a field whose value flows
    /// into a comparison against `msg.sender`/`tx.origin` that itself guards
    /// a `require`/`assert` or branch.
    pub fn access_control_fields(&self) -> HashSet<NodeId> {
        let mut fields = HashSet::new();
        for cmp in self.g().nodes_of_kind(NodeKind::BinaryOperator) {
            let props = &self.g().node(cmp).props;
            if !matches!(props.operator_code.as_deref(), Some("==") | Some("!=")) {
                continue;
            }
            // One side derived from msg.sender/tx.origin...
            if !self.flows_from_code(cmp, &["msg.sender", "tx.origin"]) {
                continue;
            }
            // ...and the comparison feeds a guard.
            if !self.feeds_guard(cmp) {
                continue;
            }
            for src in self.dfg_sources(cmp) {
                if self.g().node(src).kind == NodeKind::FieldDeclaration {
                    fields.insert(src);
                }
            }
        }
        fields
    }

    /// Whether an expression's value flows into a `require`/`assert` call or
    /// a branching statement condition.
    pub fn feeds_guard(&self, node: NodeId) -> bool {
        let mut forward: Vec<NodeId> = self
            .g()
            .reach_forward(node, |k| k == EdgeKind::Dfg, self.max_path)
            .into_iter()
            .collect();
        forward.push(node);
        forward.into_iter().any(|n| {
            let target = self.g().node(n);
            match target.kind {
                NodeKind::CallExpression => {
                    matches!(target.props.local_name.as_str(), "require" | "assert")
                }
                NodeKind::IfStatement
                | NodeKind::WhileStatement
                | NodeKind::DoStatement
                | NodeKind::ForStatement
                | NodeKind::ConditionalExpression => true,
                _ => false,
            }
        })
    }

    // ----- guards ------------------------------------------------------------

    /// Guard nodes (require/assert calls and `if` statements) that are
    /// evaluation-order-before `node` within its function.
    pub fn guards_before(&self, node: NodeId) -> Vec<NodeId> {
        let before = self.g().reach_backward(node, |k| k == EdgeKind::Eog, self.max_path);
        before
            .into_iter()
            .filter(|n| {
                let candidate = self.g().node(*n);
                match candidate.kind {
                    NodeKind::CallExpression => {
                        matches!(candidate.props.local_name.as_str(), "require" | "assert")
                    }
                    NodeKind::IfStatement => true,
                    _ => false,
                }
            })
            .collect()
    }

    /// The condition-carrying inputs of a guard: arguments of a require
    /// call, or the condition child of an `if`.
    pub fn guard_condition(&self, guard: NodeId) -> Vec<NodeId> {
        match self.g().node(guard).kind {
            NodeKind::CallExpression => {
                self.g().ast_children_role(guard, AstRole::Arguments).collect()
            }
            _ => self
                .g()
                .ast_child(guard, AstRole::Condition)
                .into_iter()
                .collect(),
        }
    }

    /// Whether a guard's condition involves the sender identity
    /// (`msg.sender` or `tx.origin`) — the canonical access-control check.
    pub fn guard_checks_sender(&self, guard: NodeId) -> bool {
        self.guard_condition(guard)
            .into_iter()
            .any(|cond| self.flows_from_code(cond, &["msg.sender", "tx.origin"]))
    }

    /// Whether a guard's condition involves data derived from `codes` or
    /// from a field subscripted by such data.
    pub fn guard_involves(&self, guard: NodeId, codes: &[&str]) -> bool {
        self.guard_condition(guard)
            .into_iter()
            .any(|cond| self.flows_from_code(cond, codes))
    }

    /// Whether `node` sits behind a sender-identity access check: some
    /// guard before it compares `msg.sender`/`tx.origin`. This is the
    /// "mitigations and exceptions" part of the access-control queries.
    pub fn is_access_guarded(&self, node: NodeId) -> bool {
        self.guards_before(node)
            .into_iter()
            .any(|guard| self.guard_checks_sender(guard))
    }

    /// Whether the node's enclosing function is a constructor (writes during
    /// initialization are legitimate).
    pub fn in_constructor(&self, node: NodeId) -> bool {
        self.g()
            .enclosing_function(node)
            .map(|f| self.g().node(f).kind == NodeKind::ConstructorDeclaration)
            .unwrap_or(false)
    }

    /// The function node enclosing `node`.
    pub fn function_of(&self, node: NodeId) -> Option<NodeId> {
        self.g().enclosing_function(node)
    }

    /// Whether the function is callable from outside: `public`, `external`
    /// or unspecified visibility (pre-0.5 default is public).
    pub fn is_externally_callable(&self, function: NodeId) -> bool {
        !matches!(
            self.g().node(function).props.visibility.as_deref(),
            Some("internal") | Some("private")
        )
    }

    /// Whether a function is a default function (fallback/receive/unnamed),
    /// the entry point of the Default Proxy Delegate pattern (Listing 12).
    pub fn is_default_function(&self, function: NodeId) -> bool {
        let props = &self.g().node(function).props;
        props.local_name.is_empty()
            && matches!(
                props.extra.get("fn_kind").map(|s| s.as_str()),
                Some("fallback") | Some("receive")
            )
    }

    /// Nodes evaluation-order reachable from `from`, crossing into called
    /// functions (`EOG|INVOKES|RETURNS*`, the Listing 17 closure).
    pub fn eog_interproc_after(&self, from: NodeId) -> HashSet<NodeId> {
        self.g().reach_forward(
            from,
            |k| matches!(k, EdgeKind::Eog | EdgeKind::Invokes | EdgeKind::Returns),
            self.max_path,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_of(cpg: &Cpg) -> Ctx<'_> {
        Ctx::new(cpg, usize::MAX)
    }

    #[test]
    fn ether_transfer_detection() {
        let cpg = Cpg::from_snippet(
            "to.transfer(1);\nto.send(2);\nto.call{value: 3}(\"\");\nto.call(data);",
        )
        .unwrap();
        let ctx = ctx_of(&cpg);
        let transfers = ctx.ether_transfers();
        assert_eq!(transfers.len(), 3); // plain call without value excluded
    }

    #[test]
    fn attacker_controlled_via_msg_sender() {
        let cpg = Cpg::from_snippet("function f() public { target = msg.sender; g(target); }")
            .unwrap();
        let ctx = ctx_of(&cpg);
        let call = ctx.calls_named(&["g"])[0];
        let arg = cpg.graph.ast_child(call, AstRole::Arguments).unwrap();
        assert!(ctx.attacker_controlled(arg));
    }

    #[test]
    fn attacker_controlled_via_public_param() {
        let cpg =
            Cpg::from_snippet("function f(address to) public { to.transfer(1); }").unwrap();
        let ctx = ctx_of(&cpg);
        let call = ctx.calls_named(&["transfer"])[0];
        let base = ctx.call_base(call).unwrap();
        assert!(ctx.attacker_controlled(base));
    }

    #[test]
    fn internal_params_are_not_attacker_controlled() {
        let cpg = Cpg::from_snippet(
            "contract C { function f(address to) internal { to.transfer(1); } }",
        )
        .unwrap();
        let ctx = ctx_of(&cpg);
        let call = ctx.calls_named(&["transfer"])[0];
        let base = ctx.call_base(call).unwrap();
        assert!(!ctx.attacker_controlled(base));
    }

    #[test]
    fn guards_before_finds_require() {
        let cpg = Cpg::from_snippet(
            "function f() public { require(msg.sender == owner); x = 1; }",
        )
        .unwrap();
        let ctx = ctx_of(&cpg);
        let write = cpg
            .graph
            .nodes_of_kind(NodeKind::BinaryOperator)
            .find(|n| cpg.graph.node(*n).props.code == "x = 1")
            .unwrap();
        assert!(ctx.is_access_guarded(write));
    }

    #[test]
    fn unguarded_write_detected() {
        let cpg = Cpg::from_snippet("function f() public { owner = msg.sender; }").unwrap();
        let ctx = ctx_of(&cpg);
        let write = cpg
            .graph
            .nodes_of_kind(NodeKind::BinaryOperator)
            .next()
            .unwrap();
        assert!(!ctx.is_access_guarded(write));
    }

    #[test]
    fn access_control_fields_found() {
        let cpg = Cpg::from_snippet(
            "contract C { address owner; \
             function w() public { require(msg.sender == owner); x = 1; } }",
        )
        .unwrap();
        let ctx = ctx_of(&cpg);
        let fields = ctx.access_control_fields();
        assert_eq!(fields.len(), 1);
        let field = *fields.iter().next().unwrap();
        assert_eq!(cpg.graph.node(field).props.local_name, "owner");
    }

    #[test]
    fn field_writes_exclude_reads() {
        let cpg = Cpg::from_snippet(
            "contract C { uint total; \
             function w(uint x) public { total = x; } \
             function r() public returns (uint) { return total; } }",
        )
        .unwrap();
        let ctx = ctx_of(&cpg);
        let writes = ctx.field_writes();
        assert_eq!(writes.len(), 1);
    }

    #[test]
    fn path_limit_cuts_long_flows() {
        // A long chain of assignments; with a tiny max_path the source no
        // longer reaches the sink (path-reduction semantics of §6.3).
        let cpg = Cpg::from_snippet(
            "function f() public { a = msg.sender; b = a; c = b; d = c; e = d; g(e); }",
        )
        .unwrap();
        let full = Ctx::new(&cpg, usize::MAX);
        let call = full.calls_named(&["g"])[0];
        let arg = cpg.graph.ast_child(call, AstRole::Arguments).unwrap();
        assert!(full.flows_from_code(arg, &["msg.sender"]));
        let limited = Ctx::new(&cpg, 2);
        assert!(!limited.flows_from_code(arg, &["msg.sender"]));
    }

    #[test]
    fn default_function_detection() {
        let cpg = Cpg::from_snippet("contract C { function() payable {} }").unwrap();
        let ctx = ctx_of(&cpg);
        let default_fns: Vec<NodeId> = cpg
            .graph
            .nodes_of_kind(NodeKind::FunctionDeclaration)
            .filter(|f| ctx.is_default_function(*f))
            .collect();
        assert_eq!(default_fns.len(), 1);
    }
}
