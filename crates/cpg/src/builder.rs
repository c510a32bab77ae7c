//! Translation of (snippet) ASTs into the code property graph.
//!
//! The builder performs, in order (cf. §4.2 of the paper):
//!
//! 1. **Declaration pass** — records, fields, function headers, parameters,
//!    events, structs and enums are declared so that forward references and
//!    inter-procedural edges can resolve. Each record keeps its function
//!    nodes in declaration order.
//! 2. **Inference** — free-standing functions and statements of a snippet
//!    are wrapped into inferred (`isInferred = true`) record / function
//!    declarations, and unresolved identifiers become inferred fields.
//! 3. **Modifier expansion** — applied modifiers are inlined into function
//!    bodies (§4.2.2, implemented in [`crate::expand`]).
//! 4. **Body pass** — each record's parts are walked again in declaration
//!    order, taking its function nodes back in the order phase 1 kept
//!    them. Statements and expressions are translated to nodes with syntax
//!    (`AST` role) edges while **EOG** (evaluation order) and **DFG** (data
//!    flow) edges are wired inline, including the Solidity specific
//!    `Rollback` semantics of `require`/`revert`/`throw` (§4.2.1).
//! 5. **Call resolution** — `INVOKES`, argument→parameter `DFG` and
//!    `RETURNS` edges are added for calls resolvable within the record's
//!    own inheritance chain.

use crate::expand::{collect_modifiers, expand_modifiers};
use crate::graph::{Graph, NodeId, Props};
use crate::kinds::{AstRole, EdgeKind, NodeKind, ALL_KINDS};
use intern::{intern_fmt, sym, FxHashMap, Symbol};
use solidity::ast::*;
use solidity::printer;
use solidity::Span;
use std::collections::BTreeMap;

macro_rules! kind_counters {
    ($($kind:ident),* $(,)?) => {
        [$(telemetry::Counter::new(concat!("cpg.nodes.", stringify!($kind)))),*]
    };
}

/// The `cpg.nodes.<Kind>` counters, indexed by `NodeKind as usize`
/// (the order of [`ALL_KINDS`]).
static KIND_NODES: [telemetry::Counter; ALL_KINDS.len()] = kind_counters![
    TranslationUnit,
    RecordDeclaration,
    FieldDeclaration,
    FunctionDeclaration,
    ConstructorDeclaration,
    ModifierDeclaration,
    ParamVariableDeclaration,
    VariableDeclaration,
    EnumDeclaration,
    EventDeclaration,
    DeclaredReferenceExpression,
    MemberExpression,
    SubscriptExpression,
    CallExpression,
    NewExpression,
    BinaryOperator,
    UnaryOperator,
    Literal,
    TupleExpression,
    ConditionalExpression,
    CastExpression,
    SpecifiedExpression,
    KeyValueExpression,
    Block,
    IfStatement,
    WhileStatement,
    DoStatement,
    ForStatement,
    ForEachStatement,
    ReturnStatement,
    BreakStatement,
    ContinueStatement,
    EmitStatement,
    Rollback,
    AssemblyBlock,
    TryStatement,
    PlaceholderStatement,
    UncheckedBlock,
];

/// Translation options.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Expand applied modifiers into function bodies (§4.2.2). On by
    /// default; disabling it is the DESIGN.md ablation showing that
    /// access-control queries need the expansion to see modifier guards.
    pub expand_modifiers: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions { expand_modifiers: true }
    }
}

/// A translated code property graph plus its root.
#[derive(Debug, Clone)]
pub struct Cpg {
    /// The graph.
    pub graph: Graph,
    /// The `TranslationUnit` root node.
    pub unit: NodeId,
}

impl Cpg {
    /// Parse `src` tolerantly as a snippet and translate it.
    pub fn from_snippet(src: &str) -> Result<Cpg, solidity::AnalysisError> {
        let unit = solidity::parse_snippet(src)?;
        Self::check_build_fault()?;
        Ok(Cpg::from_unit(&unit))
    }

    /// Parse `src` with the standard grammar and translate it.
    pub fn from_source(src: &str) -> Result<Cpg, solidity::AnalysisError> {
        let unit = solidity::parse_source(src)?;
        Self::check_build_fault()?;
        Ok(Cpg::from_unit(&unit))
    }

    /// Chaos-testing hook: the `cpg/build` injection point (no-op unless a
    /// fault plan is active, see `faultinject`).
    fn check_build_fault() -> Result<(), solidity::AnalysisError> {
        match faultinject::fire("cpg/build") {
            Some(message) => Err(solidity::AnalysisError::GraphBuild { message }),
            None => Ok(()),
        }
    }

    /// Translate an already parsed source unit.
    pub fn from_unit(unit: &SourceUnit) -> Cpg {
        Cpg::from_unit_with(unit, BuildOptions::default())
    }

    /// Translate with explicit options.
    pub fn from_unit_with(unit: &SourceUnit, options: BuildOptions) -> Cpg {
        static BUILDS: telemetry::Counter = telemetry::Counter::new("cpg.builds");
        static NODES: telemetry::Counter = telemetry::Counter::new("cpg.nodes");
        static EDGES: telemetry::Counter = telemetry::Counter::new("cpg.edges");
        static INFERRED: telemetry::Counter = telemetry::Counter::new("cpg.inferred_decls");
        static STAGE: telemetry::Stage = telemetry::Stage::new("cpg-build");
        let _stage = STAGE.enter();
        let cpg = Builder::new(unit, options).build(unit);
        telemetry::trace::annotate("nodes", cpg.graph.node_count());
        if telemetry::enabled() {
            BUILDS.incr();
            NODES.add(cpg.graph.node_count() as u64);
            EDGES.add(cpg.graph.edge_count() as u64);
            let inferred = cpg
                .graph
                .node_ids()
                .filter(|id| cpg.graph.node(*id).props.is_inferred)
                .count();
            INFERRED.add(inferred as u64);
            let mut per_kind = [0u64; ALL_KINDS.len()];
            for id in cpg.graph.node_ids() {
                per_kind[cpg.graph.node(id).kind as usize] += 1;
            }
            for (counter, &count) in KIND_NODES.iter().zip(&per_kind) {
                if count > 0 {
                    counter.add(count);
                }
            }
        }
        cpg
    }

    /// Whether the unit is compiled with Solidity >= 0.8 (checked
    /// arithmetic), derived from its pragma.
    pub fn solidity_08(&self) -> bool {
        self.graph
            .node(self.unit)
            .props
            .extra
            .get("solidity08")
            .map(|v| v == "true")
            .unwrap_or(false)
    }

    /// Whether any record of the unit pulls in a SafeMath-style library via
    /// `using ... for ...` or inherits from one.
    pub fn uses_safemath(&self) -> bool {
        self.graph
            .node(self.unit)
            .props
            .extra
            .get("safemath")
            .map(|v| v == "true")
            .unwrap_or(false)
    }
}

/// Evaluation-order fragment of a translated construct: its first node and
/// the set of nodes a successor must be linked from.
#[derive(Debug, Clone, Default)]
struct Frag {
    entry: Option<NodeId>,
    exits: Exits,
}

impl Frag {
    fn empty() -> Frag {
        Frag::default()
    }

    fn single(node: NodeId) -> Frag {
        Frag { entry: Some(node), exits: Exits::one(node) }
    }

    /// A fragment that starts somewhere but never continues (revert/return).
    fn terminal(node: NodeId) -> Frag {
        Frag { entry: Some(node), exits: Exits::default() }
    }
}

/// Exit set of a [`Frag`]. Straight-line fragments have exactly one exit
/// and an if/else join has two, so the first two live inline; only
/// pathological fan-outs (long if/else-if chains, try/catch with many
/// clauses) spill to the heap. Keeping the common cases allocation-free
/// matters: one fragment is built per translated statement and expression.
#[derive(Debug, Clone)]
struct Exits {
    inline: [NodeId; 2],
    len: u8,
    spill: Vec<NodeId>,
}

impl Default for Exits {
    fn default() -> Exits {
        Exits { inline: [NodeId(0); 2], len: 0, spill: Vec::new() }
    }
}

impl Exits {
    fn one(node: NodeId) -> Exits {
        Exits { inline: [node, NodeId(0)], len: 1, spill: Vec::new() }
    }

    fn push(&mut self, node: NodeId) {
        match self.len {
            0 | 1 => {
                self.inline[self.len as usize] = node;
                self.len += 1;
            }
            _ => self.spill.push(node),
        }
    }

    /// Move every exit of `other` into `self`.
    fn append(&mut self, other: Exits) {
        for node in other.iter() {
            self.push(node);
        }
    }

    fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.inline[..self.len as usize].iter().copied().chain(self.spill.iter().copied())
    }
}

/// A translated expression: its value node, evaluation fragment and — for
/// lvalues — the declaration ultimately written through it.
struct EValue {
    node: NodeId,
    frag: Frag,
    decl: Option<NodeId>,
}

#[derive(Debug)]
struct RecordCtx {
    name: Symbol,
    node: NodeId,
    bases: Vec<Symbol>,
    fields: FxHashMap<Symbol, NodeId>,
    methods: FxHashMap<Symbol, NodeId>,
    /// Function and constructor nodes in declaration order; the body pass
    /// takes them back in the same order.
    functions: Vec<NodeId>,
}

struct PendingCall {
    call: NodeId,
    record: Option<usize>,
    name: Symbol,
    args: Vec<NodeId>,
}

struct Builder<'u> {
    g: Graph,
    unit_node: NodeId,
    modifiers: FxHashMap<Symbol, &'u ModifierDef>,
    records: Vec<RecordCtx>,
    record_index: FxHashMap<Symbol, usize>,
    fn_params: FxHashMap<NodeId, Vec<NodeId>>,
    fn_returns: FxHashMap<NodeId, Vec<NodeId>>,
    pending_calls: Vec<PendingCall>,
    /// Lexical scopes for locals/params during body translation.
    scopes: Vec<FxHashMap<Symbol, NodeId>>,
    /// Cleared scope maps kept for reuse: entering a block or loop scope
    /// recycles a table instead of allocating a fresh one.
    scope_pool: Vec<FxHashMap<Symbol, NodeId>>,
    /// Return statements of the function body currently being translated.
    current_returns: Vec<NodeId>,
    current_record: Option<usize>,
    in_unchecked: bool,
    options: BuildOptions,
}

const BUILTIN_BASES: &[&str] = &["msg", "tx", "block", "abi", "super", "type"];

/// Callee names that are unresolved builtins rather than user functions.
const BUILTIN_CALLS: &[&str] = &[
    "require",
    "assert",
    "revert",
    "selfdestruct",
    "suicide",
    "keccak256",
    "sha3",
    "sha256",
    "ripemd160",
    "ecrecover",
    "addmod",
    "mulmod",
    "blockhash",
    "gasleft",
];

impl<'u> Builder<'u> {
    fn new(unit: &'u SourceUnit, options: BuildOptions) -> Builder<'u> {
        let mut g = Graph::new();
        // Ballpark from the study corpus: ~2.5 nodes and ~4 edges per
        // source-unit AST item statement; a flat floor covers snippets.
        g.reserve(256, 512);
        g.set_line_index(std::sync::Arc::clone(&unit.line_index));
        let mut extra = BTreeMap::new();

        // Pragma-derived unit facts, used by the Arithmetic detector to
        // recognize the >= 0.8 checked-arithmetic mitigation.
        let mut pragma_value = Symbol::default();
        let mut safemath = false;
        for item in &unit.items {
            match item {
                SourceItem::Pragma(p) if p.name == "solidity" => {
                    pragma_value = p.value;
                }
                SourceItem::UsingFor(u) if u.library.to_lowercase().contains("safemath") => {
                    safemath = true;
                }
                SourceItem::Contract(c) => {
                    for part in &c.parts {
                        if let ContractPart::UsingFor(u) = part {
                            if u.library.to_lowercase().contains("safemath") {
                                safemath = true;
                            }
                        }
                    }
                    for base in &c.bases {
                        if base.name.to_lowercase().contains("safemath") {
                            safemath = true;
                        }
                    }
                }
                _ => {}
            }
        }
        if !pragma_value.is_empty() {
            extra.insert(sym::PRAGMA, pragma_value);
        }
        extra.insert(
            sym::SOLIDITY08,
            if pragma_is_08(&pragma_value) { sym::TRUE } else { sym::FALSE },
        );
        extra.insert(sym::SAFEMATH, if safemath { sym::TRUE } else { sym::FALSE });

        let unit_node = g.add_node(
            NodeKind::TranslationUnit,
            Props { code: "<unit>".into(), extra, ..Props::default() },
            Span::DUMMY,
        );
        Builder {
            g,
            unit_node,
            modifiers: collect_modifiers(unit),
            records: Vec::new(),
            record_index: FxHashMap::default(),
            fn_params: FxHashMap::default(),
            fn_returns: FxHashMap::default(),
            pending_calls: Vec::new(),
            scopes: Vec::new(),
            scope_pool: Vec::new(),
            current_returns: Vec::new(),
            current_record: None,
            in_unchecked: false,
            options,
        }
    }

    fn build(mut self, unit: &'u SourceUnit) -> Cpg {
        // ---- Phase 1: declarations ---------------------------------------
        let mut inferred_record: Option<usize> = None;
        let mut free_items: Vec<&SourceItem> = Vec::new();
        // Contract → its record index; robust against same-named contracts
        // in one unit (the name-based index keeps the last one only).
        let mut declared: Vec<(usize, &ContractDef)> = Vec::new();
        for item in &unit.items {
            match item {
                SourceItem::Contract(c) => {
                    let idx = self.declare_record(c);
                    declared.push((idx, c));
                }
                SourceItem::Struct(s) => {
                    self.declare_struct(s, self.unit_node);
                }
                SourceItem::Enum(e) => {
                    self.declare_enum(e, self.unit_node);
                }
                SourceItem::Event(e) => {
                    self.declare_event(e, self.unit_node);
                }
                SourceItem::Function(_)
                | SourceItem::Modifier(_)
                | SourceItem::Variable(_)
                | SourceItem::Statement(_) => free_items.push(item),
                _ => {}
            }
        }

        // ---- Phase 2: inference of missing outer declarations -------------
        if !free_items.is_empty() {
            let idx = self.infer_record();
            inferred_record = Some(idx);
            // Declare inferred fields and function headers first.
            for item in &free_items {
                match item {
                    SourceItem::Variable(v) => {
                        let field = self.declare_field(v, self.records[idx].node, false);
                        self.records[idx].fields.insert(v.name, field);
                    }
                    SourceItem::Function(f) => {
                        let node = self.declare_function(f, idx, false);
                        if let Some(name) = f.name {
                            self.records[idx].methods.insert(name, node);
                        }
                    }
                    SourceItem::Modifier(m) => {
                        self.declare_modifier(m, self.records[idx].node);
                    }
                    _ => {}
                }
            }
        }


        // ---- Phase 3+4: bodies --------------------------------------------
        for (idx, c) in &declared {
            self.translate_record_bodies(c, *idx);
        }
        if let Some(idx) = inferred_record {
            self.translate_inferred_bodies(&free_items, idx);
        }


        // ---- Phase 5: call resolution --------------------------------------
        self.resolve_calls();

        Cpg { graph: self.g, unit: self.unit_node }
    }

    // ===== declarations ====================================================

    fn declare_record(&mut self, c: &ContractDef) -> usize {
        let kind_str = match c.kind {
            ContractKind::Contract | ContractKind::AbstractContract => "contract",
            ContractKind::Interface => "interface",
            ContractKind::Library => "library",
        };
        let node = self.g.add_node(
            NodeKind::RecordDeclaration,
            Props {
                code: intern_fmt(format_args!("{} {}", c.kind.as_str(), c.name)),
                local_name: c.name,
                record_kind: Some(kind_str.into()),
                ..Props::default()
            },
            c.span,
        );
        self.g.add_edge(self.unit_node, EdgeKind::Ast(AstRole::Declarations), node);
        let mut ctx = RecordCtx {
            name: c.name,
            node,
            bases: c.bases.iter().map(|b| b.name).collect(),
            fields: FxHashMap::default(),
            methods: FxHashMap::default(),
            functions: Vec::new(),
        };

        for part in &c.parts {
            match part {
                ContractPart::Variable(v) => {
                    let field = self.declare_field(v, node, false);
                    ctx.fields.insert(v.name, field);
                }
                ContractPart::Struct(s) => {
                    self.declare_struct(s, node);
                }
                ContractPart::Enum(e) => {
                    self.declare_enum(e, node);
                }
                ContractPart::Event(e) => {
                    self.declare_event(e, node);
                }
                ContractPart::Modifier(m) => {
                    self.declare_modifier(m, node);
                }
                _ => {}
            }
        }

        let idx = self.records.len();
        self.record_index.insert(c.name, idx);
        self.records.push(ctx);

        // Function headers need the record context registered first.
        for part in &c.parts {
            if let ContractPart::Function(f) = part {
                let legacy_ctor = f.name == Some(c.name);
                let fnode = self.declare_function(f, idx, legacy_ctor);
                if let Some(name) = f.name {
                    if !legacy_ctor {
                        self.records[idx].methods.insert(name, fnode);
                    }
                }
            }
        }
        idx
    }

    fn infer_record(&mut self) -> usize {
        let node = self.g.add_node(
            NodeKind::RecordDeclaration,
            Props {
                code: "contract <inferred>".into(),
                local_name: "<inferred>".into(),
                record_kind: Some("contract".into()),
                is_inferred: true,
                ..Props::default()
            },
            Span::DUMMY,
        );
        self.g.add_edge(self.unit_node, EdgeKind::Ast(AstRole::Declarations), node);
        let idx = self.records.len();
        self.record_index.insert("<inferred>".into(), idx);
        self.records.push(RecordCtx {
            name: "<inferred>".into(),
            node,
            bases: vec![],
            fields: FxHashMap::default(),
            methods: FxHashMap::default(),
            functions: Vec::new(),
        });
        idx
    }

    fn declare_field(&mut self, v: &StateVarDecl, record: NodeId, inferred: bool) -> NodeId {
        let field = self.g.add_node(
            NodeKind::FieldDeclaration,
            Props {
                code: intern_fmt(format_args!("{} {}", printer::print_type(&v.ty), v.name)),
                local_name: v.name,
                ty: Some(Symbol::intern(&v.ty.canonical())),
                visibility: v.visibility.map(|vis| Symbol::intern(vis.as_str())),
                is_inferred: inferred,
                extra: [(
                    sym::CONSTANT,
                    if v.is_constant || v.is_immutable { sym::TRUE } else { sym::FALSE },
                )]
                .into(),
                ..Props::default()
            },
            v.span,
        );
        self.g.add_edge(record, EdgeKind::Ast(AstRole::Fields), field);
        field
    }

    fn declare_function(&mut self, f: &FunctionDef, record: usize, legacy_ctor: bool) -> NodeId {
        let is_ctor = legacy_ctor || f.kind == FunctionKind::Constructor;
        let kind = if is_ctor {
            NodeKind::ConstructorDeclaration
        } else {
            NodeKind::FunctionDeclaration
        };
        let local_name = if is_ctor || f.is_default_function() {
            Symbol::default()
        } else {
            f.name.unwrap_or_default()
        };
        let fn_kind = match f.kind {
            _ if is_ctor => "constructor",
            FunctionKind::Receive => "receive",
            FunctionKind::Fallback => "fallback",
            _ if f.name.is_none() => "fallback",
            _ => "function",
        };
        let mut extra: BTreeMap<Symbol, Symbol> =
            [(sym::FN_KIND, Symbol::intern(fn_kind))].into();
        if let Some(m) = f.mutability {
            extra.insert(sym::MUTABILITY, Symbol::intern(m.as_str()));
        }
        if !f.modifiers.is_empty() {
            extra.insert(
                sym::MODIFIERS,
                Symbol::intern(&f.modifiers.iter().map(|m| m.name).collect::<Vec<_>>().join(",")),
            );
        }
        let node = self.g.add_node(
            kind,
            Props {
                code: signature_sym(f),
                local_name,
                visibility: f.visibility.map(|v| Symbol::intern(v.as_str())),
                extra,
                ..Props::default()
            },
            f.span,
        );
        let role = if is_ctor { AstRole::Constructors } else { AstRole::Methods };
        let record_node = self.records[record].node;
        self.g.add_edge(record_node, EdgeKind::Ast(role), node);
        self.records[record].functions.push(node);

        let mut params = Vec::new();
        for (i, p) in f.params.iter().enumerate() {
            let pnode = self.g.add_node(
                NodeKind::ParamVariableDeclaration,
                Props {
                    code: param_code(p),
                    local_name: p.name.unwrap_or_default(),
                    ty: Some(Symbol::intern(&p.ty.canonical())),
                    index: Some(i),
                    ..Props::default()
                },
                p.span,
            );
            self.g.add_edge(node, EdgeKind::Ast(AstRole::Parameters), pnode);
            params.push(pnode);
        }
        self.fn_params.insert(node, params);
        node
    }

    fn declare_modifier(&mut self, m: &ModifierDef, record: NodeId) -> NodeId {
        let node = self.g.add_node(
            NodeKind::ModifierDeclaration,
            Props {
                code: intern_fmt(format_args!("modifier {}", m.name)),
                local_name: m.name,
                ..Props::default()
            },
            m.span,
        );
        self.g.add_edge(record, EdgeKind::Ast(AstRole::Declarations), node);
        node
    }

    fn declare_struct(&mut self, s: &StructDef, parent: NodeId) -> NodeId {
        let node = self.g.add_node(
            NodeKind::RecordDeclaration,
            Props {
                code: intern_fmt(format_args!("struct {}", s.name)),
                local_name: s.name,
                record_kind: Some("struct".into()),
                ..Props::default()
            },
            s.span,
        );
        self.g.add_edge(parent, EdgeKind::Ast(AstRole::Declarations), node);
        for field in &s.fields {
            let fnode = self.g.add_node(
                NodeKind::FieldDeclaration,
                Props {
                    code: Symbol::intern(
                        &(printer::print_type(&field.ty)
                            + &field.name.map(|n| format!(" {n}")).unwrap_or_default()),
                    ),
                    local_name: field.name.unwrap_or_default(),
                    ty: Some(Symbol::intern(&field.ty.canonical())),
                    ..Props::default()
                },
                field.span,
            );
            self.g.add_edge(node, EdgeKind::Ast(AstRole::Fields), fnode);
        }
        node
    }

    fn declare_enum(&mut self, e: &EnumDef, parent: NodeId) -> NodeId {
        let node = self.g.add_node(
            NodeKind::EnumDeclaration,
            Props {
                code: intern_fmt(format_args!("enum {}", e.name)),
                local_name: e.name,
                ..Props::default()
            },
            e.span,
        );
        self.g.add_edge(parent, EdgeKind::Ast(AstRole::Declarations), node);
        node
    }

    fn declare_event(&mut self, e: &EventDef, parent: NodeId) -> NodeId {
        let node = self.g.add_node(
            NodeKind::EventDeclaration,
            Props {
                code: intern_fmt(format_args!("event {}", e.name)),
                local_name: e.name,
                ..Props::default()
            },
            e.span,
        );
        self.g.add_edge(parent, EdgeKind::Ast(AstRole::Declarations), node);
        node
    }

    // ===== bodies ==========================================================

    fn translate_record_bodies(&mut self, c: &ContractDef, idx: usize) {
        self.current_record = Some(idx);
        let mut functions = std::mem::take(&mut self.records[idx].functions).into_iter();
        for part in &c.parts {
            match part {
                ContractPart::Function(f) => {
                    if let Some(fnode) = functions.next() {
                        self.translate_function_body(f, fnode);
                    }
                }
                ContractPart::Variable(v) => self.translate_initializer(v, idx),
                _ => {}
            }
        }
        self.current_record = None;
    }

    fn translate_inferred_bodies(&mut self, free_items: &[&SourceItem], idx: usize) {
        self.current_record = Some(idx);
        let mut functions = std::mem::take(&mut self.records[idx].functions).into_iter();
        // Bare statements are collected into one inferred function.
        let mut bare: Vec<Statement> = Vec::new();
        for item in free_items {
            match item {
                SourceItem::Function(f) => {
                    if let Some(fnode) = functions.next() {
                        self.translate_function_body(f, fnode);
                    }
                }
                SourceItem::Statement(s) => bare.push((*s).clone()),
                SourceItem::Variable(v) => self.translate_initializer(v, idx),
                _ => {}
            }
        }
        if !bare.is_empty() {
            let f = FunctionDef {
                kind: FunctionKind::Function,
                name: Some("<snippet>".into()),
                params: vec![],
                returns: vec![],
                visibility: Some(Visibility::Public),
                mutability: None,
                is_virtual: false,
                is_override: false,
                modifiers: vec![],
                body: Some(Block {
                    statements: bare,
                    span: Span::DUMMY,
                }),
                span: Span::DUMMY,
            };
            let fnode = self.declare_function(&f, idx, false);
            self.g.node_mut(fnode).props.is_inferred = true;
            self.records[idx].methods.insert("<snippet>".into(), fnode);
            self.translate_function_body(&f, fnode);
        }
        self.current_record = None;
    }

    /// A field initializer flows into its field.
    fn translate_initializer(&mut self, v: &StateVarDecl, idx: usize) {
        if let Some(init) = &v.initializer {
            let field = self.records[idx].fields[&v.name];
            self.enter_scope();
            let value = self.expr(init, false);
            self.leave_scope();
            self.g.add_edge(value.node, EdgeKind::Dfg, field);
            self.g.add_edge(field, EdgeKind::Ast(AstRole::Initializer), value.node);
        }
    }

    fn translate_function_body(&mut self, f: &FunctionDef, fnode: NodeId) {
        // `expand_modifiers` borrows the body when no modifier applies, so
        // the common case clones nothing. Temporarily moving the modifier
        // map out of `self` sidesteps the simultaneous `&mut self` borrow
        // below without copying a single definition.
        let modifiers = std::mem::take(&mut self.modifiers);
        let body = if self.options.expand_modifiers {
            expand_modifiers(f, &modifiers)
        } else {
            f.body.as_ref().map(std::borrow::Cow::Borrowed)
        };
        self.modifiers = modifiers;
        let Some(body) = body else {
            return;
        };
        // Anything collected outside a function body (e.g. a stray return
        // in a translated modifier body) must not leak into this function.
        self.current_returns.clear();
        // Scope: parameters (and named returns).
        let mut param_scope = FxHashMap::default();
        for (p, pnode) in f.params.iter().zip(&self.fn_params[&fnode]) {
            if let Some(name) = &p.name {
                param_scope.insert(*name, *pnode);
            }
        }
        for r in &f.returns {
            if let Some(name) = &r.name {
                let rnode = self.g.add_node(
                    NodeKind::VariableDeclaration,
                    Props {
                        code: intern_fmt(format_args!("{} {}", printer::print_type(&r.ty), name)),
                        local_name: *name,
                        ty: Some(Symbol::intern(&r.ty.canonical())),
                        ..Props::default()
                    },
                    r.span,
                );
                self.g.add_edge(fnode, EdgeKind::Ast(AstRole::ReturnTypes), rnode);
                param_scope.insert(*name, rnode);
            }
        }
        self.scopes.push(param_scope);

        let body_node = self.g.add_node(
            NodeKind::Block,
            Props { code: "{...}".into(), ..Props::default() },
            body.span,
        );
        self.g.add_edge(fnode, EdgeKind::Ast(AstRole::Body), body_node);

        let frag = self.block_stmts(&body.statements, body_node);
        if let Some(entry) = frag.entry {
            self.g.add_edge(fnode, EdgeKind::Eog, entry);
        }
        self.leave_scope();

        // Remember return statements for RETURNS edges; they were
        // collected while translating, sparing a full subtree walk.
        let returns = std::mem::take(&mut self.current_returns);
        self.fn_returns.insert(fnode, returns);
    }

    /// Translate a statement list under `parent`, chaining EOG.
    /// Enter a fresh lexical scope, recycling a cleared map if available.
    fn enter_scope(&mut self) {
        let map = self.scope_pool.pop().unwrap_or_default();
        self.scopes.push(map);
    }

    /// Leave the innermost scope, returning its map to the pool.
    fn leave_scope(&mut self) {
        if let Some(mut map) = self.scopes.pop() {
            map.clear();
            self.scope_pool.push(map);
        }
    }

    fn block_stmts(&mut self, stmts: &[Statement], parent: NodeId) -> Frag {
        self.enter_scope();
        let mut frag = Frag::empty();
        for s in stmts {
            let sfrag = self.stmt(s, parent);
            frag = self.seq(frag, sfrag);
        }
        self.leave_scope();
        frag
    }

    /// Link `prev`'s exits to `next`'s entry; result covers both.
    fn seq(&mut self, prev: Frag, next: Frag) -> Frag {
        match (prev.entry, next.entry) {
            (None, _) => next,
            (_, None) => prev,
            (Some(_), Some(next_entry)) => {
                for exit in prev.exits.iter() {
                    self.g.add_edge(exit, EdgeKind::Eog, next_entry);
                }
                Frag { entry: prev.entry, exits: next.exits }
            }
        }
    }

    // ===== statements =======================================================

    fn stmt(&mut self, s: &Statement, parent: NodeId) -> Frag {
        match &s.kind {
            StatementKind::Block(b) => {
                let node = self.add_stmt_node(NodeKind::Block, "{...}", s.span, parent);
                self.block_stmts_under(b, node)
            }
            StatementKind::Unchecked(b) => {
                let node = self.add_stmt_node(NodeKind::UncheckedBlock, "unchecked", s.span, parent);
                let saved = self.in_unchecked;
                self.in_unchecked = true;
                let frag = self.block_stmts_under(b, node);
                self.in_unchecked = saved;
                frag
            }
            StatementKind::If { cond, then, alt } => {
                let node = self.add_stmt_node(NodeKind::IfStatement, "if", s.span, parent);
                let cond_v = self.expr(cond, false);
                self.g.add_edge(node, EdgeKind::Ast(AstRole::Condition), cond_v.node);
                self.g.add_edge(cond_v.node, EdgeKind::Dfg, node);
                // EOG: condition evaluates, then branches at the IF node.
                let cond_frag = self.seq(cond_v.frag, Frag::single(node));

                let mut exits = Exits::default();
                let then_frag = self.stmt(then, node);
                self.join_arm(node, then_frag, Some(AstRole::Then), &mut exits);
                let alt_frag = match alt {
                    Some(alt) => self.stmt(alt, node),
                    None => Frag::empty(),
                };
                self.join_arm(node, alt_frag, Some(AstRole::Else), &mut exits);
                Frag { entry: cond_frag.entry, exits }
            }
            StatementKind::While { cond, body } => {
                let node = self.add_stmt_node(NodeKind::WhileStatement, "while", s.span, parent);
                self.loop_frag(node, Some(cond), None, None, body)
            }
            StatementKind::DoWhile { body, cond } => {
                let node = self.add_stmt_node(NodeKind::DoStatement, "do", s.span, parent);
                // Body runs at least once, then conditions loop back.
                let body_frag = self.stmt(body, node);
                let cond_v = self.expr(cond, false);
                self.g.add_edge(node, EdgeKind::Ast(AstRole::Condition), cond_v.node);
                self.g.add_edge(cond_v.node, EdgeKind::Dfg, node);
                let frag = self.seq(body_frag, cond_v.frag);
                let frag = self.seq(frag, Frag::single(node));
                // Back edge to the body.
                if let Some(entry) = frag.entry {
                    self.g.add_edge(node, EdgeKind::Eog, entry);
                }
                frag
            }
            StatementKind::For { init, cond, update, body } => {
                let node = self.add_stmt_node(NodeKind::ForStatement, "for", s.span, parent);
                self.enter_scope();
                let init_frag = match init {
                    Some(init) => self.stmt(init, node),
                    None => Frag::empty(),
                };
                let frag = self.loop_frag(node, cond.as_ref(), Some(init_frag), update.as_ref(), body);
                self.leave_scope();
                frag
            }
            StatementKind::Expression(e) => {
                let v = self.expr_under(e, parent, false);
                v.frag
            }
            StatementKind::VariableDecl { parts, value } => {
                let mut frag = Frag::empty();
                let value_v = value.as_ref().map(|v| self.expr_under(v, parent, false));
                if let Some(v) = &value_v {
                    frag = self.seq(frag, v.frag.clone());
                }
                for part in parts {
                    let code = match &part.ty {
                        Some(ty) => format!(
                            "{}{} {}",
                            printer::print_type(ty),
                            part.storage.map(|st| format!(" {}", st.as_str())).unwrap_or_default(),
                            part.name
                        ),
                        None => format!("var {}", part.name),
                    };
                    let decl = self.g.add_node(
                        NodeKind::VariableDeclaration,
                        Props {
                            code: Symbol::intern(&code),
                            local_name: part.name,
                            ty: part.ty.as_ref().map(|t| Symbol::intern(&t.canonical())),
                            extra: part
                                .storage
                                .map(|st| {
                                    [(Symbol::intern("storage"), Symbol::intern(st.as_str()))]
                                        .into()
                                })
                                .unwrap_or_default(),
                            ..Props::default()
                        },
                        part.span,
                    );
                    self.g.add_edge(parent, EdgeKind::Ast(AstRole::Statements), decl);
                    // A declaration outside any open scope (malformed
                    // nesting) opens one instead of aborting the build.
                    if let Some(scope) = self.scopes.last_mut() {
                        scope.insert(part.name, decl);
                    } else {
                        self.scopes.push(FxHashMap::from_iter([(part.name, decl)]));
                    }
                    if let Some(v) = &value_v {
                        self.g.add_edge(v.node, EdgeKind::Dfg, decl);
                        self.g.add_edge(decl, EdgeKind::Ast(AstRole::Initializer), v.node);
                    }
                    frag = self.seq(frag, Frag::single(decl));
                }
                frag
            }
            StatementKind::Return(value) => {
                let node = self.add_stmt_node(NodeKind::ReturnStatement, "return", s.span, parent);
                self.current_returns.push(node);
                let mut frag = Frag::empty();
                if let Some(value) = value {
                    let v = self.expr(value, false);
                    self.g.add_edge(node, EdgeKind::Ast(AstRole::Value), v.node);
                    self.g.add_edge(v.node, EdgeKind::Dfg, node);
                    frag = self.seq(frag, v.frag);
                }
                frag = self.seq(frag, Frag::terminal(node));
                frag
            }
            StatementKind::Emit(call) => {
                let node = self.add_stmt_node(
                    NodeKind::EmitStatement,
                    &format!("emit {}", call.code()),
                    s.span,
                    parent,
                );
                let frag = match &call.kind {
                    ExprKind::Call { args, .. } => {
                        self.arguments(node, args, false, Frag::empty(), |_| {})
                    }
                    _ => Frag::empty(),
                };
                self.seq(frag, Frag::single(node))
            }
            StatementKind::Revert(arg) => {
                let mut frag = Frag::empty();
                if let Some(arg) = arg {
                    let v = self.expr(arg, false);
                    frag = self.seq(frag, v.frag);
                }
                let node = self.g.add_node(
                    NodeKind::Rollback,
                    Props { code: "revert".into(), local_name: "revert".into(), ..Props::default() },
                    s.span,
                );
                self.g.add_edge(parent, EdgeKind::Ast(AstRole::Statements), node);
                self.seq(frag, Frag::terminal(node))
            }
            StatementKind::Throw => {
                let node = self.g.add_node(
                    NodeKind::Rollback,
                    Props { code: "throw".into(), local_name: "throw".into(), ..Props::default() },
                    s.span,
                );
                self.g.add_edge(parent, EdgeKind::Ast(AstRole::Statements), node);
                Frag::terminal(node)
            }
            StatementKind::Break => {
                let node = self.add_stmt_node(NodeKind::BreakStatement, "break", s.span, parent);
                Frag::terminal(node)
            }
            StatementKind::Continue => {
                let node =
                    self.add_stmt_node(NodeKind::ContinueStatement, "continue", s.span, parent);
                Frag::terminal(node)
            }
            StatementKind::ModifierPlaceholder => {
                // Only reachable when a modifier body is translated without
                // expansion (orphan snippet) — treat as a no-op placeholder.
                let node =
                    self.add_stmt_node(NodeKind::PlaceholderStatement, "_", s.span, parent);
                Frag::single(node)
            }
            StatementKind::Ellipsis => {
                let node =
                    self.add_stmt_node(NodeKind::PlaceholderStatement, "...", s.span, parent);
                Frag::single(node)
            }
            StatementKind::Assembly(text) => {
                let node = self.add_stmt_node(
                    NodeKind::AssemblyBlock,
                    &format!("assembly {{ {text} }}"),
                    s.span,
                    parent,
                );
                Frag::single(node)
            }
            StatementKind::Try { expr, success, catches } => {
                let node = self.add_stmt_node(NodeKind::TryStatement, "try", s.span, parent);
                let guarded = self.expr(expr, false);
                self.g.add_edge(node, EdgeKind::Ast(AstRole::Condition), guarded.node);
                let frag = self.seq(guarded.frag, Frag::single(node));
                let mut exits = Exits::default();
                for arm in std::iter::once(success).chain(catches) {
                    let arm_frag = self.block_stmts_under(arm, node);
                    self.join_arm(node, arm_frag, None, &mut exits);
                }
                Frag { entry: frag.entry, exits }
            }
        }
    }

    /// Join one arm of a branch at `branch`: an `AST` edge in `role` (if
    /// any) and an `EOG` edge to the arm's entry, whose exits become exits
    /// of the whole statement; an empty arm falls through from `branch`.
    fn join_arm(&mut self, branch: NodeId, arm: Frag, role: Option<AstRole>, exits: &mut Exits) {
        match arm.entry {
            Some(entry) => {
                if let Some(role) = role {
                    self.g.add_edge(branch, EdgeKind::Ast(role), entry);
                }
                self.g.add_edge(branch, EdgeKind::Eog, entry);
                exits.append(arm.exits);
            }
            None => exits.push(branch),
        }
    }

    fn block_stmts_under(&mut self, b: &Block, node: NodeId) -> Frag {
        let inner = self.block_stmts(&b.statements, node);
        match inner.entry {
            Some(_) => inner,
            None => Frag::single(node),
        }
    }

    fn loop_frag(
        &mut self,
        node: NodeId,
        cond: Option<&Expr>,
        init: Option<Frag>,
        update: Option<&Expr>,
        body: &Statement,
    ) -> Frag {
        // EOG shape: init → cond → LOOP → body → update → cond (cycle).
        let cond_frag = match cond {
            Some(cond) => {
                let v = self.expr(cond, false);
                self.g.add_edge(node, EdgeKind::Ast(AstRole::Condition), v.node);
                self.g.add_edge(v.node, EdgeKind::Dfg, node);
                v.frag
            }
            None => Frag::empty(),
        };
        let cond_entry = cond_frag.entry;
        let head = self.seq(cond_frag, Frag::single(node));

        let body_frag = self.stmt(body, node);
        let update_frag = match update {
            Some(update) => {
                let v = self.expr(update, false);
                self.g.add_edge(node, EdgeKind::Ast(AstRole::Update), v.node);
                v.frag
            }
            None => Frag::empty(),
        };
        let tail = self.seq(body_frag, update_frag);
        if let Some(entry) = tail.entry {
            self.g.add_edge(node, EdgeKind::Eog, entry);
            // Back edge closing the loop cycle.
            let back_target = cond_entry.unwrap_or(node);
            for exit in tail.exits.iter() {
                self.g.add_edge(exit, EdgeKind::Eog, back_target);
            }
        } else {
            // Empty body: self-cycle through the condition.
            let back_target = cond_entry.unwrap_or(node);
            self.g.add_edge(node, EdgeKind::Eog, back_target);
        }

        let whole = match init {
            Some(init_frag) => self.seq(init_frag, head),
            None => head,
        };
        Frag { entry: whole.entry, exits: Exits::one(node) }
    }

    fn add_stmt_node(&mut self, kind: NodeKind, code: &str, span: Span, parent: NodeId) -> NodeId {
        let node = self.g.add_node(
            kind,
            Props { code: code.into(), ..Props::default() },
            span,
        );
        self.g.add_edge(parent, EdgeKind::Ast(AstRole::Statements), node);
        node
    }

    // ===== expressions ======================================================

    fn expr_under(&mut self, e: &Expr, parent: NodeId, write: bool) -> EValue {
        let v = self.expr(e, write);
        self.g.add_edge(parent, EdgeKind::Ast(AstRole::Statements), v.node);
        v
    }

    /// Translate `args` in order as `ARGUMENTS` of `node`, each flowing
    /// into it and evaluated after `frag`, and return `frag` extended by
    /// them. `each` sees every translated argument.
    fn arguments<'e>(
        &mut self,
        node: NodeId,
        args: impl IntoIterator<Item = &'e Expr>,
        write: bool,
        mut frag: Frag,
        mut each: impl FnMut(&EValue),
    ) -> Frag {
        for arg in args {
            let v = self.expr(arg, write);
            self.g.add_edge(node, EdgeKind::Ast(AstRole::Arguments), v.node);
            self.g.add_edge(v.node, EdgeKind::Dfg, node);
            each(&v);
            frag = self.seq(frag, v.frag);
        }
        frag
    }

    fn expr(&mut self, e: &Expr, write: bool) -> EValue {
        match &e.kind {
            ExprKind::Literal(lit) => {
                let (code, value) = match lit {
                    Lit::Number { value, unit } => (
                        match unit {
                            Some(u) => intern_fmt(format_args!("{value} {u}")),
                            None => *value,
                        },
                        *value,
                    ),
                    Lit::Str(s) => (intern_fmt(format_args!("\"{s}\"")), *s),
                    Lit::Bool(b) => {
                        let s = if *b { sym::TRUE } else { sym::FALSE };
                        (s, s)
                    }
                    Lit::Hex(h) => (intern_fmt(format_args!("hex\"{h}\"")), *h),
                };
                let ty = match lit {
                    Lit::Number { .. } => "uint256",
                    Lit::Str(_) => "string",
                    Lit::Bool(_) => "bool",
                    Lit::Hex(_) => "bytes",
                };
                let node = self.g.add_node(
                    NodeKind::Literal,
                    Props {
                        code,
                        value: Some(value),
                        ty: Some(ty.into()),
                        ..Props::default()
                    },
                    e.span,
                );
                EValue { node, frag: Frag::single(node), decl: None }
            }
            ExprKind::Ident(name) => self.ident_ref(*name, e.span, write),
            ExprKind::Member { base, member } => self.member(e, base, *member, write),
            ExprKind::Index { base, index } => {
                let base_v = self.expr(base, write);
                let node = self.g.add_node(
                    NodeKind::SubscriptExpression,
                    Props {
                        code: e.code_sym(),
                        local_name: base_v_local(&self.g, base_v.node),
                        ty: element_type(self.g.node(base_v.node).props.ty.as_deref()),
                        ..Props::default()
                    },
                    e.span,
                );
                self.g.add_edge(node, EdgeKind::Ast(AstRole::ArrayExpression), base_v.node);
                let mut frag = base_v.frag;
                if let Some(index) = index {
                    let idx_v = self.expr(index, false);
                    self.g
                        .add_edge(node, EdgeKind::Ast(AstRole::SubscriptExpression), idx_v.node);
                    self.g.add_edge(idx_v.node, EdgeKind::Dfg, node);
                    frag = self.seq(frag, idx_v.frag);
                }
                if write {
                    // Writing through a subscript writes the collection.
                    if let Some(decl) = base_v.decl {
                        self.g.add_edge(node, EdgeKind::Dfg, decl);
                    }
                } else {
                    self.g.add_edge(base_v.node, EdgeKind::Dfg, node);
                }
                let frag = self.seq(frag, Frag::single(node));
                EValue { node, frag, decl: base_v.decl }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lhs_v = self.expr(lhs, false);
                let rhs_v = self.expr(rhs, false);
                let ty = if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                    Some(Symbol::intern("bool"))
                } else {
                    self.g.node(lhs_v.node).props.ty
                };
                let mut extra = BTreeMap::new();
                if self.in_unchecked {
                    extra.insert(sym::UNCHECKED, sym::TRUE);
                }
                let node = self.g.add_node(
                    NodeKind::BinaryOperator,
                    Props {
                        code: e.code_sym(),
                        operator_code: Some(op.as_str().into()),
                        ty,
                        extra,
                        ..Props::default()
                    },
                    e.span,
                );
                self.g.add_edge(node, EdgeKind::Ast(AstRole::Lhs), lhs_v.node);
                self.g.add_edge(node, EdgeKind::Ast(AstRole::Rhs), rhs_v.node);
                self.g.add_edge(lhs_v.node, EdgeKind::Dfg, node);
                self.g.add_edge(rhs_v.node, EdgeKind::Dfg, node);
                let frag = self.seq(lhs_v.frag, rhs_v.frag);
                let frag = self.seq(frag, Frag::single(node));
                EValue { node, frag, decl: None }
            }
            ExprKind::Assign { op, lhs, rhs } => {
                let rhs_v = self.expr(rhs, false);
                let lhs_v = self.expr(lhs, true);
                let mut extra = BTreeMap::new();
                if self.in_unchecked {
                    extra.insert(sym::UNCHECKED, sym::TRUE);
                }
                let node = self.g.add_node(
                    NodeKind::BinaryOperator,
                    Props {
                        code: e.code_sym(),
                        operator_code: Some(op.as_str().into()),
                        ty: self.g.node(lhs_v.node).props.ty,
                        extra,
                        ..Props::default()
                    },
                    e.span,
                );
                self.g.add_edge(node, EdgeKind::Ast(AstRole::Lhs), lhs_v.node);
                self.g.add_edge(node, EdgeKind::Ast(AstRole::Rhs), rhs_v.node);
                // Data flows: value → operator → target → declaration.
                self.g.add_edge(rhs_v.node, EdgeKind::Dfg, node);
                self.g.add_edge(node, EdgeKind::Dfg, lhs_v.node);
                if let Some(decl) = lhs_v.decl {
                    self.g.add_edge(lhs_v.node, EdgeKind::Dfg, decl);
                    if *op != AssignOp::Assign {
                        // Compound assignment also reads the target.
                        self.g.add_edge(decl, EdgeKind::Dfg, node);
                    }
                }
                // Evaluation order: Solidity evaluates RHS first.
                let frag = self.seq(rhs_v.frag, lhs_v.frag);
                let frag = self.seq(frag, Frag::single(node));
                EValue { node, frag, decl: lhs_v.decl }
            }
            ExprKind::Unary { op, prefix, operand } => {
                let is_write = matches!(op, UnOp::Inc | UnOp::Dec | UnOp::Delete);
                let operand_v = self.expr(operand, is_write);
                let node = self.g.add_node(
                    NodeKind::UnaryOperator,
                    Props {
                        code: e.code_sym(),
                        operator_code: Some(op.as_str().into()),
                        ty: self.g.node(operand_v.node).props.ty,
                        extra: [(
                            sym::PREFIX,
                            if *prefix { sym::TRUE } else { sym::FALSE },
                        )]
                        .into(),
                        ..Props::default()
                    },
                    e.span,
                );
                self.g.add_edge(node, EdgeKind::Ast(AstRole::Input), operand_v.node);
                self.g.add_edge(operand_v.node, EdgeKind::Dfg, node);
                if is_write {
                    self.g.add_edge(node, EdgeKind::Dfg, operand_v.node);
                    if let Some(decl) = operand_v.decl {
                        self.g.add_edge(operand_v.node, EdgeKind::Dfg, decl);
                        self.g.add_edge(decl, EdgeKind::Dfg, node);
                    }
                }
                let frag = self.seq(operand_v.frag, Frag::single(node));
                EValue { node, frag, decl: operand_v.decl }
            }
            ExprKind::Ternary { cond, then, alt } => {
                let cond_v = self.expr(cond, false);
                let then_v = self.expr(then, false);
                let alt_v = self.expr(alt, false);
                let node = self.g.add_node(
                    NodeKind::ConditionalExpression,
                    Props {
                        code: e.code_sym(),
                        ty: self.g.node(then_v.node).props.ty,
                        ..Props::default()
                    },
                    e.span,
                );
                self.g.add_edge(node, EdgeKind::Ast(AstRole::Condition), cond_v.node);
                self.g.add_edge(node, EdgeKind::Ast(AstRole::Then), then_v.node);
                self.g.add_edge(node, EdgeKind::Ast(AstRole::Else), alt_v.node);
                self.g.add_edge(cond_v.node, EdgeKind::Dfg, node);
                self.g.add_edge(then_v.node, EdgeKind::Dfg, node);
                self.g.add_edge(alt_v.node, EdgeKind::Dfg, node);
                let frag = self.seq(cond_v.frag, then_v.frag);
                let frag = self.seq(frag, alt_v.frag);
                let frag = self.seq(frag, Frag::single(node));
                EValue { node, frag, decl: None }
            }
            ExprKind::Call { callee, options, args, .. } => self.call(e, callee, options, args),
            ExprKind::Tuple(entries) => {
                let node = self.g.add_node(
                    NodeKind::TupleExpression,
                    Props { code: e.code_sym(), ..Props::default() },
                    e.span,
                );
                let frag =
                    self.arguments(node, entries.iter().flatten(), write, Frag::empty(), |_| {});
                let frag = self.seq(frag, Frag::single(node));
                EValue { node, frag, decl: None }
            }
            ExprKind::New(ty) => {
                let node = self.g.add_node(
                    NodeKind::NewExpression,
                    Props {
                        code: e.code_sym(),
                        local_name: Symbol::intern(&ty.canonical()),
                        ty: Some(Symbol::intern(&ty.canonical())),
                        ..Props::default()
                    },
                    e.span,
                );
                EValue { node, frag: Frag::single(node), decl: None }
            }
            ExprKind::ElementaryType(name) => {
                // Bare type mention; calls through it become casts in call().
                let node = self.g.add_node(
                    NodeKind::DeclaredReferenceExpression,
                    Props {
                        code: *name,
                        local_name: *name,
                        ty: Some(*name),
                        ..Props::default()
                    },
                    e.span,
                );
                EValue { node, frag: Frag::single(node), decl: None }
            }
            ExprKind::Ellipsis => {
                let node = self.g.add_node(
                    NodeKind::PlaceholderStatement,
                    Props { code: "...".into(), ..Props::default() },
                    e.span,
                );
                EValue { node, frag: Frag::single(node), decl: None }
            }
        }
    }

    /// Resolve an identifier reference against the scope stack; unresolved
    /// non-builtin names become inferred field declarations (§4.2).
    fn ident_ref(&mut self, name: Symbol, span: Span, write: bool) -> EValue {
        // `now` is an alias of `block.timestamp`; normalize so queries match.
        if name == "now" {
            let node = self.g.add_node(
                NodeKind::MemberExpression,
                Props {
                    code: "block.timestamp".into(),
                    local_name: "timestamp".into(),
                    ty: Some("uint256".into()),
                    ..Props::default()
                },
                span,
            );
            return EValue { node, frag: Frag::single(node), decl: None };
        }

        let decl = self.lookup(name);
        let decl = match decl {
            Some(d) => Some(d),
            None if is_builtin_name(&name) => None,
            None => Some(self.infer_field(name, span)),
        };
        let ty = decl.and_then(|d| self.g.node(d).props.ty).or_else(|| {
            if name == "this" {
                self.current_record.map(|idx| self.records[idx].name)
            } else {
                None
            }
        });
        let node = self.g.add_node(
            NodeKind::DeclaredReferenceExpression,
            Props { code: name, local_name: name, ty, ..Props::default() },
            span,
        );
        if let Some(decl) = decl {
            self.g.add_edge(node, EdgeKind::RefersTo, decl);
            if write {
                self.g.add_edge(node, EdgeKind::Dfg, decl);
            } else {
                self.g.add_edge(decl, EdgeKind::Dfg, node);
            }
        }
        EValue { node, frag: Frag::single(node), decl }
    }

    fn lookup(&self, name: Symbol) -> Option<NodeId> {
        for scope in self.scopes.iter().rev() {
            if let Some(decl) = scope.get(&name) {
                return Some(*decl);
            }
        }
        // Record fields, including inherited ones.
        self.find_in_ancestors(self.current_record, |r| r.fields.get(&name).copied())
    }

    /// The first answer of `find` on `record` and then its ancestors, each
    /// reached through the first of its bases that names a record of the
    /// unit. The walk stops after 17 records, so an inheritance cycle in a
    /// malformed snippet ends it.
    fn find_in_ancestors<T>(
        &self,
        mut record: Option<usize>,
        find: impl Fn(&RecordCtx) -> Option<T>,
    ) -> Option<T> {
        for _ in 0..17 {
            let ctx = &self.records[record?];
            if let Some(found) = find(ctx) {
                return Some(found);
            }
            record = ctx.bases.iter().find_map(|b| self.record_index.get(b).copied());
        }
        None
    }

    fn infer_field(&mut self, name: Symbol, span: Span) -> NodeId {
        let idx = match self.current_record {
            Some(idx) => idx,
            None => self.infer_record(),
        };
        let record_node = self.records[idx].node;
        let field = self.g.add_node(
            NodeKind::FieldDeclaration,
            Props {
                code: name,
                local_name: name,
                is_inferred: true,
                ..Props::default()
            },
            span,
        );
        self.g.add_edge(record_node, EdgeKind::Ast(AstRole::Fields), field);
        self.records[idx].fields.insert(name, field);
        field
    }

    /// `base.member`, given with the expression `e` it was taken from.
    fn member(&mut self, e: &Expr, base: &Expr, member: Symbol, write: bool) -> EValue {
        // Builtin member chains (`msg.sender`, `block.timestamp`,
        // `msg.data.length`) become single member nodes with the full code,
        // matching Figure 2 and the Appendix B query patterns.
        let code = e.code_sym();
        // Collapse only genuine builtin chains: `msg.sender`, `tx.origin`,
        // `block.timestamp`, and the two-level `msg.data.length`. A member
        // access *on* a builtin value (`msg.sender.call`) keeps its base so
        // call sites retain their BASE edge.
        let base_is_builtin = matches!(&base.kind, ExprKind::Ident(b) if BUILTIN_BASES.contains(&b.as_str()) && self.lookup(*b).is_none())
            || code == "msg.data.length";
        if base_is_builtin {
            let ty = builtin_member_type(&code);
            let node = self.g.add_node(
                NodeKind::MemberExpression,
                Props {
                    code,
                    local_name: member,
                    ty: ty.map(Symbol::intern),
                    ..Props::default()
                },
                e.span,
            );
            return EValue { node, frag: Frag::single(node), decl: None };
        }

        let base_v = self.expr(base, false);
        // First-match semantics of the old (base, member) table: `balance`
        // and `length` resolve to uint256 regardless of base; nothing else
        // infers a type here.
        let ty = match member.as_str() {
            "balance" | "length" => Some(Symbol::intern("uint256")),
            _ => None,
        };
        let node = self.g.add_node(
            NodeKind::MemberExpression,
            Props { code, local_name: member, ty, ..Props::default() },
            e.span,
        );
        self.g.add_edge(node, EdgeKind::Ast(AstRole::Base), base_v.node);
        if write {
            if let Some(decl) = base_v.decl {
                self.g.add_edge(node, EdgeKind::Dfg, decl);
            }
        } else {
            self.g.add_edge(base_v.node, EdgeKind::Dfg, node);
        }
        let frag = self.seq(base_v.frag, Frag::single(node));
        EValue { node, frag, decl: base_v.decl }
    }

    /// `callee{options}(args)`, given with the expression `e` it was taken
    /// from.
    fn call(
        &mut self,
        e: &Expr,
        mut callee: &Expr,
        options: &[(Symbol, Expr)],
        args: &[Expr],
    ) -> EValue {
        // Fold legacy `.value(x)` / `.gas(x)` chains into call options.
        let mut options = options.to_vec();
        while let ExprKind::Call { callee: inner_callee, args: inner_args, .. } = &callee.kind {
            if let ExprKind::Member { base, member } = &inner_callee.kind {
                if (*member == "value" || *member == "gas") && inner_args.len() == 1 {
                    options.push((*member, inner_args[0].clone()));
                    callee = base.as_ref();
                    continue;
                }
            }
            break;
        }

        // Elementary-type cast: `address(x)`, `uint(x)`, `payable(x)`.
        if let ExprKind::ElementaryType(ty) = &callee.kind {
            let ty = if *ty == "payable" { "address payable" } else { ty.as_str() };
            let node = self.g.add_node(
                NodeKind::CastExpression,
                Props {
                    code: e.code_sym(),
                    local_name: ty.into(),
                    ty: Some(ty.into()),
                    ..Props::default()
                },
                e.span,
            );
            let mut decl = None;
            let frag = self.arguments(node, args, false, Frag::empty(), |v| decl = decl.or(v.decl));
            let frag = self.seq(frag, Frag::single(node));
            return EValue { node, frag, decl };
        }

        // Builtin rollback-on-failure calls.
        if let ExprKind::Ident(name) = &callee.kind {
            match name.as_str() {
                "require" | "assert" => return self.require_call(e, name.as_str(), args),
                "revert" => {
                    let mut frag = Frag::empty();
                    for arg in args {
                        let v = self.expr(arg, false);
                        frag = self.seq(frag, v.frag);
                    }
                    let node = self.g.add_node(
                        NodeKind::Rollback,
                        Props {
                            code: e.code_sym(),
                            local_name: "revert".into(),
                            ..Props::default()
                        },
                        e.span,
                    );
                    let frag = self.seq(frag, Frag::terminal(node));
                    return EValue { node, frag, decl: None };
                }
                _ => {}
            }
        }

        // Translate the callee.
        let (callee_node, callee_frag, callee_name) = match &callee.kind {
            ExprKind::Ident(name) => {
                let node = self.g.add_node(
                    NodeKind::DeclaredReferenceExpression,
                    Props { code: *name, local_name: *name, ..Props::default() },
                    callee.span,
                );
                (node, Frag::single(node), Some(*name))
            }
            _ => {
                let v = self.expr(callee, false);
                let name = self.g.node(v.node).props.local_name;
                (v.node, v.frag, if name.is_empty() { None } else { Some(name) })
            }
        };

        let local_name = callee_name.unwrap_or_default();
        let node = self.g.add_node(
            NodeKind::CallExpression,
            Props { code: e.code_sym(), local_name, ..Props::default() },
            e.span,
        );
        self.g.add_edge(node, EdgeKind::Ast(AstRole::Callee), callee_node);
        if let Some(base) = self.g.ast_child(callee_node, AstRole::Base) {
            // Convenience: expose the member base directly on the call, and
            // record that the receiver's data influences the call (one of
            // the paper's "indirect data flows", §4.2.3).
            self.g.add_edge(node, EdgeKind::Ast(AstRole::Base), base);
            self.g.add_edge(base, EdgeKind::Dfg, node);
        }

        let mut arg_nodes = Vec::new();
        let mut frag = self.arguments(node, args, false, callee_frag, |v| arg_nodes.push(v.node));

        // Call options {value: .., gas: ..} → SpecifiedExpression (§4.2.1).
        if !options.is_empty() {
            let spec = self.g.add_node(
                NodeKind::SpecifiedExpression,
                Props {
                    code: Symbol::intern(
                        &options
                            .iter()
                            .map(|(k, v)| format!("{k}: {}", v.code()))
                            .collect::<Vec<_>>()
                            .join(", "),
                    ),
                    ..Props::default()
                },
                e.span,
            );
            self.g.add_edge(node, EdgeKind::Ast(AstRole::Specifiers), spec);
            for (key, value) in &options {
                let kv = self.g.add_node(
                    NodeKind::KeyValueExpression,
                    Props {
                        code: intern_fmt(format_args!("{key}: {}", value.code())),
                        local_name: *key,
                        ..Props::default()
                    },
                    value.span,
                );
                self.g.add_edge(spec, EdgeKind::Ast(AstRole::Child), kv);
                let key_node = self.g.add_node(
                    NodeKind::DeclaredReferenceExpression,
                    Props { code: *key, local_name: *key, ..Props::default() },
                    value.span,
                );
                self.g.add_edge(kv, EdgeKind::Ast(AstRole::Key), key_node);
                let v = self.expr(value, false);
                self.g.add_edge(kv, EdgeKind::Ast(AstRole::Value), v.node);
                self.g.add_edge(v.node, EdgeKind::Dfg, kv);
                self.g.add_edge(kv, EdgeKind::Dfg, spec);
                self.g.add_edge(spec, EdgeKind::Dfg, node);
                frag = self.seq(frag, v.frag);
            }
        }

        let frag = self.seq(frag, Frag::single(node));

        // selfdestruct terminates execution (no rollback — state persists).
        if matches!(local_name.as_str(), "selfdestruct" | "suicide") {
            return EValue { node, frag: Frag { entry: frag.entry, exits: Exits::default() }, decl: None };
        }

        // Queue user-function calls for INVOKES resolution.
        if let Some(name) = callee_name {
            let via_this = matches!(&callee.kind, ExprKind::Member { base, .. }
                if matches!(&base.kind, ExprKind::Ident(b) if *b == "this"));
            let direct = matches!(&callee.kind, ExprKind::Ident(_));
            if (direct || via_this) && !BUILTIN_CALLS.contains(&name.as_str()) {
                self.pending_calls.push(PendingCall {
                    call: node,
                    record: self.current_record,
                    name,
                    args: arg_nodes,
                });
            }
        }

        EValue { node, frag, decl: None }
    }

    /// `require(cond, ...)` / `assert(cond)`: the call continues on success
    /// and branches to a `Rollback` node on failure.
    fn require_call(&mut self, e: &Expr, name: &str, args: &[Expr]) -> EValue {
        let node = self.g.add_node(
            NodeKind::CallExpression,
            Props {
                code: e.code_sym(),
                local_name: name.into(),
                ..Props::default()
            },
            e.span,
        );
        let frag = self.arguments(node, args, false, Frag::empty(), |_| {});
        let frag = self.seq(frag, Frag::single(node));
        let rollback = self.g.add_node(
            NodeKind::Rollback,
            Props {
                code: intern_fmt(format_args!("{name}-failure")),
                local_name: name.into(),
                ..Props::default()
            },
            e.span,
        );
        self.g.add_edge(node, EdgeKind::Ast(AstRole::Child), rollback);
        self.g.add_edge(node, EdgeKind::Eog, rollback);
        self.g.add_edge(node, EdgeKind::Dfg, rollback);
        EValue { node, frag, decl: None }
    }

    // ===== call resolution ==================================================

    fn resolve_calls(&mut self) {
        let pending = std::mem::take(&mut self.pending_calls);
        for p in pending {
            let target = self.resolve_function(p.record, p.name);
            let Some(target) = target else { continue };
            self.g.add_edge(p.call, EdgeKind::Invokes, target);
            if let Some(params) = self.fn_params.get(&target) {
                for (arg, param) in p.args.iter().zip(params) {
                    self.g.add_edge(*arg, EdgeKind::Dfg, *param);
                }
            }
            if let Some(returns) = self.fn_returns.get(&target) {
                for ret in returns {
                    self.g.add_edge(*ret, EdgeKind::Returns, p.call);
                    self.g.add_edge(*ret, EdgeKind::Dfg, p.call);
                }
            }
        }
    }

    fn resolve_function(&self, record: Option<usize>, name: Symbol) -> Option<NodeId> {
        self.find_in_ancestors(record, |r| r.methods.get(&name).copied())
    }
}

fn base_v_local(g: &Graph, node: NodeId) -> Symbol {
    g.node(node).props.local_name
}

fn element_type(collection_ty: Option<&str>) -> Option<Symbol> {
    let ty = collection_ty?;
    if let Some(stripped) = ty.strip_suffix("[]") {
        return Some(Symbol::intern(stripped));
    }
    // mapping(K=>V) → V
    if let Some(rest) = ty.strip_prefix("mapping(") {
        if let Some(pos) = rest.find("=>") {
            let value = &rest[pos + 2..];
            return Some(Symbol::intern(value.trim_end_matches(')')));
        }
    }
    None
}

/// Interned `T name` (or bare `T`) code of a parameter declaration,
/// printed into a reusable scratch buffer.
fn param_code(p: &Param) -> Symbol {
    thread_local! {
        static PARAM_BUF: std::cell::RefCell<String> =
            const { std::cell::RefCell::new(String::new()) };
    }
    PARAM_BUF.with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.clear();
        printer::print_type_into(&p.ty, &mut buf);
        if let Some(n) = p.name {
            buf.push(' ');
            buf.push_str(n.as_str());
        }
        Symbol::intern(&buf)
    })
}

/// Interned canonical signature of `f`, built in a reusable scratch
/// buffer so declaring a function allocates nothing.
fn signature_sym(f: &FunctionDef) -> Symbol {
    thread_local! {
        static SIG_BUF: std::cell::RefCell<String> =
            const { std::cell::RefCell::new(String::new()) };
    }
    SIG_BUF.with(|cell| {
        let mut sig = cell.borrow_mut();
        sig.clear();
        signature_into(f, &mut sig);
        Symbol::intern(&sig)
    })
}

fn signature_into(f: &FunctionDef, sig: &mut String) {
    match f.kind {
        FunctionKind::Constructor => sig.push_str("constructor"),
        FunctionKind::Receive => sig.push_str("receive"),
        FunctionKind::Fallback => sig.push_str("fallback"),
        FunctionKind::Function => {
            sig.push_str("function");
            if let Some(name) = &f.name {
                sig.push(' ');
                sig.push_str(name);
            }
        }
    }
    sig.push('(');
    for (i, p) in f.params.iter().enumerate() {
        if i > 0 {
            sig.push_str(", ");
        }
        printer::print_type_into(&p.ty, sig);
    }
    sig.push(')');
    if let Some(v) = f.visibility {
        sig.push(' ');
        sig.push_str(v.as_str());
    }
    if let Some(m) = f.mutability {
        sig.push(' ');
        sig.push_str(m.as_str());
    }
}

fn pragma_is_08(pragma: &str) -> bool {
    // Accept forms like `^0.8.0`, `>=0.8.0<0.9.0`, `0.8.19`.
    let digits: String = pragma
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .collect();
    let mut parts = digits.split('.');
    let major: u32 = parts.next().and_then(|p| p.parse().ok()).unwrap_or(0);
    let minor: u32 = parts
        .next()
        .map(|p| p.chars().take_while(|c| c.is_ascii_digit()).collect::<String>())
        .and_then(|p| p.parse().ok())
        .unwrap_or(0);
    major > 0 || minor >= 8
}

fn builtin_member_type(code: &str) -> Option<&'static str> {
    match code {
        "msg.sender" => Some("address"),
        "msg.value" => Some("uint256"),
        "msg.data" => Some("bytes"),
        "msg.sig" => Some("bytes4"),
        "msg.gas" => Some("uint256"),
        "msg.data.length" => Some("uint256"),
        "tx.origin" => Some("address"),
        "tx.gasprice" => Some("uint256"),
        "block.timestamp" => Some("uint256"),
        "block.number" => Some("uint256"),
        "block.difficulty" => Some("uint256"),
        "block.gaslimit" => Some("uint256"),
        "block.coinbase" => Some("address"),
        "block.blockhash" => Some("bytes32"),
        _ => None,
    }
}

fn is_builtin_name(name: &str) -> bool {
    matches!(
        name,
        "msg"
            | "tx"
            | "block"
            | "this"
            | "abi"
            | "super"
            | "type"
            | "now"
            | "_"
    ) || BUILTIN_CALLS.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_counters_follow_kind_declaration_order() {
        for (counter, kind) in KIND_NODES.iter().zip(ALL_KINDS) {
            assert_eq!(counter.name(), format!("cpg.nodes.{kind:?}"));
        }
    }

    fn cpg(src: &str) -> Cpg {
        Cpg::from_snippet(src).expect("snippet parses")
    }

    fn find_by_code(c: &Cpg, kind: NodeKind, code: &str) -> NodeId {
        c.graph
            .node_ids()
            .find(|n| c.graph.node(*n).kind == kind && c.graph.node(*n).props.code == code)
            .unwrap_or_else(|| panic!("no {kind:?} node with code `{code}`"))
    }

    #[test]
    fn figure_2_graph_shape() {
        // `if (msg.sender == owner){}` — the paper's Figure 2.
        let c = cpg("if (msg.sender == owner) {}");
        let sender = find_by_code(&c, NodeKind::MemberExpression, "msg.sender");
        let eq = find_by_code(&c, NodeKind::BinaryOperator, "msg.sender == owner");
        let iff = c.graph.nodes_of_kind(NodeKind::IfStatement).next().unwrap();
        let owner = c
            .graph
            .nodes_of_kind(NodeKind::DeclaredReferenceExpression)
            .find(|n| c.graph.node(*n).props.code == "owner")
            .unwrap();

        // EOG: msg.sender → owner → == → IF.
        assert!(c.graph.reaches(sender, owner, |k| k == EdgeKind::Eog, 1));
        assert!(c.graph.reaches(owner, eq, |k| k == EdgeKind::Eog, 1));
        assert!(c.graph.reaches(eq, iff, |k| k == EdgeKind::Eog, 1));
        // DFG: both references flow into ==, and == into IF.
        assert!(c.graph.reaches(sender, eq, |k| k == EdgeKind::Dfg, 1));
        assert!(c.graph.reaches(owner, eq, |k| k == EdgeKind::Dfg, 1));
        assert!(c.graph.reaches(eq, iff, |k| k == EdgeKind::Dfg, 1));
        // AST: LHS / RHS / CONDITION roles.
        assert_eq!(c.graph.ast_child(eq, AstRole::Lhs), Some(sender));
        assert_eq!(c.graph.ast_child(eq, AstRole::Rhs), Some(owner));
        assert_eq!(c.graph.ast_child(iff, AstRole::Condition), Some(eq));
        // `owner` was inferred as a field of the inferred contract.
        let decl = c.graph.refers_to(owner).unwrap();
        assert_eq!(c.graph.node(decl).kind, NodeKind::FieldDeclaration);
        assert!(c.graph.node(decl).props.is_inferred);
    }

    #[test]
    fn require_creates_rollback_branch() {
        let c = cpg("function f() public { require(msg.sender == owner); x = 1; }");
        let call = c
            .graph
            .nodes_of_kind(NodeKind::CallExpression)
            .find(|n| c.graph.node(*n).props.local_name == "require")
            .unwrap();
        let rollback = c.graph.nodes_of_kind(NodeKind::Rollback).next().unwrap();
        assert!(c.graph.reaches(call, rollback, |k| k == EdgeKind::Eog, 1));
        assert!(c.graph.is_eog_exit(rollback));
        // The happy path continues: call also reaches the assignment.
        let assign = c
            .graph
            .nodes_of_kind(NodeKind::BinaryOperator)
            .find(|n| c.graph.node(*n).props.code == "x = 1")
            .unwrap();
        assert!(c.graph.eog_reaches(call, assign));
    }

    #[test]
    fn revert_terminates_path() {
        let c = cpg("function f() public { if (bad) { revert(); } x = 1; }");
        let rollback = c.graph.nodes_of_kind(NodeKind::Rollback).next().unwrap();
        assert!(c.graph.is_eog_exit(rollback));
        let assign = c
            .graph
            .nodes_of_kind(NodeKind::BinaryOperator)
            .find(|n| c.graph.node(*n).props.code == "x = 1")
            .unwrap();
        // The revert path does not reach the assignment.
        assert!(!c.graph.eog_reaches(rollback, assign));
    }

    #[test]
    fn assignment_flows_into_field() {
        let c = cpg("contract C { address owner; constructor() { owner = msg.sender; } }");
        let sender = find_by_code(&c, NodeKind::MemberExpression, "msg.sender");
        let field = c
            .graph
            .nodes_of_kind(NodeKind::FieldDeclaration)
            .find(|n| c.graph.node(*n).props.local_name == "owner")
            .unwrap();
        assert!(c.graph.dfg_reaches(sender, field));
    }

    #[test]
    fn param_flows_to_field_via_assignment() {
        let c = cpg(
            "contract C { uint total; function add(uint amount) public { total += amount; } }",
        );
        let param = c.graph.nodes_of_kind(NodeKind::ParamVariableDeclaration).next().unwrap();
        let field = c
            .graph
            .nodes_of_kind(NodeKind::FieldDeclaration)
            .find(|n| c.graph.node(*n).props.local_name == "total")
            .unwrap();
        assert!(c.graph.dfg_reaches(param, field));
    }

    #[test]
    fn modifier_expansion_brings_require_into_function() {
        let c = cpg(
            "contract C { address owner; \
               modifier onlyOwner() { require(msg.sender == owner); _; } \
               function kill() public onlyOwner() { selfdestruct(owner); } }",
        );
        // After expansion, `kill` must contain a require call EOG-before the
        // selfdestruct.
        let kill = c
            .graph
            .nodes_of_kind(NodeKind::FunctionDeclaration)
            .find(|n| c.graph.node(*n).props.local_name == "kill")
            .unwrap();
        let descendants = c.graph.descendants(kill);
        let require = descendants
            .iter()
            .find(|n| c.graph.node(**n).props.local_name == "require")
            .copied()
            .expect("require expanded into kill body");
        let sd = descendants
            .iter()
            .find(|n| c.graph.node(**n).props.local_name == "selfdestruct")
            .copied()
            .unwrap();
        assert!(c.graph.eog_reaches(require, sd));
    }

    #[test]
    fn call_options_become_specified_expression() {
        let c = cpg("msg.sender.call{value: amount}(\"\");");
        let spec = c.graph.nodes_of_kind(NodeKind::SpecifiedExpression).next().unwrap();
        let kv = c.graph.nodes_of_kind(NodeKind::KeyValueExpression).next().unwrap();
        assert_eq!(c.graph.node(kv).props.local_name, "value");
        let call = c
            .graph
            .nodes_of_kind(NodeKind::CallExpression)
            .find(|n| c.graph.node(*n).props.local_name == "call")
            .unwrap();
        assert_eq!(c.graph.ast_child(call, AstRole::Specifiers), Some(spec));
    }

    #[test]
    fn legacy_value_chain_is_folded() {
        let c = cpg("to.call.value(amount)();");
        let call = c
            .graph
            .nodes_of_kind(NodeKind::CallExpression)
            .find(|n| c.graph.node(*n).props.local_name == "call")
            .expect("call with folded value option");
        assert!(c.graph.ast_child(call, AstRole::Specifiers).is_some());
    }

    #[test]
    fn invokes_edges_link_calls_to_functions() {
        let c = cpg(
            "contract C { \
               function inner(uint x) public returns (uint) { return x + 1; } \
               function outer() public { uint y = inner(5); } }",
        );
        let call = c
            .graph
            .nodes_of_kind(NodeKind::CallExpression)
            .find(|n| c.graph.node(*n).props.local_name == "inner")
            .unwrap();
        let inner = c
            .graph
            .nodes_of_kind(NodeKind::FunctionDeclaration)
            .find(|n| c.graph.node(*n).props.local_name == "inner")
            .unwrap();
        assert!(c.graph.reaches(call, inner, |k| k == EdgeKind::Invokes, 1));
        // Arg → param DFG and return → call RETURNS.
        let param = c.graph.nodes_of_kind(NodeKind::ParamVariableDeclaration).next().unwrap();
        let five = c
            .graph
            .nodes_of_kind(NodeKind::Literal)
            .find(|n| c.graph.node(*n).props.code == "5")
            .unwrap();
        assert!(c.graph.reaches(five, param, |k| k == EdgeKind::Dfg, 1));
        let ret = c.graph.nodes_of_kind(NodeKind::ReturnStatement).next().unwrap();
        assert!(c.graph.reaches(ret, call, |k| k == EdgeKind::Returns, 1));
    }

    #[test]
    fn loops_form_eog_cycles() {
        let c = cpg("function f(uint n) public { for (uint i = 0; i < n; i++) { g(i); } }");
        let for_node = c.graph.nodes_of_kind(NodeKind::ForStatement).next().unwrap();
        // The loop node is on an EOG cycle.
        let reached = c.graph.reach_forward(for_node, |k| k == EdgeKind::Eog, usize::MAX);
        assert!(reached.contains(&for_node), "loop node must cycle back to itself");
    }

    #[test]
    fn inherited_fields_resolve() {
        let c = cpg(
            "contract Parent { address owner; } \
             contract Child is Parent { function f() public { owner = msg.sender; } }",
        );
        // No inferred duplicate: the reference resolves to Parent.owner.
        let fields: Vec<NodeId> = c.graph.nodes_of_kind(NodeKind::FieldDeclaration).collect();
        assert_eq!(fields.len(), 1);
        let owner_ref = c
            .graph
            .nodes_of_kind(NodeKind::DeclaredReferenceExpression)
            .find(|n| c.graph.node(*n).props.code == "owner")
            .unwrap();
        assert_eq!(c.graph.refers_to(owner_ref), Some(fields[0]));
    }

    #[test]
    fn legacy_constructor_by_contract_name() {
        let c = cpg("contract Token { address owner; function Token() public { owner = msg.sender; } }");
        assert_eq!(c.graph.nodes_of_kind(NodeKind::ConstructorDeclaration).count(), 1);
    }

    #[test]
    fn pragma_08_detection() {
        assert!(Cpg::from_source("pragma solidity ^0.8.0; contract C {}")
            .unwrap()
            .solidity_08());
        assert!(!Cpg::from_source("pragma solidity ^0.4.24; contract C {}")
            .unwrap()
            .solidity_08());
        assert!(!cpg("contract C {}").solidity_08());
    }

    #[test]
    fn safemath_detection() {
        let c = cpg("contract C { using SafeMath for uint256; uint x; }");
        assert!(c.uses_safemath());
        assert!(!cpg("contract C { uint x; }").uses_safemath());
    }

    #[test]
    fn snippet_statements_get_inferred_wrappers() {
        let c = cpg("balances[msg.sender] += msg.value;");
        let record = c.graph.nodes_of_kind(NodeKind::RecordDeclaration).next().unwrap();
        assert!(c.graph.node(record).props.is_inferred);
        let f = c.graph.nodes_of_kind(NodeKind::FunctionDeclaration).next().unwrap();
        assert!(c.graph.node(f).props.is_inferred);
        // `balances` becomes an inferred field.
        let field = c
            .graph
            .nodes_of_kind(NodeKind::FieldDeclaration)
            .find(|n| c.graph.node(*n).props.local_name == "balances")
            .unwrap();
        assert!(c.graph.node(field).props.is_inferred);
    }

    #[test]
    fn default_function_has_empty_local_name() {
        let c = cpg("contract C { function() payable { lib.delegatecall(msg.data); } }");
        let f = c
            .graph
            .nodes_of_kind(NodeKind::FunctionDeclaration)
            .find(|n| c.graph.node(*n).props.extra.get("fn_kind").map(|s| s.as_str()) == Some("fallback"))
            .unwrap();
        assert_eq!(c.graph.node(f).props.local_name, "");
    }

    #[test]
    fn subscript_write_flows_to_collection() {
        let c = cpg("contract C { mapping(address => uint) balances; \
                     function d() public payable { balances[msg.sender] = msg.value; } }");
        let value = find_by_code(&c, NodeKind::MemberExpression, "msg.value");
        let field = c
            .graph
            .nodes_of_kind(NodeKind::FieldDeclaration)
            .find(|n| c.graph.node(*n).props.local_name == "balances")
            .unwrap();
        assert!(c.graph.dfg_reaches(value, field));
    }

    #[test]
    fn ternary_and_tuple_translate() {
        let c = cpg("x = a > b ? a : b;\n(uint p, uint q) = f();");
        assert!(c.graph.nodes_of_kind(NodeKind::ConditionalExpression).next().is_some());
        assert!(c.graph.nodes_of_kind(NodeKind::VariableDeclaration).count() >= 2);
    }

    #[test]
    fn function_eog_entry() {
        let c = cpg("contract C { function f() public { x = 1; } }");
        let f = c
            .graph
            .nodes_of_kind(NodeKind::FunctionDeclaration)
            .find(|n| c.graph.node(*n).props.local_name == "f")
            .unwrap();
        // Queries traverse (f)-[:EOG*]->(...): the function node must reach
        // its body.
        let assign = c
            .graph
            .nodes_of_kind(NodeKind::BinaryOperator)
            .find(|n| c.graph.node(*n).props.code == "x = 1")
            .unwrap();
        assert!(c.graph.eog_reaches(f, assign));
    }

    #[test]
    fn unchecked_marks_operators() {
        let c = cpg("function f(uint x) public { unchecked { total += x; } }");
        let op = c
            .graph
            .nodes_of_kind(NodeKind::BinaryOperator)
            .find(|n| c.graph.node(*n).props.operator_code.as_deref() == Some("+="))
            .unwrap();
        assert_eq!(
            c.graph.node(op).props.extra.get("unchecked").map(|s| s.as_str()),
            Some("true")
        );
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    fn cpg(src: &str) -> Cpg {
        Cpg::from_snippet(src).expect("snippet parses")
    }

    #[test]
    fn three_level_inheritance_resolves_fields() {
        let c = cpg(
            "contract A { address root; } \
             contract B is A { uint mid; } \
             contract C is B { function f() public { root = msg.sender; mid = 1; } }",
        );
        // Both writes resolve to the inherited fields, no inferred dupes.
        let fields: Vec<NodeId> = c.graph.nodes_of_kind(NodeKind::FieldDeclaration).collect();
        assert_eq!(fields.len(), 2);
        assert!(fields.iter().all(|f| !c.graph.node(*f).props.is_inferred));
    }

    #[test]
    fn modifier_with_two_placeholders_duplicates_body() {
        let c = cpg(
            "contract C { uint hits; \
             modifier twice() { _; _; } \
             function f() public twice() { hits += 1; } }",
        );
        // The body is expanded at both placeholders: two += operators.
        let adds = c
            .graph
            .nodes_of_kind(NodeKind::BinaryOperator)
            .filter(|n| c.graph.node(*n).props.operator_code.as_deref() == Some("+="))
            .count();
        assert_eq!(adds, 2);
    }

    #[test]
    fn try_catch_branches_in_eog() {
        let c = cpg(
            "function f(address t) public { \
               try IThing(t).doIt() { ok += 1; } catch { bad += 1; } done = true; }",
        );
        let try_node = c.graph.nodes_of_kind(NodeKind::TryStatement).next().unwrap();
        // Both handler entries are EOG successors of the try.
        let successors: Vec<NodeId> = c.graph.out_kind(try_node, EdgeKind::Eog).collect();
        assert!(successors.len() >= 2, "{successors:?}");
        // And both paths converge on the trailing statement.
        let done = c
            .graph
            .nodes_of_kind(NodeKind::BinaryOperator)
            .find(|n| c.graph.node(*n).props.code == "done = true")
            .unwrap();
        for s in successors {
            assert!(c.graph.eog_reaches(s, done) || s == done);
        }
    }

    #[test]
    fn for_loop_without_init_or_cond() {
        let c = cpg("function f() public { for (;;) { spin += 1; } }");
        let l = c.graph.nodes_of_kind(NodeKind::ForStatement).next().unwrap();
        let reached = c.graph.reach_forward(l, |k| k == EdgeKind::Eog, usize::MAX);
        assert!(reached.contains(&l), "infinite loop must cycle");
    }

    #[test]
    fn nested_mapping_types() {
        let c = cpg(
            "contract C { mapping(address => mapping(address => uint)) allowance; \
             function a(address s, uint v) public { allowance[msg.sender][s] = v; } }",
        );
        let field = c
            .graph
            .nodes_of_kind(NodeKind::FieldDeclaration)
            .find(|n| c.graph.node(*n).props.local_name == "allowance")
            .unwrap();
        assert!(c
            .graph
            .node(field)
            .props
            .ty
            .as_deref()
            .unwrap()
            .starts_with("mapping(address=>mapping"));
        // The write through the double subscript flows into the field.
        let v_param = c
            .graph
            .nodes_of_kind(NodeKind::ParamVariableDeclaration)
            .find(|n| c.graph.node(*n).props.local_name == "v")
            .unwrap();
        assert!(c.graph.dfg_reaches(v_param, field));
    }

    #[test]
    fn interface_functions_have_no_bodies_or_eog() {
        let c = cpg(
            "interface I { function t(address to, uint v) external returns (bool); }",
        );
        let f = c.graph.nodes_of_kind(NodeKind::FunctionDeclaration).next().unwrap();
        assert!(c.graph.ast_child(f, AstRole::Body).is_none());
        assert!(c.graph.out_kind(f, EdgeKind::Eog).next().is_none());
    }

    #[test]
    fn unresolved_call_has_no_invokes_edge() {
        let c = cpg("function f(address t) public { IThing(t).poke(); }");
        for call in c.graph.nodes_of_kind(NodeKind::CallExpression) {
            assert!(c.graph.out_kind(call, EdgeKind::Invokes).next().is_none());
        }
    }
}
