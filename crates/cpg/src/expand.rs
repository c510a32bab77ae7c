//! Modifier expansion (§4.2.2 of the paper).
//!
//! When a modifier is used in a function header, the code of the function is
//! wrapped into the modifier body at every `_;` placeholder. Expansion
//! happens on the AST before translation, creating copies of the modifier
//! code per application. Modifiers cannot be nested inside each other, and
//! functions use few modifiers, so the copy blow-up is bounded in practice.

use intern::Symbol;
use solidity::ast::*;
use solidity::Span;
use std::borrow::Cow;
use intern::FxHashMap;

/// Modifiers actually resolved and inlined into a function body.
static EXPANSIONS: telemetry::Counter = telemetry::Counter::new("cpg.modifier_expansions");

/// Expand all applied modifiers of `function` into its body, resolving
/// modifier names against `modifiers`. Returns the effective body, or `None`
/// when the function has no body.
///
/// Modifiers are applied left-to-right, the leftmost being the outermost
/// wrapper. Unresolvable modifier names (base-constructor invocations or
/// modifiers missing from a snippet) are skipped.
///
/// Modifier parameters are bound by prepending synthetic variable
/// declarations `T param = arg;` — this preserves the data flow from call
/// arguments into the modifier body without needing call semantics.
///
/// The common case — no modifier actually applies — borrows the original
/// body instead of deep-cloning it; only real expansions build an owned
/// copy.
///
/// The map is generic over [`Borrow`]`<ModifierDef>` so callers can hold
/// either owned definitions or `&ModifierDef` borrows of the source unit
/// (the builder does the latter — collecting modifiers then costs map
/// inserts, not deep AST clones).
pub fn expand_modifiers<'f, M: std::borrow::Borrow<ModifierDef>>(
    function: &'f FunctionDef,
    modifiers: &FxHashMap<Symbol, M>,
) -> Option<Cow<'f, Block>> {
    // Chaos hook: expansion is infallible, so an injected *error* at this
    // point escalates to a panic for the isolation layer to catch.
    if let Some(message) = faultinject::fire("cpg/expand") {
        panic!("faultinject: {message}");
    }
    // Timed only when there is something to expand: the no-modifier
    // common case would burn the per-trace span budget on no-ops.
    static STAGE: telemetry::Stage = telemetry::Stage::new("cpg-expand");
    let _stage = (!function.modifiers.is_empty()).then(|| STAGE.enter());
    let mut body = Cow::Borrowed(function.body.as_ref()?);
    // Apply right-to-left so the leftmost modifier ends up outermost.
    for invocation in function.modifiers.iter().rev() {
        let Some(def) = modifiers.get(&invocation.name).map(std::borrow::Borrow::borrow)
        else {
            continue;
        };
        let Some(mod_body) = &def.body else { continue };
        EXPANSIONS.incr();
        let mut wrapped = substitute_placeholder(mod_body, &body);
        // Bind modifier parameters to the invocation arguments.
        let mut prelude: Vec<Statement> = Vec::new();
        for (param, arg) in def.params.iter().zip(&invocation.args) {
            let Some(name) = &param.name else { continue };
            prelude.push(Statement {
                kind: StatementKind::VariableDecl {
                    parts: vec![VarDeclPart {
                        ty: Some(param.ty.clone()),
                        storage: param.storage,
                        name: *name,
                        span: param.span,
                    }],
                    value: Some(arg.clone()),
                },
                span: arg.span,
            });
        }
        if !prelude.is_empty() {
            prelude.append(&mut wrapped.statements);
            wrapped.statements = prelude;
        }
        body = Cow::Owned(wrapped);
    }
    Some(body)
}

/// Replace every `_;` in `template` with a copy of `inner`.
fn substitute_placeholder(template: &Block, inner: &Block) -> Block {
    Block {
        statements: template
            .statements
            .iter()
            .map(|s| substitute_stmt(s, inner))
            .collect(),
        span: template.span,
    }
}

fn substitute_stmt(stmt: &Statement, inner: &Block) -> Statement {
    let kind = match &stmt.kind {
        StatementKind::ModifierPlaceholder => StatementKind::Block(Block {
            statements: inner.statements.clone(),
            span: inner.span,
        }),
        StatementKind::Block(b) => StatementKind::Block(substitute_placeholder(b, inner)),
        StatementKind::Unchecked(b) => {
            StatementKind::Unchecked(substitute_placeholder(b, inner))
        }
        StatementKind::If { cond, then, alt } => StatementKind::If {
            cond: cond.clone(),
            then: Box::new(substitute_stmt(then, inner)),
            alt: alt.as_ref().map(|a| Box::new(substitute_stmt(a, inner))),
        },
        StatementKind::While { cond, body } => StatementKind::While {
            cond: cond.clone(),
            body: Box::new(substitute_stmt(body, inner)),
        },
        StatementKind::DoWhile { body, cond } => StatementKind::DoWhile {
            body: Box::new(substitute_stmt(body, inner)),
            cond: cond.clone(),
        },
        StatementKind::For { init, cond, update, body } => StatementKind::For {
            init: init.clone(),
            cond: cond.clone(),
            update: update.clone(),
            body: Box::new(substitute_stmt(body, inner)),
        },
        StatementKind::Try { expr, success, catches } => StatementKind::Try {
            expr: expr.clone(),
            success: substitute_placeholder(success, inner),
            catches: catches.iter().map(|c| substitute_placeholder(c, inner)).collect(),
        },
        other => other.clone(),
    };
    Statement { kind, span: stmt.span }
}

/// Collect every modifier definition of a source unit, both free-standing
/// (snippets) and nested in contracts, keyed by name. Later definitions win,
/// which is irrelevant in practice since names are unique per study unit.
///
/// The map borrows the unit: collecting is a handful of map inserts, not a
/// deep clone of every modifier body.
pub fn collect_modifiers(unit: &SourceUnit) -> FxHashMap<Symbol, &ModifierDef> {
    let mut map = FxHashMap::default();
    for item in &unit.items {
        match item {
            SourceItem::Modifier(m) => {
                map.insert(m.name, m);
            }
            SourceItem::Contract(c) => {
                for part in &c.parts {
                    if let ContractPart::Modifier(m) = part {
                        map.insert(m.name, m);
                    }
                }
            }
            _ => {}
        }
    }
    map
}

/// A dummy span-carrying helper used by tests.
#[doc(hidden)]
pub fn dummy_span() -> Span {
    Span::DUMMY
}

#[cfg(test)]
mod tests {
    use super::*;
    use solidity::parse_snippet;
    use solidity::printer::print_stmt;

    fn setup(src: &str) -> (FunctionDef, SourceUnit) {
        let unit = parse_snippet(src).unwrap();
        let function = unit
            .items
            .iter()
            .find_map(|i| match i {
                SourceItem::Function(f) => Some(f.clone()),
                SourceItem::Contract(c) => c.parts.iter().find_map(|p| match p {
                    ContractPart::Function(f) if f.kind == FunctionKind::Function => {
                        Some(f.clone())
                    }
                    _ => None,
                }),
                _ => None,
            })
            .expect("function in test source");
        (function, unit)
    }

    #[test]
    fn wraps_body_in_modifier() {
        let (f, unit) = setup(
            "contract C { \
               modifier onlyOwner() { require(msg.sender == owner); _; } \
               function withdraw() public onlyOwner() { msg.sender.transfer(1); } }",
        );
        let m = collect_modifiers(&unit);
        let body = expand_modifiers(&f, &m).unwrap();
        // First statement is the require, second is the wrapped inner block.
        assert_eq!(body.statements.len(), 2);
        let printed = print_stmt(&body.statements[0]);
        assert!(printed.contains("require"), "got {printed}");
        assert!(matches!(body.statements[1].kind, StatementKind::Block(_)));
    }

    #[test]
    fn post_condition_modifiers_keep_order() {
        let (f, unit) = setup(
            "contract C { \
               modifier checked() { _; require(invariant()); } \
               function f() public checked() { x = 1; } }",
        );
        let m = collect_modifiers(&unit);
        let body = expand_modifiers(&f, &m).unwrap();
        assert!(matches!(body.statements[0].kind, StatementKind::Block(_)));
        assert!(print_stmt(&body.statements[1]).contains("require"));
    }

    #[test]
    fn multiple_modifiers_leftmost_outermost() {
        let (f, unit) = setup(
            "contract C { \
               modifier a() { pre_a(); _; } \
               modifier b() { pre_b(); _; } \
               function f() public a() b() { work(); } }",
        );
        let m = collect_modifiers(&unit);
        let body = expand_modifiers(&f, &m).unwrap();
        // Outermost is `a`: pre_a(); { pre_b(); { work(); } }
        assert!(print_stmt(&body.statements[0]).contains("pre_a"));
        let StatementKind::Block(inner) = &body.statements[1].kind else { panic!() };
        assert!(print_stmt(&inner.statements[0]).contains("pre_b"));
    }

    #[test]
    fn modifier_arguments_are_bound() {
        let (f, unit) = setup(
            "contract C { \
               modifier costs(uint price) { require(msg.value >= price); _; } \
               function buy() public costs(100) { sold += 1; } }",
        );
        let m = collect_modifiers(&unit);
        let body = expand_modifiers(&f, &m).unwrap();
        // Prelude declaration `uint price = 100;` comes first.
        let StatementKind::VariableDecl { parts, value } = &body.statements[0].kind else {
            panic!("expected prelude declaration")
        };
        assert_eq!(parts[0].name, "price");
        assert!(value.is_some());
    }

    #[test]
    fn unknown_modifiers_are_skipped() {
        let (f, unit) = setup(
            "contract C is Base { function f() public Base(1) { x = 2; } }",
        );
        let m = collect_modifiers(&unit);
        let body = expand_modifiers(&f, &m).unwrap();
        assert_eq!(body.statements.len(), 1);
    }

    #[test]
    fn bodyless_function_yields_none() {
        let unit = parse_snippet("contract C { function f() external; }").unwrap();
        let SourceItem::Contract(c) = &unit.items[0] else { panic!() };
        let ContractPart::Function(f) = &c.parts[0] else { panic!() };
        assert!(expand_modifiers(f, &FxHashMap::<Symbol, &ModifierDef>::default()).is_none());
    }

    #[test]
    fn placeholder_inside_branch_is_substituted() {
        let (f, unit) = setup(
            "contract C { \
               modifier gated() { if (open) { _; } else { revert(); } } \
               function f() public gated() { x = 1; } }",
        );
        let m = collect_modifiers(&unit);
        let body = expand_modifiers(&f, &m).unwrap();
        let StatementKind::If { then, .. } = &body.statements[0].kind else { panic!() };
        let StatementKind::Block(tb) = &then.kind else { panic!() };
        assert!(matches!(tb.statements[0].kind, StatementKind::Block(_)));
    }
}
