//! Abstract syntax tree for (possibly incomplete) Solidity sources.
//!
//! The tree is deliberately permissive: every hierarchy level of the language
//! may appear at the top level of a [`SourceUnit`], names may be missing
//! (default functions), and elided code is represented by explicit
//! placeholder nodes. This mirrors the grammar modifications of §4.1.

use crate::span::Span;
use intern::{LineIndex, Symbol};
use std::sync::Arc;

/// A parsed source unit: a full file, a bare function, or a pile of
/// statements, depending on what the snippet contained.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceUnit {
    /// Top-level items in source order.
    pub items: Vec<SourceItem>,
    /// Newline index of the source this unit was parsed from. Spans carry
    /// only byte offsets; diagnostics and findings resolve them to 1-based
    /// line/column through this shared index.
    pub line_index: Arc<LineIndex>,
}

impl SourceUnit {
    /// The 1-based line of a span's start (0 for synthesized dummy spans),
    /// resolved against the source this unit was parsed from.
    pub fn line_of(&self, span: Span) -> u32 {
        if span.is_dummy() {
            0
        } else {
            self.line_index.line_of(span.start)
        }
    }
}

/// Anything that can appear at the top level of a (snippet) source unit.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceItem {
    /// `pragma solidity ^0.8.0;`
    Pragma(Pragma),
    /// `import "...";` (the path only; symbol aliases are not modelled).
    Import(Symbol),
    /// A contract, interface or library definition.
    Contract(ContractDef),
    /// A free-standing function definition (unnested snippet).
    Function(FunctionDef),
    /// A free-standing modifier definition (unnested snippet).
    Modifier(ModifierDef),
    /// A free-standing struct definition.
    Struct(StructDef),
    /// A free-standing enum definition.
    Enum(EnumDef),
    /// A free-standing event declaration.
    Event(EventDef),
    /// A free-standing custom error declaration.
    ErrorDef(ErrorDef),
    /// A state-variable-looking declaration at the top level.
    Variable(StateVarDecl),
    /// `using SafeMath for uint256;`
    UsingFor(UsingFor),
    /// A bare statement (unnested snippet).
    Statement(Statement),
}

/// `pragma <name> <value>;`
#[derive(Debug, Clone, PartialEq)]
pub struct Pragma {
    /// Pragma name, usually `solidity`.
    pub name: Symbol,
    /// Raw value text, e.g. `^0.8.0`.
    pub value: Symbol,
    /// Source location.
    pub span: Span,
}

/// Kind of a contract-like definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContractKind {
    /// `contract`
    Contract,
    /// `interface`
    Interface,
    /// `library`
    Library,
    /// `abstract contract`
    AbstractContract,
}

impl ContractKind {
    /// Keyword text of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ContractKind::Contract => "contract",
            ContractKind::Interface => "interface",
            ContractKind::Library => "library",
            ContractKind::AbstractContract => "abstract contract",
        }
    }
}

/// A contract, interface or library definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ContractDef {
    /// Contract kind.
    pub kind: ContractKind,
    /// Declared name.
    pub name: Symbol,
    /// Base contracts from the `is` clause, with optional constructor args.
    pub bases: Vec<InheritanceSpecifier>,
    /// Body members in source order.
    pub parts: Vec<ContractPart>,
    /// Source location.
    pub span: Span,
}

/// One entry of an `is` clause: base name plus optional constructor args.
#[derive(Debug, Clone, PartialEq)]
pub struct InheritanceSpecifier {
    /// Possibly qualified base name (`A.B` is stored joined with `.`).
    pub name: Symbol,
    /// Constructor arguments, if given inline.
    pub args: Vec<Expr>,
}

/// A member of a contract body.
#[derive(Debug, Clone, PartialEq)]
pub enum ContractPart {
    /// State variable declaration.
    Variable(StateVarDecl),
    /// Function, constructor, fallback or receive definition.
    Function(FunctionDef),
    /// Modifier definition.
    Modifier(ModifierDef),
    /// Struct definition.
    Struct(StructDef),
    /// Enum definition.
    Enum(EnumDef),
    /// Event declaration.
    Event(EventDef),
    /// Custom error declaration.
    ErrorDef(ErrorDef),
    /// `using X for Y;`
    UsingFor(UsingFor),
    /// `...` placeholder standing in for elided members.
    Placeholder(Span),
}

/// Kind of a function-like definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionKind {
    /// A named (or unnamed legacy default) function.
    Function,
    /// `constructor(...)` or the legacy `function ContractName(...)` form —
    /// the parser only produces this for the keyword form; the CPG pass
    /// upgrades legacy constructors during translation.
    Constructor,
    /// `fallback()` or the legacy unnamed `function()`.
    Fallback,
    /// `receive()`.
    Receive,
}

/// Visibility of functions and state variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Visibility {
    /// `public`
    Public,
    /// `private`
    Private,
    /// `internal`
    Internal,
    /// `external`
    External,
}

impl Visibility {
    /// Keyword text.
    pub fn as_str(self) -> &'static str {
        match self {
            Visibility::Public => "public",
            Visibility::Private => "private",
            Visibility::Internal => "internal",
            Visibility::External => "external",
        }
    }
}

/// State mutability of a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutability {
    /// `pure`
    Pure,
    /// `view`
    View,
    /// `payable`
    Payable,
    /// legacy `constant`
    Constant,
}

impl Mutability {
    /// Keyword text.
    pub fn as_str(self) -> &'static str {
        match self {
            Mutability::Pure => "pure",
            Mutability::View => "view",
            Mutability::Payable => "payable",
            Mutability::Constant => "constant",
        }
    }
}

/// Data location of a parameter or local variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Storage {
    /// `memory`
    Memory,
    /// `storage`
    Storage,
    /// `calldata`
    Calldata,
}

impl Storage {
    /// Keyword text.
    pub fn as_str(self) -> &'static str {
        match self {
            Storage::Memory => "memory",
            Storage::Storage => "storage",
            Storage::Calldata => "calldata",
        }
    }
}

/// A function, constructor, fallback or receive definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// What kind of function this is.
    pub kind: FunctionKind,
    /// Name; `None` for constructors, fallback/receive and the legacy
    /// unnamed default function `function() {...}`.
    pub name: Option<Symbol>,
    /// Declared parameters.
    pub params: Vec<Param>,
    /// Return parameters from the `returns (...)` clause.
    pub returns: Vec<Param>,
    /// Declared visibility, if any.
    pub visibility: Option<Visibility>,
    /// Declared mutability, if any.
    pub mutability: Option<Mutability>,
    /// `virtual` flag.
    pub is_virtual: bool,
    /// `override` flag.
    pub is_override: bool,
    /// Applied modifiers / base-constructor invocations, in order.
    pub modifiers: Vec<ModifierInvocation>,
    /// Body; `None` for declarations ending in `;` (interfaces, abstracts).
    pub body: Option<Block>,
    /// Source location.
    pub span: Span,
}

impl FunctionDef {
    /// Whether this is the default function of a pre-0.6 contract or a
    /// fallback/receive function — i.e. the function invoked when a call
    /// names no function. Relevant for the Default Proxy Delegate query.
    pub fn is_default_function(&self) -> bool {
        matches!(self.kind, FunctionKind::Fallback | FunctionKind::Receive)
            || (self.kind == FunctionKind::Function && self.name.is_none())
    }
}

/// One `Modifier(args)` or bare `Modifier` in a function header.
#[derive(Debug, Clone, PartialEq)]
pub struct ModifierInvocation {
    /// Modifier (or base contract) name.
    pub name: Symbol,
    /// Arguments; empty for bare mentions.
    pub args: Vec<Expr>,
    /// Source location.
    pub span: Span,
}

/// A modifier definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ModifierDef {
    /// Modifier name.
    pub name: Symbol,
    /// Declared parameters.
    pub params: Vec<Param>,
    /// Body containing `_;` placeholders.
    pub body: Option<Block>,
    /// Source location.
    pub span: Span,
}

/// A function/event/error/modifier parameter or return slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Declared type.
    pub ty: TypeName,
    /// Data location, if given.
    pub storage: Option<Storage>,
    /// Name; anonymous slots have `None`.
    pub name: Option<Symbol>,
    /// `indexed` flag (events only).
    pub indexed: bool,
    /// Source location.
    pub span: Span,
}

/// A state variable declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVarDecl {
    /// Declared type.
    pub ty: TypeName,
    /// Visibility, if declared.
    pub visibility: Option<Visibility>,
    /// `constant` flag.
    pub is_constant: bool,
    /// `immutable` flag.
    pub is_immutable: bool,
    /// Variable name.
    pub name: Symbol,
    /// Initializer expression, if any.
    pub initializer: Option<Expr>,
    /// Source location.
    pub span: Span,
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// Struct name.
    pub name: Symbol,
    /// Member fields.
    pub fields: Vec<Param>,
    /// Source location.
    pub span: Span,
}

/// An enum definition.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumDef {
    /// Enum name.
    pub name: Symbol,
    /// Variant names.
    pub variants: Vec<Symbol>,
    /// Source location.
    pub span: Span,
}

/// An event declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct EventDef {
    /// Event name.
    pub name: Symbol,
    /// Event parameters.
    pub params: Vec<Param>,
    /// `anonymous` flag.
    pub anonymous: bool,
    /// Source location.
    pub span: Span,
}

/// A custom error declaration (`error NotOwner(address caller);`).
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorDef {
    /// Error name.
    pub name: Symbol,
    /// Error parameters.
    pub params: Vec<Param>,
    /// Source location.
    pub span: Span,
}

/// `using <library> for <type>;`
#[derive(Debug, Clone, PartialEq)]
pub struct UsingFor {
    /// Library name.
    pub library: Symbol,
    /// Target type; `None` for `using X for *`.
    pub target: Option<TypeName>,
    /// Source location.
    pub span: Span,
}

/// A type name.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeName {
    /// An elementary type (`uint256`, `address`, `address payable`, ...).
    Elementary(Symbol),
    /// A user-defined (possibly qualified) type, path joined by `.`.
    UserDefined(Symbol),
    /// `mapping(K => V)`.
    Mapping(Box<TypeName>, Box<TypeName>),
    /// `T[]` or `T[n]` with the optional length expression.
    Array(Box<TypeName>, Option<Box<Expr>>),
    /// A function type (`function(uint) external returns (bool)`),
    /// flattened to its parameter/return types.
    Function {
        /// Parameter types.
        params: Vec<TypeName>,
        /// Return types.
        returns: Vec<TypeName>,
    },
    /// The legacy `var` keyword / unknown type in a snippet.
    Unknown,
}

impl TypeName {
    /// Canonical display name used for normalization and type matching.
    /// Borrowed (no allocation) for every shape except mappings and arrays,
    /// whose composite form is built on demand.
    pub fn canonical(&self) -> std::borrow::Cow<'static, str> {
        match self {
            TypeName::Elementary(s) => std::borrow::Cow::Borrowed(s.as_str()),
            TypeName::UserDefined(s) => std::borrow::Cow::Borrowed(s.as_str()),
            TypeName::Mapping(k, v) => {
                std::borrow::Cow::Owned(format!("mapping({}=>{})", k.canonical(), v.canonical()))
            }
            TypeName::Array(inner, _) => {
                std::borrow::Cow::Owned(format!("{}[]", inner.canonical()))
            }
            TypeName::Function { .. } => std::borrow::Cow::Borrowed("function"),
            TypeName::Unknown => std::borrow::Cow::Borrowed("uint"),
        }
    }

    /// Whether the type is (or decays to) `address`.
    pub fn is_address(&self) -> bool {
        matches!(self, TypeName::Elementary(s) if s.starts_with("address"))
    }

    /// Whether the type is an integer type.
    pub fn is_integer(&self) -> bool {
        matches!(self, TypeName::Elementary(s)
            if s.starts_with("uint") || s.starts_with("int"))
    }

    /// Whether the type is a mapping or a dynamic array — i.e. a collection.
    pub fn is_collection(&self) -> bool {
        matches!(self, TypeName::Mapping(..) | TypeName::Array(..))
    }
}

/// A block of statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Statements in order.
    pub statements: Vec<Statement>,
    /// Source location.
    pub span: Span,
}

/// A statement with its source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// The statement proper.
    pub kind: StatementKind,
    /// Source location.
    pub span: Span,
}

/// One local declaration slot inside a variable-declaration statement.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDeclPart {
    /// Declared type; `None` inside tuple destructuring with `var`.
    pub ty: Option<TypeName>,
    /// Data location.
    pub storage: Option<Storage>,
    /// Variable name.
    pub name: Symbol,
    /// Source location.
    pub span: Span,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementKind {
    /// `{ ... }`
    Block(Block),
    /// `if (cond) then else alt`
    If {
        /// Branch condition.
        cond: Expr,
        /// Then branch.
        then: Box<Statement>,
        /// Else branch, if present.
        alt: Option<Box<Statement>>,
    },
    /// `while (cond) body`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Box<Statement>,
    },
    /// `do body while (cond);`
    DoWhile {
        /// Loop body.
        body: Box<Statement>,
        /// Loop condition.
        cond: Expr,
    },
    /// `for (init; cond; update) body`
    For {
        /// Initializer; `None` when omitted.
        init: Option<Box<Statement>>,
        /// Condition; `None` when omitted.
        cond: Option<Expr>,
        /// Update expression; `None` when omitted.
        update: Option<Expr>,
        /// Loop body.
        body: Box<Statement>,
    },
    /// A bare expression statement.
    Expression(Expr),
    /// `uint x = 1;` or `(uint a, uint b) = f();`
    VariableDecl {
        /// Declared slots (one for simple, many for tuple form).
        parts: Vec<VarDeclPart>,
        /// Initializer, if any.
        value: Option<Expr>,
    },
    /// `return expr;`
    Return(Option<Expr>),
    /// `emit Event(args);` — the call expression.
    Emit(Expr),
    /// `revert()` / `revert CustomError(...)` as a statement.
    Revert(Option<Expr>),
    /// legacy `throw;`
    Throw,
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `_;` inside a modifier body — the function-body placeholder.
    ModifierPlaceholder,
    /// `...` — elided code in a snippet.
    Ellipsis,
    /// `unchecked { ... }`
    Unchecked(Block),
    /// `assembly { ... }` — body kept as raw text, not analyzed (§4.5).
    Assembly(String),
    /// `try expr returns (...) { } catch { }` — simplified: the guarded
    /// expression and the flattened handler blocks.
    Try {
        /// Guarded external call expression.
        expr: Expr,
        /// Success block.
        success: Block,
        /// Catch blocks.
        catches: Vec<Block>,
    },
}

/// An expression with its source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression proper.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `**`
    Pow,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
}

impl BinOp {
    /// Operator text.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Pow => "**",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
        }
    }

    /// Whether this operator can arithmetically over- or underflow.
    pub fn can_overflow(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Pow)
    }

    /// Whether this operator is a comparison.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge
        )
    }
}

/// Assignment operators (`=`, `+=`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    AddAssign,
    /// `-=`
    SubAssign,
    /// `*=`
    MulAssign,
    /// `/=`
    DivAssign,
    /// `%=`
    ModAssign,
    /// `|=`
    OrAssign,
    /// `&=`
    AndAssign,
    /// `^=`
    XorAssign,
    /// `<<=`
    ShlAssign,
    /// `>>=`
    ShrAssign,
}

impl AssignOp {
    /// Operator text.
    pub fn as_str(self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::AddAssign => "+=",
            AssignOp::SubAssign => "-=",
            AssignOp::MulAssign => "*=",
            AssignOp::DivAssign => "/=",
            AssignOp::ModAssign => "%=",
            AssignOp::OrAssign => "|=",
            AssignOp::AndAssign => "&=",
            AssignOp::XorAssign => "^=",
            AssignOp::ShlAssign => "<<=",
            AssignOp::ShrAssign => ">>=",
        }
    }

    /// Whether the compound form can arithmetically over- or underflow.
    pub fn can_overflow(self) -> bool {
        matches!(
            self,
            AssignOp::AddAssign | AssignOp::SubAssign | AssignOp::MulAssign
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `!`
    Not,
    /// `-`
    Neg,
    /// `~`
    BitNot,
    /// `++`
    Inc,
    /// `--`
    Dec,
    /// `delete`
    Delete,
}

impl UnOp {
    /// Operator text.
    pub fn as_str(self) -> &'static str {
        match self {
            UnOp::Not => "!",
            UnOp::Neg => "-",
            UnOp::BitNot => "~",
            UnOp::Inc => "++",
            UnOp::Dec => "--",
            UnOp::Delete => "delete",
        }
    }
}

/// Literal values.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// Numeric literal with an optional unit suffix (`1 ether`, `30 days`).
    Number {
        /// Digits as written (underscores removed).
        value: Symbol,
        /// Denomination or time unit, if present.
        unit: Option<Symbol>,
    },
    /// String literal.
    Str(Symbol),
    /// `true` / `false`.
    Bool(bool),
    /// `hex"..."` literal.
    Hex(Symbol),
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// `lhs op rhs`
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `lhs op= rhs`
    Assign {
        /// Operator.
        op: AssignOp,
        /// Assignment target.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
    },
    /// Prefix or postfix unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Whether the operator is prefix (`++x`) or postfix (`x++`).
        prefix: bool,
        /// Operand.
        operand: Box<Expr>,
    },
    /// `cond ? then : alt`
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value if true.
        then: Box<Expr>,
        /// Value if false.
        alt: Box<Expr>,
    },
    /// A call `callee{value: v, gas: g}(args)`; the option block is the
    /// paper's `SpecifiedExpression` (§4.2.1).
    Call {
        /// Called expression.
        callee: Box<Expr>,
        /// `{value: .., gas: ..}` options in source order.
        options: Vec<(Symbol, Expr)>,
        /// Positional arguments.
        args: Vec<Expr>,
        /// Argument names for `f({a: 1, b: 2})` named-call syntax, parallel
        /// to `args`; empty for positional calls.
        arg_names: Vec<Symbol>,
    },
    /// `base.member`
    Member {
        /// Base expression.
        base: Box<Expr>,
        /// Member name.
        member: Symbol,
    },
    /// `base[index]`; `index` may be `None` for array type expressions.
    Index {
        /// Base expression.
        base: Box<Expr>,
        /// Index expression.
        index: Option<Box<Expr>>,
    },
    /// A plain identifier reference.
    Ident(Symbol),
    /// A literal.
    Literal(Lit),
    /// `(a, b)` tuple expression, entries may be empty (`(, b)`).
    Tuple(Vec<Option<Expr>>),
    /// `new ContractOrArray`
    New(TypeName),
    /// An elementary type used as an expression, e.g. `address(this)`,
    /// `uint(x)`, `payable(msg.sender)`.
    ElementaryType(Symbol),
    /// `...` placeholder in expression position.
    Ellipsis,
}

impl Expr {
    /// Canonical source form, resolved via the pretty printer. This is what
    /// is stored in the CPG `code` property that queries match against
    /// (e.g. `code = 'msg.sender'`).
    pub fn code(&self) -> String {
        crate::printer::print_expr(self)
    }

    /// [`Expr::code`] as an interned [`Symbol`]. The expression is printed
    /// into a thread-local scratch buffer, so repeated calls on the CPG
    /// build hot path amortize the String allocation away.
    pub fn code_sym(&self) -> Symbol {
        // Leaf fast paths: the printed form of these is a symbol the AST
        // already holds, so skip the print-and-rehash round trip entirely.
        match &self.kind {
            ExprKind::Ident(name) | ExprKind::ElementaryType(name) => return *name,
            ExprKind::Literal(Lit::Number { value, unit: None }) => return *value,
            ExprKind::Literal(Lit::Bool(b)) => {
                return if *b { intern::sym::TRUE } else { intern::sym::FALSE }
            }
            _ => {}
        }
        thread_local! {
            static SCRATCH: std::cell::RefCell<String> =
                const { std::cell::RefCell::new(String::new()) };
        }
        SCRATCH.with(|s| {
            let mut buf = s.borrow_mut();
            buf.clear();
            crate::printer::print_expr_into(self, &mut buf);
            Symbol::intern(&buf)
        })
    }

    /// The rightmost name of the expression: for `a.b.c` this is `c`, for a
    /// call it is the callee's local name. Mirrors the CPG `localName`.
    pub fn local_name(&self) -> Option<Symbol> {
        match &self.kind {
            ExprKind::Ident(name) => Some(*name),
            ExprKind::Member { member, .. } => Some(*member),
            ExprKind::Call { callee, .. } => callee.local_name(),
            ExprKind::Index { base, .. } => base.local_name(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(name: &str) -> Expr {
        Expr { kind: ExprKind::Ident(name.into()), span: Span::DUMMY }
    }

    #[test]
    fn local_name_of_member_chain() {
        let e = Expr {
            kind: ExprKind::Member {
                base: Box::new(Expr {
                    kind: ExprKind::Member {
                        base: Box::new(ident("a")),
                        member: "b".into(),
                    },
                    span: Span::DUMMY,
                }),
                member: "c".into(),
            },
            span: Span::DUMMY,
        };
        assert_eq!(e.local_name(), Some(Symbol::intern("c")));
    }

    #[test]
    fn local_name_of_call() {
        let e = Expr {
            kind: ExprKind::Call {
                callee: Box::new(Expr {
                    kind: ExprKind::Member {
                        base: Box::new(ident("lib")),
                        member: "delegatecall".into(),
                    },
                    span: Span::DUMMY,
                }),
                options: vec![],
                args: vec![],
                arg_names: vec![],
            },
            span: Span::DUMMY,
        };
        assert_eq!(e.local_name(), Some(Symbol::intern("delegatecall")));
    }

    #[test]
    fn type_predicates() {
        assert!(TypeName::Elementary("uint256".into()).is_integer());
        assert!(TypeName::Elementary("address payable".into()).is_address());
        assert!(TypeName::Mapping(
            Box::new(TypeName::Elementary("address".into())),
            Box::new(TypeName::Elementary("uint".into()))
        )
        .is_collection());
        assert_eq!(TypeName::Unknown.canonical(), "uint");
    }

    #[test]
    fn overflow_ops() {
        assert!(BinOp::Add.can_overflow());
        assert!(!BinOp::Div.can_overflow());
        assert!(AssignOp::SubAssign.can_overflow());
        assert!(!AssignOp::Assign.can_overflow());
    }
}
