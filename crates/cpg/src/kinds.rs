//! Node and edge kinds of the code property graph.
//!
//! The vocabulary mirrors the node labels and relationship types of the CPG
//! library the paper builds on (and that its Appendix B Cypher queries match
//! against): `FunctionDeclaration`, `FieldDeclaration`, `CallExpression`,
//! `BinaryOperator`, ..., connected by `AST`-role edges (`LHS`, `ARGUMENTS`,
//! `BODY`, ...), `EOG` evaluation-order edges, `DFG` data-flow edges,
//! `REFERS_TO` reference-resolution edges and `INVOKES`/`RETURNS`
//! inter-procedural edges.


/// Node labels. Names follow the upstream CPG library so the queries of the
/// paper's Appendix B map one-to-one onto this graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKind {
    /// Root of one translated source unit.
    TranslationUnit,
    /// A contract, interface, library or struct (`kind` property tells which).
    RecordDeclaration,
    /// A state variable / struct member.
    FieldDeclaration,
    /// A function.
    FunctionDeclaration,
    /// A constructor (also labelled `FunctionDeclaration` in queries; use
    /// [`NodeKind::is_function_like`]).
    ConstructorDeclaration,
    /// A modifier declaration (kept for provenance; bodies are expanded).
    ModifierDeclaration,
    /// A function parameter.
    ParamVariableDeclaration,
    /// A local variable.
    VariableDeclaration,
    /// An enum declaration.
    EnumDeclaration,
    /// An event declaration.
    EventDeclaration,
    /// A reference to a declared name.
    DeclaredReferenceExpression,
    /// `base.member` access.
    MemberExpression,
    /// `base[index]` access.
    SubscriptExpression,
    /// A call (including `require`, `transfer`, `delegatecall`, ...).
    CallExpression,
    /// `new C(...)` / `new uint ` allocation.
    NewExpression,
    /// A binary or assignment operation (`operatorCode` property).
    BinaryOperator,
    /// A unary operation (`operatorCode` property).
    UnaryOperator,
    /// A literal (`value` property).
    Literal,
    /// A `(a, b)` tuple / inline array expression.
    TupleExpression,
    /// A ternary `cond ? a : b` expression.
    ConditionalExpression,
    /// An elementary-type cast expression (`address(x)`).
    CastExpression,
    /// The `{value: .., gas: ..}` option block of a call (§4.2.1).
    SpecifiedExpression,
    /// One `key: value` entry of a [`NodeKind::SpecifiedExpression`].
    KeyValueExpression,
    /// A block of statements.
    Block,
    /// An `if` statement.
    IfStatement,
    /// A `while` loop.
    WhileStatement,
    /// A `do`-`while` loop.
    DoStatement,
    /// A `for` loop.
    ForStatement,
    /// A `for`-each loop (not produced by Solidity, kept for query parity).
    ForEachStatement,
    /// A `return` statement.
    ReturnStatement,
    /// A `break` statement.
    BreakStatement,
    /// A `continue` statement.
    ContinueStatement,
    /// An `emit` statement persisting an event (§4.2.1).
    EmitStatement,
    /// Transaction-reverting program termination (§4.2.1): `revert`,
    /// `throw`, failing `require`/`assert`, `selfdestruct` target of DoS.
    Rollback,
    /// An `assembly { ... }` block, kept opaque (§4.5).
    AssemblyBlock,
    /// A `try`/`catch` statement.
    TryStatement,
    /// `...` — elided code in a snippet.
    PlaceholderStatement,
    /// An `unchecked { ... }` block (arithmetic wrapping allowed).
    UncheckedBlock,
}

impl NodeKind {
    /// Label string as it appears in queries.
    pub fn label(self) -> &'static str {
        match self {
            NodeKind::TranslationUnit => "TranslationUnit",
            NodeKind::RecordDeclaration => "RecordDeclaration",
            NodeKind::FieldDeclaration => "FieldDeclaration",
            NodeKind::FunctionDeclaration => "FunctionDeclaration",
            NodeKind::ConstructorDeclaration => "ConstructorDeclaration",
            NodeKind::ModifierDeclaration => "ModifierDeclaration",
            NodeKind::ParamVariableDeclaration => "ParamVariableDeclaration",
            NodeKind::VariableDeclaration => "VariableDeclaration",
            NodeKind::EnumDeclaration => "EnumDeclaration",
            NodeKind::EventDeclaration => "EventDeclaration",
            NodeKind::DeclaredReferenceExpression => "DeclaredReferenceExpression",
            NodeKind::MemberExpression => "MemberExpression",
            NodeKind::SubscriptExpression => "SubscriptExpression",
            NodeKind::CallExpression => "CallExpression",
            NodeKind::NewExpression => "NewExpression",
            NodeKind::BinaryOperator => "BinaryOperator",
            NodeKind::UnaryOperator => "UnaryOperator",
            NodeKind::Literal => "Literal",
            NodeKind::TupleExpression => "TupleExpression",
            NodeKind::ConditionalExpression => "ConditionalExpression",
            NodeKind::CastExpression => "CastExpression",
            NodeKind::SpecifiedExpression => "SpecifiedExpression",
            NodeKind::KeyValueExpression => "KeyValueExpression",
            NodeKind::Block => "Block",
            NodeKind::IfStatement => "IfStatement",
            NodeKind::WhileStatement => "WhileStatement",
            NodeKind::DoStatement => "DoStatement",
            NodeKind::ForStatement => "ForStatement",
            NodeKind::ForEachStatement => "ForEachStatement",
            NodeKind::ReturnStatement => "ReturnStatement",
            NodeKind::BreakStatement => "BreakStatement",
            NodeKind::ContinueStatement => "ContinueStatement",
            NodeKind::EmitStatement => "EmitStatement",
            NodeKind::Rollback => "Rollback",
            NodeKind::AssemblyBlock => "AssemblyBlock",
            NodeKind::TryStatement => "TryStatement",
            NodeKind::PlaceholderStatement => "PlaceholderStatement",
            NodeKind::UncheckedBlock => "UncheckedBlock",
        }
    }

    /// Parse a label string back into a kind (used by the query engine).
    pub fn from_label(label: &str) -> Option<NodeKind> {
        ALL_KINDS.iter().copied().find(|k| k.label() == label)
    }

    /// Whether the node is a function or constructor declaration.
    pub fn is_function_like(self) -> bool {
        matches!(
            self,
            NodeKind::FunctionDeclaration | NodeKind::ConstructorDeclaration
        )
    }

    /// Whether the node is a declaration that data can flow out of / into.
    pub fn is_declaration(self) -> bool {
        matches!(
            self,
            NodeKind::FieldDeclaration
                | NodeKind::ParamVariableDeclaration
                | NodeKind::VariableDeclaration
        )
    }

    /// Whether the node is a loop statement.
    pub fn is_loop(self) -> bool {
        matches!(
            self,
            NodeKind::WhileStatement
                | NodeKind::DoStatement
                | NodeKind::ForStatement
                | NodeKind::ForEachStatement
        )
    }
}

/// Every node kind in declaration order (`ALL_KINDS[kind as usize] ==
/// kind`), for iteration, label lookup and per-kind tallies.
pub const ALL_KINDS: &[NodeKind] = &[
    NodeKind::TranslationUnit,
    NodeKind::RecordDeclaration,
    NodeKind::FieldDeclaration,
    NodeKind::FunctionDeclaration,
    NodeKind::ConstructorDeclaration,
    NodeKind::ModifierDeclaration,
    NodeKind::ParamVariableDeclaration,
    NodeKind::VariableDeclaration,
    NodeKind::EnumDeclaration,
    NodeKind::EventDeclaration,
    NodeKind::DeclaredReferenceExpression,
    NodeKind::MemberExpression,
    NodeKind::SubscriptExpression,
    NodeKind::CallExpression,
    NodeKind::NewExpression,
    NodeKind::BinaryOperator,
    NodeKind::UnaryOperator,
    NodeKind::Literal,
    NodeKind::TupleExpression,
    NodeKind::ConditionalExpression,
    NodeKind::CastExpression,
    NodeKind::SpecifiedExpression,
    NodeKind::KeyValueExpression,
    NodeKind::Block,
    NodeKind::IfStatement,
    NodeKind::WhileStatement,
    NodeKind::DoStatement,
    NodeKind::ForStatement,
    NodeKind::ForEachStatement,
    NodeKind::ReturnStatement,
    NodeKind::BreakStatement,
    NodeKind::ContinueStatement,
    NodeKind::EmitStatement,
    NodeKind::Rollback,
    NodeKind::AssemblyBlock,
    NodeKind::TryStatement,
    NodeKind::PlaceholderStatement,
    NodeKind::UncheckedBlock,
];

/// Roles of syntax (`AST`) edges — the child's grammatical position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AstRole {
    /// Generic child.
    Child,
    /// Record member / translation-unit declaration.
    Declarations,
    /// Field of a record.
    Fields,
    /// Method of a record.
    Methods,
    /// Constructor of a record.
    Constructors,
    /// Parameter of a function.
    Parameters,
    /// Function body.
    Body,
    /// Return parameter slot.
    ReturnTypes,
    /// Left-hand side of a binary/assignment operator.
    Lhs,
    /// Right-hand side of a binary/assignment operator.
    Rhs,
    /// Operand of a unary operator.
    Input,
    /// Condition of a branch or loop.
    Condition,
    /// Then-branch of an `if`.
    Then,
    /// Else-branch of an `if`.
    Else,
    /// Initializer of a declaration or `for` statement.
    Initializer,
    /// Update expression of a `for` statement.
    Update,
    /// Callee of a call.
    Callee,
    /// Base of a member/subscript expression or method call.
    Base,
    /// Argument of a call.
    Arguments,
    /// The subscript (index) expression of an array access.
    SubscriptExpression,
    /// The array expression of an array access.
    ArrayExpression,
    /// The `{value: ..}` option block of a call.
    Specifiers,
    /// Key of a key-value expression.
    Key,
    /// Value of a key-value expression or returned expression.
    Value,
    /// Statements of a block.
    Statements,
}

impl AstRole {
    /// Relationship-type string as used in queries (`LHS`, `ARGUMENTS`, ...).
    pub fn label(self) -> &'static str {
        match self {
            AstRole::Child => "CHILD",
            AstRole::Declarations => "DECLARATIONS",
            AstRole::Fields => "FIELDS",
            AstRole::Methods => "METHODS",
            AstRole::Constructors => "CONSTRUCTORS",
            AstRole::Parameters => "PARAMETERS",
            AstRole::Body => "BODY",
            AstRole::ReturnTypes => "RETURN_TYPES",
            AstRole::Lhs => "LHS",
            AstRole::Rhs => "RHS",
            AstRole::Input => "INPUT",
            AstRole::Condition => "CONDITION",
            AstRole::Then => "THEN",
            AstRole::Else => "ELSE",
            AstRole::Initializer => "INITIALIZER",
            AstRole::Update => "UPDATE",
            AstRole::Callee => "CALLEE",
            AstRole::Base => "BASE",
            AstRole::Arguments => "ARGUMENTS",
            AstRole::SubscriptExpression => "SUBSCRIPT_EXPRESSION",
            AstRole::ArrayExpression => "ARRAY_EXPRESSION",
            AstRole::Specifiers => "SPECIFIERS",
            AstRole::Key => "KEY",
            AstRole::Value => "VALUE",
            AstRole::Statements => "STATEMENTS",
        }
    }
}

/// Edge kinds of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Syntax edge with its grammatical role.
    Ast(AstRole),
    /// Evaluation-order edge (EOG pass).
    Eog,
    /// Data-flow edge (DFG pass).
    Dfg,
    /// Reference → declaration resolution edge.
    RefersTo,
    /// Call site → called function (inter-procedural EOG entry).
    Invokes,
    /// Return statement → call site (inter-procedural EOG exit).
    Returns,
}

impl EdgeKind {
    /// Relationship-type string (`EOG`, `DFG`, `REFERS_TO`, or the AST role).
    pub fn label(self) -> &'static str {
        match self {
            EdgeKind::Ast(role) => role.label(),
            EdgeKind::Eog => "EOG",
            EdgeKind::Dfg => "DFG",
            EdgeKind::RefersTo => "REFERS_TO",
            EdgeKind::Invokes => "INVOKES",
            EdgeKind::Returns => "RETURNS",
        }
    }

    /// Whether this is a syntax edge of any role.
    pub fn is_ast(self) -> bool {
        matches!(self, EdgeKind::Ast(_))
    }

    /// Parse a relationship-type string; `AST` matches any syntax role and is
    /// returned as [`AstRole::Child`] — use [`EdgeKind::is_ast`] when matching.
    pub fn from_label(label: &str) -> Option<EdgeKind> {
        match label {
            "EOG" => Some(EdgeKind::Eog),
            "DFG" => Some(EdgeKind::Dfg),
            "REFERS_TO" => Some(EdgeKind::RefersTo),
            "INVOKES" => Some(EdgeKind::Invokes),
            "RETURNS" => Some(EdgeKind::Returns),
            "AST" => Some(EdgeKind::Ast(AstRole::Child)),
            other => ALL_ROLES
                .iter()
                .copied()
                .find(|r| r.label() == other)
                .map(EdgeKind::Ast),
        }
    }
}

/// Every AST role, for label lookup.
pub const ALL_ROLES: &[AstRole] = &[
    AstRole::Child,
    AstRole::Declarations,
    AstRole::Fields,
    AstRole::Methods,
    AstRole::Constructors,
    AstRole::Parameters,
    AstRole::Body,
    AstRole::ReturnTypes,
    AstRole::Lhs,
    AstRole::Rhs,
    AstRole::Input,
    AstRole::Condition,
    AstRole::Then,
    AstRole::Else,
    AstRole::Initializer,
    AstRole::Update,
    AstRole::Callee,
    AstRole::Base,
    AstRole::Arguments,
    AstRole::SubscriptExpression,
    AstRole::ArrayExpression,
    AstRole::Specifiers,
    AstRole::Key,
    AstRole::Value,
    AstRole::Statements,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_roundtrip() {
        for (i, kind) in ALL_KINDS.iter().enumerate() {
            assert_eq!(NodeKind::from_label(kind.label()), Some(*kind));
            assert_eq!(*kind as usize, i, "ALL_KINDS follows declaration order");
        }
        for role in ALL_ROLES {
            assert_eq!(
                EdgeKind::from_label(role.label()),
                Some(EdgeKind::Ast(*role))
            );
        }
        assert_eq!(EdgeKind::from_label("DFG"), Some(EdgeKind::Dfg));
        assert_eq!(EdgeKind::from_label("NOPE"), None);
    }

    #[test]
    fn function_like() {
        assert!(NodeKind::ConstructorDeclaration.is_function_like());
        assert!(!NodeKind::ModifierDeclaration.is_function_like());
    }
}
