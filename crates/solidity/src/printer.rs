//! Canonical pretty-printer for the AST.
//!
//! The printer produces a normalized single-space-separated source form. It
//! is used for three purposes:
//!
//! 1. producing the `code` property of CPG nodes that vulnerability queries
//!    match against (e.g. `code = 'msg.sender'`),
//! 2. emitting normalized code for the clone detector (after identifier
//!    renaming, see the `ccd` crate), and
//! 3. round-trip testing the parser (print → reparse → equal shape).

use crate::ast::*;

/// Print a full source unit.
pub fn print_unit(unit: &SourceUnit) -> String {
    let mut out = String::new();
    let mut p = Printer::new(&mut out);
    for item in &unit.items {
        p.item(item);
    }
    out
}

/// Print a single expression in canonical form (`msg.sender`, `a + b`, ...).
pub fn print_expr(expr: &Expr) -> String {
    let mut out = String::new();
    print_expr_into(expr, &mut out);
    out
}

/// Print an expression into an existing buffer (appended, not cleared).
///
/// The CPG builder prints a `code` string for every expression node; going
/// through one reused scratch buffer instead of a fresh `String` per node
/// keeps that loop allocation-free.
pub fn print_expr_into(expr: &Expr, out: &mut String) {
    Printer::new(out).expr(expr);
}

/// Print a single statement in canonical form.
pub fn print_stmt(stmt: &Statement) -> String {
    let mut out = String::new();
    Printer::new(&mut out).stmt(stmt);
    out
}

/// Print a type name.
pub fn print_type(ty: &TypeName) -> String {
    let mut out = String::new();
    print_type_into(ty, &mut out);
    out
}

/// Print a type name into an existing buffer (appended, not cleared).
pub fn print_type_into(ty: &TypeName, out: &mut String) {
    Printer::new(out).ty(ty);
}

/// Print a function definition, including its header and body.
pub fn print_function(f: &FunctionDef) -> String {
    let mut out = String::new();
    Printer::new(&mut out).function(f);
    out
}

struct Printer<'a> {
    out: &'a mut String,
    indent: usize,
}

impl<'a> Printer<'a> {
    fn new(out: &'a mut String) -> Self {
        Printer { out, indent: 0 }
    }

    fn push(&mut self, s: &str) {
        self.out.push_str(s);
    }

    fn nl(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    fn item(&mut self, item: &SourceItem) {
        match item {
            SourceItem::Pragma(p) => {
                self.push(&format!("pragma {} {};", p.name, p.value));
                self.nl();
            }
            SourceItem::Import(path) => {
                self.push(&format!("import \"{path}\";"));
                self.nl();
            }
            SourceItem::Contract(c) => {
                self.contract(c);
                self.nl();
            }
            SourceItem::Function(f) => {
                self.function(f);
                self.nl();
            }
            SourceItem::Modifier(m) => {
                self.modifier(m);
                self.nl();
            }
            SourceItem::Struct(s) => {
                self.struct_def(s);
                self.nl();
            }
            SourceItem::Enum(e) => {
                self.enum_def(e);
                self.nl();
            }
            SourceItem::Event(e) => {
                self.event_def(e);
                self.nl();
            }
            SourceItem::ErrorDef(e) => {
                self.error_def(e);
                self.nl();
            }
            SourceItem::Variable(v) => {
                self.state_var(v);
                self.nl();
            }
            SourceItem::UsingFor(u) => {
                self.using_for(u);
                self.nl();
            }
            SourceItem::Statement(s) => {
                self.stmt(s);
                self.nl();
            }
        }
    }

    fn contract(&mut self, c: &ContractDef) {
        self.push(c.kind.as_str());
        self.push(" ");
        self.push(&c.name);
        if !c.bases.is_empty() {
            self.push(" is ");
            for (i, base) in c.bases.iter().enumerate() {
                if i > 0 {
                    self.push(", ");
                }
                self.push(&base.name);
                if !base.args.is_empty() {
                    self.push("(");
                    self.exprs(&base.args);
                    self.push(")");
                }
            }
        }
        self.push(" {");
        self.indent += 1;
        for part in &c.parts {
            self.nl();
            self.contract_part(part);
        }
        self.indent -= 1;
        self.nl();
        self.push("}");
    }

    fn contract_part(&mut self, part: &ContractPart) {
        match part {
            ContractPart::Variable(v) => self.state_var(v),
            ContractPart::Function(f) => self.function(f),
            ContractPart::Modifier(m) => self.modifier(m),
            ContractPart::Struct(s) => self.struct_def(s),
            ContractPart::Enum(e) => self.enum_def(e),
            ContractPart::Event(e) => self.event_def(e),
            ContractPart::ErrorDef(e) => self.error_def(e),
            ContractPart::UsingFor(u) => self.using_for(u),
            ContractPart::Placeholder(_) => self.push("..."),
        }
    }

    fn state_var(&mut self, v: &StateVarDecl) {
        self.ty(&v.ty);
        if let Some(vis) = v.visibility {
            self.push(" ");
            self.push(vis.as_str());
        }
        if v.is_constant {
            self.push(" constant");
        }
        if v.is_immutable {
            self.push(" immutable");
        }
        self.push(" ");
        self.push(&v.name);
        if let Some(init) = &v.initializer {
            self.push(" = ");
            self.expr(init);
        }
        self.push(";");
    }

    fn function(&mut self, f: &FunctionDef) {
        match f.kind {
            FunctionKind::Constructor => self.push("constructor"),
            FunctionKind::Receive => self.push("receive"),
            FunctionKind::Fallback => self.push("fallback"),
            FunctionKind::Function => {
                self.push("function");
                if let Some(name) = &f.name {
                    self.push(" ");
                    self.push(name);
                }
            }
        }
        self.push("(");
        self.params(&f.params);
        self.push(")");
        if let Some(vis) = f.visibility {
            self.push(" ");
            self.push(vis.as_str());
        }
        if let Some(m) = f.mutability {
            self.push(" ");
            self.push(m.as_str());
        }
        if f.is_virtual {
            self.push(" virtual");
        }
        if f.is_override {
            self.push(" override");
        }
        for m in &f.modifiers {
            self.push(" ");
            self.push(&m.name);
            if !m.args.is_empty() {
                self.push("(");
                self.exprs(&m.args);
                self.push(")");
            }
        }
        if !f.returns.is_empty() {
            self.push(" returns (");
            self.params(&f.returns);
            self.push(")");
        }
        match &f.body {
            Some(body) => {
                self.push(" ");
                self.block(body);
            }
            None => self.push(";"),
        }
    }

    fn modifier(&mut self, m: &ModifierDef) {
        self.push("modifier ");
        self.push(&m.name);
        if !m.params.is_empty() {
            self.push("(");
            self.params(&m.params);
            self.push(")");
        }
        match &m.body {
            Some(body) => {
                self.push(" ");
                self.block(body);
            }
            None => self.push(";"),
        }
    }

    fn struct_def(&mut self, s: &StructDef) {
        self.push("struct ");
        self.push(&s.name);
        self.push(" {");
        self.indent += 1;
        for field in &s.fields {
            self.nl();
            self.param(field);
            self.push(";");
        }
        self.indent -= 1;
        self.nl();
        self.push("}");
    }

    fn enum_def(&mut self, e: &EnumDef) {
        self.push("enum ");
        self.push(&e.name);
        self.push(" { ");
        self.push(&e.variants.join(", "));
        self.push(" }");
    }

    fn event_def(&mut self, e: &EventDef) {
        self.push("event ");
        self.push(&e.name);
        self.push("(");
        self.params(&e.params);
        self.push(")");
        if e.anonymous {
            self.push(" anonymous");
        }
        self.push(";");
    }

    fn error_def(&mut self, e: &ErrorDef) {
        self.push("error ");
        self.push(&e.name);
        self.push("(");
        self.params(&e.params);
        self.push(");");
    }

    fn using_for(&mut self, u: &UsingFor) {
        self.push("using ");
        self.push(&u.library);
        self.push(" for ");
        match &u.target {
            Some(ty) => self.ty(ty),
            None => self.push("*"),
        }
        self.push(";");
    }

    fn params(&mut self, params: &[Param]) {
        for (i, p) in params.iter().enumerate() {
            if i > 0 {
                self.push(", ");
            }
            self.param(p);
        }
    }

    fn param(&mut self, p: &Param) {
        self.ty(&p.ty);
        if p.indexed {
            self.push(" indexed");
        }
        if let Some(storage) = p.storage {
            self.push(" ");
            self.push(storage.as_str());
        }
        if let Some(name) = &p.name {
            self.push(" ");
            self.push(name);
        }
    }

    fn ty(&mut self, ty: &TypeName) {
        match ty {
            TypeName::Elementary(s) | TypeName::UserDefined(s) => self.push(s),
            TypeName::Mapping(k, v) => {
                self.push("mapping(");
                self.ty(k);
                self.push(" => ");
                self.ty(v);
                self.push(")");
            }
            TypeName::Array(inner, len) => {
                self.ty(inner);
                self.push("[");
                if let Some(len) = len {
                    self.expr(len);
                }
                self.push("]");
            }
            TypeName::Function { params, returns } => {
                self.push("function(");
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        self.push(", ");
                    }
                    self.ty(p);
                }
                self.push(")");
                if !returns.is_empty() {
                    self.push(" returns (");
                    for (i, r) in returns.iter().enumerate() {
                        if i > 0 {
                            self.push(", ");
                        }
                        self.ty(r);
                    }
                    self.push(")");
                }
            }
            TypeName::Unknown => self.push("var"),
        }
    }

    fn block(&mut self, b: &Block) {
        self.push("{");
        self.indent += 1;
        for s in &b.statements {
            self.nl();
            self.stmt(s);
        }
        self.indent -= 1;
        self.nl();
        self.push("}");
    }

    fn stmt(&mut self, s: &Statement) {
        match &s.kind {
            StatementKind::Block(b) => self.block(b),
            StatementKind::If { cond, then, alt } => {
                self.push("if (");
                self.expr(cond);
                self.push(") ");
                self.stmt(then);
                if let Some(alt) = alt {
                    self.push(" else ");
                    self.stmt(alt);
                }
            }
            StatementKind::While { cond, body } => {
                self.push("while (");
                self.expr(cond);
                self.push(") ");
                self.stmt(body);
            }
            StatementKind::DoWhile { body, cond } => {
                self.push("do ");
                self.stmt(body);
                self.push(" while (");
                self.expr(cond);
                self.push(");");
            }
            StatementKind::For { init, cond, update, body } => {
                self.push("for (");
                match init {
                    Some(init) => self.stmt_inline(init),
                    None => self.push(";"),
                }
                self.push(" ");
                if let Some(cond) = cond {
                    self.expr(cond);
                }
                self.push("; ");
                if let Some(update) = update {
                    self.expr(update);
                }
                self.push(") ");
                self.stmt(body);
            }
            StatementKind::Expression(e) => {
                self.expr(e);
                self.push(";");
            }
            StatementKind::VariableDecl { parts, value } => {
                if parts.len() > 1 {
                    self.push("(");
                }
                for (i, part) in parts.iter().enumerate() {
                    if i > 0 {
                        self.push(", ");
                    }
                    match &part.ty {
                        Some(ty) => self.ty(ty),
                        None => self.push("var"),
                    }
                    if let Some(storage) = part.storage {
                        self.push(" ");
                        self.push(storage.as_str());
                    }
                    self.push(" ");
                    self.push(&part.name);
                }
                if parts.len() > 1 {
                    self.push(")");
                }
                if let Some(value) = value {
                    self.push(" = ");
                    self.expr(value);
                }
                self.push(";");
            }
            StatementKind::Return(value) => {
                self.push("return");
                if let Some(value) = value {
                    self.push(" ");
                    self.expr(value);
                }
                self.push(";");
            }
            StatementKind::Emit(call) => {
                self.push("emit ");
                self.expr(call);
                self.push(";");
            }
            StatementKind::Revert(arg) => {
                self.push("revert");
                if let Some(arg) = arg {
                    self.push("(");
                    self.expr(arg);
                    self.push(")");
                }
                self.push(";");
            }
            StatementKind::Throw => self.push("throw;"),
            StatementKind::Break => self.push("break;"),
            StatementKind::Continue => self.push("continue;"),
            StatementKind::ModifierPlaceholder => self.push("_;"),
            StatementKind::Ellipsis => self.push("..."),
            StatementKind::Unchecked(b) => {
                self.push("unchecked ");
                self.block(b);
            }
            StatementKind::Assembly(text) => {
                self.push("assembly { ");
                self.push(text);
                self.push(" }");
            }
            StatementKind::Try { expr, success, catches } => {
                self.push("try ");
                self.expr(expr);
                self.push(" ");
                self.block(success);
                for c in catches {
                    self.push(" catch ");
                    self.block(c);
                }
            }
        }
    }

    /// Statement printed without trailing newline handling, used in `for`.
    fn stmt_inline(&mut self, s: &Statement) {
        self.stmt(s);
    }

    fn exprs(&mut self, exprs: &[Expr]) {
        for (i, e) in exprs.iter().enumerate() {
            if i > 0 {
                self.push(", ");
            }
            self.expr(e);
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Binary { op, lhs, rhs } => {
                self.maybe_paren(lhs, prec_of(lhs) < bin_prec(*op));
                self.push(" ");
                self.push(op.as_str());
                self.push(" ");
                self.maybe_paren(rhs, prec_of(rhs) <= bin_prec(*op) && is_binary(rhs));
            }
            ExprKind::Assign { op, lhs, rhs } => {
                self.expr(lhs);
                self.push(" ");
                self.push(op.as_str());
                self.push(" ");
                self.expr(rhs);
            }
            ExprKind::Unary { op, prefix, operand } => {
                if *prefix {
                    self.push(op.as_str());
                    if *op == UnOp::Delete {
                        self.push(" ");
                    }
                    self.maybe_paren(operand, is_binary(operand));
                } else {
                    self.maybe_paren(operand, is_binary(operand));
                    self.push(op.as_str());
                }
            }
            ExprKind::Ternary { cond, then, alt } => {
                self.expr(cond);
                self.push(" ? ");
                self.expr(then);
                self.push(" : ");
                self.expr(alt);
            }
            ExprKind::Call { callee, options, args, arg_names } => {
                self.expr(callee);
                if !options.is_empty() {
                    self.push("{");
                    for (i, (name, value)) in options.iter().enumerate() {
                        if i > 0 {
                            self.push(", ");
                        }
                        self.push(name);
                        self.push(": ");
                        self.expr(value);
                    }
                    self.push("}");
                }
                self.push("(");
                if arg_names.is_empty() {
                    self.exprs(args);
                } else {
                    self.push("{");
                    for (i, (name, value)) in arg_names.iter().zip(args).enumerate() {
                        if i > 0 {
                            self.push(", ");
                        }
                        self.push(name);
                        self.push(": ");
                        self.expr(value);
                    }
                    self.push("}");
                }
                self.push(")");
            }
            ExprKind::Member { base, member } => {
                self.maybe_paren(base, is_binary(base));
                self.push(".");
                self.push(member);
            }
            ExprKind::Index { base, index } => {
                self.expr(base);
                self.push("[");
                if let Some(index) = index {
                    self.expr(index);
                }
                self.push("]");
            }
            ExprKind::Ident(name) => self.push(name),
            ExprKind::Literal(lit) => match lit {
                Lit::Number { value, unit } => {
                    self.push(value);
                    if let Some(unit) = unit {
                        self.push(" ");
                        self.push(unit);
                    }
                }
                Lit::Str(s) => {
                    self.push("\"");
                    self.push(s);
                    self.push("\"");
                }
                Lit::Bool(b) => self.push(if *b { "true" } else { "false" }),
                Lit::Hex(h) => {
                    self.push("hex\"");
                    self.push(h);
                    self.push("\"");
                }
            },
            ExprKind::Tuple(entries) => {
                self.push("(");
                for (i, entry) in entries.iter().enumerate() {
                    if i > 0 {
                        self.push(", ");
                    }
                    if let Some(e) = entry {
                        self.expr(e);
                    }
                }
                self.push(")");
            }
            ExprKind::New(ty) => {
                self.push("new ");
                self.ty(ty);
            }
            ExprKind::ElementaryType(name) => self.push(name),
            ExprKind::Ellipsis => self.push("..."),
        }
    }

    fn maybe_paren(&mut self, e: &Expr, needed: bool) {
        if needed {
            self.push("(");
            self.expr(e);
            self.push(")");
        } else {
            self.expr(e);
        }
    }
}

fn bin_prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne => 3,
        BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => 4,
        BinOp::BitOr => 5,
        BinOp::BitXor => 6,
        BinOp::BitAnd => 7,
        BinOp::Shl | BinOp::Shr => 8,
        BinOp::Add | BinOp::Sub => 9,
        BinOp::Mul | BinOp::Div | BinOp::Mod => 10,
        BinOp::Pow => 11,
    }
}

fn prec_of(e: &Expr) -> u8 {
    match &e.kind {
        ExprKind::Binary { op, .. } => bin_prec(*op),
        ExprKind::Assign { .. } => 0,
        ExprKind::Ternary { .. } => 0,
        _ => 12,
    }
}

fn is_binary(e: &Expr) -> bool {
    matches!(
        e.kind,
        ExprKind::Binary { .. } | ExprKind::Assign { .. } | ExprKind::Ternary { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_snippet;

    fn roundtrip(src: &str) {
        let unit = parse_snippet(src).expect("first parse");
        let printed = print_unit(&unit);
        let reparsed = parse_snippet(&printed)
            .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
        let reprinted = print_unit(&reparsed);
        assert_eq!(printed, reprinted, "printer not a fixpoint for `{src}`");
    }

    #[test]
    fn expr_code_matches_paper_examples() {
        let unit = parse_snippet("require(msg.sender == owner);").unwrap();
        let crate::ast::SourceItem::Statement(s) = &unit.items[0] else { panic!() };
        let crate::ast::StatementKind::Expression(e) = &s.kind else { panic!() };
        assert_eq!(e.code(), "require(msg.sender == owner)");
        let crate::ast::ExprKind::Call { args, .. } = &e.kind else { panic!() };
        assert_eq!(args[0].code(), "msg.sender == owner");
    }

    #[test]
    fn member_chain_code() {
        let unit = parse_snippet("x = msg.data.length;").unwrap();
        let crate::ast::SourceItem::Statement(s) = &unit.items[0] else { panic!() };
        let crate::ast::StatementKind::Expression(e) = &s.kind else { panic!() };
        let crate::ast::ExprKind::Assign { rhs, .. } = &e.kind else { panic!() };
        assert_eq!(rhs.code(), "msg.data.length");
    }

    #[test]
    fn roundtrip_contract() {
        roundtrip(
            "contract Bank { mapping(address => uint) balances; \
             function deposit() public payable { balances[msg.sender] += msg.value; } \
             function withdraw(uint amount) public { \
               require(balances[msg.sender] >= amount); \
               msg.sender.call{value: amount}(\"\"); \
               balances[msg.sender] -= amount; } }",
        );
    }

    #[test]
    fn roundtrip_control_flow() {
        roundtrip(
            "function f(uint n) public returns (uint) { \
               uint total = 0; \
               for (uint i = 0; i < n; i++) { total += i; } \
               while (total > 100) { total -= 10; } \
               if (total == 0) { return 0; } else { return total; } }",
        );
    }

    #[test]
    fn roundtrip_snippet_with_placeholders() {
        roundtrip("contract C { ... function f() public { ... } }");
    }

    #[test]
    fn roundtrip_events_and_structs() {
        roundtrip(
            "struct P { address who; uint amt; } \
             event Paid(address indexed who, uint amt); \
             function pay() public { emit Paid(msg.sender, 1 ether); }",
        );
    }

    #[test]
    fn precedence_parens_preserved() {
        let unit = parse_snippet("x = (a + b) * c;").unwrap();
        let printed = print_unit(&unit);
        assert!(printed.contains("(a + b) * c"), "got: {printed}");
    }
}
