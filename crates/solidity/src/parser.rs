//! Recursive-descent parser for Solidity sources and snippets.
//!
//! The parser runs in two modes (cf. §4.1 of the paper):
//!
//! * **strict** ([`parse_source`]) — approximates the standard Solidity
//!   grammar: statements must be `;`-terminated, placeholders are rejected,
//!   and only proper top-level items (pragmas, imports, contracts, free
//!   functions, ...) are accepted.
//! * **tolerant** ([`parse_snippet`]) — applies the paper's three grammar
//!   modifications: any hierarchy level may appear at the top level,
//!   statements may be newline-terminated, and `...` placeholders parse.

use crate::ast::*;
use crate::lexer::{lex, LexError};
use crate::span::Span;
use crate::token::{is_elementary_type_sym, Keyword, Token, TokenKind};
use intern::{LineIndex, Symbol};
use std::sync::Arc;
use telemetry::Counter;

/// Tolerant (snippet-grammar) parses started.
static PARSE_SNIPPETS: Counter = Counter::new("solidity.parse.snippets");
/// Strict (standard-grammar) parses started.
static PARSE_SOURCES: Counter = Counter::new("solidity.parse.sources");
/// Parses that failed with a [`ParseError`].
static PARSE_ERRORS: Counter = Counter::new("solidity.parse.errors");
/// `...` placeholder tokens accepted (§4.1 grammar modification 3).
static PARSE_PLACEHOLDERS: Counter = Counter::new("solidity.parse.placeholders");
/// Missing `;` tolerated via newline/`}`/EOF (§4.1 grammar modification 2).
static PARSE_NEWLINE_SEMIS: Counter = Counter::new("solidity.parse.newline_semis");
/// Stray `}`/`;` skipped at the top level (unnested-snippet recovery).
static PARSE_STRAY_TOKENS: Counter = Counter::new("solidity.parse.stray_tokens");

/// Parser configuration. [`ParserOptions::strict`] mimics the standard
/// grammar; [`ParserOptions::snippet`] enables all snippet tolerances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParserOptions {
    /// Allow functions, modifiers and bare statements at the top level.
    pub allow_unnested: bool,
    /// Accept a newline (or `}`/EOF) in place of a missing `;`.
    pub newline_semi: bool,
    /// Accept `...` placeholders in statement, member and argument position.
    pub placeholders: bool,
}

impl ParserOptions {
    /// The standard-grammar approximation.
    pub fn strict() -> Self {
        ParserOptions { allow_unnested: false, newline_semi: false, placeholders: false }
    }

    /// The snippet grammar with all modifications of §4.1 enabled.
    pub fn snippet() -> Self {
        ParserOptions { allow_unnested: true, newline_semi: true, placeholders: true }
    }
}

/// A parse (or lex) failure with location information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Location of the offending token.
    pub span: Span,
    /// 1-based line of the offending token (0 when unknown).
    pub line: u32,
    /// 1-based byte column of the offending token (0 when unknown).
    pub col: u32,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "parse error at {}:{}: {}", self.line, self.col, self.message)
        } else {
            write!(f, "parse error at {}: {}", self.span, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { message: e.message, span: e.span, line: 0, col: 0 }
    }
}

type PResult<T> = Result<T, ParseError>;

/// Parse a full Solidity source with the standard-grammar approximation.
pub fn parse_source(src: &str) -> Result<SourceUnit, ParseError> {
    PARSE_SOURCES.incr();
    parse_with(src, ParserOptions::strict())
}

/// Parse a possibly incomplete snippet with all tolerances enabled.
pub fn parse_snippet(src: &str) -> Result<SourceUnit, ParseError> {
    PARSE_SNIPPETS.incr();
    parse_with(src, ParserOptions::snippet())
}

/// Parse with explicit options.
pub fn parse_with(src: &str, opts: ParserOptions) -> Result<SourceUnit, ParseError> {
    static STAGE: telemetry::Stage = telemetry::Stage::new("parse");
    let _stage = STAGE.enter();
    telemetry::trace::annotate("bytes", src.len());
    let result = (|| {
        if let Some(message) = faultinject::fire("parse") {
            return Err(ParseError { message, span: Span::DUMMY, line: 0, col: 0 });
        }
        let tokens = lex(src)?;
        if telemetry::enabled() && opts.placeholders {
            let placeholders =
                tokens.iter().filter(|t| matches!(t.kind, TokenKind::Ellipsis)).count();
            PARSE_PLACEHOLDERS.add(placeholders as u64);
        }
        let line_index = Arc::new(LineIndex::new(src));
        Parser { tokens, pos: 0, opts, depth: 0, line_index }.source_unit()
    })();
    if result.is_err() {
        PARSE_ERRORS.incr();
    }
    result
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    opts: ParserOptions,
    depth: usize,
    line_index: Arc<LineIndex>,
}

impl Parser {
    // ----- token helpers ---------------------------------------------------

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_at(&self, off: usize) -> &Token {
        &self.tokens[(self.pos + off).min(self.tokens.len() - 1)]
    }

    fn span(&self) -> Span {
        self.peek().span
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)];
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Punct(q) if *q == p)
    }

    fn at_kw(&self, k: Keyword) -> bool {
        matches!(&self.peek().kind, TokenKind::Keyword(q) if *q == k)
    }


    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: Keyword) -> bool {
        if self.at_kw(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> PResult<Span> {
        if self.at_punct(p) {
            Ok(self.bump().span)
        } else {
            Err(self.error(format!("expected `{p}`, found `{}`", self.peek().kind.text())))
        }
    }

    fn expect_ident(&mut self) -> PResult<(Symbol, Span)> {
        match self.peek().kind {
            TokenKind::Ident(s) => {
                let span = self.bump().span;
                Ok((s, span))
            }
            // Some keywords double as identifiers in practice (e.g. a
            // variable named `error` pre-0.8); accept soft keywords.
            TokenKind::Keyword(k @ (Keyword::Error | Keyword::Receive | Keyword::Fallback)) => {
                let s = Symbol::intern(k.as_str());
                let span = self.bump().span;
                Ok((s, span))
            }
            _ => Err(self.error(format!(
                "expected identifier, found `{}`",
                self.peek().kind.text()
            ))),
        }
    }

    /// Accept `;`, or — in tolerant mode — a newline before the next token,
    /// a closing brace, a placeholder, or end of input (§4.1).
    fn expect_semi(&mut self) -> PResult<()> {
        if self.eat_punct(";") {
            return Ok(());
        }
        if self.opts.newline_semi
            && (self.peek().newline_before
                || self.at_punct("}")
                || self.at_eof()
                || matches!(self.peek().kind, TokenKind::Ellipsis))
        {
            PARSE_NEWLINE_SEMIS.incr();
            return Ok(());
        }
        Err(self.error(format!("expected `;`, found `{}`", self.peek().kind.text())))
    }

    fn error(&self, message: String) -> ParseError {
        let span = self.span();
        let (line, col) = if span.is_dummy() {
            (0, 0)
        } else {
            self.line_index.line_col(span.start)
        };
        ParseError { message, span, line, col }
    }

    // ----- source unit -----------------------------------------------------

    fn source_unit(&mut self) -> PResult<SourceUnit> {
        let mut items = Vec::new();
        while !self.at_eof() {
            // Stray closing braces appear when a snippet starts mid-body.
            if self.opts.allow_unnested && (self.at_punct("}") || self.at_punct(";")) {
                PARSE_STRAY_TOKENS.incr();
                self.bump();
                continue;
            }
            items.push(self.source_item()?);
        }
        Ok(SourceUnit { items, line_index: Arc::clone(&self.line_index) })
    }

    fn source_item(&mut self) -> PResult<SourceItem> {
        match self.peek().kind {
            TokenKind::Keyword(Keyword::Pragma) => self.pragma().map(SourceItem::Pragma),
            TokenKind::Keyword(Keyword::Import) => self.import().map(SourceItem::Import),
            TokenKind::Keyword(
                Keyword::Contract | Keyword::Interface | Keyword::Library | Keyword::Abstract,
            ) => self.contract().map(SourceItem::Contract),
            TokenKind::Keyword(Keyword::Function)
                if self.opts.allow_unnested || self.is_free_function() =>
            {
                self.function().map(SourceItem::Function)
            }
            TokenKind::Keyword(Keyword::Constructor | Keyword::Receive | Keyword::Fallback)
                if self.opts.allow_unnested && self.looks_like_function_header() =>
            {
                self.function().map(SourceItem::Function)
            }
            TokenKind::Keyword(Keyword::Modifier) if self.opts.allow_unnested => {
                self.modifier().map(SourceItem::Modifier)
            }
            TokenKind::Keyword(Keyword::Struct) => self.struct_def().map(SourceItem::Struct),
            TokenKind::Keyword(Keyword::Enum) => self.enum_def().map(SourceItem::Enum),
            TokenKind::Keyword(Keyword::Event) if self.opts.allow_unnested => {
                self.event_def().map(SourceItem::Event)
            }
            TokenKind::Keyword(Keyword::Error) if self.is_error_def() => {
                self.error_def().map(SourceItem::ErrorDef)
            }
            TokenKind::Keyword(Keyword::Using) => self.using_for().map(SourceItem::UsingFor),
            _ if self.opts.allow_unnested => {
                // State-variable-looking declarations with a visibility or
                // constancy specifier become Variable items; everything else
                // is a bare statement.
                if let Some(var) = self.try_state_var() {
                    Ok(SourceItem::Variable(var))
                } else {
                    self.statement().map(SourceItem::Statement)
                }
            }
            _ => Err(self.error(format!(
                "unexpected `{}` at top level",
                self.peek().kind.text()
            ))),
        }
    }

    /// In strict mode, free functions (Solidity >= 0.7) are still allowed.
    fn is_free_function(&self) -> bool {
        true
    }

    fn looks_like_function_header(&self) -> bool {
        matches!(self.peek_at(1).kind, TokenKind::Punct("(" | "{"))
    }

    fn is_error_def(&self) -> bool {
        // `error Name(...)` vs. a variable named `error`.
        matches!(self.peek_at(1).kind, TokenKind::Ident(_))
            && matches!(self.peek_at(2).kind, TokenKind::Punct("("))
    }

    fn pragma(&mut self) -> PResult<Pragma> {
        let start = self.bump().span; // `pragma`
        let (name, _) = self.expect_ident().unwrap_or(("solidity".into(), start));
        let mut value = String::new();
        let mut end = start;
        while !self.at_punct(";") && !self.at_eof() {
            if self.opts.newline_semi && self.peek().newline_before {
                break;
            }
            let t = self.bump();
            end = t.span;
            value.push_str(&t.kind.text());
        }
        self.eat_punct(";");
        Ok(Pragma { name, value: Symbol::intern(&value), span: start.to(end) })
    }

    fn import(&mut self) -> PResult<Symbol> {
        self.bump(); // `import`
        let mut path = Symbol::default();
        while !self.at_punct(";") && !self.at_eof() {
            if self.opts.newline_semi && self.peek().newline_before {
                break;
            }
            let t = self.bump();
            if let TokenKind::Str(s) = t.kind {
                path = s;
            }
        }
        self.eat_punct(";");
        Ok(path)
    }

    // ----- contracts ---------------------------------------------------------

    fn contract(&mut self) -> PResult<ContractDef> {
        let start = self.span();
        let kind = if self.eat_kw(Keyword::Abstract) {
            if !self.eat_kw(Keyword::Contract) {
                return Err(self.error("expected `contract` after `abstract`".into()));
            }
            ContractKind::AbstractContract
        } else if self.eat_kw(Keyword::Contract) {
            ContractKind::Contract
        } else if self.eat_kw(Keyword::Interface) {
            ContractKind::Interface
        } else if self.eat_kw(Keyword::Library) {
            ContractKind::Library
        } else {
            return Err(self.error("expected contract keyword".into()));
        };

        let (name, _) = self.expect_ident()?;
        let mut bases = Vec::new();
        if self.eat_kw(Keyword::Is) {
            loop {
                let base = self.qualified_name()?;
                let mut args = Vec::new();
                if self.at_punct("(") {
                    args = self.call_args()?;
                }
                bases.push(InheritanceSpecifier { name: base, args });
                if !self.eat_punct(",") {
                    break;
                }
            }
        }

        self.expect_punct("{")?;
        let mut parts = Vec::new();
        while !self.at_punct("}") && !self.at_eof() {
            if self.eat_punct(";") {
                continue;
            }
            parts.push(self.contract_part()?);
        }
        let end = if self.at_punct("}") { self.bump().span } else { self.span() };
        Ok(ContractDef { kind, name, bases, parts, span: start.to(end) })
    }

    fn contract_part(&mut self) -> PResult<ContractPart> {
        match self.peek().kind {
            TokenKind::Ellipsis if self.opts.placeholders => {
                let span = self.bump().span;
                self.eat_punct(";");
                Ok(ContractPart::Placeholder(span))
            }
            TokenKind::Keyword(
                Keyword::Function | Keyword::Constructor | Keyword::Receive | Keyword::Fallback,
            ) => self.function().map(ContractPart::Function),
            TokenKind::Keyword(Keyword::Modifier) => self.modifier().map(ContractPart::Modifier),
            TokenKind::Keyword(Keyword::Struct) => self.struct_def().map(ContractPart::Struct),
            TokenKind::Keyword(Keyword::Enum) => self.enum_def().map(ContractPart::Enum),
            TokenKind::Keyword(Keyword::Event) => self.event_def().map(ContractPart::Event),
            TokenKind::Keyword(Keyword::Error) if self.is_error_def() => {
                self.error_def().map(ContractPart::ErrorDef)
            }
            TokenKind::Keyword(Keyword::Using) => self.using_for().map(ContractPart::UsingFor),
            _ => self.state_var().map(ContractPart::Variable),
        }
    }

    /// Speculatively parse a state variable with a specifier; used for
    /// top-level items in snippets. Never consumes input on failure.
    fn try_state_var(&mut self) -> Option<StateVarDecl> {
        let save = self.pos;
        match self.state_var() {
            Ok(v) if v.visibility.is_some() || v.is_constant || v.is_immutable => Some(v),
            _ => {
                self.pos = save;
                None
            }
        }
    }

    fn state_var(&mut self) -> PResult<StateVarDecl> {
        let start = self.span();
        let ty = self.type_name()?;
        let mut visibility = None;
        let mut is_constant = false;
        let mut is_immutable = false;
        loop {
            match &self.peek().kind {
                TokenKind::Keyword(k) if k.is_visibility() => {
                    visibility = Some(visibility_of(*k));
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Constant) => {
                    is_constant = true;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Immutable) => {
                    is_immutable = true;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Override | Keyword::Virtual) => {
                    self.bump();
                }
                _ => break,
            }
        }
        let (name, name_span) = self.expect_ident()?;
        let mut initializer = None;
        if self.eat_punct("=") {
            initializer = Some(self.expression()?);
        }
        let end = initializer.as_ref().map(|e| e.span).unwrap_or(name_span);
        self.expect_semi()?;
        Ok(StateVarDecl {
            ty,
            visibility,
            is_constant,
            is_immutable,
            name,
            initializer,
            span: start.to(end),
        })
    }

    // ----- functions -----------------------------------------------------------

    fn function(&mut self) -> PResult<FunctionDef> {
        let start = self.span();
        let kind;
        let mut name = None;
        if self.eat_kw(Keyword::Constructor) {
            kind = FunctionKind::Constructor;
        } else if self.eat_kw(Keyword::Receive) {
            kind = FunctionKind::Receive;
        } else if self.eat_kw(Keyword::Fallback) {
            kind = FunctionKind::Fallback;
        } else {
            self.bump(); // `function`
            kind = FunctionKind::Function;
            if let TokenKind::Ident(n) = self.peek().kind {
                name = Some(n);
                self.bump();
            }
        }

        // Parameter list; tolerated absent in snippets
        // (e.g. `function withdrawAll public onlyOwner() {`).
        let params =
            if self.at_punct("(") { self.param_list()? } else { Vec::new() };

        let mut visibility = None;
        let mut mutability = None;
        let mut is_virtual = false;
        let mut is_override = false;
        let mut modifiers = Vec::new();
        let mut returns = Vec::new();
        loop {
            match self.peek().kind {
                TokenKind::Keyword(k) if k.is_visibility() => {
                    visibility = Some(visibility_of(k));
                    self.bump();
                }
                TokenKind::Keyword(k) if k.is_mutability() => {
                    mutability = Some(mutability_of(k));
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Virtual) => {
                    is_virtual = true;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Override) => {
                    is_override = true;
                    self.bump();
                    if self.at_punct("(") {
                        // override(Base1, Base2)
                        self.bump();
                        while !self.at_punct(")") && !self.at_eof() {
                            self.bump();
                        }
                        self.eat_punct(")");
                    }
                }
                TokenKind::Keyword(Keyword::Returns) => {
                    self.bump();
                    returns = self.param_list()?;
                }
                TokenKind::Ident(modname) => {
                    let mspan = self.bump().span;
                    let args = if self.at_punct("(") { self.call_args()? } else { Vec::new() };
                    modifiers.push(ModifierInvocation { name: modname, args, span: mspan });
                }
                _ => break,
            }
        }

        let body = if self.at_punct("{") {
            Some(self.block()?)
        } else {
            self.expect_semi()?;
            None
        };
        let end = body.as_ref().map(|b| b.span).unwrap_or(start);
        Ok(FunctionDef {
            kind,
            name,
            params,
            returns,
            visibility,
            mutability,
            is_virtual,
            is_override,
            modifiers,
            body,
            span: start.to(end),
        })
    }

    fn modifier(&mut self) -> PResult<ModifierDef> {
        let start = self.bump().span; // `modifier`
        let (name, _) = self.expect_ident()?;
        let params = if self.at_punct("(") { self.param_list()? } else { Vec::new() };
        // Skip `virtual` / `override`.
        while self.eat_kw(Keyword::Virtual) || self.eat_kw(Keyword::Override) {}
        let body = if self.at_punct("{") {
            Some(self.block()?)
        } else {
            self.expect_semi()?;
            None
        };
        let end = body.as_ref().map(|b| b.span).unwrap_or(start);
        Ok(ModifierDef { name, params, body, span: start.to(end) })
    }

    fn param_list(&mut self) -> PResult<Vec<Param>> {
        self.expect_punct("(")?;
        let mut params = Vec::new();
        while !self.at_punct(")") && !self.at_eof() {
            if matches!(self.peek().kind, TokenKind::Ellipsis) && self.opts.placeholders {
                self.bump();
                self.eat_punct(",");
                continue;
            }
            params.push(self.param()?);
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(")")?;
        Ok(params)
    }

    fn param(&mut self) -> PResult<Param> {
        let start = self.span();
        let ty = self.type_name()?;
        let mut storage = None;
        let mut indexed = false;
        loop {
            match &self.peek().kind {
                TokenKind::Keyword(Keyword::Memory) => {
                    storage = Some(Storage::Memory);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Storage) => {
                    storage = Some(Storage::Storage);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Calldata) => {
                    storage = Some(Storage::Calldata);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Indexed) => {
                    indexed = true;
                    self.bump();
                }
                _ => break,
            }
        }
        let mut name = None;
        let mut end = start;
        if let TokenKind::Ident(n) = self.peek().kind {
            name = Some(n);
            end = self.bump().span;
        }
        Ok(Param { ty, storage, name, indexed, span: start.to(end) })
    }

    fn struct_def(&mut self) -> PResult<StructDef> {
        let start = self.bump().span; // `struct`
        let (name, _) = self.expect_ident()?;
        self.expect_punct("{")?;
        let mut fields = Vec::new();
        while !self.at_punct("}") && !self.at_eof() {
            if matches!(self.peek().kind, TokenKind::Ellipsis) && self.opts.placeholders {
                self.bump();
                self.eat_punct(";");
                continue;
            }
            let field = self.param()?;
            self.expect_semi()?;
            fields.push(field);
        }
        let end = if self.at_punct("}") { self.bump().span } else { self.span() };
        Ok(StructDef { name, fields, span: start.to(end) })
    }

    fn enum_def(&mut self) -> PResult<EnumDef> {
        let start = self.bump().span; // `enum`
        let (name, _) = self.expect_ident()?;
        self.expect_punct("{")?;
        let mut variants = Vec::new();
        while !self.at_punct("}") && !self.at_eof() {
            if let TokenKind::Ident(v) = self.peek().kind {
                variants.push(v);
                self.bump();
            } else {
                self.bump();
            }
            self.eat_punct(",");
        }
        let end = if self.at_punct("}") { self.bump().span } else { self.span() };
        Ok(EnumDef { name, variants, span: start.to(end) })
    }

    fn event_def(&mut self) -> PResult<EventDef> {
        let start = self.bump().span; // `event`
        let (name, _) = self.expect_ident()?;
        let params = if self.at_punct("(") { self.param_list()? } else { Vec::new() };
        let anonymous = self.eat_kw(Keyword::Anonymous);
        self.expect_semi()?;
        Ok(EventDef { name, params, anonymous, span: start })
    }

    fn error_def(&mut self) -> PResult<ErrorDef> {
        let start = self.bump().span; // `error`
        let (name, _) = self.expect_ident()?;
        let params = if self.at_punct("(") { self.param_list()? } else { Vec::new() };
        self.expect_semi()?;
        Ok(ErrorDef { name, params, span: start })
    }

    fn using_for(&mut self) -> PResult<UsingFor> {
        let start = self.bump().span; // `using`
        let library = self.qualified_name()?;
        let mut target = None;
        if self.eat_kw(Keyword::For) {
            if self.at_punct("*") {
                self.bump();
            } else {
                target = Some(self.type_name()?);
            }
        }
        self.expect_semi()?;
        Ok(UsingFor { library, target, span: start })
    }

    // ----- types -------------------------------------------------------------

    fn qualified_name(&mut self) -> PResult<Symbol> {
        let (first, _) = self.expect_ident()?;
        if !(self.at_punct(".") && matches!(self.peek_at(1).kind, TokenKind::Ident(_))) {
            return Ok(first);
        }
        let mut name = first.as_str().to_string();
        while self.at_punct(".") && matches!(self.peek_at(1).kind, TokenKind::Ident(_)) {
            self.bump();
            let (part, _) = self.expect_ident()?;
            name.push('.');
            name.push_str(&part);
        }
        Ok(Symbol::intern(&name))
    }

    fn type_name(&mut self) -> PResult<TypeName> {
        let mut base = self.base_type()?;
        // Array suffixes.
        while self.at_punct("[") {
            self.bump();
            let len = if self.at_punct("]") {
                None
            } else {
                Some(Box::new(self.expression()?))
            };
            self.expect_punct("]")?;
            base = TypeName::Array(Box::new(base), len);
        }
        Ok(base)
    }

    fn base_type(&mut self) -> PResult<TypeName> {
        match self.peek().kind {
            TokenKind::Keyword(Keyword::Mapping) => {
                self.bump();
                self.expect_punct("(")?;
                let key = self.type_name()?;
                // Mapping key names (0.8.18+) tolerated.
                if matches!(self.peek().kind, TokenKind::Ident(_)) {
                    self.bump();
                }
                self.expect_punct("=>")?;
                let value = self.type_name()?;
                if matches!(self.peek().kind, TokenKind::Ident(_)) {
                    self.bump();
                }
                self.expect_punct(")")?;
                Ok(TypeName::Mapping(Box::new(key), Box::new(value)))
            }
            TokenKind::Keyword(Keyword::Address) => {
                self.bump();
                if self.eat_kw(Keyword::Payable) {
                    Ok(TypeName::Elementary("address payable".into()))
                } else {
                    Ok(TypeName::Elementary("address".into()))
                }
            }
            TokenKind::Keyword(Keyword::Bool) => {
                self.bump();
                Ok(TypeName::Elementary("bool".into()))
            }
            TokenKind::Keyword(Keyword::String) => {
                self.bump();
                Ok(TypeName::Elementary("string".into()))
            }
            TokenKind::Keyword(Keyword::Bytes) => {
                self.bump();
                Ok(TypeName::Elementary("bytes".into()))
            }
            TokenKind::Keyword(Keyword::Byte) => {
                self.bump();
                Ok(TypeName::Elementary("byte".into()))
            }
            TokenKind::Keyword(Keyword::Var) => {
                self.bump();
                Ok(TypeName::Unknown)
            }
            TokenKind::Keyword(Keyword::Fixed) => {
                self.bump();
                Ok(TypeName::Elementary("fixed".into()))
            }
            TokenKind::Keyword(Keyword::Ufixed) => {
                self.bump();
                Ok(TypeName::Elementary("ufixed".into()))
            }
            TokenKind::Keyword(Keyword::Payable) => {
                self.bump();
                Ok(TypeName::Elementary("address payable".into()))
            }
            TokenKind::Keyword(Keyword::Function) => {
                self.bump();
                let params = self.type_list()?;
                // Skip visibility/mutability of the function type.
                loop {
                    match &self.peek().kind {
                        TokenKind::Keyword(k) if k.is_visibility() || k.is_mutability() => {
                            self.bump();
                        }
                        _ => break,
                    }
                }
                let returns = if self.eat_kw(Keyword::Returns) {
                    self.type_list()?
                } else {
                    Vec::new()
                };
                Ok(TypeName::Function { params, returns })
            }
            TokenKind::Ident(word) => {
                if is_elementary_type_sym(word) {
                    self.bump();
                    Ok(TypeName::Elementary(word))
                } else {
                    let name = self.qualified_name()?;
                    Ok(TypeName::UserDefined(name))
                }
            }
            _ => Err(self.error(format!(
                "expected type, found `{}`",
                self.peek().kind.text()
            ))),
        }
    }

    fn type_list(&mut self) -> PResult<Vec<TypeName>> {
        self.expect_punct("(")?;
        let mut tys = Vec::new();
        while !self.at_punct(")") && !self.at_eof() {
            tys.push(self.type_name()?);
            // Parameter name in function type, tolerated.
            if matches!(self.peek().kind, TokenKind::Ident(_)) {
                self.bump();
            }
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(")")?;
        Ok(tys)
    }

    // ----- statements ---------------------------------------------------------

    fn block(&mut self) -> PResult<Block> {
        let start = self.expect_punct("{")?;
        // Typical blocks in the study corpus hold a handful of statements;
        // `Statement` is large, so skipping the 1/2/4 growth steps matters.
        let mut statements = Vec::with_capacity(8);
        while !self.at_punct("}") && !self.at_eof() {
            if self.eat_punct(";") {
                continue;
            }
            statements.push(self.statement()?);
        }
        let end = if self.at_punct("}") { self.bump().span } else { self.span() };
        Ok(Block { statements, span: start.to(end) })
    }

    fn statement(&mut self) -> PResult<Statement> {
        self.enter()?;
        let result = self.statement_inner();
        self.depth -= 1;
        result
    }

    fn statement_inner(&mut self) -> PResult<Statement> {
        let start = self.span();
        let kind = match self.peek().kind {
            TokenKind::Ellipsis if self.opts.placeholders => {
                self.bump();
                self.eat_punct(";");
                StatementKind::Ellipsis
            }
            TokenKind::Punct("{") => StatementKind::Block(self.block()?),
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect_punct("(")?;
                let cond = self.expression()?;
                self.expect_punct(")")?;
                let then = Box::new(self.statement()?);
                let alt = if self.eat_kw(Keyword::Else) {
                    Some(Box::new(self.statement()?))
                } else {
                    None
                };
                StatementKind::If { cond, then, alt }
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect_punct("(")?;
                let cond = self.expression()?;
                self.expect_punct(")")?;
                let body = Box::new(self.statement()?);
                StatementKind::While { cond, body }
            }
            TokenKind::Keyword(Keyword::Do) => {
                self.bump();
                let body = Box::new(self.statement()?);
                if !self.eat_kw(Keyword::While) {
                    return Err(self.error("expected `while` after `do` body".into()));
                }
                self.expect_punct("(")?;
                let cond = self.expression()?;
                self.expect_punct(")")?;
                self.expect_semi()?;
                StatementKind::DoWhile { body, cond }
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect_punct("(")?;
                let init = if self.at_punct(";") {
                    self.bump();
                    None
                } else {
                    let s = self.simple_statement()?;
                    // `simple_statement` consumed the `;` via expect_semi —
                    // but inside `for(...)` the `;` is mandatory, already
                    // eaten by the tolerant path only if present; eat if not.
                    Some(Box::new(s))
                };
                let cond = if self.at_punct(";") {
                    None
                } else if self.peek_is_expression_start() {
                    Some(self.expression()?)
                } else {
                    None
                };
                self.eat_punct(";");
                let update = if self.at_punct(")") {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect_punct(")")?;
                let body = Box::new(self.statement()?);
                StatementKind::For { init, cond, update, body }
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.at_punct(";")
                    || self.at_punct("}")
                    || self.at_eof()
                    || (self.opts.newline_semi && self.peek().newline_before)
                {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect_semi()?;
                StatementKind::Return(value)
            }
            TokenKind::Keyword(Keyword::Emit) => {
                self.bump();
                let call = self.expression()?;
                self.expect_semi()?;
                StatementKind::Emit(call)
            }
            TokenKind::Keyword(Keyword::Throw) => {
                self.bump();
                self.expect_semi()?;
                StatementKind::Throw
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_semi()?;
                StatementKind::Break
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_semi()?;
                StatementKind::Continue
            }
            TokenKind::Keyword(Keyword::Unchecked) => {
                self.bump();
                StatementKind::Unchecked(self.block()?)
            }
            TokenKind::Keyword(Keyword::Assembly) => {
                self.bump();
                // Optional dialect string: assembly "evmasm" { ... }
                if matches!(self.peek().kind, TokenKind::Str(_)) {
                    self.bump();
                }
                let text = self.raw_braced()?;
                StatementKind::Assembly(text)
            }
            TokenKind::Keyword(Keyword::Try) => {
                self.bump();
                let expr = self.expression()?;
                if self.eat_kw(Keyword::Returns) {
                    self.param_list()?;
                }
                let success = self.block()?;
                let mut catches = Vec::new();
                while self.eat_kw(Keyword::Catch) {
                    // catch Error(string memory reason) { ... }
                    if matches!(self.peek().kind, TokenKind::Ident(_))
                        || self.at_kw(Keyword::Error)
                    {
                        self.bump();
                    }
                    if self.at_punct("(") {
                        self.param_list()?;
                    }
                    catches.push(self.block()?);
                }
                StatementKind::Try { expr, success, catches }
            }
            TokenKind::Ident(id) if id == "_" && self.stmt_ends_after(1) => {
                self.bump();
                self.expect_semi()?;
                StatementKind::ModifierPlaceholder
            }
            TokenKind::Ident(id) if id == "revert" => {
                // `revert;`, `revert("why")`, `revert CustomError(...)`.
                self.bump();
                let arg = if self.at_punct(";")
                    || self.at_punct("}")
                    || self.at_eof()
                    || (self.opts.newline_semi && self.peek().newline_before)
                {
                    None
                } else if self.at_punct("(") {
                    let args = self.call_args()?;
                    args.into_iter().next()
                } else {
                    Some(self.expression()?)
                };
                self.expect_semi()?;
                StatementKind::Revert(arg)
            }
            _ => return self.simple_statement(),
        };
        let end = self.tokens[self.pos.saturating_sub(1)].span;
        Ok(Statement { kind, span: start.to(end) })
    }

    fn stmt_ends_after(&self, off: usize) -> bool {
        match &self.peek_at(off).kind {
            TokenKind::Punct(";" | "}") | TokenKind::Eof => true,
            _ => self.opts.newline_semi && self.peek_at(off).newline_before,
        }
    }

    fn peek_is_expression_start(&self) -> bool {
        !matches!(self.peek().kind, TokenKind::Punct(";" | ")" | "}") | TokenKind::Eof)
    }

    /// Variable declaration or expression statement.
    fn simple_statement(&mut self) -> PResult<Statement> {
        let start = self.span();
        if let Some(kind) = self.try_variable_decl()? {
            let end = self.tokens[self.pos.saturating_sub(1)].span;
            return Ok(Statement { kind, span: start.to(end) });
        }
        let expr = self.expression()?;
        self.expect_semi()?;
        let end = expr.span;
        Ok(Statement { kind: StatementKind::Expression(expr), span: start.to(end) })
    }

    /// Speculatively parse a variable declaration statement. Restores the
    /// position and returns `Ok(None)` when the lookahead is an expression.
    fn try_variable_decl(&mut self) -> PResult<Option<StatementKind>> {
        let save = self.pos;

        // Tuple form: `(uint a, uint b) = f();` — heuristically detected by
        // `(` followed eventually by `) =` with a leading type.
        if self.at_punct("(") && self.tuple_decl_ahead() {
            self.bump();
            let mut parts = Vec::new();
            while !self.at_punct(")") && !self.at_eof() {
                if self.at_punct(",") {
                    self.bump();
                    continue;
                }
                match self.var_decl_part() {
                    Ok(p) => parts.push(p),
                    Err(_) => {
                        self.pos = save;
                        return Ok(None);
                    }
                }
            }
            self.expect_punct(")")?;
            if !self.eat_punct("=") {
                self.pos = save;
                return Ok(None);
            }
            let value = Some(self.expression()?);
            self.expect_semi()?;
            return Ok(Some(StatementKind::VariableDecl { parts, value }));
        }

        // Simple form: `type [storage] name [= expr] ;`
        let looks_like_type = matches!(
            self.peek().kind,
            TokenKind::Keyword(
                Keyword::Mapping
                    | Keyword::Address
                    | Keyword::Bool
                    | Keyword::String
                    | Keyword::Bytes
                    | Keyword::Byte
                    | Keyword::Var
                    | Keyword::Fixed
                    | Keyword::Ufixed
                    | Keyword::Function
            ) | TokenKind::Ident(_)
        );
        if !looks_like_type {
            return Ok(None);
        }
        match self.var_decl_part() {
            Ok(part) => {
                let value = if self.eat_punct("=") {
                    Some(self.expression()?)
                } else {
                    None
                };
                if self.expect_semi().is_err() {
                    self.pos = save;
                    return Ok(None);
                }
                Ok(Some(StatementKind::VariableDecl { parts: vec![part], value }))
            }
            Err(_) => {
                self.pos = save;
                Ok(None)
            }
        }
    }

    fn tuple_decl_ahead(&self) -> bool {
        // Scan ahead (bounded) for `) =` at depth 0 starting after `(`.
        let mut depth = 0usize;
        for off in 0..64 {
            match &self.peek_at(off).kind {
                TokenKind::Punct("(") => depth += 1,
                TokenKind::Punct(")") => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return matches!(self.peek_at(off + 1).kind, TokenKind::Punct("="))
                            && !matches!(self.peek_at(off + 2).kind, TokenKind::Punct("="));
                    }
                }
                TokenKind::Eof => return false,
                _ => {}
            }
        }
        false
    }

    fn var_decl_part(&mut self) -> PResult<VarDeclPart> {
        let start = self.span();
        let ty = self.type_name()?;
        let mut storage = None;
        loop {
            match &self.peek().kind {
                TokenKind::Keyword(Keyword::Memory) => {
                    storage = Some(Storage::Memory);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Storage) => {
                    storage = Some(Storage::Storage);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Calldata) => {
                    storage = Some(Storage::Calldata);
                    self.bump();
                }
                _ => break,
            }
        }
        let (name, end) = self.expect_ident()?;
        let ty = if matches!(ty, TypeName::Unknown) { None } else { Some(ty) };
        Ok(VarDeclPart { ty, storage, name, span: start.to(end) })
    }

    fn raw_braced(&mut self) -> PResult<String> {
        self.expect_punct("{")?;
        let mut depth = 1usize;
        let mut text = String::new();
        while depth > 0 && !self.at_eof() {
            let t = self.bump();
            match &t.kind {
                TokenKind::Punct("{") => {
                    depth += 1;
                    text.push('{');
                }
                TokenKind::Punct("}") => {
                    depth -= 1;
                    if depth > 0 {
                        text.push('}');
                    }
                }
                other => {
                    if !text.is_empty() {
                        text.push(' ');
                    }
                    text.push_str(&other.text());
                }
            }
        }
        Ok(text)
    }

    // ----- expressions ---------------------------------------------------------

    fn expression(&mut self) -> PResult<Expr> {
        self.enter()?;
        let result = self.assignment();
        self.depth -= 1;
        result
    }

    /// Guard against stack exhaustion on pathologically nested input
    /// (hostile snippets are part of the threat model of a Q&A crawler).
    fn enter(&mut self) -> PResult<()> {
        self.depth += 1;
        if self.depth > 48 {
            return Err(self.error("nesting too deep".into()));
        }
        Ok(())
    }

    fn assignment(&mut self) -> PResult<Expr> {
        let lhs = self.ternary()?;
        let op = match &self.peek().kind {
            TokenKind::Punct("=") => Some(AssignOp::Assign),
            TokenKind::Punct("+=") => Some(AssignOp::AddAssign),
            TokenKind::Punct("-=") => Some(AssignOp::SubAssign),
            TokenKind::Punct("*=") => Some(AssignOp::MulAssign),
            TokenKind::Punct("/=") => Some(AssignOp::DivAssign),
            TokenKind::Punct("%=") => Some(AssignOp::ModAssign),
            TokenKind::Punct("|=") => Some(AssignOp::OrAssign),
            TokenKind::Punct("&=") => Some(AssignOp::AndAssign),
            TokenKind::Punct("^=") => Some(AssignOp::XorAssign),
            TokenKind::Punct("<<=") => Some(AssignOp::ShlAssign),
            TokenKind::Punct(">>=") => Some(AssignOp::ShrAssign),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.assignment()?;
            let span = lhs.span.to(rhs.span);
            return Ok(Expr {
                kind: ExprKind::Assign { op, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                span,
            });
        }
        Ok(lhs)
    }

    fn ternary(&mut self) -> PResult<Expr> {
        let cond = self.binary(0)?;
        if self.eat_punct("?") {
            let then = self.expression()?;
            self.expect_punct(":")?;
            let alt = self.expression()?;
            let span = cond.span.to(alt.span);
            return Ok(Expr {
                kind: ExprKind::Ternary {
                    cond: Box::new(cond),
                    then: Box::new(then),
                    alt: Box::new(alt),
                },
                span,
            });
        }
        Ok(cond)
    }

    fn binop_at(&self, min_prec: u8) -> Option<(BinOp, u8, u8)> {
        // (op, precedence, right-assoc precedence bump)
        let (op, prec) = match &self.peek().kind {
            TokenKind::Punct("||") => (BinOp::Or, 1),
            TokenKind::Punct("&&") => (BinOp::And, 2),
            TokenKind::Punct("==") => (BinOp::Eq, 3),
            TokenKind::Punct("!=") => (BinOp::Ne, 3),
            TokenKind::Punct("<") => (BinOp::Lt, 4),
            TokenKind::Punct(">") => (BinOp::Gt, 4),
            TokenKind::Punct("<=") => (BinOp::Le, 4),
            TokenKind::Punct(">=") => (BinOp::Ge, 4),
            TokenKind::Punct("|") => (BinOp::BitOr, 5),
            TokenKind::Punct("^") => (BinOp::BitXor, 6),
            TokenKind::Punct("&") => (BinOp::BitAnd, 7),
            TokenKind::Punct("<<") => (BinOp::Shl, 8),
            TokenKind::Punct(">>") => (BinOp::Shr, 8),
            TokenKind::Punct("+") => (BinOp::Add, 9),
            TokenKind::Punct("-") => (BinOp::Sub, 9),
            TokenKind::Punct("*") => (BinOp::Mul, 10),
            TokenKind::Punct("/") => (BinOp::Div, 10),
            TokenKind::Punct("%") => (BinOp::Mod, 10),
            TokenKind::Punct("**") => (BinOp::Pow, 11),
            _ => return None,
        };
        if prec < min_prec {
            return None;
        }
        // `**` is right-associative.
        let next_min = if op == BinOp::Pow { prec } else { prec + 1 };
        Some((op, prec, next_min))
    }

    fn binary(&mut self, min_prec: u8) -> PResult<Expr> {
        let mut lhs = self.unary()?;
        while let Some((op, _prec, next_min)) = self.binop_at(min_prec) {
            self.bump();
            let rhs = self.binary(next_min)?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                span,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> PResult<Expr> {
        let start = self.span();
        let op = match &self.peek().kind {
            TokenKind::Punct("!") => Some(UnOp::Not),
            TokenKind::Punct("-") => Some(UnOp::Neg),
            TokenKind::Punct("~") => Some(UnOp::BitNot),
            TokenKind::Punct("++") => Some(UnOp::Inc),
            TokenKind::Punct("--") => Some(UnOp::Dec),
            TokenKind::Keyword(Keyword::Delete) => Some(UnOp::Delete),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.unary()?;
            let span = start.to(operand.span);
            return Ok(Expr {
                kind: ExprKind::Unary { op, prefix: true, operand: Box::new(operand) },
                span,
            });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> PResult<Expr> {
        let mut expr = self.primary()?;
        loop {
            match self.peek().kind {
                TokenKind::Punct(".") => {
                    self.bump();
                    // `.value(x)` legacy call options chain naturally as
                    // member + call.
                    let member = match self.peek().kind {
                        TokenKind::Ident(m) => {
                            self.bump();
                            m
                        }
                        // address.call / block.timestamp style members that
                        // collide with keywords.
                        TokenKind::Keyword(k) => {
                            self.bump();
                            Symbol::intern(k.as_str())
                        }
                        TokenKind::Ellipsis if self.opts.placeholders => {
                            self.bump();
                            Symbol::intern("...")
                        }
                        _ => {
                            return Err(self.error(format!(
                                "expected member name, found `{}`",
                                self.peek().kind.text()
                            )))
                        }
                    };
                    let span = expr.span.to(self.tokens[self.pos - 1].span);
                    expr = Expr {
                        kind: ExprKind::Member { base: Box::new(expr), member },
                        span,
                    };
                }
                TokenKind::Punct("[") => {
                    self.bump();
                    let index = if self.at_punct("]") {
                        None
                    } else {
                        Some(Box::new(self.expression()?))
                    };
                    let end = self.expect_punct("]")?;
                    let span = expr.span.to(end);
                    expr = Expr {
                        kind: ExprKind::Index { base: Box::new(expr), index },
                        span,
                    };
                }
                TokenKind::Punct("{") if self.call_options_ahead() => {
                    let options = self.call_options()?;
                    let args = if self.at_punct("(") { self.call_args()? } else { Vec::new() };
                    let span = expr.span.to(self.tokens[self.pos - 1].span);
                    expr = Expr {
                        kind: ExprKind::Call {
                            callee: Box::new(expr),
                            options,
                            args,
                            arg_names: vec![],
                        },
                        span,
                    };
                }
                TokenKind::Punct("(") => {
                    let (args, arg_names) = self.call_args_named()?;
                    let span = expr.span.to(self.tokens[self.pos - 1].span);
                    expr = Expr {
                        kind: ExprKind::Call {
                            callee: Box::new(expr),
                            options: vec![],
                            args,
                            arg_names,
                        },
                        span,
                    };
                }
                TokenKind::Punct("++") => {
                    let end = self.bump().span;
                    let span = expr.span.to(end);
                    expr = Expr {
                        kind: ExprKind::Unary {
                            op: UnOp::Inc,
                            prefix: false,
                            operand: Box::new(expr),
                        },
                        span,
                    };
                }
                TokenKind::Punct("--") => {
                    let end = self.bump().span;
                    let span = expr.span.to(end);
                    expr = Expr {
                        kind: ExprKind::Unary {
                            op: UnOp::Dec,
                            prefix: false,
                            operand: Box::new(expr),
                        },
                        span,
                    };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    /// Distinguish call options `f{value: 1}(...)` from a block statement
    /// following an expression (tolerant mode ambiguity).
    fn call_options_ahead(&self) -> bool {
        matches!(self.peek_at(1).kind, TokenKind::Ident(_) | TokenKind::Keyword(_))
            && matches!(self.peek_at(2).kind, TokenKind::Punct(":"))
    }

    fn call_options(&mut self) -> PResult<Vec<(Symbol, Expr)>> {
        self.expect_punct("{")?;
        let mut options = Vec::new();
        while !self.at_punct("}") && !self.at_eof() {
            let name = match self.peek().kind {
                TokenKind::Ident(n) => {
                    self.bump();
                    n
                }
                TokenKind::Keyword(k) => {
                    self.bump();
                    Symbol::intern(k.as_str())
                }
                _ => return Err(self.error("expected call option name".into())),
            };
            self.expect_punct(":")?;
            let value = self.expression()?;
            options.push((name, value));
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct("}")?;
        Ok(options)
    }

    fn call_args(&mut self) -> PResult<Vec<Expr>> {
        Ok(self.call_args_named()?.0)
    }

    fn call_args_named(&mut self) -> PResult<(Vec<Expr>, Vec<Symbol>)> {
        self.expect_punct("(")?;
        let mut args = Vec::new();
        let mut names = Vec::new();
        // Named-argument call `f({a: 1, b: 2})`.
        if self.at_punct("{") {
            let options = self.call_options()?;
            for (name, value) in options {
                names.push(name);
                args.push(value);
            }
            self.expect_punct(")")?;
            return Ok((args, names));
        }
        while !self.at_punct(")") && !self.at_eof() {
            if matches!(self.peek().kind, TokenKind::Ellipsis) && self.opts.placeholders {
                let span = self.bump().span;
                args.push(Expr { kind: ExprKind::Ellipsis, span });
            } else {
                args.push(self.expression()?);
            }
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(")")?;
        Ok((args, names))
    }

    fn primary(&mut self) -> PResult<Expr> {
        let start = self.span();
        let kind = match self.peek().kind {
            TokenKind::Number(n) => {
                self.bump();
                let unit = match self.peek().kind {
                    TokenKind::Keyword(k) if k.is_denomination() || k.is_time_unit() => {
                        let u = Symbol::intern(k.as_str());
                        self.bump();
                        Some(u)
                    }
                    _ => None,
                };
                ExprKind::Literal(Lit::Number { value: n, unit })
            }
            TokenKind::Str(s) => {
                self.bump();
                ExprKind::Literal(Lit::Str(s))
            }
            TokenKind::HexStr(s) => {
                self.bump();
                ExprKind::Literal(Lit::Hex(s))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.bump();
                ExprKind::Literal(Lit::Bool(true))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.bump();
                ExprKind::Literal(Lit::Bool(false))
            }
            TokenKind::Keyword(Keyword::New) => {
                self.bump();
                let ty = self.type_name()?;
                ExprKind::New(ty)
            }
            TokenKind::Keyword(Keyword::Payable) => {
                self.bump();
                ExprKind::ElementaryType("payable".into())
            }
            TokenKind::Keyword(Keyword::Address) => {
                self.bump();
                ExprKind::ElementaryType("address".into())
            }
            TokenKind::Keyword(Keyword::String) => {
                self.bump();
                ExprKind::ElementaryType("string".into())
            }
            TokenKind::Keyword(Keyword::Bytes) => {
                self.bump();
                ExprKind::ElementaryType("bytes".into())
            }
            TokenKind::Keyword(Keyword::Byte) => {
                self.bump();
                ExprKind::ElementaryType("byte".into())
            }
            TokenKind::Keyword(Keyword::Bool) => {
                self.bump();
                ExprKind::ElementaryType("bool".into())
            }
            TokenKind::Keyword(Keyword::Type) => {
                self.bump();
                ExprKind::Ident("type".into())
            }
            TokenKind::Keyword(Keyword::Throw) => {
                // `cond ? throw : x` appears in ancient snippets; treat as
                // identifier so the expression parses.
                self.bump();
                ExprKind::Ident("throw".into())
            }
            TokenKind::Ident(word) => {
                if is_elementary_type_sym(word) {
                    self.bump();
                    ExprKind::ElementaryType(word)
                } else {
                    self.bump();
                    ExprKind::Ident(word)
                }
            }
            TokenKind::Punct("(") => {
                self.bump();
                let mut entries: Vec<Option<Expr>> = Vec::new();
                let mut saw_comma = false;
                while !self.at_punct(")") && !self.at_eof() {
                    if self.at_punct(",") {
                        self.bump();
                        saw_comma = true;
                        if entries.is_empty() {
                            entries.push(None);
                        }
                        if self.at_punct(")") || self.at_punct(",") {
                            entries.push(None);
                        }
                        continue;
                    }
                    entries.push(Some(self.expression()?));
                }
                self.expect_punct(")")?;
                if entries.len() == 1 && !saw_comma {
                    let inner = entries.pop().unwrap().unwrap();
                    let end = self.tokens[self.pos - 1].span;
                    return Ok(Expr { kind: inner.kind, span: start.to(end) });
                }
                ExprKind::Tuple(entries)
            }
            TokenKind::Punct("[") => {
                // Inline array literal `[1, 2, 3]`.
                self.bump();
                let mut entries = Vec::new();
                while !self.at_punct("]") && !self.at_eof() {
                    entries.push(Some(self.expression()?));
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct("]")?;
                ExprKind::Tuple(entries)
            }
            TokenKind::Ellipsis if self.opts.placeholders => {
                self.bump();
                ExprKind::Ellipsis
            }
            other => {
                return Err(self.error(format!(
                    "expected expression, found `{}`",
                    other.text()
                )))
            }
        };
        let end = self.tokens[self.pos.saturating_sub(1)].span;
        Ok(Expr { kind, span: start.to(end) })
    }
}

fn visibility_of(k: Keyword) -> Visibility {
    match k {
        Keyword::Public => Visibility::Public,
        Keyword::Private => Visibility::Private,
        Keyword::Internal => Visibility::Internal,
        Keyword::External => Visibility::External,
        _ => unreachable!("not a visibility keyword"),
    }
}

fn mutability_of(k: Keyword) -> Mutability {
    match k {
        Keyword::Pure => Mutability::Pure,
        Keyword::View => Mutability::View,
        Keyword::Payable => Mutability::Payable,
        Keyword::Constant => Mutability::Constant,
        _ => unreachable!("not a mutability keyword"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_listing_1() {
        // The paper's Listing 1 (with the missing `;` and loose header kept).
        let src = r#"
            contract Parent {
                address owner;
                constructor() { owner = msg.sender; }
            }
            contract Main is Parent {
                uint state_var;
                constructor() { state_var = 0; }
                function() payable {}
                function withdrawAll public onlyOwner() {
                    msg.sender.call{value: this.balance}("");
                }
                modifier onlyOwner() {
                    require(msg.sender == owner, "Not owner"); _;
                }
            }
        "#;
        let unit = parse_snippet(src).unwrap();
        assert_eq!(unit.items.len(), 2);
        let SourceItem::Contract(main) = &unit.items[1] else { panic!() };
        assert_eq!(main.name, "Main");
        assert_eq!(main.bases[0].name, "Parent");
        assert_eq!(main.parts.len(), 5);
    }

    #[test]
    fn bare_function_snippet() {
        let unit = parse_snippet("function() {lib.delegatecall(msg.data);}").unwrap();
        let SourceItem::Function(f) = &unit.items[0] else { panic!() };
        assert!(f.is_default_function());
    }

    #[test]
    fn bare_statements_snippet() {
        let unit = parse_snippet("owner = msg.sender;\nballance += msg.value").unwrap();
        assert_eq!(unit.items.len(), 2);
        assert!(matches!(unit.items[1], SourceItem::Statement(_)));
    }

    #[test]
    fn newline_terminated_statements() {
        let unit = parse_snippet("uint a = 1\nuint b = 2\na = a + b").unwrap();
        assert_eq!(unit.items.len(), 3);
    }

    #[test]
    fn strict_mode_rejects_missing_semi() {
        assert!(parse_source("contract C { function f() public { uint a = 1 uint b = 2; } }").is_err());
    }

    #[test]
    fn strict_mode_rejects_bare_statements() {
        assert!(parse_source("owner = msg.sender;").is_err());
        assert!(parse_snippet("owner = msg.sender;").is_ok());
    }

    #[test]
    fn strict_mode_rejects_placeholders() {
        assert!(parse_source("contract C { function f() public { ... } }").is_err());
        assert!(parse_snippet("contract C { function f() public { ... } }").is_ok());
    }

    #[test]
    fn placeholders_in_contract_body() {
        let unit = parse_snippet("contract C {\n ...\n function f() public {} }").unwrap();
        let SourceItem::Contract(c) = &unit.items[0] else { panic!() };
        assert!(matches!(c.parts[0], ContractPart::Placeholder(_)));
    }

    #[test]
    fn mapping_and_arrays() {
        let unit = parse_snippet(
            "mapping(address => uint256) public balances;\nuint[] values;\nuint[10] fixed_values;",
        )
        .unwrap();
        let SourceItem::Variable(v) = &unit.items[0] else { panic!() };
        assert!(v.ty.is_collection());
        assert_eq!(v.name, "balances");
    }

    #[test]
    fn call_options_and_legacy_value() {
        let unit = parse_snippet(
            "to.call{value: amount, gas: 2300}(\"\");\nto.call.value(amount)();",
        )
        .unwrap();
        assert_eq!(unit.items.len(), 2);
        let SourceItem::Statement(s) = &unit.items[0] else { panic!() };
        let StatementKind::Expression(e) = &s.kind else { panic!() };
        let ExprKind::Call { options, .. } = &e.kind else { panic!() };
        assert_eq!(options.len(), 2);
        assert_eq!(options[0].0, "value");
    }

    #[test]
    fn modifier_with_placeholder() {
        let unit =
            parse_snippet("modifier onlyOwner { require(msg.sender == owner); _; }").unwrap();
        let SourceItem::Modifier(m) = &unit.items[0] else { panic!() };
        let body = m.body.as_ref().unwrap();
        assert!(matches!(body.statements[1].kind, StatementKind::ModifierPlaceholder));
    }

    #[test]
    fn loops_and_control_flow() {
        let src = r#"
            function f(uint n) public {
                for (uint i = 0; i < n; i++) { total += i; }
                while (total > 0) { total--; }
                do { x += 1; } while (x < 10);
                if (x == 1) { return; } else { revert("bad"); }
            }
        "#;
        let unit = parse_snippet(src).unwrap();
        let SourceItem::Function(f) = &unit.items[0] else { panic!() };
        assert_eq!(f.body.as_ref().unwrap().statements.len(), 4);
    }

    #[test]
    fn tuple_destructuring() {
        let unit = parse_snippet("(uint a, uint b) = f();").unwrap();
        let SourceItem::Statement(s) = &unit.items[0] else { panic!() };
        let StatementKind::VariableDecl { parts, value } = &s.kind else { panic!() };
        assert_eq!(parts.len(), 2);
        assert!(value.is_some());
    }

    #[test]
    fn emit_revert_throw() {
        let unit = parse_snippet(
            "emit Transfer(from, to, value);\nrevert(\"nope\");\nthrow;",
        )
        .unwrap();
        assert!(matches!(
            unit.items[0],
            SourceItem::Statement(Statement { kind: StatementKind::Emit(_), .. })
        ));
        assert!(matches!(
            unit.items[1],
            SourceItem::Statement(Statement { kind: StatementKind::Revert(_), .. })
        ));
        assert!(matches!(
            unit.items[2],
            SourceItem::Statement(Statement { kind: StatementKind::Throw, .. })
        ));
    }

    #[test]
    fn assembly_is_captured_not_parsed() {
        let unit =
            parse_snippet("function f() public { assembly { let x := mload(0x40) } }").unwrap();
        let SourceItem::Function(f) = &unit.items[0] else { panic!() };
        let body = f.body.as_ref().unwrap();
        assert!(matches!(body.statements[0].kind, StatementKind::Assembly(_)));
    }

    #[test]
    fn units_parse() {
        let unit = parse_snippet("uint x = 1 ether + 30 days;").unwrap();
        let SourceItem::Statement(s) = &unit.items[0] else { panic!() };
        let StatementKind::VariableDecl { value: Some(v), .. } = &s.kind else { panic!() };
        let ExprKind::Binary { lhs, .. } = &v.kind else { panic!() };
        let ExprKind::Literal(Lit::Number { unit: Some(u), .. }) = &lhs.kind else { panic!() };
        assert_eq!(u, "ether");
    }

    #[test]
    fn interface_and_library() {
        let src = r#"
            interface IERC20 { function transfer(address to, uint256 value) external returns (bool); }
            library SafeMath { function add(uint a, uint b) internal pure returns (uint) { return a + b; } }
        "#;
        let unit = parse_source(src).unwrap();
        assert_eq!(unit.items.len(), 2);
    }

    #[test]
    fn pragma_and_import() {
        let unit = parse_source(
            "pragma solidity ^0.8.0;\nimport \"./IERC20.sol\";\ncontract C {}",
        )
        .unwrap();
        assert_eq!(unit.items.len(), 3);
        let SourceItem::Pragma(p) = &unit.items[0] else { panic!() };
        assert!(p.value.contains("0.8.0"));
    }

    #[test]
    fn precedence() {
        let unit = parse_snippet("x = a + b * c ** d;").unwrap();
        let SourceItem::Statement(s) = &unit.items[0] else { panic!() };
        let StatementKind::Expression(e) = &s.kind else { panic!() };
        assert_eq!(e.code(), "x = a + b * c ** d");
        let ExprKind::Assign { rhs, .. } = &e.kind else { panic!() };
        let ExprKind::Binary { op: BinOp::Add, .. } = &rhs.kind else { panic!() };
    }

    #[test]
    fn ternary_and_comparison() {
        let unit = parse_snippet("y = a > b ? a - b : b - a;").unwrap();
        assert_eq!(unit.items.len(), 1);
    }

    #[test]
    fn struct_enum_event_error() {
        let src = r#"
            struct Position { address owner; uint amount; }
            enum State { Created, Locked, Released }
            event Paid(address indexed from, uint value);
            error NotOwner(address caller);
        "#;
        let unit = parse_snippet(src).unwrap();
        assert_eq!(unit.items.len(), 4);
    }

    #[test]
    fn try_catch() {
        let src = r#"
            function f(address t) public {
                try IThing(t).doIt() returns (uint v) { total = v; }
                catch Error(string memory reason) { emit Failed(reason); }
                catch {}
            }
        "#;
        let unit = parse_snippet(src).unwrap();
        let SourceItem::Function(f) = &unit.items[0] else { panic!() };
        let StatementKind::Try { catches, .. } = &f.body.as_ref().unwrap().statements[0].kind
        else {
            panic!()
        };
        assert_eq!(catches.len(), 2);
    }

    #[test]
    fn unparsable_prose_is_rejected() {
        assert!(parse_snippet("you should use the transfer function like when x then do").is_err());
    }

    #[test]
    fn snippet_levels() {
        use crate::SnippetLevel;
        assert_eq!(
            parse_snippet("contract C {}").unwrap().snippet_level(),
            SnippetLevel::Contract
        );
        assert_eq!(
            parse_snippet("function f() public {}").unwrap().snippet_level(),
            SnippetLevel::Function
        );
        assert_eq!(
            parse_snippet("x = 1;").unwrap().snippet_level(),
            SnippetLevel::Statement
        );
    }

    #[test]
    fn unchecked_block() {
        let unit = parse_snippet("function f() public { unchecked { x += 1; } }").unwrap();
        let SourceItem::Function(f) = &unit.items[0] else { panic!() };
        assert!(matches!(
            f.body.as_ref().unwrap().statements[0].kind,
            StatementKind::Unchecked(_)
        ));
    }

    #[test]
    fn named_call_arguments() {
        let unit = parse_snippet("f({a: 1, b: 2});").unwrap();
        let SourceItem::Statement(s) = &unit.items[0] else { panic!() };
        let StatementKind::Expression(e) = &s.kind else { panic!() };
        let ExprKind::Call { args, arg_names, .. } = &e.kind else { panic!() };
        assert_eq!(args.len(), 2);
        assert_eq!(arg_names, &["a", "b"]);
    }

    #[test]
    fn using_for() {
        let unit = parse_snippet("using SafeMath for uint256;").unwrap();
        let SourceItem::UsingFor(u) = &unit.items[0] else { panic!() };
        assert_eq!(u.library, "SafeMath");
    }
}

#[cfg(test)]
mod depth_tests {
    use super::*;

    #[test]
    fn deeply_nested_expression_is_rejected_not_crashed() {
        let src = format!("x = {}1{};", "(".repeat(2000), ")".repeat(2000));
        assert!(parse_snippet(&src).is_err());
    }

    #[test]
    fn deeply_nested_blocks_are_rejected_not_crashed() {
        let src = format!(
            "function f() public {} x = 1; {}",
            "{ if (a) {".repeat(500),
            "} }".repeat(500)
        );
        assert!(parse_snippet(&src).is_err());
    }

    #[test]
    fn reasonable_nesting_still_parses() {
        let src = format!("x = {}1{};", "(".repeat(30), ")".repeat(30));
        assert!(parse_snippet(&src).is_ok());
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The parser never panics, whatever bytes arrive — Q&A snippets
        /// are adversarial input by nature.
        #[test]
        fn parser_never_panics_on_arbitrary_text(s in "\\PC{0,200}") {
            let _ = parse_snippet(&s);
            let _ = parse_source(&s);
        }

        /// Solidity-ish token soup must not panic either.
        #[test]
        fn parser_never_panics_on_token_soup(
            words in proptest::collection::vec(
                prop_oneof![
                    Just("contract"), Just("function"), Just("{"), Just("}"),
                    Just("("), Just(")"), Just(";"), Just("..."), Just("uint"),
                    Just("x"), Just("="), Just("1"), Just("if"), Just("mapping"),
                    Just("=>"), Just("["), Just("]"), Just("msg"), Just("."),
                    Just("sender"), Just("require"), Just("modifier"), Just("_"),
                ],
                0..64,
            ),
        ) {
            let source = words.join(" ");
            let _ = parse_snippet(&source);
        }

        /// Whatever parses must also print and re-parse (no panics in the
        /// printer on any accepted tree).
        #[test]
        fn accepted_input_roundtrips_without_panic(s in "\\PC{0,200}") {
            if let Ok(unit) = parse_snippet(&s) {
                let printed = crate::printer::print_unit(&unit);
                let _ = parse_snippet(&printed);
            }
        }
    }
}
