//! Snippet-tolerant Solidity front-end.
//!
//! This crate provides a lexer, a recursive-descent parser and an abstract
//! syntax tree for the Solidity smart-contract language. Unlike the official
//! grammar, the parser is designed to accept *incomplete* code snippets as
//! they appear on Q&A websites such as Stack Overflow and the Ethereum Stack
//! Exchange (cf. §4.1 of the paper):
//!
//! * **Unnesting of hierarchy** — contracts, functions, modifiers, events,
//!   state variables and bare statements may all appear at the top level of a
//!   source unit, so a snippet copied from inside a contract body parses.
//! * **Statement termination** — a missing `;` is tolerated when a newline
//!   (or a closing brace / end of input) terminates the statement.
//! * **Placeholders** — the ellipsis `...` (and `…`) frequently used in
//!   snippets to elide code is tokenized and parsed as a placeholder
//!   statement/expression instead of a syntax error.
//!
//! The entry points are [`parse_source`] for strict(ish) full sources and
//! [`parse_snippet`] for tolerant snippet parsing. Both return a
//! [`ast::SourceUnit`].
//!
//! ```
//! // A bare function with a missing semicolon and a placeholder parses:
//! let unit = solidity::parse_snippet(
//!     "function pay(address to) {\n to.transfer(1 ether)\n ... \n}",
//! ).unwrap();
//! assert_eq!(unit.items.len(), 1);
//! ```


#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod span;
pub mod token;
pub mod visitor;

pub use ast::SourceUnit;
pub use error::AnalysisError;
pub use parser::{parse_snippet, parse_source, ParseError, ParserOptions};
pub use span::Span;

/// Classification of what a parsed snippet contains at its top level,
/// mirroring the composition statistics reported in §6.1 of the paper
/// (contract definitions vs. only functions vs. only statements).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnippetLevel {
    /// At least one contract / interface / library definition.
    Contract,
    /// No contract, but at least one function or modifier definition.
    Function,
    /// Only statements, expressions or declarations.
    Statement,
}

impl SourceUnit {
    /// Classify the hierarchy level of this source unit (cf. §6.1).
    pub fn snippet_level(&self) -> SnippetLevel {
        use ast::SourceItem;
        let mut has_fn = false;
        for item in &self.items {
            match item {
                SourceItem::Contract(_) => return SnippetLevel::Contract,
                SourceItem::Function(_) | SourceItem::Modifier(_) => has_fn = true,
                _ => {}
            }
        }
        if has_fn {
            SnippetLevel::Function
        } else {
            SnippetLevel::Statement
        }
    }
}
