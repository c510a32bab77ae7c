//! Lexer for Solidity source code and snippets.
//!
//! The lexer is deliberately forgiving: unknown characters become single-byte
//! punctuation tokens or are skipped, `...`/`…` is lexed as a placeholder
//! token, and unterminated strings are closed at the end of the line. This
//! matches the requirement of parsing snippets from Q&A sites, which are
//! frequently truncated or decorated.
//!
//! Since the interning rebuild the lexer allocates nothing per token on the
//! common path: words and numbers become [`Symbol`]s (a hash lookup, or a
//! single arena copy the first time a text is seen), spans are two `u32`
//! offsets, and line/column bookkeeping is gone — positions are resolved on
//! demand through an [`intern::LineIndex`]. The previous `String`-allocating
//! implementation is preserved verbatim in [`mod@reference`] as the
//! differential-testing oracle.

use crate::span::Span;
use crate::token::{Keyword, Token, TokenKind};
use intern::{Symbol, SymbolCache};

pub mod reference;

/// Errors produced by the lexer. The lexer recovers from everything it can;
/// this only remains for inputs that cannot be tokenized at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Description of the failure.
    pub message: String,
    /// Where it happened.
    pub span: Span,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lex error at byte {}: {}", self.span.start, self.message)
    }
}

impl std::error::Error for LexError {}


/// Tokenize `src` into a token stream ending in [`TokenKind::Eof`].
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    thread_local! {
        static CACHE: std::cell::RefCell<SymbolCache> =
            std::cell::RefCell::new(SymbolCache::new());
    }
    CACHE.with(|cell| match cell.try_borrow_mut() {
        // The persistent per-thread memo: identifiers repeat heavily both
        // within and across sources, so the cache stays hot across calls.
        Ok(mut cache) => Lexer::new(src, &mut cache).run(),
        // Re-entrant `lex` call (not expected, but cheap to tolerate).
        Err(_) => Lexer::new(src, &mut SymbolCache::new()).run(),
    })
}

struct Lexer<'a, 'c> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    newline_pending: bool,
    tokens: Vec<Token>,
    cache: &'c mut SymbolCache,
}

impl<'a, 'c> Lexer<'a, 'c> {
    fn new(src: &'a str, cache: &'c mut SymbolCache) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            newline_pending: false,
            // Ballpark: one token per ~4 source bytes avoids most growth
            // reallocations without over-reserving for comment-heavy files.
            tokens: Vec::with_capacity(src.len() / 4 + 4),
            cache,
        }
    }

    fn run(mut self) -> Result<Vec<Token>, LexError> {
        while self.pos < self.bytes.len() {
            self.skip_trivia();
            if self.pos >= self.bytes.len() {
                break;
            }
            self.next_token()?;
        }
        let span = Span::new(self.pos, self.pos);
        self.push(TokenKind::Eof, span);
        Ok(self.tokens)
    }

    fn peek(&self) -> u8 {
        self.bytes.get(self.pos).copied().unwrap_or(0)
    }

    fn peek_at(&self, offset: usize) -> u8 {
        self.bytes.get(self.pos + offset).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        if b == b'\n' {
            self.newline_pending = true;
        }
        b
    }

    fn push(&mut self, kind: TokenKind, span: Span) {
        let newline_before = std::mem::take(&mut self.newline_pending);
        self.tokens.push(Token { kind, span, newline_before });
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                }
                b'\n' => {
                    self.pos += 1;
                    self.newline_pending = true;
                }
                b'/' if self.peek_at(1) == b'/' => {
                    // Scan the whole comment as a slice: one vectorizable
                    // search instead of a peek per byte. The terminating
                    // newline is left for the `b'\n'` arm above.
                    let rest = &self.bytes[self.pos..];
                    self.pos += rest
                        .iter()
                        .position(|&b| b == b'\n')
                        .unwrap_or(rest.len());
                }
                b'/' if self.peek_at(1) == b'*' => {
                    self.pos += 2;
                    loop {
                        let rest = &self.bytes[self.pos..];
                        let Some(star) = rest.iter().position(|&b| b == b'*') else {
                            // Unterminated comment: newlines inside still
                            // count for `newline_before` bookkeeping.
                            self.newline_pending |= rest.contains(&b'\n');
                            self.pos = self.bytes.len();
                            break;
                        };
                        self.newline_pending |= rest[..star].contains(&b'\n');
                        self.pos += star + 1;
                        if self.peek() == b'/' {
                            self.pos += 1;
                            break;
                        }
                    }
                }
                // Unicode ellipsis '…' (0xE2 0x80 0xA6) becomes a placeholder.
                0xE2 if self.peek_at(1) == 0x80 && self.peek_at(2) == 0xA6 => {
                    let start = self.pos;
                    self.pos += 3;
                    let span = Span::new(start, self.pos);
                    self.push(TokenKind::Ellipsis, span);
                }
                // Skip other non-ASCII bytes (smart quotes, arrows in prose).
                b if b >= 0x80 => {
                    self.pos += 1;
                }
                _ => break,
            }
        }
    }

    fn next_token(&mut self) -> Result<(), LexError> {
        let start = self.pos;
        let b = self.peek();

        if b.is_ascii_alphabetic() || b == b'_' || b == b'$' {
            self.lex_word(start);
            return Ok(());
        }
        if b.is_ascii_digit() {
            self.lex_number(start);
            return Ok(());
        }
        if b == b'"' || b == b'\'' {
            self.lex_string(start);
            return Ok(());
        }

        // Punctuation, dispatched on the first byte with maximal munch —
        // one match instead of a linear probe of every operator spelling.
        let next1 = self.peek_at(1);
        let next2 = self.peek_at(2);
        let (punct, len): (&'static str, usize) = match b {
            b'(' => ("(", 1),
            b')' => (")", 1),
            b'{' => ("{", 1),
            b'}' => ("}", 1),
            b'[' => ("[", 1),
            b']' => ("]", 1),
            b';' => (";", 1),
            b',' => (",", 1),
            b'?' => ("?", 1),
            b':' => (":", 1),
            b'~' => ("~", 1),
            b'.' if next1 == b'.' && next2 == b'.' => ("...", 3),
            b'.' => (".", 1),
            b'=' => match next1 {
                b'=' => ("==", 2),
                b'>' => ("=>", 2),
                _ => ("=", 1),
            },
            b'+' => match next1 {
                b'=' => ("+=", 2),
                b'+' => ("++", 2),
                _ => ("+", 1),
            },
            b'-' => match next1 {
                b'=' => ("-=", 2),
                b'-' => ("--", 2),
                b'>' => ("->", 2),
                _ => ("-", 1),
            },
            b'*' => match next1 {
                b'*' if next2 == b'=' => ("**=", 3),
                b'*' => ("**", 2),
                b'=' => ("*=", 2),
                _ => ("*", 1),
            },
            b'/' if next1 == b'=' => ("/=", 2),
            b'/' => ("/", 1),
            b'%' if next1 == b'=' => ("%=", 2),
            b'%' => ("%", 1),
            b'!' if next1 == b'=' => ("!=", 2),
            b'!' => ("!", 1),
            b'^' if next1 == b'=' => ("^=", 2),
            b'^' => ("^", 1),
            b'&' => match next1 {
                b'&' => ("&&", 2),
                b'=' => ("&=", 2),
                _ => ("&", 1),
            },
            b'|' => match next1 {
                b'|' => ("||", 2),
                b'=' => ("|=", 2),
                _ => ("|", 1),
            },
            b'<' => match next1 {
                b'<' if next2 == b'=' => ("<<=", 3),
                b'<' => ("<<", 2),
                b'=' => ("<=", 2),
                _ => ("<", 1),
            },
            b'>' => match next1 {
                b'>' if next2 == b'>' && self.peek_at(3) == b'=' => (">>>=", 4),
                b'>' if next2 == b'=' => (">>=", 3),
                b'>' => (">>", 2),
                b'=' => (">=", 2),
                _ => (">", 1),
            },
            // Unknown ASCII character (`#`, `@`, backtick from markdown
            // fences, ...). Snippets contain these routinely; skip rather
            // than fail.
            _ => {
                self.pos += 1;
                return Ok(());
            }
        };
        self.pos += len;
        let span = Span::new(start, self.pos);
        if punct == "..." {
            self.push(TokenKind::Ellipsis, span);
        } else {
            self.push(TokenKind::Punct(punct), span);
        }
        Ok(())
    }

    fn lex_word(&mut self, start: usize) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_' || b == b'$'))
            .unwrap_or(rest.len());
        let word = &self.src[start..self.pos];

        // `hex"??"` string literal.
        if word == "hex" && (self.peek() == b'"' || self.peek() == b'\'') {
            let quote = self.bump();
            let content_start = self.pos;
            while self.pos < self.bytes.len() && self.peek() != quote && self.peek() != b'\n' {
                self.pos += 1;
            }
            let content = self.cache.intern(&self.src[content_start..self.pos]);
            if self.peek() == quote {
                self.pos += 1;
            }
            let span = Span::new(start, self.pos);
            self.push(TokenKind::HexStr(content), span);
            return;
        }

        let span = Span::new(start, self.pos);
        match Keyword::from_str(word) {
            Some(kw) => self.push(TokenKind::Keyword(kw), span),
            None => {
                let sym = self.cache.intern(word);
                self.push(TokenKind::Ident(sym), span)
            }
        }
    }

    fn lex_number(&mut self, start: usize) {
        let mut saw_underscore = false;
        if self.peek() == b'0' && (self.peek_at(1) | 0x20) == b'x' {
            self.pos += 2;
            while self.peek().is_ascii_hexdigit() || self.peek() == b'_' {
                saw_underscore |= self.peek() == b'_';
                self.pos += 1;
            }
        } else {
            while self.peek().is_ascii_digit() || self.peek() == b'_' {
                saw_underscore |= self.peek() == b'_';
                self.pos += 1;
            }
            if self.peek() == b'.' && self.peek_at(1).is_ascii_digit() {
                self.pos += 1;
                while self.peek().is_ascii_digit() || self.peek() == b'_' {
                    saw_underscore |= self.peek() == b'_';
                    self.pos += 1;
                }
            }
            if (self.peek() | 0x20) == b'e'
                && (self.peek_at(1).is_ascii_digit()
                    || (self.peek_at(1) == b'-' && self.peek_at(2).is_ascii_digit()))
            {
                self.pos += 1;
                if self.peek() == b'-' {
                    self.pos += 1;
                }
                while self.peek().is_ascii_digit() {
                    self.pos += 1;
                }
            }
        }
        let span = Span::new(start, self.pos);
        let raw = &self.src[start..self.pos];
        // `1_000`-style separators are rare; only they pay for a cleanup
        // allocation before interning.
        let text = if saw_underscore {
            Symbol::intern(&raw.replace('_', ""))
        } else {
            self.cache.intern(raw)
        };
        self.push(TokenKind::Number(text), span);
    }

    fn lex_string(&mut self, start: usize) {
        let quote = self.bump();
        let content_start = self.pos;
        // Fast path: scan ahead for a clean ASCII literal with no escapes,
        // which interns the source slice directly. Escapes and non-ASCII
        // bytes fall back to the byte-by-byte decode of the reference
        // lexer (which maps each raw byte to a `char`).
        let mut scan = self.pos;
        let mut simple = true;
        while scan < self.bytes.len() {
            let b = self.bytes[scan];
            if b == quote || b == b'\n' {
                break;
            }
            if b == b'\\' || b >= 0x80 {
                simple = false;
                break;
            }
            scan += 1;
        }
        if simple {
            self.pos = scan;
            let content = self.cache.intern(&self.src[content_start..self.pos]);
            // Unterminated string: close at end of line (snippet tolerance).
            if self.peek() == quote {
                self.pos += 1;
            }
            let span = Span::new(start, self.pos);
            self.push(TokenKind::Str(content), span);
            return;
        }
        // Slow path. The ASCII prefix scanned above is copied verbatim;
        // decoding continues exactly like the reference implementation.
        let mut content = String::with_capacity(scan - content_start + 16);
        content.push_str(&self.src[content_start..scan]);
        self.pos = scan;
        while self.pos < self.bytes.len() {
            let b = self.peek();
            if b == quote {
                self.bump();
                break;
            }
            // Unterminated string: close at end of line (snippet tolerance).
            if b == b'\n' {
                break;
            }
            if b == b'\\' {
                self.bump();
                let escaped = self.bump();
                content.push(match escaped {
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'0' => '\0',
                    other => other as char,
                });
                continue;
            }
            content.push(self.bump() as char);
        }
        let span = Span::new(start, self.pos);
        self.push(TokenKind::Str(Symbol::intern(&content)), span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn lex_simple_statement() {
        let ks = kinds("owner = msg.sender;");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident(sym("owner")),
                TokenKind::Punct("="),
                TokenKind::Ident(sym("msg")),
                TokenKind::Punct("."),
                TokenKind::Ident(sym("sender")),
                TokenKind::Punct(";"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn keywords_are_recognized() {
        let ks = kinds("contract function payable");
        assert!(matches!(ks[0], TokenKind::Keyword(Keyword::Contract)));
        assert!(matches!(ks[1], TokenKind::Keyword(Keyword::Function)));
        assert!(matches!(ks[2], TokenKind::Keyword(Keyword::Payable)));
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("a // line comment\n/* block\ncomment */ b");
        assert_eq!(ks.len(), 3); // a, b, eof
    }

    #[test]
    fn newline_before_is_tracked() {
        let toks = lex("a\nb c").unwrap();
        assert!(!toks[0].newline_before);
        assert!(toks[1].newline_before);
        assert!(!toks[2].newline_before);
    }

    #[test]
    fn newline_inside_block_comment_still_counts() {
        let toks = lex("a /* x\ny */ b").unwrap();
        assert!(toks[1].newline_before);
    }

    #[test]
    fn ellipsis_placeholder() {
        let ks = kinds("... …");
        assert_eq!(ks, vec![TokenKind::Ellipsis, TokenKind::Ellipsis, TokenKind::Eof]);
    }

    #[test]
    fn numbers() {
        let ks = kinds("1 0x1F 1_000 2.5 1e18 3e-2");
        assert_eq!(
            ks[..6],
            [
                TokenKind::Number(sym("1")),
                TokenKind::Number(sym("0x1F")),
                TokenKind::Number(sym("1000")),
                TokenKind::Number(sym("2.5")),
                TokenKind::Number(sym("1e18")),
                TokenKind::Number(sym("3e-2")),
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        let ks = kinds(r#""hello \"x\"" 'y'"#);
        assert_eq!(ks[0], TokenKind::Str(sym("hello \"x\"")));
        assert_eq!(ks[1], TokenKind::Str(sym("y")));
    }

    #[test]
    fn unterminated_string_closes_at_newline() {
        let ks = kinds("\"oops\nnext");
        assert_eq!(ks[0], TokenKind::Str(sym("oops")));
        assert_eq!(ks[1], TokenKind::Ident(sym("next")));
    }

    #[test]
    fn hex_string() {
        let ks = kinds(r#"hex"deadbeef""#);
        assert_eq!(ks[0], TokenKind::HexStr(sym("deadbeef")));
    }

    #[test]
    fn maximal_munch_operators() {
        let ks = kinds("a >>= b == c => d");
        assert_eq!(ks[1], TokenKind::Punct(">>="));
        assert_eq!(ks[3], TokenKind::Punct("=="));
        assert_eq!(ks[5], TokenKind::Punct("=>"));
    }

    #[test]
    fn garbage_bytes_are_skipped() {
        let ks = kinds("a @ # ` b £");
        assert_eq!(ks.len(), 3); // a, b, eof
    }

    #[test]
    fn spans_point_at_source() {
        let src = "uint x = 1;";
        let toks = lex(src).unwrap();
        assert_eq!(toks[0].span.text(src), "uint");
        assert_eq!(toks[1].span.text(src), "x");
        assert_eq!(toks[3].span.text(src), "1");
    }
}
