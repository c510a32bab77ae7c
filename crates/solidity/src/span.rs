//! Compact byte-offset source spans.
//!
//! A span is two `u32` byte offsets — 8 bytes, `Copy`, no line/column
//! payload. Human-facing line/column positions are resolved on demand
//! through the [`intern::LineIndex`] built once per source (carried by
//! [`crate::ast::SourceUnit`]), instead of being threaded through every
//! token and AST node as they were before the interning rebuild.

use std::fmt;

/// A half-open byte range `[start, end)` into the original source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// A span covering nothing, used for synthesized nodes. The sentinel
    /// offsets are out of range for any real source, so a dummy is never
    /// confused with a genuine zero-length span at offset 0.
    pub const DUMMY: Span = Span { start: u32::MAX, end: u32::MAX };

    /// Create a new span.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start: start as u32, end: end as u32 }
    }

    /// Whether this is the [`Span::DUMMY`] sentinel.
    pub fn is_dummy(self) -> bool {
        self == Span::DUMMY
    }

    /// The smallest span covering both `self` and `other`.
    ///
    /// Dummy spans are treated as identity elements so synthesized nodes do
    /// not drag real spans down to offset zero.
    pub fn to(self, other: Span) -> Span {
        if self.is_dummy() {
            return other;
        }
        if other.is_dummy() {
            return self;
        }
        Span { start: self.start.min(other.start), end: self.end.max(other.end) }
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start) as usize
    }

    /// Whether the span is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extract the spanned text from the source it was produced from.
    ///
    /// Returns an empty string if the span is out of bounds for `src`
    /// (e.g. a dummy span of a synthesized node).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start as usize..self.end as usize).unwrap_or("")
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_dummy() {
            write!(f, "<dummy>")
        } else {
            write!(f, "{}..{}", self.start, self.end)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_spans() {
        let a = Span::new(4, 10);
        let b = Span::new(12, 20);
        let j = a.to(b);
        assert_eq!(j.start, 4);
        assert_eq!(j.end, 20);
    }

    #[test]
    fn dummy_is_identity() {
        let a = Span::new(4, 10);
        assert_eq!(Span::DUMMY.to(a), a);
        assert_eq!(a.to(Span::DUMMY), a);
        assert!(Span::DUMMY.is_dummy());
        assert!(!a.is_dummy());
    }

    #[test]
    fn zero_offset_span_is_not_dummy() {
        assert!(!Span::new(0, 0).is_dummy());
    }

    #[test]
    fn text_extraction() {
        let src = "hello world";
        let s = Span::new(6, 11);
        assert_eq!(s.text(src), "world");
        assert_eq!(Span::new(100, 200).text(src), "");
        assert_eq!(Span::DUMMY.text(src), "");
    }
}
