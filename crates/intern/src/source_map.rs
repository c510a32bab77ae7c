//! Byte-offset → line/column resolution.
//!
//! Spans in the interned frontend carry only `u32` byte offsets. When a
//! human-facing line/column is needed (diagnostics, findings), a
//! [`LineIndex`] built once per source resolves it with a binary search
//! over newline positions — replacing the line/col pair the old lexer
//! threaded through every token.

/// Newline positions of one source text, for O(log n) offset → (line,
/// column) resolution. Lines and columns are 1-based; columns count
/// **bytes**, matching what the pre-interning lexer reported.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineIndex {
    /// Byte offset of the start of each line. `line_starts[0] == 0`.
    line_starts: Vec<u32>,
    /// Total length of the indexed text in bytes.
    len: u32,
}

impl LineIndex {
    /// Index `text`'s newlines.
    pub fn new(text: &str) -> LineIndex {
        let mut line_starts = Vec::with_capacity(text.len() / 32 + 1);
        line_starts.push(0);
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        LineIndex { line_starts, len: text.len() as u32 }
    }

    /// The 1-based (line, byte-column) of byte `offset`. Offsets past the
    /// end of the text clamp to the final position.
    pub fn line_col(&self, offset: u32) -> (u32, u32) {
        let offset = offset.min(self.len);
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (line as u32 + 1, offset - self.line_starts[line] + 1)
    }

    /// The 1-based line of byte `offset`.
    pub fn line_of(&self, offset: u32) -> u32 {
        self.line_col(offset).0
    }

    /// Number of lines in the indexed text (at least 1).
    pub fn line_count(&self) -> u32 {
        self.line_starts.len() as u32
    }

    /// Length of the indexed text in bytes.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the indexed text was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_line() {
        let idx = LineIndex::new("hello");
        assert_eq!(idx.line_col(0), (1, 1));
        assert_eq!(idx.line_col(4), (1, 5));
        assert_eq!(idx.line_count(), 1);
    }

    #[test]
    fn multi_line() {
        //                        0123 456 789
        let idx = LineIndex::new("ab\ncd\nef");
        assert_eq!(idx.line_col(0), (1, 1));
        assert_eq!(idx.line_col(2), (1, 3)); // the '\n' belongs to line 1
        assert_eq!(idx.line_col(3), (2, 1));
        assert_eq!(idx.line_col(6), (3, 1));
        assert_eq!(idx.line_col(7), (3, 2));
        assert_eq!(idx.line_count(), 3);
    }

    #[test]
    fn offsets_clamp_to_end() {
        let idx = LineIndex::new("ab\ncd");
        assert_eq!(idx.line_col(5), (2, 3));
        assert_eq!(idx.line_col(500), (2, 3));
    }

    #[test]
    fn empty_text() {
        let idx = LineIndex::new("");
        assert_eq!(idx.line_col(0), (1, 1));
        assert_eq!(idx.line_count(), 1);
        assert!(idx.is_empty());
    }

    #[test]
    fn trailing_newline_starts_a_line() {
        let idx = LineIndex::new("ab\n");
        assert_eq!(idx.line_count(), 2);
        assert_eq!(idx.line_col(3), (2, 1));
    }

    #[test]
    fn utf8_columns_are_byte_columns() {
        // 'é' is 2 bytes, '∆' is 3 — columns count bytes, exactly like the
        // old lexer's per-byte col tracking did.
        let text = "é∆x\ny";
        let idx = LineIndex::new(text);
        let x_off = text.find('x').unwrap() as u32;
        assert_eq!(idx.line_col(x_off), (1, 6));
        let y_off = text.find('y').unwrap() as u32;
        assert_eq!(idx.line_col(y_off), (2, 1));
    }
}
