//! Per-connection state owned by the event loop: the
//! growable read buffer the incremental parser scans, the ordered
//! response slots that keep pipelined replies in request order, and the
//! pending write backlog.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::Instant;

/// One in-flight request's reserved position in the response order.
/// Slots are appended as requests finish parsing and filled (possibly
/// out of order) as workers complete; writes drain strictly from the
/// front, so a response is never sent before all its predecessors.
pub struct Slot {
    /// Dispatch sequence number within this connection: the key a
    /// completion names to fill this slot.
    pub seq: u64,
    /// The rendered response, once the worker (or an inline error
    /// path) has produced it.
    pub response: Option<Vec<u8>>,
    /// Close the connection after this response flushes (negotiated
    /// `Connection: close`, protocol error, or drain).
    pub close_after: bool,
}

/// A connection owned by the event loop.
pub struct Conn {
    /// The non-blocking stream.
    pub stream: TcpStream,
    /// Loop-unique monotonic token — also the epoll token, so a
    /// recycled fd can never be confused with its predecessor.
    pub token: u64,
    /// Bytes read but not yet consumed by the parser. `read_pos` marks
    /// the consumed prefix; the buffer is compacted opportunistically
    /// instead of draining per request (pipelined bursts would make
    /// `Vec::drain` quadratic).
    pub read_buf: Vec<u8>,
    /// Consumed prefix of `read_buf`.
    pub read_pos: usize,
    /// Rendered-but-unwritten bytes (socket buffer was full).
    pub write_buf: Vec<u8>,
    /// Written prefix of `write_buf`.
    pub write_pos: usize,
    /// In-flight and completed-but-unflushed responses, request order.
    pub slots: VecDeque<Slot>,
    /// Next request sequence number on this connection.
    pub next_seq: u64,
    /// Deadline for completing the currently-buffered partial request;
    /// armed only while an incomplete request sits in `read_buf`
    /// (slowloris defense), disarmed when the buffer is empty.
    pub read_deadline: Option<Instant>,
    /// Reads are paused: at the pipeline cap, poisoned by a protocol
    /// error, or draining. No further requests will be parsed.
    pub closing: bool,
    /// Close the socket once every queued response has flushed.
    pub close_when_flushed: bool,
    /// Interest mask currently registered with epoll.
    pub interest: u32,
}

impl Conn {
    /// Wrap a freshly accepted stream.
    pub fn new(stream: TcpStream, token: u64) -> Self {
        Conn {
            stream,
            token,
            read_buf: Vec::new(),
            read_pos: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            slots: VecDeque::new(),
            next_seq: 0,
            read_deadline: None,
            closing: false,
            close_when_flushed: false,
            interest: 0,
        }
    }

    /// The unparsed window of the read buffer.
    pub fn unparsed(&self) -> &[u8] {
        &self.read_buf[self.read_pos..]
    }

    /// Mark `n` more bytes as consumed and compact once the parsed
    /// prefix dominates the buffer (amortized O(1) per byte).
    pub fn consume(&mut self, n: usize) {
        self.read_pos += n;
        if self.read_pos == self.read_buf.len() {
            self.read_buf.clear();
            self.read_pos = 0;
        } else if self.read_pos > 4096 && self.read_pos * 2 >= self.read_buf.len() {
            self.read_buf.drain(..self.read_pos);
            self.read_pos = 0;
        }
    }

    /// Reserve the next response slot, returning its sequence number.
    pub fn push_slot(&mut self, close_after: bool) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots.push_back(Slot { seq, response: None, close_after });
        seq
    }

    /// Fill the slot with sequence `seq`. Returns false if the slot is
    /// gone (connection already poisoned past it).
    pub fn fill_slot(&mut self, seq: u64, response: Vec<u8>) -> bool {
        match self.slots.iter_mut().find(|s| s.seq == seq) {
            Some(slot) => {
                slot.response = Some(response);
                true
            }
            None => false,
        }
    }

    /// Move every leading completed slot into the write backlog —
    /// responses leave in request order no matter how workers finished.
    /// Returns true if the connection should close once the backlog
    /// flushes.
    pub fn collect_ready(&mut self) -> bool {
        while let Some(front) = self.slots.front() {
            if front.response.is_none() {
                break;
            }
            let slot = self.slots.pop_front().expect("front exists");
            self.write_buf
                .extend_from_slice(slot.response.as_deref().expect("checked Some"));
            if slot.close_after {
                self.close_when_flushed = true;
                self.closing = true;
                break;
            }
        }
        self.close_when_flushed
    }

    /// Unwritten response bytes.
    pub fn pending_write(&self) -> &[u8] {
        &self.write_buf[self.write_pos..]
    }

    /// Mark `n` response bytes as written; clears the backlog when it
    /// fully drains.
    pub fn advance_write(&mut self, n: usize) {
        self.write_pos += n;
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
    }

    /// Whether all queued responses have been written out.
    pub fn flushed(&self) -> bool {
        self.write_pos == self.write_buf.len()
    }

    /// Whether the connection has no in-flight requests.
    pub fn idle(&self) -> bool {
        self.slots.is_empty() && self.flushed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_conn() -> Conn {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        Conn::new(stream, 1)
    }

    #[test]
    fn responses_flush_in_request_order() {
        let mut conn = test_conn();
        let a = conn.push_slot(false);
        let b = conn.push_slot(false);
        let c = conn.push_slot(false);
        // Workers finish out of order: c, a, b.
        assert!(conn.fill_slot(c, b"C".to_vec()));
        assert!(!conn.collect_ready());
        assert!(conn.pending_write().is_empty(), "c must wait for a and b");
        assert!(conn.fill_slot(a, b"A".to_vec()));
        conn.collect_ready();
        assert_eq!(conn.pending_write(), b"A");
        assert!(conn.fill_slot(b, b"B".to_vec()));
        conn.collect_ready();
        assert_eq!(conn.pending_write(), b"ABC");
        assert_eq!(conn.slots.len(), 0);
    }

    #[test]
    fn close_after_stops_collection() {
        let mut conn = test_conn();
        let a = conn.push_slot(true);
        let b = conn.push_slot(false);
        conn.fill_slot(a, b"A".to_vec());
        conn.fill_slot(b, b"B".to_vec());
        assert!(conn.collect_ready());
        // Only the closing response is queued; the one after never ships.
        assert_eq!(conn.pending_write(), b"A");
        assert!(conn.close_when_flushed);
    }

    #[test]
    fn consume_compacts_large_parsed_prefixes() {
        let mut conn = test_conn();
        conn.read_buf = vec![7u8; 10_000];
        conn.consume(6_000);
        assert_eq!(conn.read_pos, 0, "dominant prefix compacts");
        assert_eq!(conn.unparsed().len(), 4_000);
        conn.consume(4_000);
        assert!(conn.read_buf.is_empty(), "fully consumed buffer resets");
    }
}
