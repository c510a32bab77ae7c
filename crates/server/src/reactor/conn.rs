//! Per-connection state owned by the event loop: the growable read
//! buffer the incremental parser scans, the queue of answers that keeps
//! pipelined replies in request order, the pending write backlog, and
//! the two facts the close rule ([`Conn::finished`]) reads.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::Instant;

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
    /// One entry per parsed request whose answer is not yet in the write
    /// backlog, in request order: `None` while the request waits for its
    /// run, the rendered bytes once it ran or was answered inline (a 429,
    /// a 400/413, a 408).
    pub answers: VecDeque<Option<Vec<u8>>>,
    /// Deadline for completing the currently-buffered partial request;
    /// armed only while an incomplete request sits in `read_buf` and the
    /// peer is still sending (slowloris defense).
    pub read_deadline: Option<Instant>,
    /// No further request will be parsed: the last one negotiated close
    /// (as every request parsed while draining does), broke the protocol,
    /// or timed out with a 408.
    pub last_request: bool,
    /// The peer has stopped sending (a read returned EOF). What it sent
    /// before is still parsed and answered.
    pub peer_closed: bool,
    /// When the write backlog last became non-empty; set only while
    /// telemetry is on, and taken by the flush that drains it.
    pub write_since: Option<Instant>,
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
            answers: VecDeque::new(),
            read_deadline: None,
            last_request: false,
            peer_closed: false,
            write_since: None,
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

    /// Give the oldest request still waiting for its run its answer: a
    /// connection's requests run in the order they were parsed.
    pub fn fill(&mut self, response: Vec<u8>) {
        if let Some(waiting) = self.answers.iter_mut().find(|answer| answer.is_none()) {
            *waiting = Some(response);
        }
    }

    /// Move every leading answer into the write backlog, so responses
    /// leave in request order whatever order they were rendered in.
    pub fn collect_ready(&mut self) {
        let was_flushed = self.flushed();
        while let Some(Some(answer)) = self.answers.front() {
            self.write_buf.extend_from_slice(answer);
            self.answers.pop_front();
        }
        if was_flushed && !self.flushed() && telemetry::enabled() {
            self.write_since = Some(Instant::now());
        }
    }

    /// Whether another request may be parsed now: none was the last, and
    /// fewer than `max_pipeline` answers are outstanding.
    pub fn may_parse(&self, max_pipeline: usize) -> bool {
        !self.last_request && self.answers.len() < max_pipeline
    }

    /// The close rule. A connection is finished once no further request
    /// will come (the last one was parsed, the peer stopped sending, or
    /// the server is `draining` and no request has begun to arrive) and
    /// every answer is written. A partial request from a peer that
    /// stopped sending can never complete, so it is dropped.
    pub fn finished(&self, draining: bool) -> bool {
        (self.last_request || self.peer_closed || draining && self.unparsed().is_empty())
            && self.answers.is_empty()
            && self.flushed()
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
    fn answers_leave_in_request_order() {
        let mut conn = test_conn();
        // Two runs with an inline 429 between them: the 429 is answered
        // first and must still wait for the run before it.
        conn.answers.push_back(None);
        conn.answers.push_back(Some(b"429".to_vec()));
        conn.answers.push_back(None);
        conn.collect_ready();
        assert!(conn.pending_write().is_empty(), "the 429 must wait for the first run");
        conn.fill(b"A".to_vec());
        conn.collect_ready();
        assert_eq!(conn.pending_write(), b"A429");
        conn.fill(b"C".to_vec());
        conn.collect_ready();
        assert_eq!(conn.pending_write(), b"A429C");
        assert!(conn.answers.is_empty());
    }

    #[test]
    fn a_connection_finishes_once_no_request_can_come_and_all_is_written() {
        let mut conn = test_conn();
        assert!(!conn.finished(false), "an idle keep-alive connection stays open");
        assert!(conn.finished(true), "a drain closes an idle connection");
        conn.read_buf = b"GET / HTTP/1.1\r\n".to_vec();
        assert!(!conn.finished(true), "a drain keeps a request that is still arriving");

        conn.peer_closed = true;
        conn.answers.push_back(None);
        assert!(!conn.finished(false), "an answer is outstanding");
        assert!(!conn.may_parse(1), "the pipeline window is full");
        conn.fill(b"A".to_vec());
        conn.collect_ready();
        assert!(!conn.finished(false), "the answer is not written yet");
        conn.advance_write(1);
        assert!(conn.finished(false), "the partial request after EOF is dropped");

        let mut conn = test_conn();
        conn.last_request = true;
        assert!(!conn.may_parse(32));
        assert!(conn.finished(false));
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
