//! A minimal HTTP/1.1 client: one keep-alive connection, Content-Length
//! framing, a fresh connection when the server closes.
//!
//! The benchmark carries its own client instead of `server::client` so
//! that the measuring stick does not move when the service changes.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest a response may take before the request counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Largest response head the client accepts.
const MAX_HEAD: usize = 64 * 1024;

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Received bytes not yet consumed by a response.
    buf: Vec<u8>,
    out: Vec<u8>,
    /// Connections opened after the first.
    pub reconnects: u64,
    opened: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::new(),
            out: Vec::new(),
            reconnects: 0,
            opened: 0,
        }
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.send("GET", path, &[])
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<Response> {
        self.send("POST", path, body)
    }

    /// One request. A kept-alive connection the server has meanwhile
    /// closed fails before any response byte arrives; that request is
    /// sent once more on a fresh connection.
    fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let reused = self.stream.is_some();
        match self.send_once(method, path, body) {
            Err(e) if reused && stale(&e) => self.send_once(method, path, body),
            result => result,
        }
    }

    fn send_once(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(READ_TIMEOUT))?;
            self.stream = Some(stream);
            self.buf.clear();
            if self.opened > 0 {
                self.reconnects += 1;
            }
            self.opened += 1;
        }
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.out.extend_from_slice(body);
        let stream = self.stream.as_mut().expect("connected above");
        let result = stream
            .write_all(&self.out)
            .and_then(|()| read_response(stream, &mut self.buf));
        match result {
            Ok((response, close)) => {
                if close {
                    self.stream = None;
                }
                Ok(response)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Whether an error means the server closed an idle kept-alive
/// connection before reading the request.
fn stale(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<usize> {
    let mut chunk = [0u8; 16 * 1024];
    let n = stream.read(&mut chunk)?;
    buf.extend_from_slice(&chunk[..n]);
    Ok(n)
}

/// Read one response: status line, headers up to the blank line, then
/// exactly Content-Length body bytes. Returns whether the server asked
/// to close the connection.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<(Response, bool)> {
    let head_end = loop {
        if let Some(at) = find(buf, b"\r\n\r\n") {
            break at + 4;
        }
        if buf.len() > MAX_HEAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response head too large",
            ));
        }
        if fill(stream, buf)? == 0 {
            let kind = if buf.is_empty() {
                io::ErrorKind::UnexpectedEof
            } else {
                io::ErrorKind::InvalidData
            };
            return Err(io::Error::new(
                kind,
                "connection closed inside a response head",
            ));
        }
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.strip_prefix("HTTP/1.1 "))
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }
    let length = length.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "response without Content-Length",
        )
    })?;
    let end = head_end + length;
    while buf.len() < end {
        if fill(stream, buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "connection closed inside a body",
            ));
        }
    }
    let body = buf[head_end..end].to_vec();
    buf.drain(..end);
    Ok((Response { status, body }, close))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::thread;

    /// Read one request off a peer-side socket: the head, then
    /// Content-Length body bytes. Returns `(request line, body)`.
    fn read_request(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Option<(String, Vec<u8>)> {
        let head_end = loop {
            if let Some(at) = find(buf, b"\r\n\r\n") {
                break at + 4;
            }
            if fill(stream, buf).ok()? == 0 {
                return None;
            }
        };
        let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .map(|v| v.trim().parse().unwrap())
            .unwrap_or(0);
        while buf.len() < head_end + length {
            fill(stream, buf).ok()?;
        }
        let body = buf[head_end..head_end + length].to_vec();
        buf.drain(..head_end + length);
        Some((head.lines().next().unwrap().to_string(), body))
    }

    fn response(body: &str, extra: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n{extra}\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    /// The peer's address, the requests it read, and its thread, which
    /// returns how many connections it accepted.
    type Peer = (
        SocketAddr,
        mpsc::Receiver<(String, Vec<u8>)>,
        thread::JoinHandle<usize>,
    );

    /// A canned peer: serves `script[c]` (one response per request) on
    /// its `c`-th accepted connection, then closes it.
    fn peer(script: Vec<Vec<Vec<u8>>>) -> Peer {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::channel();
        let handle = thread::spawn(move || {
            let mut accepted = 0;
            for responses in script {
                let (mut stream, _) = listener.accept().unwrap();
                accepted += 1;
                let mut buf = Vec::new();
                for bytes in responses {
                    let request = read_request(&mut stream, &mut buf).unwrap();
                    tx.send(request).unwrap();
                    // Dribble the response out in pieces to exercise framing.
                    for piece in bytes.chunks(7) {
                        stream.write_all(piece).unwrap();
                        stream.flush().unwrap();
                        thread::sleep(Duration::from_millis(1));
                    }
                }
            }
            accepted
        });
        (addr, rx, handle)
    }

    #[test]
    fn keep_alive_reuses_one_connection_and_frames_by_content_length() {
        let (addr, requests, peer) = peer(vec![vec![
            response("{\"a\":1}", ""),
            response("", ""),
            response("done", ""),
        ]]);
        let mut conn = Conn::new(addr);
        let first = conn.post("/v1/scan", b"{\"x\":\"y\"}").unwrap();
        assert_eq!((first.status, first.text()), (200, "{\"a\":1}"));
        assert_eq!(conn.get("/health").unwrap().body, b"");
        assert_eq!(conn.post("/v1/batch", b"[]").unwrap().text(), "done");
        assert_eq!(conn.reconnects, 0);
        assert_eq!(peer.join().unwrap(), 1);
        let seen: Vec<_> = requests.try_iter().collect();
        assert_eq!(
            seen[0],
            (
                "POST /v1/scan HTTP/1.1".to_string(),
                b"{\"x\":\"y\"}".to_vec()
            )
        );
        assert_eq!(seen[1].0, "GET /health HTTP/1.1");
        assert_eq!(seen[2].1, b"[]");
    }

    #[test]
    fn connection_close_makes_the_next_request_reconnect() {
        let (addr, _requests, peer) = peer(vec![
            vec![response("one", "Connection: close\r\n")],
            vec![response("two", "")],
        ]);
        let mut conn = Conn::new(addr);
        assert_eq!(conn.get("/a").unwrap().text(), "one");
        assert_eq!(conn.get("/b").unwrap().text(), "two");
        assert_eq!(conn.reconnects, 1);
        assert_eq!(peer.join().unwrap(), 2);
    }

    #[test]
    fn a_silently_closed_keep_alive_connection_is_retried_once() {
        // The peer answers without announcing a close, then drops the
        // socket: the client's next request hits a dead connection.
        let (addr, requests, peer) =
            peer(vec![vec![response("one", "")], vec![response("two", "")]]);
        let mut conn = Conn::new(addr);
        assert_eq!(conn.get("/a").unwrap().text(), "one");
        thread::sleep(Duration::from_millis(50));
        assert_eq!(conn.post("/b", b"payload").unwrap().text(), "two");
        assert_eq!(conn.reconnects, 1);
        assert_eq!(peer.join().unwrap(), 2);
        let seen: Vec<_> = requests.try_iter().collect();
        assert_eq!(seen.len(), 2, "the retried request reached the peer once");
        assert_eq!(seen[1].1, b"payload");
    }

    #[test]
    fn a_response_without_content_length_is_an_error() {
        let (addr, _requests, peer) = peer(vec![vec![
            b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\nhello".to_vec(),
        ]]);
        let mut conn = Conn::new(addr);
        let err = conn.get("/a").err().expect("framing error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        peer.join().unwrap();
    }
}
