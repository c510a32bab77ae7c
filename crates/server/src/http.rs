//! A hand-written HTTP/1.1 subset: exactly what the analysis daemon
//! needs — request line, headers, `Content-Length` bodies, keep-alive
//! and pipelining. No chunked encoding, no TLS; the daemon fronts
//! trusted local tooling, not the internet.
//!
//! The core is the incremental zero-copy parser
//! [`parse_request_bytes`]: it inspects a `&[u8]` window of a
//! connection buffer and either yields a borrowed [`ReqView`] (no
//! per-header allocation) plus the number of bytes consumed, or reports
//! that the request is still incomplete. The reactor calls it in a loop
//! over its per-connection read buffer, which is what makes pipelined
//! requests in one TCP segment work.

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on the request line alone (method + target + version) —
/// tighter than the whole head, since no legitimate target comes close.
pub const MAX_REQUEST_LINE_BYTES: usize = 4 * 1024;

/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request (owned form, used at the dispatch boundary). The
/// correlation ids are read from the [`ReqView`] before the copy, and
/// routing never consults headers, so none are kept.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// The raw query string (without the `?`; empty when absent).
    pub query: String,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a query parameter (`?format=chrome`); values are
    /// taken verbatim (no percent-decoding — the debug endpoints only
    /// take simple tokens).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }
}

/// Why a request could not be parsed.
#[derive(Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line or headers.
    Malformed(String),
    /// Head or body exceeded its size bound.
    TooLarge,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge => f.write_str("request too large"),
        }
    }
}

/// A zero-copy view of one complete request inside a connection buffer.
/// Everything borrows from the buffer the parser was handed; header
/// lookup scans the raw head lines lazily instead of materializing
/// `(String, String)` pairs.
#[derive(Debug)]
pub struct ReqView<'a> {
    /// Request method, as sent.
    pub method: &'a str,
    /// Request path, query string stripped.
    pub path: &'a str,
    /// The raw query string (without the `?`; empty when absent).
    pub query: &'a str,
    /// The raw header block (the lines after the request line).
    head: &'a str,
    /// The request body.
    pub body: &'a [u8],
    /// Negotiated connection persistence: HTTP/1.1 defaults to
    /// keep-alive, `Connection: close` (or an HTTP/1.0 request without
    /// `Connection: keep-alive`) turns it off.
    pub keep_alive: bool,
}

impl<'a> ReqView<'a> {
    /// First value of a header, by case-insensitive name. A lazy scan
    /// over the raw head — no allocation.
    pub fn header(&self, name: &str) -> Option<&'a str> {
        let head = self.head;
        head.split("\r\n").find_map(|line| {
            let (n, v) = line.split_once(':')?;
            if n.trim().eq_ignore_ascii_case(name) { Some(v.trim()) } else { None }
        })
    }

    /// Owned copy without headers — the reactor's dispatch form. The
    /// correlation ids are read from the view before this copy, and
    /// routing never consults headers, so dropping them saves two to
    /// five small allocations per request on the hot path.
    pub fn to_request_lean(&self) -> Request {
        Request {
            method: self.method.to_string(),
            path: self.path.to_string(),
            query: self.query.to_string(),
            body: self.body.to_vec(),
        }
    }
}

/// Outcome of one incremental parse attempt.
#[derive(Debug)]
pub enum Parsed<'a> {
    /// A complete request; `consumed` bytes of the buffer belong to it
    /// (pipelined successors start at `buf[consumed..]`).
    Complete {
        /// The borrowed request view.
        view: ReqView<'a>,
        /// Bytes of the buffer this request occupied.
        consumed: usize,
    },
    /// More bytes are needed; nothing was consumed.
    Partial,
}

/// Incrementally parse one request from the front of `buf`.
///
/// Errors are terminal for the connection: [`HttpError::TooLarge`] for
/// a head, request line or declared body over its bound (the body bound
/// is enforced from the `Content-Length` declaration, before the body
/// arrives), [`HttpError::Malformed`] for grammar violations — including
/// `Transfer-Encoding`, which this subset rejects rather than misframe
/// (request-smuggling hygiene, same reasoning as the conflicting
/// `Content-Length` check).
pub fn parse_request_bytes(buf: &[u8]) -> Result<Parsed<'_>, HttpError> {
    let Some(header_end) = find_header_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge);
        }
        // Bail before buffering a pathological request line to the full
        // head limit: no terminating LF within the line budget.
        if buf.len() > MAX_REQUEST_LINE_BYTES && !buf.contains(&b'\n') {
            return Err(HttpError::TooLarge);
        }
        return Ok(Parsed::Partial);
    };
    if header_end > MAX_HEAD_BYTES {
        return Err(HttpError::TooLarge);
    }
    let body_start = header_end + 4;
    let head_text = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let (request_line, header_block) =
        head_text.split_once("\r\n").unwrap_or((head_text, ""));
    if request_line.len() > MAX_REQUEST_LINE_BYTES {
        return Err(HttpError::TooLarge);
    }
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    };
    let mut content_length: Option<usize> = None;
    let mut connection: Option<&str> = None;
    for line in header_block.split("\r\n") {
        let Some((name, value)) = line.split_once(':') else { continue };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed("bad Content-Length".into()))?;
            // Duplicate Content-Length headers with different values
            // are a request-smuggling vector — reject, don't guess.
            if content_length.is_some_and(|previous| previous != parsed) {
                return Err(HttpError::Malformed(
                    "conflicting Content-Length headers".into(),
                ));
            }
            content_length = Some(parsed);
        } else if name.eq_ignore_ascii_case("connection") {
            connection = Some(value.trim());
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Malformed(
                "Transfer-Encoding is not supported".into(),
            ));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    let total = body_start + content_length;
    if buf.len() < total {
        return Ok(Parsed::Partial);
    }
    let keep_alive = match connection {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => version.eq_ignore_ascii_case("HTTP/1.1"),
    };
    Ok(Parsed::Complete {
        view: ReqView {
            method,
            path,
            query,
            head: header_block,
            body: &buf[body_start..total],
            keep_alive,
        },
        consumed: total,
    })
}

/// Locate the `\r\n\r\n` head terminator.
pub(crate) fn find_header_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Render a complete response to bytes: status line, framing headers,
/// sanitized extra headers (e.g. `X-Trace-Id`), body. `keep_alive`
/// selects the `Connection` header — error classes that poison the
/// connection (408/413/400 at the protocol level) must pass `false`.
pub fn render_response(
    status: u16,
    content_type: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
    keep_alive: bool,
) -> Vec<u8> {
    use std::fmt::Write as _;
    let mut head = String::with_capacity(192);
    let _ = write!(
        head,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.extend(value.chars().filter(|c| !c.is_control()).take(256));
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

/// Canonical reason phrase of the status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\n"), Some(14));
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn reasons_cover_emitted_codes() {
        for code in [200, 400, 404, 405, 408, 413, 429, 500, 503, 504] {
            assert_ne!(reason(code), "Unknown");
        }
    }

    /// Parse one complete request, or return the parser's error.
    fn parse_one(raw: &[u8]) -> Result<ReqView<'_>, HttpError> {
        match parse_request_bytes(raw)? {
            Parsed::Complete { view, consumed } => {
                assert_eq!(consumed, raw.len());
                Ok(view)
            }
            Parsed::Partial => panic!("request incomplete"),
        }
    }

    #[test]
    fn overlong_request_line_is_too_large() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE_BYTES));
        assert_eq!(parse_one(raw.as_bytes()).unwrap_err(), HttpError::TooLarge);
        // Even without a terminating newline the parser bails early.
        let unterminated = vec![b'G'; MAX_REQUEST_LINE_BYTES + 1024];
        assert_eq!(parse_one(&unterminated).unwrap_err(), HttpError::TooLarge);
    }

    #[test]
    fn headers_and_query_are_captured() {
        let raw = b"GET /debug/trace/abc?format=chrome&x=1 HTTP/1.1\r\nX-Trace-Id: DEADBEEF\r\nHost: localhost\r\n\r\n";
        let view = parse_one(raw).unwrap();
        assert_eq!(view.path, "/debug/trace/abc");
        assert_eq!(view.query, "format=chrome&x=1");
        assert_eq!(view.header("x-trace-id"), Some("DEADBEEF"));
        assert_eq!(view.header("X-TRACE-ID"), Some("DEADBEEF"));
        assert_eq!(view.header("host"), Some("localhost"));
        assert_eq!(view.header("absent"), None);
        let request = view.to_request_lean();
        assert_eq!(request.query_param("format"), Some("chrome"));
        assert_eq!(request.query_param("x"), Some("1"));
        assert_eq!(request.query_param("missing"), None);
    }

    #[test]
    fn conflicting_content_lengths_are_malformed() {
        let raw = b"POST /v1/scan HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n{}";
        assert!(matches!(parse_request_bytes(raw), Err(HttpError::Malformed(_))));
        // Agreeing duplicates are harmless and accepted.
        let raw = b"POST /v1/scan HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(parse_one(raw).unwrap().body, b"{}");
    }

    #[test]
    fn declared_body_over_limit_is_too_large() {
        let raw = format!(
            "POST /v1/scan HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse_one(raw.as_bytes()).unwrap_err(), HttpError::TooLarge);
    }

    #[test]
    fn incremental_parse_reports_partial_then_complete() {
        let raw = b"POST /v1/scan HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        for cut in 0..raw.len() {
            match parse_request_bytes(&raw[..cut]).expect("prefix never errors") {
                Parsed::Partial => {}
                Parsed::Complete { .. } => panic!("complete at prefix {cut}"),
            }
        }
        match parse_request_bytes(raw).unwrap() {
            Parsed::Complete { view, consumed } => {
                assert_eq!(consumed, raw.len());
                assert_eq!(view.method, "POST");
                assert_eq!(view.path, "/v1/scan");
                assert_eq!(view.body, b"body");
                assert!(view.keep_alive, "HTTP/1.1 defaults to keep-alive");
            }
            Parsed::Partial => panic!("full request parsed as partial"),
        }
    }

    #[test]
    fn pipelined_requests_consume_only_their_bytes() {
        let raw = b"GET /health HTTP/1.1\r\n\r\nPOST /v1/scan HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        let Parsed::Complete { view, consumed } = parse_request_bytes(raw).unwrap() else {
            panic!("first request incomplete");
        };
        assert_eq!(view.path, "/health");
        let Parsed::Complete { view, consumed: second } =
            parse_request_bytes(&raw[consumed..]).unwrap()
        else {
            panic!("second request incomplete");
        };
        assert_eq!(view.path, "/v1/scan");
        assert_eq!(view.body, b"{}");
        assert_eq!(consumed + second, raw.len());
    }

    #[test]
    fn connection_negotiation_follows_version_and_header() {
        let parse_ka = |raw: &[u8]| match parse_request_bytes(raw).unwrap() {
            Parsed::Complete { view, .. } => view.keep_alive,
            Parsed::Partial => panic!("incomplete"),
        };
        assert!(parse_ka(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(!parse_ka(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!parse_ka(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(parse_ka(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
    }

    #[test]
    fn transfer_encoding_is_rejected() {
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(matches!(parse_request_bytes(raw), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn render_response_negotiates_connection_header() {
        let ka = String::from_utf8(render_response(200, "application/json", "{}", &[], true))
            .unwrap();
        assert!(ka.contains("Connection: keep-alive\r\n"), "{ka}");
        assert!(ka.contains("Content-Length: 2\r\n"), "{ka}");
        let close = String::from_utf8(render_response(
            408,
            "application/json",
            "{}",
            &[("X-Trace-Id", "abc\u{7}def")],
            false,
        ))
        .unwrap();
        assert!(close.starts_with("HTTP/1.1 408 Request Timeout\r\n"), "{close}");
        assert!(close.contains("Connection: close\r\n"), "{close}");
        // Header values are sanitized to printable single-line text.
        assert!(close.contains("X-Trace-Id: abcdef\r\n"), "{close}");
    }
}
