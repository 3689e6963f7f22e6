//! A deliberately minimal HTTP/1.1 layer: enough to read one request
//! and write one `Connection: close` response per TCP connection —
//! matching the workspace's dependency-free style. No keep-alive, no
//! chunked encoding, no TLS; the service speaks plain JSON bodies.

use a2a_obs::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest accepted request body; bigger submissions answer `413`.
pub const MAX_BODY: usize = 1 << 20;

/// Longest accepted request line or header line, line terminator
/// included; a longer one answers `431`.
pub const MAX_HEAD_LINE: usize = 8 * 1024;

/// Most header lines accepted per request; more answer `431`.
pub const MAX_HEADERS: usize = 100;

/// Per-connection socket timeout: a stalled peer cannot pin a
/// connection worker forever.
pub const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path (query string stripped).
    pub path: String,
    /// Raw query string (without the `?`; empty when none was sent).
    pub query: String,
    /// Raw body bytes (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of one `key=value` query parameter (first match; no
    /// percent-decoding — the service's parameters are plain tokens).
    #[must_use]
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// Transport failure (peer vanished, timeout).
    Io(std::io::Error),
    /// Syntactically broken request — answer `400`.
    Malformed(String),
    /// Body over [`MAX_BODY`] — answer `413`.
    TooLarge,
    /// A head line over [`MAX_HEAD_LINE`] or more than [`MAX_HEADERS`]
    /// headers — answer `431`.
    HeadTooLarge,
}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Reads one head line (request line or header), refusing to buffer
/// more than [`MAX_HEAD_LINE`] bytes of it. Returns an empty string at
/// end of input.
fn read_head_line(reader: &mut impl BufRead) -> Result<String, RequestError> {
    let mut line = String::new();
    reader.take(MAX_HEAD_LINE as u64 + 1).read_line(&mut line)?;
    if line.len() > MAX_HEAD_LINE {
        return Err(RequestError::HeadTooLarge);
    }
    Ok(line)
}

/// Reads one request from `stream` (which gets [`SOCKET_TIMEOUT`]
/// applied to both directions).
///
/// # Errors
///
/// See [`RequestError`].
pub fn read_request(stream: &TcpStream) -> Result<Request, RequestError> {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let mut reader = BufReader::new(stream.try_clone()?);
    let line = read_head_line(&mut reader)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request line".to_string()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("request line has no target".to_string()))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    if !path.starts_with('/') {
        return Err(RequestError::Malformed(format!("target `{target}` is not a path")));
    }

    let mut content_length = 0usize;
    let mut headers = 0usize;
    loop {
        let header = read_head_line(&mut reader)?;
        if header.is_empty() {
            return Err(RequestError::Malformed("connection closed mid-headers".to_string()));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(RequestError::HeadTooLarge);
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| RequestError::Malformed("bad Content-Length".to_string()))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(RequestError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, query, body })
}

/// One response, always `Connection: close`.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body text.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// `Retry-After` seconds (the backpressure contract on `429`/`503`).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response (document rendered with a trailing newline).
    #[must_use]
    pub fn json(status: u16, doc: &Json) -> Self {
        Self {
            status,
            body: format!("{doc}\n"),
            content_type: "application/json",
            retry_after: None,
        }
    }

    /// A raw-body response (JSONL streams, pre-rendered documents).
    #[must_use]
    pub fn text(status: u16, body: impl Into<String>, content_type: &'static str) -> Self {
        Self { status, body: body.into(), content_type, retry_after: None }
    }

    /// A JSON error envelope: `{"error": reason}`.
    #[must_use]
    pub fn error(status: u16, reason: &str) -> Self {
        Self::json(status, &Json::object().with("error", reason))
    }

    /// Builder-style `Retry-After` header.
    #[must_use]
    pub fn with_retry_after(mut self, seconds: u64) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// Serialises and writes the response.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
        );
        if let Some(seconds) = self.retry_after {
            head.push_str(&format!("Retry-After: {seconds}\r\n"));
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

/// Reason phrase for the handful of statuses the service emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn round_trip(raw: &[u8]) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s.flush().unwrap();
            s // keep alive until the server read everything
        });
        let (server_side, _) = listener.accept().unwrap();
        let req = read_request(&server_side);
        drop(client.join().unwrap());
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = round_trip(
            b"POST /jobs?x=1 HTTP/1.1\r\nHost: x\r\ncontent-length: 4\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs", "query string is stripped");
        assert_eq!(req.query, "x=1", "query string is preserved separately");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn query_params_parse() {
        let req = round_trip(b"GET /jobs?after=j3&limit=10 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("after"), Some("j3"));
        assert_eq!(req.query_param("limit"), Some("10"));
        assert_eq!(req.query_param("missing"), None);
        let bare = round_trip(b"GET /jobs HTTP/1.1\r\n\r\n").unwrap();
        assert!(bare.query.is_empty());
        assert_eq!(bare.query_param("after"), None);
    }

    #[test]
    fn rejects_oversized_and_malformed() {
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(round_trip(huge.as_bytes()), Err(RequestError::TooLarge)));
        assert!(matches!(round_trip(b"\r\n\r\n"), Err(RequestError::Malformed(_))));
        assert!(matches!(
            round_trip(b"GET http-no-slash HTTP/1.1\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_heads_are_refused() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_LINE));
        assert!(matches!(round_trip(long_target.as_bytes()), Err(RequestError::HeadTooLarge)));
        let long_header =
            format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "b".repeat(MAX_HEAD_LINE));
        assert!(matches!(round_trip(long_header.as_bytes()), Err(RequestError::HeadTooLarge)));
        let many: String = (0..=MAX_HEADERS).map(|i| format!("X-{i}: v\r\n")).collect();
        let too_many = format!("GET / HTTP/1.1\r\n{many}\r\n");
        assert!(matches!(round_trip(too_many.as_bytes()), Err(RequestError::HeadTooLarge)));
        // Right at the caps is still a request.
        let fits: String = (0..MAX_HEADERS).map(|i| format!("X-{i}: v\r\n")).collect();
        let at_cap = format!("GET / HTTP/1.1\r\n{fits}\r\n");
        assert_eq!(round_trip(at_cap.as_bytes()).unwrap().path, "/");
        let pad = "c".repeat(MAX_HEAD_LINE - "X-Pad: \r\n".len());
        let full_line = format!("GET / HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n");
        assert_eq!(round_trip(full_line.as_bytes()).unwrap().path, "/");
        assert_eq!(reason(431), "Request Header Fields Too Large");
    }

    #[test]
    fn response_carries_retry_after() {
        let r = Response::error(429, "queue_full").with_retry_after(2);
        assert_eq!(r.status, 429);
        assert_eq!(r.retry_after, Some(2));
        assert!(r.body.contains("queue_full"));
        assert_eq!(reason(429), "Too Many Requests");
    }
}
