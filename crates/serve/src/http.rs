//! Minimal hardened HTTP/1.1 over `std::net::TcpStream`.
//!
//! This is not a general HTTP implementation — it is the smallest
//! surface that lets `gp serve` answer three endpoints while surviving
//! hostile input. Every limit exists because its absence is an attack:
//!
//! | limit                       | attack it stops                | status |
//! |-----------------------------|--------------------------------|--------|
//! | header-read deadline        | slow-loris (1 byte/s headers)  | 408    |
//! | `max_header_bytes`          | unbounded header memory        | 431    |
//! | `max_body_bytes` (declared) | unbounded body memory          | 413    |
//! | body-read deadline          | slow/truncated body            | 408    |
//! | write timeout               | client that never reads        | drop   |
//!
//! Connections default to `Connection: close` — one request per TCP
//! connection keeps the state machine trivially auditable, which for an
//! inference server (requests cost milliseconds, not microseconds) is
//! the right trade. A client that explicitly sends
//! `Connection: keep-alive` may pipeline up to
//! `ServerConfig::keepalive_requests` sequential requests on one
//! connection; every request still gets its own full read deadline, so
//! the slow-client limits above hold per request, not per connection.
//! Keep-alive responses carry `Content-Length` (they always did), so
//! clients must frame by length instead of EOF.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Read-side limits; see the module table for what each one stops.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    pub max_header_bytes: usize,
    pub max_body_bytes: usize,
    pub read_timeout: Duration,
    pub write_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_header_bytes: 8 * 1024,
            max_body_bytes: 256 * 1024,
            read_timeout: Duration::from_millis(2000),
            write_timeout: Duration::from_millis(2000),
        }
    }
}

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive single-header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client explicitly opted into connection reuse with
    /// `Connection: keep-alive`. Absent or any other value (including
    /// `close`) means one-request-per-connection, the safe default.
    pub fn wants_keep_alive(&self) -> bool {
        self.header("Connection")
            .is_some_and(|v| v.trim().eq_ignore_ascii_case("keep-alive"))
    }
}

/// Why a request could not be read; [`ReadError::status`] maps each
/// variant onto the wire.
#[derive(Debug)]
pub enum ReadError {
    /// Client fed bytes slower than the read deadline allows.
    TimedOut,
    /// Headers exceeded `max_header_bytes`.
    HeadersTooLarge,
    /// Declared `Content-Length` exceeded `max_body_bytes`.
    BodyTooLarge,
    /// Request line/headers unparseable, or `Transfer-Encoding` (which
    /// this server deliberately refuses: chunked bodies defeat the
    /// up-front Content-Length admission check).
    Malformed(String),
    /// Socket closed before a full request arrived.
    Disconnected,
    Io(std::io::Error),
}

impl ReadError {
    /// HTTP status this read failure maps to (`Disconnected`/`Io` get
    /// 400 but the connection is usually already gone).
    pub fn status(&self) -> u16 {
        match self {
            ReadError::TimedOut => 408,
            ReadError::HeadersTooLarge => 431,
            ReadError::BodyTooLarge => 413,
            ReadError::Malformed(_) => 400,
            ReadError::Disconnected | ReadError::Io(_) => 400,
        }
    }

    pub fn message(&self) -> String {
        match self {
            ReadError::TimedOut => "request read timed out".to_string(),
            ReadError::HeadersTooLarge => "request headers too large".to_string(),
            ReadError::BodyTooLarge => "request body exceeds limit".to_string(),
            ReadError::Malformed(why) => format!("malformed request: {why}"),
            ReadError::Disconnected => "client disconnected mid-request".to_string(),
            ReadError::Io(e) => format!("io error: {e}"),
        }
    }
}

fn timeout_kind(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read one full request within the limits. The overall header+body
/// deadline is `2 × read_timeout` from entry, so a client dribbling one
/// byte per `read_timeout - ε` cannot hold a worker forever.
#[expect(
    clippy::disallowed_methods,
    reason = "the overall read deadline bounds slow clients; it never touches a request's content"
)]
pub fn read_request(stream: &mut TcpStream, limits: &Limits) -> Result<Request, ReadError> {
    let started = Instant::now();
    let overall = limits.read_timeout * 2;
    stream
        .set_read_timeout(Some(limits.read_timeout))
        .map_err(ReadError::Io)?;

    // --- headers: scan for CRLFCRLF under the byte cap and deadline.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > limits.max_header_bytes {
            return Err(ReadError::HeadersTooLarge);
        }
        if started.elapsed() > overall {
            return Err(ReadError::TimedOut);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(if buf.is_empty() {
                    ReadError::Disconnected
                } else {
                    ReadError::Malformed("connection closed inside headers".to_string())
                })
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if timeout_kind(&e) => return Err(ReadError::TimedOut),
            Err(e) => return Err(ReadError::Io(e)),
        }
    };

    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| ReadError::Malformed("non-utf8 headers".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ReadError::Malformed("empty request".to_string()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ReadError::Malformed("missing method".to_string()))?
        .to_string();
    let path = parts
        .next()
        .filter(|p| p.starts_with('/'))
        .ok_or_else(|| ReadError::Malformed("missing or relative path".to_string()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing HTTP version".to_string()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("unsupported {version}")));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }

    let req = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    if req.header("Transfer-Encoding").is_some() {
        return Err(ReadError::Malformed(
            "Transfer-Encoding not supported; send Content-Length".to_string(),
        ));
    }

    // --- body: exactly Content-Length bytes, capped, under deadline.
    let content_length = match req.header("Content-Length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ReadError::Malformed(format!("bad Content-Length {v:?}")))?,
    };
    if content_length > limits.max_body_bytes {
        return Err(ReadError::BodyTooLarge);
    }

    let mut body: Vec<u8> = buf[header_end + 4..].to_vec();
    if body.len() > content_length {
        return Err(ReadError::Malformed(
            "more body bytes than Content-Length".to_string(),
        ));
    }
    while body.len() < content_length {
        if started.elapsed() > overall {
            return Err(ReadError::TimedOut);
        }
        let want = (content_length - body.len()).min(chunk.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) => return Err(ReadError::Disconnected),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if timeout_kind(&e) => return Err(ReadError::TimedOut),
            Err(e) => return Err(ReadError::Io(e)),
        }
    }

    Ok(Request { body, ..req })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Response under assembly. Bodies are always JSON.
#[derive(Clone, Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
    /// Emitted as a `Retry-After: <secs>` header (on 503 sheds).
    pub retry_after: Option<u64>,
}

impl Response {
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            body: body.into(),
            retry_after: None,
        }
    }

    /// `{"error": "<msg>"}` with the message JSON-escaped.
    pub fn error(status: u16, msg: &str) -> Self {
        Self::json(
            status,
            format!("{{\"error\":\"{}\"}}", crate::json::escape_json(msg)),
        )
    }

    pub fn with_retry_after(mut self, secs: u64) -> Self {
        self.retry_after = Some(secs);
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Discard whatever request bytes are already buffered, without ever
/// blocking, so closing the socket after an early error response sends
/// a clean FIN instead of an RST. POSIX TCP resets the connection when
/// it is closed with unread receive data — which would tear the 503 /
/// 413 / 431 we just wrote out of the client's buffer. Bounded at 64
/// KiB: a client still streaming past that gets the RST it deserves.
pub fn drain_pending(stream: &TcpStream) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let mut scratch = [0u8; 4096];
    let mut total = 0usize;
    // `Read` on `&TcpStream` avoids needing `&mut` for a discard loop.
    let mut reader = stream;
    while total < 64 * 1024 {
        match reader.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => total += n,
        }
    }
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort restore of blocking mode; a failed fcntl surfaces on the next read/write anyway"
    )]
    let _ = stream.set_nonblocking(false);
}

/// Serialize and send with default limits and `Connection: close`; see
/// [`write_response_with`].
pub fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    write_response_with(stream, resp, &Limits::default(), false)
}

/// Serialize and send. `keep_alive` selects the `Connection:` header the
/// response advertises; the caller (the worker loop) owns the decision
/// of whether the connection actually survives. A client that stops
/// reading trips the write timeout and the connection is dropped —
/// workers never block on a dead peer.
pub fn write_response_with(
    stream: &mut TcpStream,
    resp: &Response,
    limits: &Limits,
    keep_alive: bool,
) -> std::io::Result<()> {
    stream.set_write_timeout(Some(limits.write_timeout))?;
    let conn = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.body.len(),
        conn
    );
    if let Some(secs) = resp.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    // One write for head + body: a split write on a keep-alive
    // connection trips Nagle against the client's delayed ACK (the
    // body segment sits ~40ms waiting for the head's ACK). With
    // `Connection: close` the FIN flushed it, which is why only
    // keep-alive clients ever saw the stall.
    head.push_str(&resp.body);
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Client-side counterpart of [`write_response_with`]: read exactly one
/// `Content-Length`-framed response off the stream and return
/// `(status, body)`. Unlike reading to EOF this works on keep-alive
/// connections, where the stream stays open after the response — the
/// integration tests and the repository benchmark's `serve_closed`
/// clients (`benchmark/`) use it to
/// drive several requests through one connection.
pub fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, String)> {
    use std::io::{Error, ErrorKind};
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(Error::new(ErrorKind::UnexpectedEof, "eof before headers"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| Error::new(ErrorKind::InvalidData, "bad status line"))?;
    let content_length = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            if name.trim().eq_ignore_ascii_case("content-length") {
                value.trim().parse::<usize>().ok()
            } else {
                None
            }
        })
        .unwrap_or(0);
    let mut body: Vec<u8> = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..want])?;
        if n == 0 {
            return Err(Error::new(ErrorKind::UnexpectedEof, "eof inside body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    Ok((status, String::from_utf8_lossy(&body).to_string()))
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "raw client/producer threads drive the code under test from outside any pool"
)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Run `client` against a socket pair and read one request on the
    /// server side with tight limits.
    fn exchange(
        limits: Limits,
        client: impl FnOnce(TcpStream) + Send + 'static,
    ) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let h = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            client(stream);
        });
        let (mut stream, _) = listener.accept().expect("accept");
        let out = read_request(&mut stream, &limits);
        h.join().expect("client thread");
        out
    }

    fn tight() -> Limits {
        Limits {
            max_header_bytes: 512,
            max_body_bytes: 1024,
            read_timeout: Duration::from_millis(150),
            write_timeout: Duration::from_millis(150),
        }
    }

    #[test]
    fn reads_full_request_with_body() {
        let req = exchange(tight(), |mut s| {
            s.write_all(b"POST /v1/classify HTTP/1.1\r\nContent-Length: 4\r\nX-A: b\r\n\r\nabcd")
                .expect("send");
        })
        .expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/classify");
        assert_eq!(req.header("x-a"), Some("b"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn truncated_body_times_out() {
        let err = exchange(tight(), |mut s| {
            s.write_all(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
                .expect("send");
            // Keep the socket open but send nothing more.
            std::thread::sleep(Duration::from_millis(400));
        })
        .expect_err("must fail");
        assert!(
            matches!(err, ReadError::TimedOut | ReadError::Disconnected),
            "{err:?}"
        );
    }

    #[test]
    fn oversized_declared_body_is_413() {
        let err = exchange(tight(), |mut s| {
            s.write_all(b"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n")
                .expect("send");
        })
        .expect_err("must fail");
        assert!(matches!(err, ReadError::BodyTooLarge), "{err:?}");
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn oversized_headers_are_431() {
        let err = exchange(tight(), |mut s| {
            let mut junk = b"GET / HTTP/1.1\r\n".to_vec();
            junk.extend(std::iter::repeat_n(b'a', 4096));
            let _ = s.write_all(&junk);
            std::thread::sleep(Duration::from_millis(50));
        })
        .expect_err("must fail");
        assert!(matches!(err, ReadError::HeadersTooLarge), "{err:?}");
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn slow_loris_hits_overall_deadline() {
        let err = exchange(tight(), |mut s| {
            // One byte per 100ms: under the per-read timeout, but the
            // overall 2× deadline catches it.
            for b in b"GET / HTTP/1.1\r\nA: b\r\n" {
                if s.write_all(&[*b]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        })
        .expect_err("must fail");
        assert!(matches!(err, ReadError::TimedOut), "{err:?}");
        assert_eq!(err.status(), 408);
    }

    #[test]
    fn malformed_requests_are_400() {
        for (bytes, why) in [
            (&b"NONSENSE\r\n\r\n"[..], "no path/version"),
            (&b"GET noslash HTTP/1.1\r\n\r\n"[..], "relative path"),
            (&b"GET / SPDY/9\r\n\r\n"[..], "bad version"),
            (&b"GET / HTTP/1.1\r\nbadheader\r\n\r\n"[..], "no colon"),
            (
                &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
                "chunked",
            ),
            (
                &b"POST / HTTP/1.1\r\nContent-Length: pony\r\n\r\n"[..],
                "bad length",
            ),
        ] {
            let owned = bytes.to_vec();
            let err = exchange(tight(), move |mut s| {
                let _ = s.write_all(&owned);
            })
            .expect_err(why);
            assert!(matches!(err, ReadError::Malformed(_)), "{why}: {err:?}");
            assert_eq!(err.status(), 400, "{why}");
        }
    }

    #[test]
    fn response_wire_format() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let h = std::thread::spawn(move || {
            let (mut server, _) = listener.accept().expect("accept");
            let resp = Response::error(503, "shedding").with_retry_after(2);
            write_response(&mut server, &resp).expect("write");
        });
        let mut client = TcpStream::connect(addr).expect("connect");
        let mut got = String::new();
        client.read_to_string(&mut got).expect("read");
        h.join().expect("server");
        assert!(
            got.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{got}"
        );
        assert!(got.contains("Retry-After: 2\r\n"), "{got}");
        assert!(got.contains("Connection: close\r\n"), "{got}");
        assert!(got.ends_with("{\"error\":\"shedding\"}"), "{got}");
    }

    #[test]
    fn keep_alive_wire_format() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let h = std::thread::spawn(move || {
            let (mut server, _) = listener.accept().expect("accept");
            let resp = Response::json(200, "{\"ok\":true}");
            write_response_with(&mut server, &resp, &Limits::default(), true).expect("write");
        });
        let mut client = TcpStream::connect(addr).expect("connect");
        let mut got = String::new();
        client.read_to_string(&mut got).expect("read");
        h.join().expect("server");
        assert!(got.contains("Connection: keep-alive\r\n"), "{got}");
        assert!(got.contains("Content-Length: 11\r\n"), "{got}");
    }

    #[test]
    fn wants_keep_alive_requires_explicit_opt_in() {
        let mk = |headers: Vec<(&str, &str)>| Request {
            method: "GET".to_string(),
            path: "/".to_string(),
            headers: headers
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
        };
        assert!(!mk(vec![]).wants_keep_alive());
        assert!(!mk(vec![("Connection", "close")]).wants_keep_alive());
        assert!(mk(vec![("Connection", "keep-alive")]).wants_keep_alive());
        assert!(mk(vec![("connection", "Keep-Alive")]).wants_keep_alive());
    }
}
