//! Minimal shared HTTP/1.1 plumbing for the in-tree servers.
//!
//! Both [`crate::MetricsServer`] and the `muse-serve` forecasting daemon
//! speak just enough HTTP for `curl` and Prometheus: one request per
//! connection, no keep-alive, no chunked encoding. This module holds the
//! request-line/header parsing, the response writing and the server loop
//! they share, so the protocol corner cases (oversized headers, missing
//! CRLF, garbage method tokens) and the accept/shutdown mechanics are
//! handled — and tested — in exactly one place.
//!
//! Parsing is deliberately strict: a syntactically broken request yields
//! [`RequestError::Bad`] (the server answers `400 Bad Request` with the
//! reason in the body) and an unrecognised method token yields
//! [`RequestError::UnknownMethod`] (`405 Method Not Allowed`). Neither
//! drops the connection without a response.
//!
//! [`HttpServer`] runs `workers` identical loops, each blocking in
//! `accept()` on its own clone of the listening socket: the kernel's listen
//! backlog is the only queue, and a connection is read, answered and closed
//! by the thread that accepted it. A panicking handler is answered `500`
//! and counted (`http.handler_panics`); the loop keeps serving.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest accepted request line or single header line, in bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Maximum number of headers per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, in bytes (a `2×H×W` f32 frame for a
/// large city grid is well under this; JSON inflates it ~10×).
pub const MAX_BODY: usize = 16 * 1024 * 1024;

/// Method tokens we recognise. Anything else on the request line is
/// answered with `405` rather than `400`, so clients probing with exotic
/// verbs learn the verb (not the syntax) is the problem.
const KNOWN_METHODS: [&str; 7] = ["GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PATCH"];

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method token, e.g. `GET`.
    pub method: String,
    /// Path with the query string stripped, e.g. `/forecast`.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names are lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First query parameter named `key`, if any.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// First header named `key` (case-insensitive), if any.
    pub fn header(&self, key: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(key)).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum RequestError {
    /// Transport error (or the client hung up before sending a full
    /// request). No response is owed.
    Io(io::Error),
    /// Syntactically invalid request; the server should answer `400` with
    /// this reason.
    Bad(&'static str),
    /// The request line parsed but the method token is not a known HTTP
    /// method; the server should answer `405`.
    UnknownMethod,
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e)
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Io(e) => write!(f, "i/o: {e}"),
            RequestError::Bad(reason) => write!(f, "bad request: {reason}"),
            RequestError::UnknownMethod => write!(f, "unknown method"),
        }
    }
}

/// Read one line terminated by `\n`, enforcing [`MAX_LINE`] and requiring
/// the `\r\n` line ending HTTP/1.1 mandates. Returns the line without its
/// terminator. A clean EOF before any byte yields `Io(UnexpectedEof)`.
fn read_line_bounded(reader: &mut impl BufRead) -> Result<String, RequestError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Err(RequestError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-request",
            )));
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |i| i + 1);
        if line.len() + take > MAX_LINE {
            // Leave the unread tail in the buffer; the caller answers 400
            // and closes, so there is no protocol state to resynchronise.
            return Err(RequestError::Bad("header line too long"));
        }
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if newline.is_some() {
            break;
        }
    }
    if !line.ends_with(b"\r\n") {
        return Err(RequestError::Bad("missing CRLF line ending"));
    }
    line.truncate(line.len() - 2);
    String::from_utf8(line).map_err(|_| RequestError::Bad("non-UTF-8 bytes in request head"))
}

/// Parse one full request (request line, headers, optional
/// `Content-Length` body) from `reader`.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, RequestError> {
    let request_line = read_line_bounded(reader)?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/") || parts.next().is_some() {
        return Err(RequestError::Bad("malformed request line"));
    }
    if !KNOWN_METHODS.contains(&method.as_str()) {
        return Err(RequestError::UnknownMethod);
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line_bounded(reader)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(RequestError::Bad("too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Bad("header line without colon"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut body = Vec::new();
    if let Some(len) = headers.iter().find(|(k, _)| k == "content-length").map(|(_, v)| v.as_str()) {
        let len: usize = len.parse().map_err(|_| RequestError::Bad("unparseable Content-Length"))?;
        if len > MAX_BODY {
            return Err(RequestError::Bad("body too large"));
        }
        // Grow with the bytes that actually arrive, not with the claim: a
        // header promising MAX_BODY reserves only 8 KB until the body is
        // sent. The reservation saves typical bodies the doubling reads.
        body.reserve(len.min(8 * 1024));
        reader.take(len as u64).read_to_end(&mut body)?;
        if body.len() < len {
            return Err(RequestError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            )));
        }
    }

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();

    Ok(Request { method, path: path.to_string(), query, headers, body })
}

/// Reason phrase for the handful of status codes the in-tree servers use.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete `HTTP/1.1` response (status line, `Content-Type`,
/// `Content-Length`, `Connection: close`, body) and flush. The message is
/// assembled in memory first and handed to `stream` in one `write_all`, so
/// on a socket a small response costs one syscall.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let mut message = Vec::with_capacity(128 + body.len());
    write!(
        message,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    )?;
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

/// Answer a [`RequestError`] on `stream`: `400` for syntax errors, `405`
/// for unknown methods. I/O errors get no response (the peer is gone).
pub fn respond_error(stream: &mut impl Write, err: &RequestError) -> io::Result<()> {
    match err {
        RequestError::Io(_) => Ok(()),
        RequestError::Bad(why) => write_response(
            stream,
            400,
            "text/plain; charset=utf-8",
            format!("bad request: {why}\n").as_bytes(),
        ),
        RequestError::UnknownMethod => {
            write_response(stream, 405, "text/plain; charset=utf-8", b"method not allowed\n")
        }
    }
}

/// `(status, content type, body)` produced by a request handler.
pub type Response = (u16, &'static str, String);

/// Handle to running server loops; dropping it (or calling
/// [`HttpServer::shutdown`]) stops them.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    loops: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` and start `workers` (at least one) server loops named
    /// `name`. Each loop accepts a connection, applies `timeout` to its
    /// reads and writes, answers one request with `handler`, and loops; one
    /// loop serves connections sequentially.
    pub fn bind<H>(
        addr: impl ToSocketAddrs,
        name: &str,
        workers: usize,
        timeout: Duration,
        handler: H,
    ) -> io::Result<HttpServer>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Interned up front so `/metrics` exports the family at zero.
        crate::counter("http.handler_panics");
        let stop = Arc::new(AtomicBool::new(false));
        let handler = Arc::new(handler);
        // Built before the loops spawn, so a failed spawn shuts down the
        // loops already running when `server` drops.
        let mut server = HttpServer { addr, stop, loops: Vec::new() };
        for _ in 0..workers.max(1) {
            let listener = listener.try_clone()?;
            let stop = Arc::clone(&server.stop);
            let handler = Arc::clone(&handler);
            let handle = std::thread::Builder::new().name(name.to_string()).spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // A stuck client must not hold a loop forever.
                    let _ = stream.set_read_timeout(Some(timeout));
                    let _ = stream.set_write_timeout(Some(timeout));
                    let _ = serve_connection(stream, &*handler);
                }
            })?;
            server.loops.push(handle);
        }
        Ok(server)
    }

    /// The bound address (port 0 resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, let in-flight connections finish, and join every
    /// loop. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // One throwaway connection per loop, all opened before any join:
        // each loop exits on the first connection it accepts after the
        // flag is set, and any loop may take any of them.
        let _wakers: Vec<_> = self.loops.iter().map(|_| TcpStream::connect(self.addr)).collect();
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Read one request from `stream`, answer it with `handler` (or with
/// [`respond_error`] when it does not parse), and write the response. A
/// panic in `handler` is answered `500` and counted as
/// `http.handler_panics`.
fn serve_connection<S, H>(stream: S, handler: &H) -> io::Result<()>
where
    S: Read + Write,
    H: Fn(&Request) -> Response + ?Sized,
{
    let mut reader = BufReader::new(stream);
    let request = match read_request(&mut reader) {
        Ok(request) => request,
        Err(err) => return respond_error(reader.get_mut(), &err),
    };
    let (status, content_type, body) =
        catch_unwind(AssertUnwindSafe(|| handler(&request))).unwrap_or_else(|_| {
            crate::counter("http.handler_panics").add(1);
            (500, "text/plain; charset=utf-8", "internal server error\n".to_string())
        });
    write_response(reader.get_mut(), status, content_type, body.as_bytes())
}

/// Client side of the same protocol, for tests and tools: send one raw
/// request over a fresh connection and read the response to EOF. Returns
/// the status code, the head (status line and headers) and the body.
pub fn exchange(addr: impl ToSocketAddrs, request: &[u8]) -> io::Result<(u16, String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(request)?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let malformed = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(malformed)?;
    let status = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(malformed)?;
    Ok((status, head.to_string(), body.to_string()))
}

/// [`exchange`] a well-formed `method path` request, carrying `body` as
/// `(content type, bytes)` when given.
pub fn fetch(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<(&str, &[u8])>,
) -> io::Result<(u16, String, String)> {
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: muse\r\n").into_bytes();
    let (content_type, bytes) = body.unwrap_or_default();
    if body.is_some() {
        write!(request, "Content-Type: {content_type}\r\nContent-Length: {}\r\n", bytes.len())?;
    }
    request.extend_from_slice(b"\r\n");
    request.extend_from_slice(bytes);
    exchange(addr, &request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_tensor::init::SeededRng;
    use std::io::Cursor;
    use std::time::Instant;

    fn parse(raw: &[u8]) -> Result<Request, RequestError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_get_with_query_and_headers() {
        let req = parse(b"GET /forecast?horizon=3&debug HTTP/1.1\r\nHost: x\r\nX-Tag: hi\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/forecast");
        assert_eq!(req.query_param("horizon"), Some("3"));
        assert_eq!(req.query_param("debug"), Some(""));
        assert_eq!(req.header("x-tag"), Some("hi"));
        assert_eq!(req.header("X-TAG"), Some("hi"), "lookups ignore case");
        assert_eq!(req.header("x-ta"), None);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let req = parse(b"POST /ingest HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"abcd");
    }

    /// Unknown verbs are `405`, syntax errors `400` with their reason, and a
    /// short body an i/o error (no response owed).
    #[test]
    fn broken_requests_map_to_their_errors() {
        let mut long = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        long.extend(std::iter::repeat_n(b'a', MAX_LINE + 1));
        long.extend_from_slice(b"\r\n\r\n");
        let cases: [(&[u8], &str); 9] = [
            (b"FROB / HTTP/1.1\r\n\r\n", "unknown method"),
            (b"GET / HTTP/1.1\nHost: x\r\n\r\n", "bad request: missing CRLF line ending"),
            (&long, "bad request: header line too long"),
            (b"GET /\r\n\r\n", "bad request: malformed request line"),
            (b"GET / HTTP/1.1 extra\r\n\r\n", "bad request: malformed request line"),
            (b"GET / HTTP/1.1\r\nnocolonhere\r\n\r\n", "bad request: header line without colon"),
            (b"POST / HTTP/1.1\r\nContent-Length: nan\r\n\r\n", "bad request: unparseable Content-Length"),
            (b"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", "bad request: body too large"),
            (b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", "i/o: connection closed mid-body"),
        ];
        for (raw, want) in cases {
            assert_eq!(parse(raw).unwrap_err().to_string(), want);
        }
    }

    /// Seeded mutations of well-formed requests: truncations, bit flips,
    /// and oversized or garbage `Content-Length` values. The parser may
    /// reject any of them, but must never panic.
    #[test]
    fn read_request_survives_seeded_mutations() {
        let seeds: [&[u8]; 3] = [
            b"GET /forecast?horizon=3&debug HTTP/1.1\r\nHost: x\r\nX-Tag: hi\r\n\r\n",
            b"POST /ingest HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 12\r\n\r\n{\"frame\":[1]}",
            b"PUT /a?b=c HTTP/1.0\r\nContent-Length: 0\r\n\r\n",
        ];
        let garbage = ["99999999999999999999999", "-1", "1e3", "", " 7 ", "0x10", "18446744073709551615"];
        let mut rng = SeededRng::new(0x5eed);
        for _ in 0..4000 {
            let mut raw = seeds[rng.index(seeds.len())].to_vec();
            match rng.index(3) {
                0 => raw.truncate(rng.index(raw.len() + 1)),
                1 => {
                    for _ in 0..1 + rng.index(4) {
                        let at = rng.index(raw.len());
                        raw[at] ^= 1 << rng.index(8);
                    }
                }
                _ => {
                    // Placed first among the headers, so this claim is the one read.
                    let claim = match rng.chance(0.5) {
                        true => garbage[rng.index(garbage.len())].to_string(),
                        false => rng.index(2 * MAX_BODY).to_string(),
                    };
                    let at = raw.windows(2).position(|w| w == b"\r\n").unwrap() + 2;
                    raw.splice(at..at, format!("Content-Length: {claim}\r\n").into_bytes());
                }
            }
            match catch_unwind(|| parse(&raw)) {
                Ok(Ok(request)) => {
                    let claim = request.header("content-length").map(|len| len.parse::<usize>().unwrap());
                    assert_eq!(claim.unwrap_or(0), request.body.len(), "{raw:?}");
                }
                Ok(Err(_)) => {}
                Err(_) => panic!("read_request panicked on {raw:?}"),
            }
        }
    }

    /// Reads a canned request and records every `write` call on the way out.
    struct Duplex(Cursor<Vec<u8>>, Vec<Vec<u8>>);

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.1.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Fake handler: `/panic` panics, `/slow` sleeps, anything else echoes
    /// its path.
    fn fake_handler(request: &Request) -> Response {
        match request.path.as_str() {
            "/panic" => panic!("handler blew up"),
            "/slow" => std::thread::sleep(Duration::from_millis(300)),
            _ => {}
        }
        (200, "text/plain", format!("echo {}\n", request.path))
    }

    fn start(
        workers: usize,
        timeout_ms: u64,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> HttpServer {
        HttpServer::bind("127.0.0.1:0", "test-http", workers, Duration::from_millis(timeout_ms), handler)
            .unwrap()
    }

    #[test]
    fn each_response_is_one_write_call() {
        let _g = crate::test_lock();
        for (raw, head) in [
            (&b"GET /a HTTP/1.1\r\n\r\n"[..], "HTTP/1.1 200 OK\r\n"),
            (b"GET /a HTTP/1.1\nHost: x\r\n\r\n", "HTTP/1.1 400 "),
            (b"FROB /a HTTP/1.1\r\n\r\n", "HTTP/1.1 405 "),
            (b"GET /panic HTTP/1.1\r\n\r\n", "HTTP/1.1 500 "),
        ] {
            let mut stream = Duplex(Cursor::new(raw.to_vec()), Vec::new());
            serve_connection(&mut stream, &fake_handler).unwrap();
            assert_eq!(stream.1.len(), 1, "{:?}", stream.1);
            let text = String::from_utf8(stream.1.concat()).unwrap();
            assert!(text.starts_with(head), "{text}");
            if head.contains("200") {
                assert!(text.ends_with("Content-Length: 8\r\nConnection: close\r\n\r\necho /a\n"), "{text}");
            }
        }
        let mut hung_up = Duplex(Cursor::new(b"GET /a HT".to_vec()), Vec::new());
        serve_connection(&mut hung_up, &fake_handler).unwrap();
        assert!(hung_up.1.is_empty(), "a client that hangs up mid-request is owed nothing");
    }

    #[test]
    fn shutdown_is_prompt_idle_and_with_a_connection_in_flight() {
        for workers in [1usize, 4] {
            let started = Instant::now();
            start(workers, 500, fake_handler).shutdown();
            assert!(started.elapsed() < Duration::from_secs(5), "idle, workers={workers}");

            // One request mid-handler and one client that never finishes
            // its request line: shutdown drains the first and times out the
            // second.
            let entered = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&entered);
            let mut busy = start(workers, 500, move |request: &Request| {
                flag.store(true, Ordering::SeqCst);
                fake_handler(request)
            });
            let addr = busy.addr();
            let slow = std::thread::spawn(move || fetch(addr, "GET", "/slow", None).unwrap().0);
            let mut stalled = TcpStream::connect(addr).unwrap();
            stalled.write_all(b"GET /stalled HT").unwrap();
            while !entered.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let started = Instant::now();
            busy.shutdown();
            assert!(started.elapsed() < Duration::from_secs(5), "in flight, workers={workers}");
            assert_eq!(slow.join().unwrap(), 200, "workers={workers}");
        }
    }

    /// Every job runs on any number of loops, and a panicking one neither
    /// propagates nor takes a loop down.
    #[test]
    fn panicking_handler_answers_500_and_the_server_keeps_serving() {
        let _g = crate::test_lock();
        for workers in [1usize, 4] {
            let server = start(workers, 2000, fake_handler);
            let get = |path: &str| fetch(server.addr(), "GET", path, None).unwrap();
            for i in 0..16 {
                assert_eq!(get(&format!("/job{i}")).2, format!("echo /job{i}\n"));
            }
            let panics = crate::counter("http.handler_panics").get();
            assert_eq!(get("/panic").0, 500, "workers={workers}");
            assert_eq!(crate::counter("http.handler_panics").get(), panics + 1, "workers={workers}");
            for _ in 0..=workers {
                assert_eq!(get("/after").0, 200, "workers={workers}");
            }
        }
    }
}
