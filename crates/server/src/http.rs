//! A deliberately minimal HTTP/1.1 layer over `std::net`.
//!
//! The tile server speaks exactly the subset of HTTP its clients
//! need: parse one request line plus the handful of headers that
//! matter (`Content-Length`, `Expect`, `Connection`,
//! `X-Kdv-Trace-Id`), read the body (ingest POSTs carry one) under a
//! hard cap, write one `Content-Length`-framed response. No chunking,
//! no TLS — and no dependencies. Requests are read with a hard byte
//! cap and a socket read timeout so a slow-loris client costs one
//! worker at most a few seconds, never a hang.
//!
//! Persistent connections are *opt-in*: only a client that sends an
//! explicit `Connection: keep-alive` header gets one (the cluster
//! router does, on its proxy path). Bare HTTP/1.1 requests still get
//! `Connection: close`, so simple read-to-EOF clients — curl scripts,
//! the test suites, the benches — keep working unchanged. Pipelined
//! bytes that arrive behind one request's body are carried over into
//! the next request's read on the same connection instead of being
//! dropped.
//!
//! [`Frontend`] is the one connection loop both serving tiers (the
//! shard's `TileServer` and the cluster router) run: an accept thread
//! feeding a bounded queue that sheds `429` at the door, a fixed
//! worker pool, the keep-alive loop, and the `400`/`413` answers to
//! requests that do not parse. A tier plugs in as a [`Service`].

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest request head (request line + headers) accepted. Tile
/// requests are tiny; anything bigger is garbage or abuse.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Per-connection socket timeouts: a stuck client costs a worker at
/// most this long.
pub const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a worker waits for the next request on a kept-alive
/// connection before handing itself back to the pool. Short on
/// purpose: an idle persistent connection pins a worker, and the
/// router reconnects transparently when its pooled connection has
/// been idled out.
const KEEPALIVE_IDLE: Duration = Duration::from_secs(2);

/// How long the door and the `413` path wait for request bytes the
/// client already sent before answering: closing with unread data
/// sends RST, and the client would see a reset instead of the answer.
const DRAIN_TIMEOUT: Duration = Duration::from_millis(200);

/// One parsed request: the request line plus (for methods that carry
/// one) the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The path component, query string stripped.
    pub path: String,
    /// The raw query string after `?`, when present (`format=prometheus`).
    pub query: Option<String>,
    /// The request body, read up to the caller's cap. Empty for
    /// bodyless requests.
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open
    /// (`Connection: keep-alive`, case-insensitive). Absent or any
    /// other value — including bare HTTP/1.1 — means close.
    pub keep_alive: bool,
    /// The forwarded `X-Kdv-Trace-Id` header value, when present (the
    /// cluster router sends one so shard traces stitch end to end).
    pub trace_id: Option<String>,
}

/// Why a request could not be parsed into a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// Malformed head or body: answer `400`.
    Bad(String),
    /// A declared `Content-Length` over the caller's cap: answer
    /// `413` *without* reading the body — refusing cheap is the point.
    TooLarge {
        /// The declared body size.
        declared: u64,
        /// The cap it exceeded.
        cap: u64,
    },
}

impl RequestError {
    /// The response a reject answers with: `400`, or `413` with
    /// `Retry-After`.
    pub fn response(&self) -> Response {
        match self {
            RequestError::Bad(message) => text_response(400, "Bad Request", message),
            RequestError::TooLarge { declared, cap } => text_response(
                413,
                "Payload Too Large",
                &format!("declared body of {declared} bytes exceeds the {cap}-byte cap"),
            )
            .header("Retry-After", "1"),
        }
    }
}

/// Reads and parses one request (head + body) from `stream`.
///
/// `max_body` caps the accepted `Content-Length`; a declaration over
/// it returns [`RequestError::TooLarge`] before any body byte is read.
/// The outer `Err` is a transport failure (reset, timeout); the inner
/// `Err` is a protocol-level rejection with its response status.
///
/// `carry` holds bytes already read off the socket but not yet
/// consumed (pipelined data behind the previous request's body on a
/// persistent connection). The buffer is drained as this request's
/// head/body and refilled with whatever trails it, so one allocation
/// serves every request on the connection.
fn read_request_from(
    stream: &mut TcpStream,
    max_body: u64,
    carry: &mut Vec<u8>,
) -> io::Result<Result<Request, RequestError>> {
    let mut buf = std::mem::take(carry);
    let mut chunk = [0u8; 512];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Ok(Err(RequestError::Bad(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            ))));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(Err(RequestError::Bad(
                "connection closed before a full request head".into(),
            )));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(s) => s,
        Err(_) => return Ok(Err(RequestError::Bad("request head is not UTF-8".into()))),
    };
    let mut lines = head.lines();
    let line = lines.next().unwrap_or("");
    let mut parts = line.split(' ');
    let (method, path, query) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(target), Some(version), None)
            if !method.is_empty() && version.starts_with("HTTP/") =>
        {
            let (path, query) = match target.split_once('?') {
                Some((p, q)) => (p.to_string(), Some(q.to_string())),
                None => (target.to_string(), None),
            };
            (method.to_string(), path, query)
        }
        _ => {
            return Ok(Err(RequestError::Bad(format!(
                "malformed request line {line:?}"
            ))))
        }
    };
    let mut content_length: u64 = 0;
    let mut expect_continue = false;
    let mut keep_alive = false;
    let mut trace_id = None;
    for header in lines {
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("Content-Length") {
            content_length = match value.parse() {
                Ok(n) => n,
                Err(_) => {
                    return Ok(Err(RequestError::Bad(format!(
                        "unparseable Content-Length {value:?}"
                    ))))
                }
            };
        } else if name.eq_ignore_ascii_case("Expect") && value.eq_ignore_ascii_case("100-continue")
        {
            expect_continue = true;
        } else if name.eq_ignore_ascii_case("Connection") {
            keep_alive = value.eq_ignore_ascii_case("keep-alive");
        } else if name.eq_ignore_ascii_case("X-Kdv-Trace-Id") {
            trace_id = Some(value.to_string());
        }
    }
    if content_length > max_body {
        return Ok(Err(RequestError::TooLarge {
            declared: content_length,
            cap: max_body,
        }));
    }
    if expect_continue && content_length > 0 {
        // Clients (curl included) that sent Expect wait for this
        // interim line before transmitting the body.
        stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        stream.flush()?;
    }
    let mut body = buf.split_off(head_end);
    while (body.len() as u64) < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(Err(RequestError::Bad(format!(
                "connection closed {} bytes into a {content_length}-byte body",
                body.len()
            ))));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    // Bytes behind this request's body belong to the *next* request on
    // a persistent connection; hand them back instead of dropping them.
    *carry = body.split_off(content_length as usize);
    Ok(Ok(Request {
        method,
        path,
        query,
        body,
        keep_alive,
        trace_id,
    }))
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    status: u16,
    reason: &'static str,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    close: bool,
}

impl Response {
    /// A response with the given status and an empty body.
    pub fn new(status: u16, reason: &'static str) -> Self {
        Self {
            status,
            reason,
            headers: Vec::new(),
            body: Vec::new(),
            close: true,
        }
    }

    /// Marks the response `Connection: keep-alive` (the default is
    /// `close`). Only set this when the request asked for it *and* the
    /// server intends to read another request from the connection.
    pub fn keep_alive(mut self, keep: bool) -> Self {
        self.close = !keep;
        self
    }

    /// Whether this response will close the connection.
    pub fn closes(&self) -> bool {
        self.close
    }

    /// Adds a header.
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Sets the body and its content type.
    pub fn body(mut self, content_type: &str, body: Vec<u8>) -> Self {
        self.headers
            .push(("Content-Type".to_string(), content_type.to_string()));
        self.body = body;
        self
    }

    /// The status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Body length in bytes (what `sent` counters should record).
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// Serializes head + body to one buffer (single `write_all`: no
    /// interleaving surprises, one syscall for small tiles).
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 256);
        out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", self.status, self.reason).as_bytes());
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        if self.close {
            out.extend_from_slice(b"Connection: close\r\n\r\n");
        } else {
            out.extend_from_slice(b"Connection: keep-alive\r\n\r\n");
        }
        out.extend_from_slice(&self.body);
        out
    }

    /// Writes the response and flushes.
    pub fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        stream.write_all(&self.to_bytes())?;
        stream.flush()
    }
}

/// Plain-text helper for error bodies.
pub fn text_response(status: u16, reason: &'static str, message: &str) -> Response {
    Response::new(status, reason).body("text/plain; charset=utf-8", message.as_bytes().to_vec())
}

/// Why a server (shard or router) failed to start.
#[derive(Debug)]
pub enum ServeError {
    /// A configuration or dataset problem.
    Config(String),
    /// A socket-layer failure (bind, listen).
    Io(io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(m) => write!(f, "configuration error: {m}"),
            ServeError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// What a serving tier plugs into the [`Frontend`]. The front end
/// calls, per request: [`begin`](Service::begin), reads the request,
/// [`respond`](Service::respond), writes the response (half-closing
/// the socket when the connection ends), then
/// [`finish`](Service::finish).
pub trait Service: Send + Sync + 'static {
    /// Per-request state carried from `begin` to `finish` (the shard's
    /// trace; nothing for the router).
    type Exchange;

    /// The shutdown flag: once set, the accept thread exits, workers
    /// finish their current request and close kept-alive connections.
    fn shutdown(&self) -> &AtomicBool;

    /// Counts a connection shed at the door with `429`.
    fn shed(&self);

    /// Opens a request that has waited since `accepted` (the accept,
    /// or the first byte of a follow-up request on a kept-alive
    /// connection); called just before the request is read.
    fn begin(&self, accepted: Instant) -> Self::Exchange;

    /// Answers a request, or a parse reject (whose standard answer is
    /// [`RequestError::response`]). The front end sets the
    /// `Connection` header. Takes the `Arc` so a handler can hand the
    /// service to a thread it spawns (the shard's compactions).
    fn respond(
        self: &Arc<Self>,
        exchange: &mut Self::Exchange,
        request: Result<&Request, &RequestError>,
    ) -> Response;

    /// Closes the exchange after the response was written (`wrote`)
    /// or failed to be. `request` is `None` for a parse reject.
    fn finish(
        &self,
        exchange: Self::Exchange,
        request: Option<&Request>,
        response: &Response,
        wrote: bool,
    );
}

/// The running connection plumbing of one tier: listener, accept
/// thread, bounded queue and worker pool (see [`Frontend::start`]).
pub struct Frontend<S: Service> {
    service: Arc<S>,
    addr: SocketAddr,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl<S: Service> Frontend<S> {
    /// Binds `addr` and spawns the accept thread (`{tier}-accept`) and
    /// `workers` worker threads (`{tier}-worker-{i}`). At most `queue`
    /// accepted connections wait for a worker; the next one is
    /// answered `429` + `Retry-After: 1` by the accept thread itself.
    /// Request bodies over `max_body` bytes are refused with `413`.
    pub fn start(
        addr: &str,
        tier: &str,
        workers: usize,
        queue: usize,
        max_body: u64,
        service: Arc<S>,
    ) -> Result<Self, ServeError> {
        if workers == 0 {
            return Err(ServeError::Config("need at least one worker".into()));
        }
        if queue == 0 {
            return Err(ServeError::Config("queue depth must be at least 1".into()));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (tx, rx) = sync_channel::<(TcpStream, Instant)>(queue);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers)
            .map(|i| {
                let (service, rx) = (Arc::clone(&service), Arc::clone(&rx));
                std::thread::Builder::new()
                    .name(format!("{tier}-worker-{i}"))
                    .spawn(move || worker_loop(&service, &rx, max_body, addr))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let accept = {
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name(format!("{tier}-accept"))
                .spawn(move || accept_loop(&*service, &listener, tx))?
        };
        Ok(Self {
            service,
            addr,
            accept,
            workers,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until shutdown (set by [`Frontend::stop`] or by the
    /// service itself) has drained the accept thread and every worker.
    pub fn join(self) {
        let _ = self.accept.join();
        for h in self.workers {
            let _ = h.join();
        }
    }

    /// Sets the shutdown flag, wakes the accept thread, and joins.
    pub fn stop(self) {
        self.service.shutdown().store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        self.join();
    }
}

fn accept_loop<S: Service>(
    service: &S,
    listener: &TcpListener,
    tx: SyncSender<(TcpStream, Instant)>,
) {
    for stream in listener.incoming() {
        if service.shutdown().load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            continue;
        };
        let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
        let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
        // Nagle off: every response is written in one buffer, so
        // delaying the final short segment for an ACK only adds
        // latency — most visibly on the router's proxy path.
        let _ = stream.set_nodelay(true);
        // The accept timestamp rides along so a traced worker can
        // attribute queue wait to a span whose origin is *here*.
        match tx.try_send((stream, Instant::now())) {
            Ok(()) => {}
            Err(TrySendError::Full((mut stream, _))) => {
                // Admission control: shed load at the door with a hint
                // instead of queueing unboundedly.
                service.shed();
                let _ = stream.set_read_timeout(Some(DRAIN_TIMEOUT));
                let mut scratch = [0u8; 1024];
                let _ = stream.read(&mut scratch);
                let resp = text_response(429, "Too Many Requests", "queue is full")
                    .header("Retry-After", "1");
                let _ = resp.write_to(&mut stream);
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping `tx` here disconnects the channel; workers drain the
    // queue and exit.
}

fn worker_loop<S: Service>(
    service: &Arc<S>,
    rx: &Mutex<Receiver<(TcpStream, Instant)>>,
    max_body: u64,
    local_addr: SocketAddr,
) {
    loop {
        let next = rx.lock().expect("accept queue poisoned").recv();
        let Ok((mut stream, mut accepted)) = next else {
            break; // accept thread gone and queue drained
        };
        // The head/body read buffer persists across requests on the
        // same connection (carrying any pipelined bytes with it), so a
        // keep-alive proxy path pays one allocation per connection.
        let mut carry = Vec::new();
        while serve_request(service, &mut stream, accepted, max_body, &mut carry)
            && !service.shutdown().load(Ordering::SeqCst)
        {
            // Between requests, wait for the next request's first byte
            // under the (short) keep-alive idle timeout — *outside* any
            // exchange, so idle time is never attributed to a request.
            if carry.is_empty() {
                let _ = stream.set_read_timeout(Some(KEEPALIVE_IDLE));
                if !matches!(stream.peek(&mut [0u8; 1]), Ok(n) if n > 0) {
                    break; // closed, reset, or idled out
                }
                let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
            }
            accepted = Instant::now();
        }
        if service.shutdown().load(Ordering::SeqCst) {
            // Wake the accept thread so shutdown is prompt.
            let _ = TcpStream::connect(local_addr);
        }
    }
}

/// Serves one request off `stream`; returns whether the connection
/// should be kept open for another.
fn serve_request<S: Service>(
    service: &Arc<S>,
    stream: &mut TcpStream,
    accepted: Instant,
    max_body: u64,
    carry: &mut Vec<u8>,
) -> bool {
    let mut exchange = service.begin(accepted);
    let Ok(read) = read_request_from(stream, max_body, carry) else {
        return false; // transport failure: nothing to answer
    };
    // Persistence is opt-in (explicit `Connection: keep-alive`), and a
    // draining server closes regardless so shutdown never waits out an
    // idle connection.
    let keep = matches!(&read, Ok(request) if request.keep_alive)
        && !service.shutdown().load(Ordering::SeqCst);
    let response = service
        .respond(&mut exchange, read.as_ref())
        .keep_alive(keep);
    if let Err(RequestError::TooLarge { .. }) = read {
        // The body was never read, so the worker is free at once.
        // Drain what the client already sent (bounded).
        let _ = stream.set_read_timeout(Some(DRAIN_TIMEOUT));
        let mut scratch = [0u8; 4096];
        for _ in 0..16 {
            match stream.read(&mut scratch) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }
    let wrote = response.write_to(stream).is_ok();
    let keep = keep && wrote;
    if !keep {
        // Half-close before `finish`: the client's read-to-EOF
        // completes without waiting on the service's bookkeeping.
        let _ = stream.shutdown(Shutdown::Write);
    }
    service.finish(exchange, read.as_ref().ok(), &response, wrote);
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Runs the parser against raw bytes through a real socket pair.
    fn parse_raw_cap(raw: &[u8], max_body: u64) -> io::Result<Result<Request, RequestError>> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&raw).expect("write");
            // Half-close: the parser must see EOF after these bytes
            // (a truncated body would otherwise block forever), while
            // the read half stays open for any interim response.
            s.shutdown(std::net::Shutdown::Write).expect("half-close");
            s
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let out = read_request_from(&mut conn, max_body, &mut Vec::new());
        drop(writer.join().expect("writer"));
        out
    }

    fn parse_raw(raw: &[u8]) -> io::Result<Result<Request, RequestError>> {
        parse_raw_cap(raw, 1 << 20)
    }

    #[test]
    fn parses_a_get_request_line() {
        let req = parse_raw(b"GET /tiles/eps/0/0/0.png HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("io")
            .expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/tiles/eps/0/0/0.png");
        assert_eq!(req.query, None);
        assert!(req.body.is_empty());
    }

    #[test]
    fn strips_query_strings_but_keeps_them() {
        let req = parse_raw(b"GET /metrics?format=prometheus HTTP/1.1\r\n\r\n")
            .expect("io")
            .expect("parse");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query.as_deref(), Some("format=prometheus"));
    }

    #[test]
    fn reads_a_post_body_to_its_declared_length() {
        let req = parse_raw(
            b"POST /datasets/d/points HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello worldEXTRA",
        )
        .expect("io")
        .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn rejects_oversized_bodies_without_reading_them() {
        let err = parse_raw_cap(b"POST /d HTTP/1.1\r\nContent-Length: 1000\r\n\r\n", 64)
            .expect("io")
            .expect_err("should refuse");
        assert_eq!(
            err,
            RequestError::TooLarge {
                declared: 1000,
                cap: 64
            }
        );
    }

    #[test]
    fn rejects_truncated_bodies_and_bad_lengths() {
        assert!(matches!(
            parse_raw(b"POST /d HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
                .expect("io")
                .expect_err("truncated body"),
            RequestError::Bad(_)
        ));
        assert!(matches!(
            parse_raw(b"POST /d HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
                .expect("io")
                .expect_err("bad length"),
            RequestError::Bad(_)
        ));
    }

    #[test]
    fn answers_100_continue_before_the_body() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"POST /d HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\n")
                .expect("head");
            // A real client waits for the interim response here.
            let mut interim = [0u8; 25];
            io::Read::read_exact(&mut s, &mut interim).expect("interim");
            assert!(interim.starts_with(b"HTTP/1.1 100 Continue"));
            s.write_all(b"ok").expect("body");
            s
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let req = read_request_from(&mut conn, 1 << 20, &mut Vec::new())
            .expect("io")
            .expect("parse");
        assert_eq!(req.body, b"ok");
        drop(writer.join().expect("writer"));
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            b"GARBAGE\r\n\r\n".to_vec(),
            b"GET /x\r\n\r\n".to_vec(),
            b"GET /x HTTP/1.1 EXTRA\r\n\r\n".to_vec(),
            b"\r\n\r\n".to_vec(),
        ] {
            assert!(parse_raw(&raw).expect("io").is_err(), "{raw:?}");
        }
    }

    #[test]
    fn caps_oversized_request_heads() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        raw.extend(vec![b'a'; 10 * 1024]);
        assert!(parse_raw(&raw).expect("io").is_err());
    }

    #[test]
    fn captures_keep_alive_and_trace_id_headers() {
        let req = parse_raw(
            b"GET /t HTTP/1.1\r\nConnection: Keep-Alive\r\nX-Kdv-Trace-Id: 00ab00ab00ab00ab\r\n\r\n",
        )
        .expect("io")
        .expect("parse");
        assert!(req.keep_alive);
        assert_eq!(req.trace_id.as_deref(), Some("00ab00ab00ab00ab"));

        let req = parse_raw(b"GET /t HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("io")
            .expect("parse");
        assert!(!req.keep_alive);
        assert_eq!(req.trace_id, None);

        // Bare HTTP/1.1 (no Connection header) defaults to close:
        // persistence is opt-in so read-to-EOF clients keep working.
        let req = parse_raw(b"GET /t HTTP/1.1\r\n\r\n")
            .expect("io")
            .expect("parse");
        assert!(!req.keep_alive);
    }

    #[test]
    fn carries_pipelined_bytes_to_the_next_request() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            // Two pipelined requests in one write: the second must not
            // be discarded with the first request's trailing bytes.
            s.write_all(
                b"POST /a HTTP/1.1\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nhi\
                  GET /b HTTP/1.1\r\n\r\n",
            )
            .expect("write");
            s.shutdown(std::net::Shutdown::Write).expect("half-close");
            s
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let mut carry = Vec::new();
        let first = read_request_from(&mut conn, 1 << 20, &mut carry)
            .expect("io")
            .expect("parse");
        assert_eq!(first.path, "/a");
        assert_eq!(first.body, b"hi");
        assert!(first.keep_alive);
        assert!(!carry.is_empty(), "second request should be carried over");
        let second = read_request_from(&mut conn, 1 << 20, &mut carry)
            .expect("io")
            .expect("parse");
        assert_eq!(second.path, "/b");
        assert!(second.body.is_empty());
        assert!(carry.is_empty());
        drop(writer.join().expect("writer"));
    }

    #[test]
    fn response_serializes_keep_alive_when_asked() {
        let r = Response::new(200, "OK").keep_alive(true);
        assert!(!r.closes());
        let text = String::from_utf8_lossy(&r.to_bytes()).to_string();
        assert!(text.contains("Connection: keep-alive\r\n\r\n"));
        assert!(!text.contains("Connection: close"));
    }

    #[test]
    fn response_serializes_with_length_and_close() {
        let r = Response::new(200, "OK")
            .header("X-Kdv-Cache", "hit")
            .body("image/png", vec![1, 2, 3]);
        let bytes = r.to_bytes();
        let text = String::from_utf8_lossy(&bytes);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("X-Kdv-Cache: hit\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n\r\n"));
        assert!(bytes.ends_with(&[1, 2, 3]));
        assert_eq!(r.body_len(), 3);
        assert_eq!(r.status(), 200);
    }
}
