//! The router process: a dependency-free HTTP/1.1 reverse proxy with
//! rendezvous-hash routing, bounded admission, and one-hop failover.
//!
//! It runs the shard's own connection plumbing, [`Frontend`] — an
//! accept thread feeding a bounded queue, a fixed worker pool, `429 +
//! Retry-After` shed at the door — so the two tiers degrade the same
//! way under overload. Per request the router:
//!
//! 1. picks the owner shard by rendezvous hash over the tile key
//!    `(dataset, kind, z, x, y)` (or the dataset key alone for pinned
//!    ingest-mutable datasets and `/datasets/` requests),
//! 2. reserves a bounded in-flight slot on the target (full → `429`),
//! 3. proxies over a pooled keep-alive connection (`TCP_NODELAY`,
//!    reused read buffers, one stale-connection retry),
//! 4. on shard failure retries the hash ring's runner-up once, marking
//!    the response `X-Kdv-Failover` — except ingest POSTs and pinned
//!    datasets, which must never run on a non-owner (the owner holds
//!    the dataset's WAL and memtable), and so answer `503` instead.
//!
//! Every proxied request carries `X-Kdv-Trace-Id` downstream, so the
//! shard adopts the router's ID and the two tiers' traces stitch.

use std::collections::HashSet;
use std::io::{self, Read as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kdv_server::http::{
    text_response, Frontend, Request, RequestError, Response, Service, SOCKET_TIMEOUT,
};
use kdv_server::{parse_tile_path, valid_dataset_name, ServeError};
use kdv_telemetry::{RouterCounters, TraceId};

use crate::health::ShardSlot;
use crate::metrics;
use crate::ring::Ring;

/// Upstream connect budget. Loopback/LAN shards either accept fast or
/// are down; waiting longer just stalls the failover retry.
const UPSTREAM_CONNECT: Duration = Duration::from_secs(1);

/// Upstream response budget: must cover a cold tile render on a busy
/// shard, not just the round trip.
const UPSTREAM_READ: Duration = Duration::from_secs(30);

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Shard addresses; index in this list is the shard's permanent
    /// ring identity.
    pub shards: Vec<String>,
    /// Proxy worker threads.
    pub workers: usize,
    /// Accept-queue depth (overflow sheds `429` at the door).
    pub queue: usize,
    /// Per-shard in-flight cap (admission control).
    pub max_inflight: usize,
    /// Health probe period in milliseconds.
    pub probe_ms: u64,
    /// Deepest zoom accepted in tile paths (routing only; shards
    /// enforce their own pyramid depth).
    pub max_z: u8,
    /// Largest accepted request body (ingest POSTs pass through).
    pub max_body: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            workers: 8,
            queue: 128,
            max_inflight: 64,
            probe_ms: 250,
            max_z: 24,
            max_body: 1 << 20,
        }
    }
}

pub(crate) struct RouterInner {
    pub(crate) shards: Vec<Arc<ShardSlot>>,
    pub(crate) ring: Ring,
    pub(crate) counters: RouterCounters,
    /// Datasets that have received an ingest POST through this router:
    /// all their traffic — tiles included — is pinned to the dataset
    /// owner so memtable deltas stay coherent and no two processes
    /// ever write one WAL.
    mutable: Mutex<HashSet<String>>,
    shutdown: AtomicBool,
    pub(crate) started: Instant,
    max_inflight: usize,
    max_z: u8,
}

/// A running router (see [`Router::start`]).
pub struct Router {
    inner: Arc<RouterInner>,
    front: Frontend<RouterInner>,
    prober: JoinHandle<()>,
}

impl Router {
    /// Starts the health prober and the [`Frontend`] (`kdv-router-*`
    /// threads), and starts routing.
    pub fn start(config: RouterConfig) -> Result<Self, ServeError> {
        if config.shards.is_empty() {
            return Err(ServeError::Config("need at least one shard".into()));
        }
        if config.max_inflight == 0 {
            return Err(ServeError::Config(
                "in-flight cap must be at least 1".into(),
            ));
        }
        let shards: Vec<Arc<ShardSlot>> = config
            .shards
            .iter()
            .enumerate()
            .map(|(i, addr)| Arc::new(ShardSlot::new(i, addr.clone())))
            .collect();
        let inner = Arc::new(RouterInner {
            ring: Ring::new(shards.len()),
            shards,
            counters: RouterCounters::default(),
            mutable: Mutex::new(HashSet::new()),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            max_inflight: config.max_inflight,
            max_z: config.max_z,
        });
        let probe_every = Duration::from_millis(config.probe_ms.max(10));
        let prober = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("kdv-router-probe".into())
                .spawn(move || {
                    while !inner.shutdown.load(Ordering::SeqCst) {
                        for slot in &inner.shards {
                            slot.probe();
                        }
                        std::thread::sleep(probe_every);
                    }
                })?
        };
        let started = Frontend::start(
            &config.addr,
            "kdv-router",
            config.workers,
            config.queue,
            config.max_body,
            Arc::clone(&inner),
        );
        let front = match started {
            Ok(front) => front,
            Err(e) => {
                inner.shutdown.store(true, Ordering::SeqCst);
                let _ = prober.join();
                return Err(e);
            }
        };
        Ok(Self {
            inner,
            front,
            prober,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Points shard `index` at a new address (supervisor respawn).
    pub fn set_shard_addr(&self, index: usize, addr: String) {
        if let Some(slot) = self.inner.shards.get(index) {
            slot.set_addr(addr);
        }
    }

    /// Initiates shutdown and joins every thread.
    pub fn stop(self) {
        self.front.stop();
        let _ = self.prober.join();
    }
}

impl Service for RouterInner {
    type Exchange = ();

    fn shutdown(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn shed(&self) {
        self.counters.shed();
    }

    fn begin(&self, _accepted: Instant) {}

    fn respond(self: &Arc<Self>, _: &mut (), request: Result<&Request, &RequestError>) -> Response {
        let request = match request {
            Ok(request) => request,
            Err(reject) => return reject.response(),
        };
        self.counters.request();
        // Adopt the client's trace ID when it forwarded a valid one
        // (router behind router, or a client correlating its own logs);
        // otherwise draw a fresh ID for the whole downstream story.
        let trace_id = request
            .trace_id
            .as_deref()
            .and_then(TraceId::from_hex)
            .unwrap_or_else(TraceId::next);
        route(self, request, trace_id)
    }

    fn finish(&self, _: (), request: Option<&Request>, response: &Response, wrote: bool) {
        if wrote && request.is_some() {
            self.counters.sent(response.body_len() as u64);
        }
    }
}

/// A parsed upstream response.
pub(crate) struct Upstream {
    pub(crate) status: u16,
    pub(crate) headers: Vec<(String, String)>,
    pub(crate) body: Vec<u8>,
    keep: bool,
}

fn other(message: &str) -> io::Error {
    io::Error::other(message.to_string())
}

/// Reads one `Content-Length`-framed response off an upstream socket.
fn read_upstream(stream: &mut TcpStream) -> io::Result<Upstream> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > 64 * 1024 {
            return Err(other("upstream response head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(other("upstream closed before a response head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| other("non-UTF-8 head"))?;
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| other("malformed status line"))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    let mut keep = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("Content-Length") {
                content_length = value.parse().ok();
            } else if name.eq_ignore_ascii_case("Connection") {
                keep = value.eq_ignore_ascii_case("keep-alive");
            }
            headers.push((name.to_string(), value.to_string()));
        }
    }
    let len = content_length.ok_or_else(|| other("missing Content-Length"))?;
    if len > 64 << 20 {
        return Err(other("upstream body too large"));
    }
    let mut body = buf.split_off(head_end);
    while body.len() < len {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(other("upstream closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(len);
    Ok(Upstream {
        status,
        headers,
        body,
        keep,
    })
}

/// Serializes the upstream copy of `request` with the proxy headers
/// (`Connection: keep-alive`, the forwarded trace ID) attached.
fn upstream_request_bytes(request: &Request, trace_id: TraceId) -> Vec<u8> {
    let mut head = String::with_capacity(256);
    head.push_str(&request.method);
    head.push(' ');
    head.push_str(&request.path);
    if let Some(q) = &request.query {
        head.push('?');
        head.push_str(q);
    }
    head.push_str(" HTTP/1.1\r\nConnection: keep-alive\r\nX-Kdv-Trace-Id: ");
    head.push_str(&trace_id.to_hex());
    head.push_str("\r\n");
    if !request.body.is_empty() {
        head.push_str(&format!("Content-Length: {}\r\n", request.body.len()));
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(&request.body);
    bytes
}

fn try_once(mut conn: TcpStream, bytes: &[u8]) -> io::Result<(Upstream, TcpStream)> {
    io::Write::write_all(&mut conn, bytes)?;
    io::Write::flush(&mut conn)?;
    let upstream = read_upstream(&mut conn)?;
    Ok((upstream, conn))
}

fn connect_fresh(slot: &ShardSlot) -> io::Result<TcpStream> {
    let addr: SocketAddr = slot
        .addr()
        .parse()
        .map_err(|_| other("unparseable shard address"))?;
    let conn = TcpStream::connect_timeout(&addr, UPSTREAM_CONNECT)?;
    conn.set_read_timeout(Some(UPSTREAM_READ))?;
    conn.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    let _ = conn.set_nodelay(true);
    Ok(conn)
}

/// One shard attempt: pooled keep-alive connection first (with a
/// single stale-connection retry on a fresh one), else a fresh
/// connection. Non-idempotent requests (ingest POSTs) skip the pool
/// entirely — a reused connection that dies mid-exchange leaves "did
/// the shard commit?" unanswerable, and a fresh connect's failure
/// modes are unambiguous.
pub(crate) fn fetch(
    inner: &RouterInner,
    slot: &ShardSlot,
    bytes: &[u8],
    idempotent: bool,
) -> Option<Upstream> {
    if idempotent {
        if let Some(conn) = slot.pooled() {
            inner.counters.proxied();
            match try_once(conn, bytes) {
                Ok((upstream, conn)) => {
                    if upstream.keep {
                        slot.pool_push(conn);
                    }
                    slot.mark_ok();
                    return Some(upstream);
                }
                // The pooled connection idled out shard-side between
                // requests; not the shard's fault. Retry fresh.
                Err(_) => inner.counters.retry(),
            }
        }
    }
    inner.counters.proxied();
    match connect_fresh(slot).and_then(|conn| try_once(conn, bytes)) {
        Ok((upstream, conn)) => {
            if upstream.keep {
                slot.pool_push(conn);
            }
            slot.mark_ok();
            Some(upstream)
        }
        Err(_) => {
            inner.counters.upstream_error();
            slot.mark_failure();
            None
        }
    }
}

/// Canonical reason phrases for forwarded statuses.
fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Upstream",
    }
}

/// Rebuilds a client-facing [`Response`] from an upstream response:
/// status and body forwarded, hop-by-hop headers dropped, provenance
/// (`X-Kdv-Shard`, `X-Kdv-Failover`) attached.
fn client_response(upstream: Upstream, shard: usize, failover: bool) -> Response {
    let mut content_type = "application/octet-stream".to_string();
    let mut response = Response::new(upstream.status, reason_for(upstream.status));
    for (name, value) in &upstream.headers {
        if name.eq_ignore_ascii_case("Content-Type") {
            content_type = value.clone();
        } else if name.eq_ignore_ascii_case("Content-Length")
            || name.eq_ignore_ascii_case("Connection")
        {
            // Rebuilt for the client hop.
        } else {
            response = response.header(name, value.clone());
        }
    }
    response = response.header("X-Kdv-Shard", shard.to_string());
    if failover {
        response = response.header("X-Kdv-Failover", "1");
    }
    response.body(&content_type, upstream.body)
}

/// Where one request should go.
struct Route {
    key: u64,
    /// Pinned routes (ingest, mutable datasets) must not fail over.
    pinned: bool,
    /// Idempotent requests may retry and use pooled connections.
    idempotent: bool,
}

fn route(inner: &Arc<RouterInner>, request: &Request, trace_id: TraceId) -> Response {
    let local = |response: Response| response.header("X-Kdv-Trace-Id", trace_id.to_hex());
    match request.path.as_str() {
        "/healthz" => return local(text_response(200, "OK", "ok")),
        "/readyz" => {
            let up = inner.shards.iter().filter(|s| s.is_up()).count();
            return if up > 0 {
                local(text_response(200, "OK", &format!("{up} shards up")))
            } else {
                local(
                    text_response(503, "Service Unavailable", "no shard is up")
                        .header("Retry-After", "1"),
                )
            };
        }
        "/metrics" => return local(metrics::respond(inner, request.query.as_deref())),
        _ => {}
    }

    let decision = match decide(inner, request) {
        Ok(d) => d,
        Err(response) => return local(response),
    };
    let owner = inner.ring.owner(decision.key);
    let fallback = if decision.pinned || !decision.idempotent {
        None
    } else {
        inner.ring.fallback(decision.key)
    };

    // Attempt order: the owner first — unless probes already marked it
    // down and the fallback looks alive, in which case skipping the
    // owner saves a connect timeout on every request of the outage.
    let mut order = vec![owner];
    if let Some(fb) = fallback {
        if !inner.shards[owner].is_up() && inner.shards[fb].is_up() {
            order = vec![fb, owner];
        } else {
            order.push(fb);
        }
    }

    let bytes = upstream_request_bytes(request, trace_id);
    for &shard in &order {
        let slot = &inner.shards[shard];
        if !slot.try_admit(inner.max_inflight) {
            inner.counters.shed();
            return local(
                text_response(429, "Too Many Requests", "shard in-flight cap reached")
                    .header("Retry-After", "1"),
            );
        }
        let result = fetch(inner, slot, &bytes, decision.idempotent);
        slot.release();
        if let Some(upstream) = result {
            let failover = shard != owner;
            if failover {
                inner.counters.failover();
            }
            return client_response(upstream, shard, failover);
        }
    }
    inner.counters.no_upstream();
    local(
        text_response(
            503,
            "Service Unavailable",
            "no shard could serve the request",
        )
        .header("Retry-After", "1"),
    )
}

/// Classifies a request into its routing key. `Err` carries the
/// response for requests the router answers itself.
fn decide(inner: &Arc<RouterInner>, request: &Request) -> Result<Route, Response> {
    let path = request.path.as_str();
    if let Some(rest) = path.strip_prefix("/datasets/") {
        let name = rest.split('/').next().unwrap_or("");
        if !valid_dataset_name(name) {
            return Err(text_response(400, "Bad Request", "invalid dataset name"));
        }
        let ingest = request.method == "POST";
        if ingest {
            // Pin the dataset *before* forwarding the first write, so
            // no tile request can race to a non-owner afterwards.
            inner
                .mutable
                .lock()
                .expect("mutable set poisoned")
                .insert(name.to_string());
        }
        return Ok(Route {
            key: Ring::dataset_key(name),
            pinned: true,
            idempotent: !ingest,
        });
    }
    if path.starts_with("/tiles/") {
        let parsed = parse_tile_path(path, inner.max_z, true)
            .map(|(dataset, addr)| (dataset.unwrap_or_default(), addr))
            .or_else(|_| {
                parse_tile_path(path, inner.max_z, false).map(|(_, addr)| (String::new(), addr))
            });
        let (dataset, addr) = match parsed {
            Ok(parts) => parts,
            Err(e) => return Err(text_response(400, "Bad Request", &e.to_string())),
        };
        let pinned = !dataset.is_empty()
            && inner
                .mutable
                .lock()
                .expect("mutable set poisoned")
                .contains(&dataset);
        let key = if pinned {
            Ring::dataset_key(&dataset)
        } else {
            Ring::tile_key(&dataset, addr.kind.as_str(), addr.z, addr.x, addr.y)
        };
        return Ok(Route {
            key,
            pinned,
            idempotent: request.method == "GET",
        });
    }
    // Anything else (debug endpoints, /shutdown, unknown paths) routes
    // by path hash: deterministic, spreads debug load, and lets the
    // shard answer its own 404s.
    Ok(Route {
        key: Ring::dataset_key(path),
        pinned: false,
        idempotent: request.method == "GET",
    })
}
