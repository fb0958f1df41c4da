//! Socket-level integration suite for the cluster tier: a real
//! [`Router`] in front of real in-process [`TileServer`] shards,
//! exercised over TCP exactly like production traffic.
//!
//! Covers the acceptance contract end to end:
//!
//! * a full z≤3 pyramid through the router, with per-shard cache
//!   partitioning visible in the merged `/metrics` rollup (a second
//!   sweep adds hits and zero misses — no tile is ever re-rendered on
//!   a different shard);
//! * killing a shard mid-traffic yields **zero 5xx** for its tiles:
//!   every one fails over to the ring's runner-up with
//!   `X-Kdv-Failover: 1`;
//! * ingest POSTs through the router land on the dataset's owner
//!   shard, ack durably (WAL on disk), pin the dataset, and subsequent
//!   tiles reflect the new points;
//! * bounded admission sheds `429 + Retry-After` when a shard's
//!   in-flight cap is full, and at the router's door when its queue is;
//! * the HTTP front end both tiers share answers pipelined keep-alive
//!   requests and refuses oversized bodies with `413`, on a shard and
//!   on the router in front of it;
//! * `X-Kdv-Trace-Id` propagates client → router → shard and back.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use kdv_cluster::{Ring, Router, RouterConfig};
use kdv_core::bandwidth::scott_gamma;
use kdv_core::kernel::Kernel;
use kdv_data::Dataset;
use kdv_index::KdTree;
use kdv_server::{ServerConfig, TileServer};
use kdv_store::SnapshotWriter;
use kdv_telemetry::json::{self, Value};

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kdv-cluster-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut points = Dataset::Crime.generate(400, 11);
    points.scale_weights(1.0 / points.len() as f64);
    let kernel = Kernel::gaussian(scott_gamma(&points).gamma);
    let tree = KdTree::build_default(&points);
    SnapshotWriter::new(&tree, kernel)
        .write_to(dir.join("crime.kdvs"))
        .expect("write snapshot");
    dir
}

fn shard_config(store_budget: u64) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        tile_size: 32,
        max_z: 3,
        tau: 1e-3,
        workers: 4,
        queue: 64,
        store_budget_bytes: store_budget,
        debug_sleep: true,
        ..ServerConfig::default()
    }
}

fn start_shards(dir: &Path, n: usize) -> Vec<TileServer> {
    (0..n)
        .map(|_| TileServer::start_with_store(shard_config(0), dir).expect("start shard"))
        .collect()
}

fn start_router(shards: &[TileServer], max_inflight: usize) -> Router {
    Router::start(RouterConfig {
        shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
        max_inflight,
        probe_ms: 50,
        ..RouterConfig::default()
    })
    .expect("start router")
}

/// One HTTP exchange; returns status, headers, body.
fn exchange(addr: SocketAddr, raw: String) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect router");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("recv");
    let split = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("head/body split");
    let head = std::str::from_utf8(&bytes[..split]).expect("utf8 head");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .expect("status line")
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, bytes[split + 4..].to_vec())
}

fn get(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    exchange(addr, format!("GET {path} HTTP/1.1\r\nHost: kdv\r\n\r\n"))
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn pyramid_paths(max_z: u8) -> Vec<String> {
    let mut paths = Vec::new();
    for kind in ["eps", "tau"] {
        for z in 0..=max_z {
            let side = 1u32 << z;
            for x in 0..side {
                for y in 0..side {
                    paths.push(format!("/tiles/crime/{kind}/{z}/{x}/{y}.png"));
                }
            }
        }
    }
    paths
}

fn metrics_doc(addr: SocketAddr) -> Value {
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200, "router /metrics");
    json::parse(std::str::from_utf8(&body).expect("utf8")).expect("metrics JSON")
}

fn rollup_cache(doc: &Value, key: &str) -> f64 {
    doc.get("rollup")
        .and_then(|r| r.get("cache"))
        .and_then(|c| c.get(key))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("rollup.cache.{key} in {doc:?}"))
}

#[test]
fn pyramid_through_router_partitions_caches_across_shards() {
    let dir = temp_store("pyramid");
    let shards = start_shards(&dir, 2);
    let router = start_router(&shards, 64);
    let addr = router.local_addr();

    let paths = pyramid_paths(3);
    let mut owners: Vec<usize> = Vec::new();
    for path in &paths {
        let (status, headers, body) = get(addr, path);
        assert_eq!(status, 200, "first sweep: {path}");
        assert!(!body.is_empty(), "empty tile body: {path}");
        assert!(
            header(&headers, "x-kdv-failover").is_none(),
            "healthy fleet must not fail over: {path}"
        );
        let shard: usize = header(&headers, "x-kdv-shard")
            .expect("X-Kdv-Shard header")
            .parse()
            .expect("numeric shard");
        owners.push(shard);
    }
    // Real partitioning: both shards own a material slice.
    let on_one = owners.iter().filter(|&&s| s == 1).count();
    assert!(
        on_one > paths.len() / 5 && on_one < paths.len() * 4 / 5,
        "suspicious split: {on_one}/{} tiles on shard 1",
        paths.len()
    );

    let after_first = metrics_doc(addr);
    let misses1 = rollup_cache(&after_first, "misses");
    assert!(
        misses1 >= paths.len() as f64,
        "each tile renders once: {misses1} misses < {} tiles",
        paths.len()
    );
    assert_eq!(
        after_first
            .get("schema")
            .and_then(Value::as_str)
            .expect("schema"),
        "kdv-cluster-metrics/1"
    );
    assert_eq!(
        after_first
            .get("rollup")
            .and_then(|r| r.get("shards_reporting"))
            .and_then(Value::as_f64),
        Some(2.0)
    );

    // Second sweep: same owner every time (deterministic hash), so the
    // fleet-wide miss count must not move — the partition is stable
    // and no shard re-renders another's tile.
    for (path, &owner) in paths.iter().zip(&owners) {
        let (status, headers, _) = get(addr, path);
        assert_eq!(status, 200, "second sweep: {path}");
        let shard: usize = header(&headers, "x-kdv-shard")
            .expect("X-Kdv-Shard header")
            .parse()
            .expect("numeric shard");
        assert_eq!(shard, owner, "ownership moved between sweeps: {path}");
    }
    let after_second = metrics_doc(addr);
    let misses2 = rollup_cache(&after_second, "misses");
    let hits2 = rollup_cache(&after_second, "hits");
    assert_eq!(misses2, misses1, "second sweep re-rendered tiles");
    assert!(
        hits2 >= paths.len() as f64,
        "second sweep must hit caches: {hits2} hits"
    );
    let rate = rollup_cache(&after_second, "hit_rate");
    assert!(
        rate > 0.0 && rate < 1.0,
        "rollup hit_rate must be recomputed, got {rate}"
    );

    router.stop();
    for s in shards {
        s.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_shard_fails_over_with_zero_5xx() {
    let dir = temp_store("failover");
    let mut shards = start_shards(&dir, 2);
    let router = start_router(&shards, 64);
    let addr = router.local_addr();

    let paths = pyramid_paths(2);
    for path in &paths {
        let (status, _, _) = get(addr, path);
        assert_eq!(status, 200, "warm sweep: {path}");
    }

    // Kill shard 1 (socket closes, all its tiles must fail over).
    shards.remove(1).stop();
    let ring = Ring::new(2);
    let mut failovers = 0usize;
    for path in &paths {
        let (status, headers, _) = get(addr, path);
        assert!(
            status < 500,
            "5xx after one-shard failure: {status} on {path}"
        );
        assert_eq!(status, 200, "failover must still serve: {path}");
        let shard: usize = header(&headers, "x-kdv-shard")
            .expect("X-Kdv-Shard header")
            .parse()
            .expect("numeric shard");
        assert_eq!(shard, 0, "only shard 0 is alive");
        // Tiles shard 1 owned must be flagged as failovers.
        let (kind, z, x, y) = parse_tile(path);
        let owner = ring.owner(Ring::tile_key("crime", kind, z, x, y));
        if owner == 1 {
            assert_eq!(
                header(&headers, "x-kdv-failover"),
                Some("1"),
                "missing failover marker: {path}"
            );
            failovers += 1;
        }
    }
    assert!(failovers > 0, "no tile was owned by the dead shard");
    let doc = metrics_doc(addr);
    let counted = doc
        .get("router")
        .and_then(|r| r.get("failovers"))
        .and_then(Value::as_f64)
        .expect("router.failovers");
    assert!(
        counted >= failovers as f64,
        "failover counter undercounts: {counted} < {failovers}"
    );

    router.stop();
    for s in shards {
        s.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn parse_tile(path: &str) -> (&str, u8, u32, u32) {
    let mut parts = path.trim_start_matches("/tiles/crime/").split('/');
    let kind = parts.next().expect("kind");
    let z = parts.next().expect("z").parse().expect("z");
    let x = parts.next().expect("x").parse().expect("x");
    let y = parts
        .next()
        .expect("y")
        .trim_end_matches(".png")
        .parse()
        .expect("y");
    (kind, z, x, y)
}

#[test]
fn ingest_pins_to_the_owner_and_tiles_reflect_new_points() {
    let dir = temp_store("ingest");
    let shards = start_shards(&dir, 2);
    let router = start_router(&shards, 64);
    let addr = router.local_addr();
    let owner = Ring::new(2).owner(Ring::dataset_key("crime"));

    let (_, _, tile_before) = get(addr, "/tiles/crime/eps/0/0/0.png");

    // A heavy cluster of new points inside the crime dataset's bbox
    // (Atlanta-ish lon/lat), POSTed through the router.
    let appends: Vec<String> = (0..20)
        .map(|i| format!("[{},33.75,0.05]", -84.4 + 0.001 * i as f64))
        .collect();
    let body = format!("{{\"append\":[{}]}}", appends.join(","));
    let raw = format!(
        "POST /datasets/crime/points HTTP/1.1\r\nHost: kdv\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, headers, _) = exchange(addr, raw);
    assert_eq!(status, 200, "ingest POST through router");
    let landed: usize = header(&headers, "x-kdv-shard")
        .expect("X-Kdv-Shard header")
        .parse()
        .expect("numeric shard");
    assert_eq!(landed, owner, "ingest must land on the dataset owner");
    assert!(
        dir.join("crime.wal").exists(),
        "durable ack without a WAL on disk"
    );

    // The dataset is now pinned: every request for it — stats, tiles,
    // any z/x/y — goes to the owner.
    for path in [
        "/datasets/crime/stats",
        "/tiles/crime/eps/0/0/0.png",
        "/tiles/crime/eps/2/1/3.png",
        "/tiles/crime/tau/1/0/1.png",
    ] {
        let (status, headers, _) = get(addr, path);
        assert_eq!(status, 200, "pinned request: {path}");
        let shard: usize = header(&headers, "x-kdv-shard")
            .expect("X-Kdv-Shard header")
            .parse()
            .expect("numeric shard");
        assert_eq!(shard, owner, "pinned dataset left the owner: {path}");
    }

    // And the density actually moved: the root tile re-rendered with
    // the appended mass.
    let (status, _, tile_after) = get(addr, "/tiles/crime/eps/0/0/0.png");
    assert_eq!(status, 200);
    assert_ne!(
        tile_before, tile_after,
        "tiles must reflect ingested points"
    );

    let (_, _, stats) = get(addr, "/datasets/crime/stats");
    let doc = json::parse(std::str::from_utf8(&stats).expect("utf8")).expect("stats JSON");
    let live = doc
        .get("points_live")
        .and_then(Value::as_f64)
        .expect("points_live");
    assert_eq!(live, 420.0, "400 base + 20 appended");

    // The fleet rollup merges histogram summaries by kind: counts sum
    // and the max is the larger shard's max, never a sum of maxima.
    let doc = metrics_doc(addr);
    let ack = |shard: &Value| shard.get("ingest").and_then(|i| i.get("ack_ns")).cloned();
    let shard_acks: Vec<Value> = doc
        .get("shards")
        .and_then(Value::as_arr)
        .expect("shards")
        .iter()
        .map(|s| ack(s.get("metrics").expect("shard metrics")).expect("shard ack_ns"))
        .collect();
    let field = |h: &Value, k: &str| h.get(k).and_then(Value::as_f64).expect(k);
    let rolled = ack(doc.get("rollup").expect("rollup")).expect("rollup ack_ns");
    let larger_max = shard_acks
        .iter()
        .map(|h| field(h, "max"))
        .fold(0.0, f64::max);
    assert!(larger_max > 0.0, "the owner recorded the ack");
    assert_eq!(field(&rolled, "max"), larger_max);
    assert_eq!(
        field(&rolled, "count"),
        shard_acks.iter().map(|h| field(h, "count")).sum::<f64>()
    );

    router.stop();
    for s in shards {
        s.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_does_not_fail_over_when_the_owner_is_down() {
    let dir = temp_store("ingest-down");
    let mut shards = start_shards(&dir, 2);
    let router = start_router(&shards, 64);
    let addr = router.local_addr();
    let owner = Ring::new(2).owner(Ring::dataset_key("crime"));

    shards.remove(owner).stop();
    let body = "{\"append\":[[-84.4,33.75,0.01]]}";
    let raw = format!(
        "POST /datasets/crime/points HTTP/1.1\r\nHost: kdv\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, headers, _) = exchange(addr, raw);
    assert_eq!(
        status, 503,
        "a write must never run on a non-owner (WAL single-writer)"
    );
    assert!(header(&headers, "x-kdv-failover").is_none());
    assert!(header(&headers, "retry-after").is_some());

    router.stop();
    for s in shards {
        s.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inflight_cap_sheds_429_with_retry_after() {
    let dir = temp_store("shed");
    let shards = start_shards(&dir, 2);
    let router = start_router(&shards, 1);
    let addr = router.local_addr();

    // Park one request in the only admission slot of the shard owning
    // this path, then hit the *same path* (same hash key, same shard)
    // while it is still sleeping.
    let parked = std::thread::spawn(move || get(addr, "/debug/sleep/2000"));
    std::thread::sleep(Duration::from_millis(400));
    let (status, headers, _) = get(addr, "/debug/sleep/2000");
    assert_eq!(status, 429, "in-flight cap of 1 must shed the second");
    assert!(header(&headers, "retry-after").is_some(), "429 Retry-After");
    let (status, _, _) = parked.join().expect("parked thread");
    assert_eq!(status, 200, "parked request completes");

    router.stop();
    for s in shards {
        s.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn router_door_sheds_429_when_its_queue_is_full() {
    let dir = temp_store("door");
    let shards = start_shards(&dir, 1);
    let router = Router::start(RouterConfig {
        shards: vec![shards[0].local_addr().to_string()],
        workers: 1,
        queue: 1,
        probe_ms: 50,
        ..RouterConfig::default()
    })
    .expect("start router");
    let addr = router.local_addr();

    // Park the only worker, then fill the only queue slot.
    let busy: Vec<_> = (0..2)
        .map(|_| {
            let t = std::thread::spawn(move || get(addr, "/debug/sleep/1500").0);
            std::thread::sleep(Duration::from_millis(300));
            t
        })
        .collect();
    let mut saw_shed = false;
    for _ in 0..3 {
        let (status, headers, _) = get(addr, "/healthz");
        if status == 429 {
            assert_eq!(header(&headers, "retry-after"), Some("1"));
            saw_shed = true;
            break;
        }
    }
    assert!(saw_shed, "a full router queue must shed at the door");
    for t in busy {
        assert_eq!(t.join().expect("busy client"), 200);
    }
    let shed = metrics_doc(addr)
        .get("router")
        .and_then(|r| r.get("shed"))
        .and_then(Value::as_f64)
        .expect("router.shed");
    assert!(shed >= 1.0, "the door shed is counted, got {shed}");

    router.stop();
    for s in shards {
        s.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads one `Content-Length`-framed response off a persistent
/// connection; `buf` carries bytes read past it.
fn read_framed(stream: &mut TcpStream, buf: &mut Vec<u8>) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).expect("recv head");
        assert!(n > 0, "connection closed before a response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).expect("utf8 head");
    let mut lines = head.lines();
    let status: u16 = lines.next().expect("status line")[9..12]
        .parse()
        .expect("numeric status");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let len: usize = header(&headers, "content-length")
        .expect("content-length")
        .parse()
        .expect("numeric length");
    while buf.len() < head_end + len {
        let n = stream.read(&mut chunk).expect("recv body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = buf[head_end..head_end + len].to_vec();
    buf.drain(..head_end + len);
    (status, headers, body)
}

/// The connection contract of the HTTP front end both tiers run: two
/// pipelined `Connection: keep-alive` GETs on one socket come back as
/// two complete responses, and a POST declaring a body over the 1 MiB
/// cap is answered `413` + `Retry-After` — also when the client has
/// already sent part of that body, which must be drained rather than
/// reset away.
fn check_front_end(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut pipelined = String::new();
    for kind in ["eps", "tau"] {
        pipelined.push_str(&format!(
            "GET /tiles/crime/{kind}/0/0/0.png HTTP/1.1\r\nHost: kdv\r\n\
             Connection: keep-alive\r\n\r\n"
        ));
    }
    stream.write_all(pipelined.as_bytes()).expect("send");
    let mut buf = Vec::new();
    for kind in ["eps", "tau"] {
        let (status, headers, body) = read_framed(&mut stream, &mut buf);
        assert_eq!(status, 200, "{addr} {kind} tile");
        assert_eq!(header(&headers, "connection"), Some("keep-alive"));
        assert!(body.starts_with(b"\x89PNG"), "{addr} {kind}: not a PNG");
    }
    assert!(buf.is_empty(), "no bytes beyond the two responses");

    let raw = format!(
        "POST /datasets/crime/points HTTP/1.1\r\nHost: kdv\r\nContent-Length: {}\r\n\r\n{}",
        2 << 20,
        "x".repeat(16 << 10)
    );
    let (status, headers, _) = exchange(addr, raw);
    assert_eq!(status, 413, "{addr}: oversized body");
    assert_eq!(header(&headers, "retry-after"), Some("1"));
}

#[test]
fn front_end_keeps_alive_and_refuses_oversized_bodies_on_both_tiers() {
    let dir = temp_store("front");
    let shards = start_shards(&dir, 1);
    check_front_end(shards[0].local_addr());
    let router = start_router(&shards, 64);
    check_front_end(router.local_addr());

    router.stop();
    for s in shards {
        s.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_ids_propagate_client_to_shard_and_back() {
    let dir = temp_store("trace");
    let shards = start_shards(&dir, 1);
    let router = start_router(&shards, 64);
    let addr = router.local_addr();

    let id = "00000000deadbeef";
    let raw = format!(
        "GET /tiles/crime/eps/0/0/0.png HTTP/1.1\r\nHost: kdv\r\nX-Kdv-Trace-Id: {id}\r\n\r\n"
    );
    let (status, headers, _) = exchange(addr, raw);
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "x-kdv-trace-id"),
        Some(id),
        "the shard must adopt and echo the client's trace ID"
    );

    // Router-local responses stamp a trace ID too.
    let (_, headers, _) = get(addr, "/healthz");
    let stamped = header(&headers, "x-kdv-trace-id").expect("router trace id");
    assert_eq!(stamped.len(), 16);

    router.stop();
    for s in shards {
        s.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One line per exposition family — `name TYPE {label keys} HELP` —
/// sorted by name (the same shape as the shard golden in
/// `kdv-server`'s `obs` tests).
fn prom_families(text: &str) -> String {
    let mut families: Vec<(String, String, Vec<String>, String)> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("help text");
            families.push((name.into(), String::new(), Vec::new(), help.into()));
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (_, kind) = rest.split_once(' ').expect("type");
            families.last_mut().expect("HELP before TYPE").1 = kind.into();
        } else if let Some((_, labels)) = line.split_once('{') {
            let labels = labels.split('}').next().expect("label set");
            let family = families.last_mut().expect("samples after headers");
            for pair in labels.split(',') {
                let key = pair.split('=').next().expect("label key").to_string();
                if key != "le" && !family.2.contains(&key) {
                    family.2.push(key);
                }
            }
        }
    }
    families.sort();
    families
        .iter()
        .map(|(name, kind, labels, help)| format!("{name} {kind} {{{}}} {help}", labels.join(",")))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every family the router exposes.
const ROUTER_FAMILIES: &str = "\
kdv_router_failovers_total counter {} Requests answered by a non-owner shard.
kdv_router_no_upstream_total counter {} Requests that exhausted every candidate shard.
kdv_router_proxied_total counter {} Upstream exchange attempts.
kdv_router_requests_total counter {} Client requests accepted by the router.
kdv_router_retries_total counter {} Stale pooled-connection retries.
kdv_router_sent_bytes_total counter {} Response body bytes returned to clients.
kdv_router_shard_inflight gauge {shard} In-flight proxied requests per shard.
kdv_router_shard_up gauge {shard} Shard liveness (1 = up).
kdv_router_shed_total counter {} Requests shed with 429 (queue or in-flight cap).
kdv_router_upstream_errors_total counter {} Failed upstream exchanges.
kdv_router_uptime_seconds gauge {} Router uptime.";

#[test]
fn router_prometheus_families_are_pinned() {
    let dir = temp_store("prom");
    let shards = start_shards(&dir, 2);
    let router = start_router(&shards, 64);
    let (status, _, body) = get(router.local_addr(), "/metrics?format=prometheus");
    assert_eq!(status, 200);
    let families = prom_families(std::str::from_utf8(&body).expect("utf8"));
    assert!(
        families == ROUTER_FAMILIES,
        "router exposition families changed; they are now:\n{families}"
    );
    router.stop();
    for s in shards {
        s.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
