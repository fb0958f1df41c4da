//! End-to-end tests: a real server on a real socket, driven by a tiny
//! std-only HTTP client.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use kdv_core::bandwidth::scott_gamma;
use kdv_core::engine::BudgetPolicy;
use kdv_core::kernel::Kernel;
use kdv_core::raster::RasterSpec;
use kdv_core::threshold::estimate_levels;
use kdv_data::Dataset;
use kdv_geom::PointSet;
use kdv_index::KdTree;
use kdv_server::{ServerConfig, TileServer};
use kdv_telemetry::json::{self, Value};

/// One blocking GET; returns (status, headers, body).
fn get(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: kdv\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head");
    let head = std::str::from_utf8(&raw[..split]).expect("head is UTF-8");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers = lines
        .map(|l| {
            let (name, value) = l.split_once(':').expect("header");
            (name.trim().to_ascii_lowercase(), value.trim().to_string())
        })
        .collect();
    (status, headers, raw[split + 4..].to_vec())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == &name.to_ascii_lowercase())
        .map(|(_, v)| v.as_str())
}

/// Asserts PNG magic + IHDR dimensions.
fn assert_png(body: &[u8], size: u32, context: &str) {
    assert!(
        body.starts_with(b"\x89PNG\r\n\x1a\n"),
        "{context}: not a PNG ({} bytes)",
        body.len()
    );
    let w = u32::from_be_bytes(body[16..20].try_into().expect("IHDR width"));
    let h = u32::from_be_bytes(body[20..24].try_into().expect("IHDR height"));
    assert_eq!((w, h), (size, size), "{context}: wrong tile dimensions");
}

struct Fixture {
    points: PointSet,
    kernel: Kernel,
    tau: f64,
}

fn fixture() -> Fixture {
    let mut points = Dataset::Crime.generate(2500, 7);
    points.scale_weights(1.0 / points.len() as f64);
    let kernel = Kernel::gaussian(scott_gamma(&points).gamma);
    let tree = KdTree::build_default(&points);
    let raster = RasterSpec::covering(&points, 48, 48, 0.05);
    let tau = estimate_levels(&tree, kernel, &raster, 32, 32).tau(0.1);
    Fixture {
        points,
        kernel,
        tau,
    }
}

fn config(f: &Fixture) -> ServerConfig {
    ServerConfig {
        tile_size: 32,
        max_z: 4,
        eps: 0.2,
        tau: f.tau,
        workers: 4,
        queue: 32,
        cache_bytes: 16 << 20,
        cache_shards: 4,
        allow_shutdown: true,
        ..ServerConfig::default()
    }
}

#[test]
fn serves_the_full_pyramid_concurrently_with_cache_reuse() {
    let f = fixture();
    let server = TileServer::start(config(&f), &f.points, f.kernel).expect("start");
    let addr = server.local_addr();

    // Every tile of every level z ≤ 4, both kinds, fetched from eight
    // concurrent clients.
    let mut paths = Vec::new();
    for kind in ["eps", "tau"] {
        for z in 0..=4u32 {
            for x in 0..1 << z {
                for y in 0..1 << z {
                    paths.push(format!("/tiles/{kind}/{z}/{x}/{y}.png"));
                }
            }
        }
    }
    let total = paths.len();
    assert_eq!(total, 2 * (1 + 4 + 16 + 64 + 256));
    let paths = Arc::new(paths);
    let mut handles = Vec::new();
    for t in 0..8usize {
        let paths = Arc::clone(&paths);
        handles.push(std::thread::spawn(move || {
            for path in paths.iter().skip(t).step_by(8) {
                let (status, _, body) = get(addr, path);
                assert_eq!(status, 200, "{path}");
                assert_png(&body, 32, path);
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }

    // A repeat fetch is served from the cache.
    let (status, headers, body) = get(addr, "/tiles/eps/2/1/1.png");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Kdv-Cache"), Some("hit"));
    assert_png(&body, 32, "cached tile");

    // /metrics proves it: every unique tile missed once, the repeat hit.
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let doc = json::parse(std::str::from_utf8(&body).expect("utf8")).expect("metrics JSON");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("kdv-serve-metrics/7")
    );
    // Startup accounting is present and self-consistent.
    let startup = doc.get("startup").expect("startup block");
    assert_eq!(startup.get("source").and_then(Value::as_str), Some("built"));
    let startup_total = startup
        .get("total_ms")
        .and_then(Value::as_f64)
        .expect("total_ms");
    let parts: f64 = ["data_load_ms", "index_ms", "warm_ms"]
        .iter()
        .map(|k| startup.get(k).and_then(Value::as_f64).expect(k))
        .sum();
    assert_eq!(startup_total, parts, "startup splits sum to the total");
    // Single-dataset mode still reports its catalog: one preloaded,
    // ready dataset.
    let store = doc.get("store").expect("store block");
    let catalog = store
        .get("catalog")
        .and_then(Value::as_arr)
        .expect("catalog array");
    assert_eq!(catalog.len(), 1);
    assert_eq!(
        catalog[0].get("state").and_then(Value::as_str),
        Some("ready")
    );
    let cache = doc.get("cache").expect("cache block");
    let hits = cache.get("hits").and_then(Value::as_f64).expect("hits");
    let misses = cache.get("misses").and_then(Value::as_f64).expect("misses");
    assert_eq!(misses, total as f64, "each unique tile rendered once");
    assert!(hits >= 1.0, "the repeat fetch hit");
    assert!(
        cache
            .get("bytes_used")
            .and_then(Value::as_f64)
            .expect("bytes")
            > 0.0
    );
    let http = doc.get("http").expect("http block");
    let ok = http.get("ok").and_then(Value::as_f64).expect("ok");
    assert!(ok >= (total + 1) as f64);
    assert_eq!(http.get("rejected").and_then(Value::as_f64), Some(0.0));
    // Live refinement telemetry flowed through the merge.
    let render = doc.get("render").expect("render block");
    let pixels = render
        .get("pixels")
        .and_then(Value::as_f64)
        .expect("pixels");
    assert!(pixels > 0.0, "tile renders metered pixels");

    server.stop();
}

#[test]
fn cached_tau_tiles_are_stable_and_a_zoom_descent_serves_pngs() {
    let f = fixture();
    let server = TileServer::start(config(&f), &f.points, f.kernel).expect("start");
    let addr = server.local_addr();
    // A cached τ tile is served with the same bytes every time.
    let (_, _, first) = get(addr, "/tiles/tau/0/0/0.png");
    for _ in 0..2 {
        let (status, headers, body) = get(addr, "/tiles/tau/0/0/0.png");
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "X-Kdv-Cache"), Some("hit"));
        assert_eq!(body, first, "cached tile bytes are stable");
    }
    // Descend one branch of the pyramid, z0 to z3: every level serves
    // a valid tile-sized PNG.
    for z in 0..=3u32 {
        let (status, _, body) = get(addr, &format!("/tiles/tau/{z}/0/0.png"));
        assert_eq!(status, 200);
        assert_png(&body, 32, "tau descent");
    }
    server.stop();
}

#[test]
fn tiles_encode_to_the_same_bytes_on_every_server() {
    // Two servers over the same data share no hash-map seeds, so a
    // palette numbered in hash order would give different bytes on
    // about half of the two-colour tiles of this z0–3 sweep; a cached
    // re-fetch must return the rendered bytes too.
    let f = fixture();
    let a = TileServer::start(config(&f), &f.points, f.kernel).expect("start a");
    let b = TileServer::start(config(&f), &f.points, f.kernel).expect("start b");
    let mut palette_tiles = 0;
    for kind in ["eps", "tau"] {
        for z in 0..=3u32 {
            for x in 0..1 << z {
                for y in 0..1 << z {
                    let path = format!("/tiles/{kind}/{z}/{x}/{y}.png");
                    let (status, headers, first) = get(a.local_addr(), &path);
                    assert_eq!(
                        (status, header(&headers, "X-Kdv-Cache")),
                        (200, Some("miss"))
                    );
                    let (_, _, other) = get(b.local_addr(), &path);
                    assert!(first == other, "{path}: two servers, two encodings");
                    let (_, headers, cached) = get(a.local_addr(), &path);
                    assert_eq!(header(&headers, "X-Kdv-Cache"), Some("hit"));
                    assert!(cached == first, "{path}: the cached body differs");
                    palette_tiles += usize::from(first.windows(4).any(|w| w == b"PLTE"));
                }
            }
        }
    }
    assert!(palette_tiles >= 40, "only {palette_tiles} palette tiles");
    a.stop();
    b.stop();
}

#[test]
fn malformed_addresses_get_400_and_unknown_paths_404() {
    let f = fixture();
    let server = TileServer::start(config(&f), &f.points, f.kernel).expect("start");
    let addr = server.local_addr();
    for bad in [
        "/tiles/eps/1/5/0.png",
        "/tiles/eps/9/0/0.png",
        "/tiles/nope/0/0/0.png",
        "/tiles/eps/0/0/0",
        "/tiles/eps/01/0/0.png",
        "/tiles/eps/0/0/0.png/extra",
    ] {
        let (status, _, _) = get(addr, bad);
        assert_eq!(status, 400, "{bad}");
    }
    let (status, _, _) = get(addr, "/definitely/not/here");
    assert_eq!(status, 404);
    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, b"ok");

    let (_, _, body) = get(addr, "/metrics");
    let doc = json::parse(std::str::from_utf8(&body).expect("utf8")).expect("JSON");
    let http = doc.get("http").expect("http");
    assert_eq!(http.get("bad_request").and_then(Value::as_f64), Some(6.0));
    assert_eq!(http.get("not_found").and_then(Value::as_f64), Some(1.0));
    server.stop();
}

#[test]
fn budget_exhaustion_degrades_with_header_and_skips_the_cache() {
    let f = fixture();
    let mut cfg = config(&f);
    // A work cap far below one tile's needs: every ε tile degrades.
    cfg.policy = BudgetPolicy::unlimited().with_max_work(32 * 32);
    cfg.eps = 1e-9;
    let server = TileServer::start(cfg, &f.points, f.kernel).expect("start");
    let addr = server.local_addr();

    let (status, headers, body) = get(addr, "/tiles/eps/0/0/0.png");
    assert_eq!(status, 200, "degradation is not an error");
    assert_png(&body, 32, "degraded tile");
    let degraded: u64 = header(&headers, "X-Kdv-Degraded")
        .expect("degraded header present")
        .parse()
        .expect("numeric");
    assert!(degraded > 0);

    // Degraded tiles are never cached: the same request misses again.
    let (_, headers, _) = get(addr, "/tiles/eps/0/0/0.png");
    assert_eq!(header(&headers, "X-Kdv-Cache"), Some("miss"));

    let (_, _, body) = get(addr, "/metrics");
    let doc = json::parse(std::str::from_utf8(&body).expect("utf8")).expect("JSON");
    let http = doc.get("http").expect("http");
    assert_eq!(http.get("degraded").and_then(Value::as_f64), Some(2.0));
    let render = doc.get("render").expect("render");
    assert_eq!(
        render.get("status").and_then(Value::as_str),
        Some("degraded")
    );
    let cache = doc.get("cache").expect("cache");
    assert_eq!(cache.get("insertions").and_then(Value::as_f64), Some(0.0));
    server.stop();
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    let f = fixture();
    let mut cfg = config(&f);
    cfg.workers = 1;
    cfg.queue = 1;
    cfg.debug_sleep = true;
    let server = TileServer::start(cfg, &f.points, f.kernel).expect("start");
    let addr = server.local_addr();

    // Occupy the single worker, then the single queue slot.
    let busy: Vec<_> = (0..2)
        .map(|_| {
            let t = std::thread::spawn(move || get(addr, "/debug/sleep/1500").0);
            std::thread::sleep(Duration::from_millis(300));
            t
        })
        .collect();

    // Worker busy + queue full → the door says 429.
    let mut saw_rejection = false;
    for _ in 0..3 {
        let (status, headers, _) = get(addr, "/healthz");
        if status == 429 {
            assert_eq!(header(&headers, "Retry-After"), Some("1"));
            saw_rejection = true;
            break;
        }
    }
    assert!(saw_rejection, "admission control never rejected");

    for t in busy {
        assert_eq!(t.join().expect("busy client"), 200);
    }
    // Load has passed: requests are admitted again.
    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, 200);

    let (_, _, body) = get(addr, "/metrics");
    let doc = json::parse(std::str::from_utf8(&body).expect("utf8")).expect("JSON");
    let rejected = doc
        .get("http")
        .and_then(|h| h.get("rejected"))
        .and_then(Value::as_f64)
        .expect("rejected counter");
    assert!(rejected >= 1.0);
    server.stop();
}

#[test]
fn shutdown_endpoint_stops_the_server_cleanly() {
    let f = fixture();
    let server = TileServer::start(config(&f), &f.points, f.kernel).expect("start");
    let addr = server.local_addr();
    let (status, _, _) = get(addr, "/tiles/eps/0/0/0.png");
    assert_eq!(status, 200);
    let (status, _, _) = get(addr, "/shutdown");
    assert_eq!(status, 200);
    // join() returns because the handler set the shutdown flag; every
    // worker and the accept thread exit.
    server.join();

    // And with the endpoint disabled, /shutdown is a 404.
    let mut cfg = config(&f);
    cfg.allow_shutdown = false;
    let server = TileServer::start(cfg, &f.points, f.kernel).expect("start");
    let addr = server.local_addr();
    let (status, _, _) = get(addr, "/shutdown");
    assert_eq!(status, 404);
    server.stop();
}
