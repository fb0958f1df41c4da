//! Pyramid serving end-to-end: a store-mode server over a snapshot
//! that carries a certified coreset ladder (PYRA section). Low-zoom
//! tiles are answered from a level and say so (`X-Kdv-Level`), deep
//! zoom falls back to the full index, τ tiles are byte-identical to a
//! pyramid-free server, ingest deltas merge over a level, and
//! compaction re-certifies the ladder into the rewritten snapshot.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use kdv_core::bandwidth::scott_gamma;
use kdv_core::kernel::Kernel;
use kdv_core::raster::RasterSpec;
use kdv_core::threshold::estimate_levels;
use kdv_data::Dataset;
use kdv_geom::PointSet;
use kdv_index::KdTree;
use kdv_pyramid::{PyramidBuilder, PyramidConfig};
use kdv_server::{ServerConfig, TileServer};
use kdv_store::{Snapshot, SnapshotWriter};
use kdv_telemetry::json::{self, Value};

fn request(addr: SocketAddr, raw: String) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head");
    let head = std::str::from_utf8(&raw[..split]).expect("head UTF-8");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .expect("status line")
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

fn get(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    request(addr, format!("GET {path} HTTP/1.1\r\nHost: kdv\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    request(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: kdv\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == &name.to_ascii_lowercase())
        .map(|(_, v)| v.as_str())
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kdv-pyra-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn metrics(addr: SocketAddr) -> Value {
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    json::parse(std::str::from_utf8(&body).expect("utf8")).expect("metrics JSON")
}

struct Fixture {
    points: PointSet,
    /// ε_s of the coarsest level — the server's ε must be at least
    /// twice this for any pyramid level to be admissible.
    coarse_eps_s: f64,
    tau: f64,
}

/// Builds the shared fixture and writes `crime.kdvs` into `dir`: with
/// a certified two-level ladder when `with_pyramid`, plain otherwise.
fn write_fixture(dir: &Path, with_pyramid: bool) -> Fixture {
    let mut points = Dataset::Crime.generate(4000, 11);
    points.scale_weights(1.0 / points.len() as f64);
    let kernel = Kernel::gaussian(scott_gamma(&points).gamma);
    let tree = KdTree::build_default(&points);
    let raster = RasterSpec::covering(&points, 48, 48, 0.05);
    let tau = estimate_levels(&tree, kernel, &raster, 32, 32).tau(0.1);
    let config = PyramidConfig {
        sizes: vec![400, 1000],
        probe_res: 16,
        ..PyramidConfig::default()
    };
    let (pyramid, _) = PyramidBuilder::new(&tree, kernel)
        .with_config(config)
        .build()
        .expect("pyramid builds");
    let coarse_eps_s = pyramid.levels()[0].eps_s;
    let mut writer = SnapshotWriter::new(&tree, kernel);
    if with_pyramid {
        writer = writer.with_pyramid(
            pyramid
                .levels()
                .iter()
                .map(|lv| (lv.tree.points().clone(), lv.eps_s))
                .collect(),
        );
    }
    writer
        .write_to(dir.join("crime.kdvs"))
        .expect("write snapshot");
    Fixture {
        points,
        coarse_eps_s,
        tau,
    }
}

fn config(f: &Fixture) -> ServerConfig {
    ServerConfig {
        tile_size: 32,
        max_z: 2,
        pyramid_max_z: 1,
        // Generous enough to admit the coarsest level (ε_s ≤ ε/2).
        eps: f.coarse_eps_s * 2.0 + 0.01,
        tau: f.tau,
        workers: 4,
        queue: 32,
        allow_shutdown: true,
        // Keep compaction out of tests that don't ask for it.
        memtable_points: 8192,
        compact_points: 8192,
        ..ServerConfig::default()
    }
}

#[test]
fn low_zoom_tiles_serve_from_a_level_and_deep_zoom_from_the_full_index() {
    let dir = temp_store("levels");
    let f = write_fixture(&dir, true);
    let server = TileServer::start_with_store(config(&f), &dir).expect("start");
    let addr = server.local_addr();

    // z0 is admissible: the coarsest level answers and says so.
    let (status, headers, body) = get(addr, "/tiles/crime/eps/0/0/0.png");
    assert_eq!(status, 200);
    assert!(body.starts_with(b"\x89PNG"));
    assert_eq!(header(&headers, "X-Kdv-Level"), Some("0"));
    assert_eq!(header(&headers, "X-Kdv-Cache"), Some("miss"));

    // The repeat is a cache hit and reports the same level: the level
    // is part of the key, decided before the lookup.
    let (status, headers, cached) = get(addr, "/tiles/crime/eps/0/0/0.png");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Kdv-Cache"), Some("hit"));
    assert_eq!(header(&headers, "X-Kdv-Level"), Some("0"));
    assert_eq!(cached, body, "hit returns the rendered bytes");

    // Past pyramid_max_z the full index answers, even though the
    // level's budget would admit it.
    let (status, headers, _) = get(addr, "/tiles/crime/eps/2/0/0.png");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Kdv-Level"), Some("full"));

    // τ tiles always refine the full index: a level's additive band
    // could not certify them.
    let (status, headers, _) = get(addr, "/tiles/crime/tau/0/0/0.png");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Kdv-Level"), Some("full"));

    // /metrics sees both paths.
    let doc = metrics(addr);
    let pyra = doc.get("pyramid").expect("pyramid block");
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).expect(k);
    assert!(num(pyra, "pyramid_renders") >= 1.0);
    assert!(num(pyra, "full_renders") >= 2.0);
    let per_level = pyra
        .get("level_renders")
        .and_then(Value::as_arr)
        .expect("level_renders");
    assert!(per_level[0].as_f64().expect("level 0 count") >= 1.0);

    // And the Prometheus exposition carries the same families.
    let (status, _, body) = get(addr, "/metrics?format=prometheus");
    assert_eq!(status, 200);
    let text = std::str::from_utf8(&body).expect("utf8");
    assert!(text.contains("kdv_pyramid_renders_total{level=\"0\"}"));
    assert!(text.contains("kdv_pyramid_renders_total{level=\"full\"}"));
    assert!(!text.contains("kdv_pyramid_tau_fallback_pixels_total"));

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tau_tiles_match_a_pyramid_free_server_bit_for_bit() {
    // Certified decisions agree with the full index outside the band
    // and the band re-decides on it, so the PNGs must be identical.
    let pyra_dir = temp_store("tau-pyra");
    let flat_dir = temp_store("tau-flat");
    let f = write_fixture(&pyra_dir, true);
    let flat = write_fixture(&flat_dir, false);
    assert_eq!(f.points.coords(), flat.points.coords(), "same fixture");

    let pyra = TileServer::start_with_store(config(&f), &pyra_dir).expect("start pyramid");
    let flat = TileServer::start_with_store(config(&f), &flat_dir).expect("start flat");

    for (z, x, y) in [
        (0u32, 0u32, 0u32),
        (1, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (1, 1, 1),
    ] {
        let path = format!("/tiles/crime/tau/{z}/{x}/{y}.png");
        let (status, headers, from_level) = get(pyra.local_addr(), &path);
        assert_eq!(status, 200, "{path}");
        assert_eq!(
            header(&headers, "X-Kdv-Level"),
            Some("full"),
            "{path}: τ tiles never use a level"
        );
        let (status, headers, from_full) = get(flat.local_addr(), &path);
        assert_eq!(status, 200, "{path}");
        assert_eq!(header(&headers, "X-Kdv-Level"), Some("full"));
        assert_eq!(from_level, from_full, "{path}: masks diverged");
    }

    pyra.stop();
    flat.stop();
    std::fs::remove_dir_all(&pyra_dir).ok();
    std::fs::remove_dir_all(&flat_dir).ok();
}

#[test]
fn ingest_merges_over_the_level_and_compaction_recertifies_the_ladder() {
    let dir = temp_store("ingest");
    let f = write_fixture(&dir, true);
    let mut cfg = config(&f);
    cfg.compact_points = 16;
    let server = TileServer::start_with_store(cfg, &dir).expect("start");
    let addr = server.local_addr();

    let (status, headers, before) = get(addr, "/tiles/crime/eps/0/0/0.png");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Kdv-Level"), Some("0"));

    // Heavy appends near existing mass: the delta is visible at z0 and
    // crosses the compaction threshold.
    let anchor = f.points.point(10);
    let body = format!(
        "{{\"append\":[{}]}}",
        (0..20)
            .map(|i| format!("[{},{},0.05]", anchor[0] + 0.02 * i as f64, anchor[1]))
            .collect::<Vec<_>>()
            .join(",")
    );
    let (status, _, resp) = post(addr, "/datasets/crime/points", &body);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));

    // The very next render — whether the memtable is still pending or
    // compaction already folded it — still comes from a level and
    // reflects the writes.
    let (status, headers, after) = get(addr, "/tiles/crime/eps/0/0/0.png");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Kdv-Level"), Some("0"));
    assert_ne!(before, after, "the appended mass must show at z0");

    // Wait for the fold, then prove the rewritten snapshot carries a
    // re-certified PYRA ladder of the same shape.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _, body) = get(addr, "/datasets/crime/stats");
        assert_eq!(status, 200);
        let doc = json::parse(std::str::from_utf8(&body).expect("utf8")).expect("stats");
        let applied = doc
            .get("applied_seq")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let ops = doc
            .get("ingest")
            .and_then(|i| i.get("ops"))
            .and_then(Value::as_f64)
            .unwrap_or(f64::MAX);
        if applied >= 1.0 && ops == 0.0 {
            break;
        }
        assert!(Instant::now() < deadline, "compaction never landed");
        std::thread::sleep(Duration::from_millis(50));
    }
    server.stop();

    let snap = Snapshot::open(dir.join("crime.kdvs")).expect("folded snapshot opens");
    assert_eq!(snap.tree.points().len(), 4020, "base absorbed the appends");
    assert_eq!(
        snap.coresets.iter().map(PointSet::len).collect::<Vec<_>>(),
        [400, 1000],
        "ladder shape survived compaction"
    );
    assert_eq!(snap.level_bounds.len(), 2, "levels are certified");
    assert!(snap.level_bounds.windows(2).all(|w| w[0] > w[1]));

    // A restart serves pyramid tiles straight from the folded
    // snapshot. The re-certified coarse bound may have drifted past
    // ε/2, so any level — just not the full index — is correct.
    let server = TileServer::start_with_store(config(&f), &dir).expect("restart");
    let (status, headers, _) = get(server.local_addr(), "/tiles/crime/eps/0/0/0.png");
    assert_eq!(status, 200);
    let restarted = header(&headers, "X-Kdv-Level").expect("level header");
    assert_ne!(restarted, "full", "folded snapshot still serves a level");
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}
