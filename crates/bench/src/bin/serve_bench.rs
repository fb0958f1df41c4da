//! The serving measurements only an in-process harness can take.
//!
//! End-to-end serving numbers (tile latency and throughput through real
//! `kdv serve` / `kdv cluster` processes, checked against EXACT, with
//! the per-layer split) come from `perfbench/`, recorded as the
//! `perfbench` section of `BENCH_serve.json` by
//! `.github/perfbench-record.py`. This binary writes the other sections
//! of that file and carries the `perfbench` one over unchanged, so
//! every section has one producer:
//!
//! * `host` — core count, SIMD lanes and a `single_core` flag of the
//!   host these sections ran on: the numbers below mean little without
//!   them (`perfbench` carries its own host block);
//! * `cold_path` — the {scalar, SIMD} × {per-pixel, batched} engine
//!   grid on cold tiles, the figure the CI perf smoke gates;
//! * `cold_start` — booting from CSV vs from a KDVS snapshot;
//! * `ingest.modes` — durable-ack latency per fsync policy and the WAL
//!   replay cost;
//! * `cluster.cache_pressure` — aggregate cache capacity behind the
//!   router at 1/2/4 shards under a per-shard budget that one shard
//!   cannot fit;
//! * `pyramid` — cold tiles from the certified coreset ladder vs the
//!   full index on 1M points.
//!
//! ```text
//! cargo run --release -p kdv-bench --bin serve_bench [-- out.json]
//! ```
//!
//! Set `KDV_BENCH_COLD_POINTS` to shrink the 1M-point datasets for
//! quick local runs. Set `KDV_BENCH_FAST=1` to write only `host` and
//! `cold_path`: the CI perf smoke checks the cold-tile p99 speedup
//! against the committed file without paying for the other sections.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Instant;

use kdv_cluster::{Router, RouterConfig};
use kdv_core::bandwidth::scott_gamma;
use kdv_core::bounds::BoundFamily;
use kdv_core::engine::{RefineEvaluator, RenderBudget, TileEvaluator};
use kdv_core::kernel::Kernel;
use kdv_core::raster::RasterSpec;
use kdv_data::Dataset;
use kdv_index::KdTree;
use kdv_pyramid::{geometric_ladder, PyramidBuilder, PyramidConfig};
use kdv_server::{ServerConfig, TileServer};
use kdv_store::{FsyncPolicy, SnapshotWriter};
use kdv_telemetry::json::{self, Value};
use kdv_telemetry::{LogHistogram, RenderMetrics};
use kdv_viz::tile_render::{
    pyramid_raster, render_tile_eps, render_tile_eps_batched, render_tile_tau,
    render_tile_tau_batched,
};
use kdv_viz::ColorMap;

const POINTS: usize = 20_000;
const COLD_POINTS: usize = 1_000_000;
const SEED: u64 = 11;
const TILE_SIZE: u32 = 128;
const LEVELS: [u8; 3] = [0, 2, 4];
/// `cold_path` rounds, the same in full and `KDV_BENCH_FAST` runs: the
/// CI gate compares a fast run against the committed full one.
const COLD_ROUNDS: usize = 2;

/// One request on a fresh connection: status code, response head and
/// body. A non-empty `body` is sent as a POST.
fn request(addr: SocketAddr, path: &str, body: &str) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = if body.is_empty() {
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n")
    } else {
        format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    stream.write_all(head.as_bytes()).expect("request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head");
    let head = std::str::from_utf8(&raw[..head_end]).expect("UTF-8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, head.to_string(), raw[head_end + 4..].to_vec())
}

/// A GET's status and body.
fn fetch(addr: SocketAddr, path: &str) -> (u16, Vec<u8>) {
    let (status, _, body) = request(addr, path, "");
    (status, body)
}

fn hist_json(h: &LogHistogram) -> Value {
    Value::obj(vec![
        ("count", json::num_u(h.count())),
        ("mean_us", json::num_f(h.mean() / 1e3)),
        ("p50_le_us", json::num_f(h.quantile_le(0.5) as f64 / 1e3)),
        ("p99_le_us", json::num_f(h.quantile_le(0.99) as f64 / 1e3)),
        ("max_us", json::num_f(h.max() as f64 / 1e3)),
    ])
}

/// Cold start of `kdv serve`, measured both ways on the same dataset.
///
/// `cold_start_ms_build` is invocation → ready-to-serve for the CSV
/// path: parse, sanitize, Scott bandwidth, kd-tree with QUAD moments,
/// color-scale warm — everything `TileServer::start` finishes before
/// binding. `cold_start_ms_load` is the same span for
/// `TileServer::start_with_store`, whose catalog defers dataset
/// materialization to first touch. So that the deferred work is not
/// hidden, the sidecar also carries `index_ms_{build,load}` — the
/// index-acquisition cost alone (CSV rebuild vs `Snapshot::open`),
/// timed on the main thread — and `first_tile_ms_{build,load}`, the
/// first tile over a real socket in each mode (in store mode that
/// request pays the lazy snapshot load + warm).
fn cold_start(tmp: &Path) -> Value {
    let n = std::env::var("KDV_BENCH_COLD_POINTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(COLD_POINTS);
    let mut points = Dataset::Crime.generate(n, SEED);
    points.scale_weights(1.0 / points.len() as f64);
    let kernel = Kernel::gaussian(scott_gamma(&points).gamma);

    let csv_path = tmp.join("cold.csv");
    kdv_data::csv::save(&csv_path, &points, false).expect("write csv");
    let store_dir = tmp.join("store");
    std::fs::create_dir_all(&store_dir).expect("mkdir store");
    let snap_path = store_dir.join("cold.kdvs");
    let tree = KdTree::build_default(&points);
    SnapshotWriter::new(&tree, kernel)
        .write_to(&snap_path)
        .expect("write snapshot");
    drop(tree);
    drop(points);

    // Index acquisition alone, main thread, page-warm files: the
    // snapshot's head-to-head against the CSV rebuild it replaces.
    let start = Instant::now();
    let snap = kdv_store::Snapshot::open(&snap_path).expect("open snapshot");
    let index_load = start.elapsed().as_secs_f64() * 1e3;
    let snap_nodes = snap.tree.num_nodes();
    drop(snap);

    let start = Instant::now();
    let mut pts = kdv_data::csv::load(&csv_path, 2, false).expect("load csv");
    kdv_data::sanitize::validate(&pts).expect("sanitize");
    pts.scale_weights(1.0 / pts.len() as f64);
    std::hint::black_box(Kernel::gaussian(scott_gamma(&pts).gamma));
    let built = KdTree::build_default(&pts);
    let index_build = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(snap_nodes, built.num_nodes(), "same index both ways");
    drop(built);
    drop(pts);

    // Boot to ready-to-serve, then the first tile, in each mode. A
    // coarse ε and small tiles keep the (identical) render cheap.
    let config = ServerConfig {
        tile_size: 64,
        max_z: 2,
        eps: 0.2,
        workers: 4,
        ..ServerConfig::default()
    };
    let start = Instant::now();
    let mut pts = kdv_data::csv::load(&csv_path, 2, false).expect("load csv");
    kdv_data::sanitize::validate(&pts).expect("sanitize");
    pts.scale_weights(1.0 / pts.len() as f64);
    let k = Kernel::gaussian(scott_gamma(&pts).gamma);
    let server = TileServer::start(config.clone(), &pts, k).expect("server start (build)");
    let ms_build = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let (status, body) = fetch(server.local_addr(), "/tiles/eps/0/0/0.png");
    let tile_build = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(status, 200, "build-path tile");
    assert!(body.starts_with(b"\x89PNG"), "build-path tile: not a PNG");
    server.stop();
    drop(pts);

    let start = Instant::now();
    let server = TileServer::start_with_store(config, &store_dir).expect("server start (load)");
    let ms_load = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let (status, body) = fetch(server.local_addr(), "/tiles/cold/eps/0/0/0.png");
    let tile_load = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(status, 200, "load-path tile");
    assert!(body.starts_with(b"\x89PNG"), "load-path tile: not a PNG");
    server.stop();

    println!(
        "cold start ({n} points): CSV boot {ms_build:.0} ms vs snapshot boot {ms_load:.1} ms \
         ({:.0}x); index alone {index_build:.0} ms rebuilt / {index_load:.0} ms loaded \
         ({:.1}x); first tile {tile_build:.0} ms / {tile_load:.0} ms",
        ms_build / ms_load,
        index_build / index_load,
    );
    Value::obj(vec![
        ("points", json::num_u(n as u64)),
        ("cold_start_ms_build", json::num_f(ms_build)),
        ("cold_start_ms_load", json::num_f(ms_load)),
        ("speedup", json::num_f(ms_build / ms_load)),
        ("index_ms_build", json::num_f(index_build)),
        ("index_ms_load", json::num_f(index_load)),
        ("first_tile_ms_build", json::num_f(tile_build)),
        ("first_tile_ms_load", json::num_f(tile_load)),
    ])
}

/// Streaming-ingest acks: the durable-ack distribution under each
/// fsync policy (four concurrent writers, so `batch` group commit has
/// something to amortize over), and the WAL replay cost a crash
/// recovery pays, normalized per MiB.
fn ingest_modes(tmp: &Path) -> Value {
    const WRITERS: usize = 4;
    const WRITES: usize = 150; // per writer, per mode
    let mut base = Dataset::Crime.generate(POINTS / 4, SEED);
    base.scale_weights(1.0 / base.len() as f64);
    let kernel = Kernel::gaussian(scott_gamma(&base).gamma);
    let tree = KdTree::build_default(&base);
    let anchor = base.point(10);
    let (ax, ay) = (anchor[0], anchor[1]);

    let mut modes = Vec::new();
    for (name, fsync) in [("every", FsyncPolicy::Every), ("batch", FsyncPolicy::Batch)] {
        let dir = tmp.join(format!("ingest-{name}"));
        std::fs::create_dir_all(&dir).expect("mkdir ingest store");
        SnapshotWriter::new(&tree, kernel)
            .write_to(dir.join("crime.kdvs"))
            .expect("write snapshot");
        let config = ServerConfig {
            tile_size: 64,
            max_z: 2,
            eps: 0.2,
            workers: WRITERS + 1,
            fsync,
            // Acks only: keep compaction out of it.
            memtable_points: 1 << 16,
            compact_points: 1 << 16,
            ..ServerConfig::default()
        };
        let server = TileServer::start_with_store(config, &dir).expect("server start (ingest)");
        let addr = server.local_addr();
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                std::thread::spawn(move || {
                    let mut hist = LogHistogram::new();
                    for i in 0..WRITES {
                        let body = format!(
                            "{{\"append\":[[{},{},0.0001]]}}",
                            ax + 0.001 * (w * WRITES + i) as f64,
                            ay
                        );
                        let start = Instant::now();
                        let (status, _, _) = request(addr, "/datasets/crime/points", &body);
                        hist.record(start.elapsed().as_nanos() as u64);
                        assert_eq!(status, 200, "ingest ack");
                    }
                    hist
                })
            })
            .collect();
        let mut hist = LogHistogram::new();
        for h in writers {
            hist.merge(&h.join().expect("writer thread"));
        }
        server.stop();

        // Crash-recovery tax: replay the WAL this storm left behind.
        let wal_path = dir.join("crime.wal");
        let wal_bytes = std::fs::metadata(&wal_path).expect("WAL metadata").len();
        let start = Instant::now();
        let replay = kdv_store::wal::replay(&wal_path).expect("replay");
        let replay_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(replay.records.len(), WRITERS * WRITES, "all acks replay");
        let replay_ms_per_mb = replay_ms / (wal_bytes as f64 / (1 << 20) as f64);
        println!(
            "ingest fsync={name}: ack p50 {:.2} ms, p99 {:.2} ms ({} acks); \
             replay {replay_ms:.2} ms for {wal_bytes} WAL bytes ({replay_ms_per_mb:.1} ms/MiB)",
            hist.quantile_le(0.5) as f64 / 1e6,
            hist.quantile_le(0.99) as f64 / 1e6,
            hist.count(),
        );
        modes.push(Value::obj(vec![
            ("fsync", Value::Str(name.to_string())),
            ("ack", hist_json(&hist)),
            ("wal_bytes", json::num_u(wal_bytes)),
            ("replay_ms", json::num_f(replay_ms)),
            ("replay_ms_per_mb", json::num_f(replay_ms_per_mb)),
        ]));
    }

    Value::obj(vec![("modes", Value::Arr(modes))])
}

/// Concurrent pyramid sweep through `addr`: `clients` threads drain a
/// shared tile work-list; returns wall seconds and the merged per-tile
/// latency histogram (plus total encoded bytes moved).
fn sweep(
    addr: SocketAddr,
    paths: &std::sync::Arc<Vec<String>>,
    clients: usize,
) -> (f64, LogHistogram, u64) {
    let next = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let paths = std::sync::Arc::clone(paths);
            let next = std::sync::Arc::clone(&next);
            std::thread::spawn(move || {
                let mut hist = LogHistogram::new();
                let mut bytes = 0u64;
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(path) = paths.get(i) else { break };
                    let start = Instant::now();
                    let (status, body) = fetch(addr, path);
                    hist.record(start.elapsed().as_nanos() as u64);
                    assert_eq!(status, 200, "{path}");
                    bytes += body.len() as u64;
                }
                (hist, bytes)
            })
        })
        .collect();
    let mut hist = LogHistogram::new();
    let mut bytes = 0u64;
    for h in handles {
        let (part, b) = h.join().expect("sweep client");
        hist.merge(&part);
        bytes += b;
    }
    (started.elapsed().as_secs_f64(), hist, bytes)
}

/// Aggregate cache capacity behind the router: the same 20k crime
/// store at 1, 2 and 4 shards, with each shard's cache budget set to
/// ~60% of the bytes of the z≤3 εKDV pyramid. One shard thrashes its
/// LRU on every sweep, while two or more hold the whole pyramid between
/// them (rendezvous partitioning caches no tile twice). A sweep through
/// a fleet with room to spare measures those bytes first. The metric is
/// steady-state sweep throughput: the mean over three sweeps after a
/// cold fill. The win is capacity, not cores, so it shows on any host.
fn cache_pressure(tmp: &Path) -> Value {
    const MAX_Z: u8 = 3;
    const CLIENTS: usize = 4;
    const FLEETS: [usize; 3] = [1, 2, 4];

    let dir = tmp.join("cluster-store");
    std::fs::create_dir_all(&dir).expect("mkdir cluster store");
    let mut points = Dataset::Crime.generate(POINTS, SEED);
    points.scale_weights(1.0 / points.len() as f64);
    let kernel = Kernel::gaussian(scott_gamma(&points).gamma);
    let tree = KdTree::build_default(&points);
    SnapshotWriter::new(&tree, kernel)
        .write_to(dir.join("crime.kdvs"))
        .expect("write snapshot");
    drop(tree);
    drop(points);

    let mut paths = Vec::new();
    for z in 0..=MAX_Z {
        let side = 1u32 << z;
        for x in 0..side {
            for y in 0..side {
                paths.push(format!("/tiles/crime/eps/{z}/{x}/{y}.png"));
            }
        }
    }
    let paths = std::sync::Arc::new(paths);
    let tiles = paths.len() as f64;

    // Runs `f` against the router of a fresh fleet, then stops it.
    let with_fleet = |n: usize, cache_bytes: usize, f: &mut dyn FnMut(SocketAddr)| {
        let shards: Vec<TileServer> = (0..n)
            .map(|_| {
                let config = ServerConfig {
                    tile_size: TILE_SIZE,
                    max_z: MAX_Z,
                    eps: 0.1,
                    workers: 4,
                    cache_bytes,
                    cache_shards: 1,
                    ..ServerConfig::default()
                };
                TileServer::start_with_store(config, &dir).expect("start shard")
            })
            .collect();
        let router = Router::start(RouterConfig {
            shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
            ..RouterConfig::default()
        })
        .expect("start router");
        f(router.local_addr());
        router.stop();
        for s in shards {
            s.stop();
        }
    };

    let mut pyramid_bytes = 0;
    with_fleet(1, 64 << 20, &mut |addr| {
        pyramid_bytes = sweep(addr, &paths, CLIENTS).2
    });
    let budget = pyramid_bytes as usize * 6 / 10;
    let mut fleets = Vec::new();
    let mut rates = Vec::new();
    for n in FLEETS {
        with_fleet(n, budget, &mut |addr| {
            let _ = sweep(addr, &paths, CLIENTS); // cold fill
            let mut secs = 0.0;
            let mut hist = LogHistogram::new();
            for _ in 0..3 {
                let (s, h, _) = sweep(addr, &paths, CLIENTS);
                secs += s;
                hist.merge(&h);
            }
            let rate = 3.0 * tiles / secs;
            rates.push(rate);
            println!(
                "cache pressure ({budget} of {pyramid_bytes} pyramid bytes per shard), \
                 {n} shard(s): {rate:.0} tiles/s (p50 {:.3} ms, p99 {:.2} ms)",
                hist.quantile_le(0.5) as f64 / 1e6,
                hist.quantile_le(0.99) as f64 / 1e6,
            );
            fleets.push(Value::obj(vec![
                ("shards", json::num_u(n as u64)),
                ("tiles_per_s", json::num_f(rate)),
                ("tile", hist_json(&hist)),
            ]));
        });
    }

    Value::obj(vec![
        ("max_z", json::num_u(MAX_Z as u64)),
        ("tiles", json::num_u(paths.len() as u64)),
        ("clients", json::num_u(CLIENTS as u64)),
        ("budget_bytes_per_shard", json::num_u(budget as u64)),
        ("pyramid_bytes", json::num_u(pyramid_bytes)),
        ("fleets", Value::Arr(fleets)),
        ("scaling_1_to_2", json::num_f(rates[1] / rates[0])),
        ("scaling_1_to_4", json::num_f(rates[2] / rates[0])),
    ])
}

/// The planet-scale claim, measured: z0–z4 cold εKDV tiles on the
/// ≥1M-point cold-start dataset, served three ways at identical ε —
/// from the certified coreset pyramid, from the full QUAD index, and
/// from a 20k-point baseline dataset (the "small-dataset cost" the
/// pyramid is supposed to match). Every tile is fetched exactly once
/// per server, so each histogram is pure render cost. The sidecar pins
/// the per-zoom level the picker chose, the full-index→pyramid p99
/// speedup (contract: ≥5× at z ≤ 4), and the pyramid-vs-baseline cost
/// ratio (target: within ~2×).
fn pyramid_bench(tmp: &Path) -> Value {
    const MAX_Z: u8 = 4;
    const BASELINE_POINTS: usize = 20_000;
    let n = std::env::var("KDV_BENCH_COLD_POINTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(COLD_POINTS);
    let mut points = Dataset::Crime.generate(n, SEED);
    points.scale_weights(1.0 / points.len() as f64);
    let kernel = Kernel::gaussian(scott_gamma(&points).gamma);
    let tree = KdTree::build_default(&points);
    let ladder = geometric_ladder(n);
    assert!(
        !ladder.is_empty(),
        "cold dataset too small for a pyramid; raise KDV_BENCH_COLD_POINTS to ≥ 4096"
    );
    let start = Instant::now();
    let (pyramid, report) = PyramidBuilder::new(&tree, kernel)
        .with_config(PyramidConfig {
            sizes: ladder.clone(),
            ..PyramidConfig::default()
        })
        .build()
        .expect("pyramid build");
    let build_ms = start.elapsed().as_secs_f64() * 1e3;

    let pyra_dir = tmp.join("pyra-store");
    std::fs::create_dir_all(&pyra_dir).expect("mkdir pyramid store");
    SnapshotWriter::new(&tree, kernel)
        .with_pyramid(
            pyramid
                .levels()
                .iter()
                .map(|lv| (lv.tree.points().clone(), lv.eps_s))
                .collect(),
        )
        .write_to(pyra_dir.join("crime.kdvs"))
        .expect("write pyramid snapshot");
    let full_dir = tmp.join("pyra-full");
    std::fs::create_dir_all(&full_dir).expect("mkdir full store");
    SnapshotWriter::new(&tree, kernel)
        .write_to(full_dir.join("crime.kdvs"))
        .expect("write full snapshot");
    let eps_s: Vec<f64> = pyramid.levels().iter().map(|lv| lv.eps_s).collect();
    drop(pyramid);
    drop(tree);
    drop(points);

    let base_dir = tmp.join("pyra-baseline");
    std::fs::create_dir_all(&base_dir).expect("mkdir baseline store");
    let mut base = Dataset::Crime.generate(BASELINE_POINTS, SEED);
    base.scale_weights(1.0 / base.len() as f64);
    let base_kernel = Kernel::gaussian(scott_gamma(&base).gamma);
    SnapshotWriter::new(&KdTree::build_default(&base), base_kernel)
        .write_to(base_dir.join("crime.kdvs"))
        .expect("write baseline snapshot");
    drop(base);

    // Identical serving config everywhere; preload so the lazy
    // snapshot load never pollutes the first tile's timing.
    let eps = 0.1;
    let start_server = |dir: &Path| {
        let config = ServerConfig {
            tile_size: 64,
            max_z: MAX_Z,
            pyramid_max_z: MAX_Z,
            eps,
            workers: 4,
            preload: true,
            ..ServerConfig::default()
        };
        let server = TileServer::start_with_store(config, dir).expect("start");
        while fetch(server.local_addr(), "/readyz").0 != 200 {
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        server
    };
    let servers = [
        ("pyramid", start_server(&pyra_dir)),
        ("full", start_server(&full_dir)),
        ("baseline", start_server(&base_dir)),
    ];

    let mut zooms = Vec::new();
    let mut speedups = Vec::new();
    let mut cost_ratios = Vec::new();
    for z in 0..=MAX_Z {
        let side = 1u32 << z;
        let mut hists = [
            LogHistogram::new(),
            LogHistogram::new(),
            LogHistogram::new(),
        ];
        let mut level = None;
        for x in 0..side {
            for y in 0..side {
                let path = format!("/tiles/crime/eps/{z}/{x}/{y}.png");
                for (slot, (name, server)) in servers.iter().enumerate() {
                    let start = Instant::now();
                    let (status, head, body) = request(server.local_addr(), &path, "");
                    let ns = start.elapsed().as_nanos() as u64;
                    assert_eq!(status, 200, "{name} {path}");
                    assert!(body.starts_with(b"\x89PNG"), "{name} {path}: not a PNG");
                    hists[slot].record(ns);
                    if slot == 0 {
                        let lvl = head
                            .lines()
                            .find_map(|l| {
                                let (name, value) = l.split_once(':')?;
                                name.trim()
                                    .eq_ignore_ascii_case("x-kdv-level")
                                    .then(|| value.trim().to_string())
                            })
                            .expect("level header");
                        assert_ne!(lvl, "full", "{path}: the picker must admit a level");
                        level = Some(lvl);
                    }
                }
            }
        }
        let level = level.expect("at least one tile per zoom");
        let p99 = |h: &LogHistogram| h.quantile_le(0.99) as f64;
        let p50 = |h: &LogHistogram| h.quantile_le(0.5) as f64;
        let speedup = p99(&hists[1]) / p99(&hists[0]);
        let cost_ratio = p50(&hists[0]) / p50(&hists[2]);
        speedups.push(speedup);
        cost_ratios.push(cost_ratio);
        println!(
            "pyramid z={z} (level {level}): cold p99 {:.2} ms vs full {:.2} ms ({speedup:.1}x); \
             baseline p50 ratio {cost_ratio:.2}",
            p99(&hists[0]) / 1e6,
            p99(&hists[1]) / 1e6,
        );
        zooms.push(Value::obj(vec![
            ("z", json::num_u(z as u64)),
            ("tiles", json::num_u((side * side) as u64)),
            ("level", Value::Str(level)),
            ("pyramid", hist_json(&hists[0])),
            ("full", hist_json(&hists[1])),
            ("baseline", hist_json(&hists[2])),
            ("p99_speedup", json::num_f(speedup)),
            ("baseline_p50_ratio", json::num_f(cost_ratio)),
        ]));
    }
    for (_, server) in servers {
        server.stop();
    }

    let min_speedup = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_ratio = cost_ratios.iter().cloned().fold(0.0, f64::max);
    println!(
        "pyramid on {n} points: build {build_ms:.0} ms, ladder {ladder:?}; \
         worst z≤{MAX_Z} p99 speedup {min_speedup:.1}x, \
         worst cost vs 20k baseline {max_ratio:.2}x"
    );
    Value::obj(vec![
        ("points", json::num_u(n as u64)),
        ("baseline_points", json::num_u(BASELINE_POINTS as u64)),
        ("eps", json::num_f(eps)),
        ("build_ms", json::num_f(build_ms)),
        (
            "ladder",
            Value::Arr(ladder.iter().map(|&s| json::num_u(s as u64)).collect()),
        ),
        (
            "eps_s",
            Value::Arr(eps_s.iter().map(|&e| json::num_f(e)).collect()),
        ),
        (
            "certified",
            Value::Arr(
                report
                    .levels
                    .iter()
                    .map(|lv| {
                        Value::obj(vec![
                            ("size", json::num_u(lv.size as u64)),
                            ("hoeffding_eps", json::num_f(lv.hoeffding_eps)),
                            ("measured_eps", json::num_f(lv.measured_eps)),
                            ("certified_eps", json::num_f(lv.certified_eps)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("zooms", Value::Arr(zooms)),
        ("p99_speedup_min", json::num_f(min_speedup)),
        ("baseline_p50_ratio_max", json::num_f(max_ratio)),
    ])
}

/// The cold-render hot path, isolated per engine mode.
///
/// The full {scalar, SIMD} × {per-pixel, batched} grid, taken
/// in-process over the 20k crime dataset: every εKDV and τKDV tile at
/// z ∈ {0, 2, 4} goes through the public tile renderers —
/// `render_tile_{eps,tau}` (per-pixel) and `render_tile_{eps,tau}_batched`
/// — with the process-wide SIMD switch flipped per mode. Modes are
/// interleaved per tile so drift on a shared host hits all four alike,
/// and a tile's latency is the **minimum over rounds** (cold renders
/// are deterministic work, so the min is the run least polluted by
/// scheduler/clock drift), with histograms over the tile population.
/// Every `p99_ms` and speedup is the exact p99 of those minimums.
/// The headline `p99_speedup_batched` (scalar per-pixel p99 over SIMD
/// batched p99) is taken on the aggregate z ≤ 4 population, with
/// per-zoom splits alongside; `p99_speedup_simd_batched` isolates what
/// SIMD adds on the batched path. The file's `host` block gives the
/// core count and SIMD lanes the numbers depend on.
///
/// Each zoom also records, per mode, the engine work its tiles did in
/// the first round (`work.{mode}`: summed `node_bounds`, `heap_pops`
/// and `point_evals` from the renders' event counters). The counts
/// repeat exactly, so the CI perf smoke gates them without noise.
fn cold_path() -> Value {
    let mut points = Dataset::Crime.generate(POINTS, SEED);
    points.scale_weights(1.0 / points.len() as f64);
    let kernel = Kernel::gaussian(scott_gamma(&points).gamma);
    let tree = KdTree::build_default(&points);
    let base = RasterSpec::try_covering(&points, TILE_SIZE, TILE_SIZE, 0.05).expect("window");
    let cm = ColorMap::heat();
    let scale = {
        let sweep = base.with_resolution(64, 64);
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        kdv_viz::render::render_eps(&mut ev, &sweep, 0.1)
            .min_max()
            .unwrap_or((0.0, 1.0))
    };
    let (eps, tau) = (0.1, ServerConfig::default().tau);
    // (name, simd, batched); the speedups index into this order.
    const MODES: [(&str, bool, bool); 4] = [
        ("scalar_perpixel", false, false),
        ("scalar_batched", false, true),
        ("simd_perpixel", true, false),
        ("simd_batched", true, true),
    ];
    const BASELINE: usize = 0;
    const SCALAR_BATCHED: usize = 1;
    const BEST: usize = 3;
    // One cold render through the public tile renderers.
    let render = |raster: &RasterSpec, tau_tile: bool, batched: bool| {
        let family = BoundFamily::Quadratic;
        let mut budget = RenderBudget::unlimited();
        let mut metrics = RenderMetrics::new();
        let (ev, tev) = (
            &mut RefineEvaluator::new(&tree, kernel, family),
            &mut TileEvaluator::new(&tree, kernel, family),
        );
        let (b, m) = (&mut budget, &mut metrics);
        let tile = match (tau_tile, batched) {
            (false, false) => render_tile_eps(ev, raster, eps, b, &cm, scale, m),
            (false, true) => render_tile_eps_batched(tev, raster, eps, b, &cm, scale, m),
            (true, false) => render_tile_tau(ev, raster, tau, b, m),
            (true, true) => render_tile_tau_batched(tev, raster, tau, b, m),
        }
        .expect("tile renders");
        (tile, metrics.events)
    };
    // zoom → tile index → mode → best-of-rounds nanoseconds.
    let mut mins: Vec<Vec<[u64; 4]>> = LEVELS
        .iter()
        .map(|&z| vec![[u64::MAX; 4]; 2 * (1usize << z) * (1usize << z)])
        .collect();
    // zoom → mode → [node_bounds, heap_pops, point_evals], first round.
    let mut work = vec![[[0u64; 3]; 4]; LEVELS.len()];
    for round in 0..COLD_ROUNDS {
        for (zi, &z) in LEVELS.iter().enumerate() {
            let mut idx = 0usize;
            for tau_tile in [false, true] {
                for x in 0..1u32 << z {
                    for y in 0..1u32 << z {
                        let raster = pyramid_raster(&base, z, x, y).expect("tile raster");
                        for (slot, &(name, simd, batched)) in MODES.iter().enumerate() {
                            kdv_geom::simd::set_simd_enabled(simd);
                            let start = Instant::now();
                            let (tile, events) = render(&raster, tau_tile, batched);
                            let ns = start.elapsed().as_nanos() as u64;
                            assert!(tile.is_complete(), "z{z} ({x},{y}) {name}: degraded");
                            if round == 0 {
                                let w = &mut work[zi][slot];
                                w[0] += events.node_bounds;
                                w[1] += events.heap_pops;
                                w[2] += events.point_evals;
                            }
                            let slot_min = &mut mins[zi][idx][slot];
                            *slot_min = (*slot_min).min(ns);
                        }
                        idx += 1;
                    }
                }
            }
        }
    }
    kdv_geom::simd::set_simd_enabled(true);

    let mut hists: Vec<[LogHistogram; 4]> = LEVELS
        .iter()
        .map(|_| std::array::from_fn(|_| LogHistogram::new()))
        .collect();
    let mut all: [LogHistogram; 4] = std::array::from_fn(|_| LogHistogram::new());
    for (zi, tiles) in mins.iter().enumerate() {
        for t in tiles {
            for (slot, &ns) in t.iter().enumerate() {
                assert_ne!(ns, u64::MAX, "unrecorded tile sample");
                hists[zi][slot].record(ns);
                all[slot].record(ns);
            }
        }
    }

    // Nearest-rank p99 over the per-tile minimums, exact: a histogram
    // bucket edge is up to 6.25% high, so a ratio of two of them moves
    // in steps wider than the CI gate's 10% slack.
    let p99 = |tiles: &mut dyn Iterator<Item = &[u64; 4]>, slot: usize| {
        let mut ns: Vec<u64> = tiles.map(|t| t[slot]).collect();
        ns.sort_unstable();
        ns[(ns.len() * 99).div_ceil(100) - 1] as f64
    };
    let zoom_p99 = |zi: usize, slot: usize| p99(&mut mins[zi].iter(), slot);
    let all_p99 = |slot: usize| p99(&mut mins.iter().flatten(), slot);
    let p99_ms = |p99_of: &dyn Fn(usize) -> f64| {
        let fields = MODES.iter().enumerate();
        Value::obj(
            fields
                .map(|(slot, (name, _, _))| (*name, json::num_f(p99_of(slot) / 1e6)))
                .collect(),
        )
    };
    let mut zooms = Vec::new();
    let mut speedups = Vec::new();
    for (zi, &z) in LEVELS.iter().enumerate() {
        let speedup = zoom_p99(zi, BASELINE) / zoom_p99(zi, BEST);
        speedups.push(speedup);
        let cells: Vec<String> = MODES
            .iter()
            .enumerate()
            .map(|(slot, (name, _, _))| format!("{name} {:.2}", zoom_p99(zi, slot) / 1e6))
            .collect();
        println!(
            "cold path z={z} p99 ms: {} ({speedup:.1}x)",
            cells.join(", ")
        );
        let mut fields = vec![
            ("z", json::num_u(z as u64)),
            ("tiles", json::num_u(hists[zi][0].count())),
        ];
        for (slot, (name, _, _)) in MODES.into_iter().enumerate() {
            fields.push((name, hist_json(&hists[zi][slot])));
        }
        fields.push(("p99_ms", p99_ms(&|slot| zoom_p99(zi, slot))));
        fields.push(("p99_speedup_batched", json::num_f(speedup)));
        let counts = |[node_bounds, heap_pops, point_evals]: [u64; 3]| {
            Value::obj(vec![
                ("node_bounds", json::num_u(node_bounds)),
                ("heap_pops", json::num_u(heap_pops)),
                ("point_evals", json::num_u(point_evals)),
            ])
        };
        let modes = MODES.iter().zip(work[zi]);
        fields.push((
            "work",
            Value::obj(modes.map(|((name, _, _), w)| (*name, counts(w))).collect()),
        ));
        zooms.push(Value::obj(fields));
    }
    let min_speedup = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let agg_speedup = all_p99(BASELINE) / all_p99(BEST);
    let simd_speedup = all_p99(SCALAR_BATCHED) / all_p99(BEST);
    let max_z = *LEVELS.iter().max().expect("levels");
    println!(
        "cold path: z≤{max_z} cold-tile p99 scalar per-pixel {:.2} ms → simd batched {:.2} ms \
         ({agg_speedup:.1}x; worst single zoom {min_speedup:.1}x; simd on batched \
         {simd_speedup:.2}x)",
        all_p99(BASELINE) / 1e6,
        all_p99(BEST) / 1e6,
    );
    let mut agg_fields = vec![("tiles", json::num_u(all[0].count()))];
    for (slot, (name, _, _)) in MODES.into_iter().enumerate() {
        agg_fields.push((name, hist_json(&all[slot])));
    }
    agg_fields.push(("p99_ms", p99_ms(&all_p99)));
    Value::obj(vec![
        ("dataset", Value::Str("crime".to_string())),
        ("points", json::num_u(POINTS as u64)),
        ("tile_size", json::num_u(TILE_SIZE as u64)),
        ("kinds", Value::Str("eps+tau".to_string())),
        ("rounds", json::num_u(COLD_ROUNDS as u64)),
        ("zooms", Value::Arr(zooms)),
        ("all_zooms", Value::obj(agg_fields)),
        ("p99_speedup_batched", json::num_f(agg_speedup)),
        ("p99_speedup_batched_min", json::num_f(min_speedup)),
        ("p99_speedup_simd_batched", json::num_f(simd_speedup)),
    ])
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    // `.github/perfbench-record.py` owns the `perfbench` section: keep it.
    let perfbench = std::fs::read_to_string(&out).ok().and_then(|text| {
        json::parse(&text)
            .unwrap_or_else(|e| panic!("{out} does not parse: {e}"))
            .get("perfbench")
            .cloned()
    });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lanes = kdv_geom::simd::simd_lanes();
    let host = Value::obj(vec![
        ("cores", json::num_u(cores as u64)),
        ("simd_lanes", json::num_u(lanes as u64)),
        ("single_core", Value::Bool(cores == 1)),
    ]);
    println!("host: {cores} core(s), {lanes} SIMD lane(s)");

    let mut fields = vec![
        ("schema", Value::Str("kdv-bench-serve/8".to_string())),
        ("host", host),
        ("cold_path", cold_path()),
    ];
    // KDV_BENCH_FAST: the CI perf smoke only needs the cold path; the
    // 1M-point cold-start and pyramid sections, ingest and cluster are
    // minutes of extra wall time that belong to full refreshes.
    if std::env::var("KDV_BENCH_FAST").is_err() {
        let tmp = std::env::temp_dir().join(format!("kdv-serve-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).expect("mkdir tmp");
        fields.push(("cold_start", cold_start(&tmp)));
        fields.push(("ingest", ingest_modes(&tmp)));
        fields.push((
            "cluster",
            Value::obj(vec![("cache_pressure", cache_pressure(&tmp))]),
        ));
        fields.push(("pyramid", pyramid_bench(&tmp)));
        std::fs::remove_dir_all(&tmp).ok();
    }
    if let Some(perfbench) = perfbench {
        fields.push(("perfbench", perfbench));
    }

    let doc = Value::obj(fields);
    std::fs::write(&out, doc.render()).expect("write sidecar");
    println!("wrote {out}");
}
