//! Serving-latency baseline: cold vs. cached tile fetches, plus the
//! snapshot cold-start comparison.
//!
//! Starts an in-process [`TileServer`] on an emulated crime dataset,
//! fetches every εKDV tile at z ∈ {0, 2, 4} twice over real sockets —
//! the first pass renders (cold), the second is served from the LRU
//! cache — and writes per-level latency histograms (p50/p99/mean) to
//! `BENCH_serve.json`. A second section times the cold start on a
//! 1M-point synthetic dataset two ways: booting the server from CSV
//! (`cold_start_ms_build`) versus from a KDVS snapshot catalog
//! (`cold_start_ms_load`), with the bare index-acquisition cost
//! (`index_ms_*`) and the first-tile latency of each serving mode
//! reported alongside. A third section measures the request-tracing
//! tax on cached tiles (tracing off vs. on, same warmed level) so the
//! <5% cached-p99 overhead contract stays pinned in the sidecar. A
//! fourth section benches the cluster tier: cold-pyramid and cached
//! throughput behind the router at 1/2/4 shards, aggregate-cache
//! scaling under a deliberately tight per-shard budget, and the
//! router's proxy overhead on cached tiles. A fifth section proves
//! the coreset-pyramid claim: z0–z4 cold tiles on the 1M-point
//! dataset served from a certified ladder vs. the full index at
//! identical ε, with a 20k-point full-index baseline as the
//! "small-dataset cost" yardstick.
//! Later PRs diff this sidecar to catch serving regressions.
//!
//! ```text
//! cargo run --release -p kdv-bench --bin serve_bench [-- out.json]
//! ```
//!
//! A sixth section isolates the cold-render hot path itself: every
//! εKDV and τKDV tile at z ∈ {0, 2, 4} rendered in-process once per
//! engine mode — {scalar, SIMD} × {per-pixel, tile-batched} — so the
//! sidecar pins the per-mode cold p99 and the speedups the perf work
//! claims, together with the host's core count and SIMD capability
//! (the numbers are meaningless without them).
//!
//! Set `KDV_BENCH_COLD_POINTS` to shrink the cold-start dataset for
//! quick local runs (the committed sidecar uses the full 1M). Set
//! `KDV_BENCH_FAST=1` to run only the cached-level and cold-path
//! sections — the CI perf smoke uses this to check the cold-tile p99
//! against the committed sidecar without paying for the 1M-point
//! sections.

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

fn fetch(addr: SocketAddr, path: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .expect("request");
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
    (status, raw[head_end + 4..].to_vec())
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

/// The tracing tax on the hot path, measured where it matters: cached
/// tiles, where per-request work is a hash lookup plus a socket write
/// and any fixed overhead is proportionally largest. Two identical
/// servers — tracing off vs. on — serve the same warmed z=2 level;
/// the sidecar records both distributions and the p50/p99 deltas. The
/// serving contract (ISSUE: observability) allows cached p99 to
/// regress at most 5% with tracing enabled.
fn trace_overhead() -> Value {
    const ROUNDS: usize = 64;
    const Z: u32 = 2;
    let mut points = Dataset::Crime.generate(POINTS, SEED);
    points.scale_weights(1.0 / points.len() as f64);
    let kernel = Kernel::gaussian(scott_gamma(&points).gamma);

    // Both servers live at once, samples interleaved per tile, so
    // scheduler and allocator drift hits both modes identically: any
    // consistent gap is the tracing tax, not warmup order.
    let servers: Vec<TileServer> = [false, true]
        .into_iter()
        .map(|trace| {
            let config = ServerConfig {
                tile_size: TILE_SIZE,
                max_z: Z as u8,
                eps: 0.1,
                workers: 4,
                trace,
                ..ServerConfig::default()
            };
            TileServer::start(config, &points, kernel).expect("server start")
        })
        .collect();
    let mut hists = [LogHistogram::new(), LogHistogram::new()];
    for round in 0..=ROUNDS {
        for x in 0..1u32 << Z {
            for y in 0..1u32 << Z {
                let path = format!("/tiles/eps/{Z}/{x}/{y}.png");
                for (slot, server) in servers.iter().enumerate() {
                    let start = Instant::now();
                    let (status, _) = fetch(server.local_addr(), &path);
                    let ns = start.elapsed().as_nanos() as u64;
                    assert_eq!(status, 200, "{path} (traced={})", slot == 1);
                    if round > 0 {
                        // Round 0 renders; only cached fetches count.
                        hists[slot].record(ns);
                    }
                }
            }
        }
    }
    for server in servers {
        server.stop();
    }

    let pct = |on: f64, off: f64| (on - off) / off * 100.0;
    let mean_pct = pct(hists[1].mean(), hists[0].mean());
    let p50_pct = pct(
        hists[1].quantile_le(0.5) as f64,
        hists[0].quantile_le(0.5) as f64,
    );
    let p99_pct = pct(
        hists[1].quantile_le(0.99) as f64,
        hists[0].quantile_le(0.99) as f64,
    );
    println!(
        "cached-tile tracing overhead: mean {:+.1}% (exact), p50 {:+.1}%, p99 {:+.1}% \
         ({} samples per mode; quantiles carry ≤6.25% bucket error)",
        mean_pct,
        p50_pct,
        p99_pct,
        ROUNDS * (1 << Z) * (1 << Z),
    );
    Value::obj(vec![
        ("untraced", hist_json(&hists[0])),
        ("traced", hist_json(&hists[1])),
        ("mean_overhead_pct", json::num_f(mean_pct)),
        ("p50_overhead_pct", json::num_f(p50_pct)),
        ("p99_overhead_pct", json::num_f(p99_pct)),
    ])
}

fn post(addr: SocketAddr, path: &str, body: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!(
                "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response");
    std::str::from_utf8(&raw)
        .expect("UTF-8 head")
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status")
}

/// Streaming-ingest latency: durable-ack distribution under each
/// fsync policy (four concurrent writers, so `batch` group commit has
/// something to amortize over), tile latency while a write storm
/// churns compactions underneath the readers, and the WAL replay cost
/// a crash recovery pays, normalized per MiB.
fn ingest_bench(tmp: &Path) -> Value {
    const WRITERS: usize = 4;
    const WRITES: usize = 150; // per writer, per mode
    let mut base = Dataset::Crime.generate(POINTS / 4, SEED);
    base.scale_weights(1.0 / base.len() as f64);
    let kernel = Kernel::gaussian(scott_gamma(&base).gamma);
    let tree = KdTree::build_default(&base);
    let anchor = base.point(10);
    let (ax, ay) = (anchor[0], anchor[1]);

    let spawn_writers = |addr: SocketAddr, writes: usize| {
        let hist = std::sync::Arc::new(std::sync::Mutex::new(LogHistogram::new()));
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let hist = std::sync::Arc::clone(&hist);
                std::thread::spawn(move || {
                    for i in 0..writes {
                        let body = format!(
                            "{{\"append\":[[{},{},0.0001]]}}",
                            ax + 0.001 * (w * writes + i) as f64,
                            ay
                        );
                        let start = Instant::now();
                        let status = post(addr, "/datasets/crime/points", &body);
                        let ns = start.elapsed().as_nanos() as u64;
                        assert_eq!(status, 200, "ingest ack");
                        hist.lock().expect("ack histogram").record(ns);
                    }
                })
            })
            .collect();
        (hist, handles)
    };

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
            // Acks only in this section: keep compaction out of it.
            memtable_points: 1 << 16,
            compact_points: 1 << 16,
            ..ServerConfig::default()
        };
        let server = TileServer::start_with_store(config, &dir).expect("server start (ingest)");
        let (hist, handles) = spawn_writers(server.local_addr(), WRITES);
        for h in handles {
            h.join().expect("writer thread");
        }
        server.stop();
        let hist = hist.lock().expect("ack histogram");

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

    // Reads under churn: a batch-mode write storm with an aggressive
    // compaction threshold, while a reader hammers the warmed z=1
    // level. Tile latency here pays delta merges, cache invalidation,
    // and base swaps — the worst sustained case for a reader.
    let dir = tmp.join("ingest-churn");
    std::fs::create_dir_all(&dir).expect("mkdir churn store");
    SnapshotWriter::new(&tree, kernel)
        .write_to(dir.join("crime.kdvs"))
        .expect("write snapshot");
    let config = ServerConfig {
        tile_size: 64,
        max_z: 2,
        eps: 0.2,
        workers: WRITERS + 2,
        fsync: FsyncPolicy::Batch,
        compact_points: 128,
        ..ServerConfig::default()
    };
    let server = TileServer::start_with_store(config, &dir).expect("server start (churn)");
    let addr = server.local_addr();
    for x in 0..2u32 {
        for y in 0..2u32 {
            let (status, _) = fetch(addr, &format!("/tiles/crime/eps/1/{x}/{y}.png"));
            assert_eq!(status, 200, "warm tile");
        }
    }
    let (_, writers) = spawn_writers(addr, 1500);
    let mut tiles = LogHistogram::new();
    let mut writers_done = false;
    while !writers_done {
        for x in 0..2u32 {
            for y in 0..2u32 {
                let path = format!("/tiles/crime/eps/1/{x}/{y}.png");
                let start = Instant::now();
                let (status, _) = fetch(addr, &path);
                tiles.record(start.elapsed().as_nanos() as u64);
                assert_eq!(status, 200, "{path} under churn");
            }
        }
        writers_done = writers.iter().all(|h| h.is_finished());
    }
    for h in writers {
        h.join().expect("writer thread");
    }
    server.stop();
    println!(
        "tiles under ingest+compaction churn: p50 {:.2} ms, p99 {:.2} ms ({} fetches)",
        tiles.quantile_le(0.5) as f64 / 1e6,
        tiles.quantile_le(0.99) as f64 / 1e6,
        tiles.count(),
    );
    Value::obj(vec![
        ("modes", Value::Arr(modes)),
        ("tile_under_churn", hist_json(&tiles)),
    ])
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

/// Scale-out: the same 20k crime store behind a router with 1, 2, and
/// 4 shards.
///
/// Three measurements per fleet size:
///
/// * `cold` — full z≤3 εKDV pyramid, every tile rendered once. This
///   is CPU-bound, so the scaling it shows is bounded by the host's
///   core count (`host_cores` is recorded alongside: on a 1-core box
///   the expected scaling is ~1×, and the number is still worth
///   pinning to catch router-layer regressions).
/// * `cached` — the same sweep warm: every tile a shard-cache hit,
///   measuring the proxy path itself under concurrency.
/// * `cache_pressure` — the capacity win that scales on any host: the
///   per-shard cache budget is set to ~60% of the pyramid's bytes, so
///   one shard thrashes its LRU on every sweep while two or more hold
///   the whole pyramid in aggregate (rendezvous partitioning means no
///   tile is cached twice). Steady-state sweep throughput is the
///   metric the 1→2 shard scaling floor is checked against.
///
/// `router_overhead` pins the proxy tax: cached-tile p50 direct to a
/// shard vs. through the router (target: ≤ 1 ms added).
fn cluster_bench(tmp: &Path) -> Value {
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

    let start_fleet = |n: usize, cache_bytes: usize| -> (Vec<TileServer>, Router) {
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
        (shards, router)
    };

    let mut fleets = Vec::new();
    let mut cold_rates = Vec::new();
    let mut pyramid_bytes = 0u64;
    for n in FLEETS {
        let (shards, router) = start_fleet(n, 64 << 20);
        let addr = router.local_addr();
        let (cold_secs, cold_hist, bytes) = sweep(addr, &paths, CLIENTS);
        pyramid_bytes = bytes;
        let (warm_secs, warm_hist, _) = sweep(addr, &paths, CLIENTS);
        let cold_rate = tiles / cold_secs;
        cold_rates.push(cold_rate);
        println!(
            "cluster {n} shard(s): cold {cold_rate:.1} tiles/s (p50 {:.2} ms, p99 {:.2} ms); \
             cached {:.0} tiles/s (p50 {:.3} ms, p99 {:.3} ms)",
            cold_hist.quantile_le(0.5) as f64 / 1e6,
            cold_hist.quantile_le(0.99) as f64 / 1e6,
            tiles / warm_secs,
            warm_hist.quantile_le(0.5) as f64 / 1e6,
            warm_hist.quantile_le(0.99) as f64 / 1e6,
        );
        fleets.push(Value::obj(vec![
            ("shards", json::num_u(n as u64)),
            ("cold_tiles_per_s", json::num_f(cold_rate)),
            ("cold", hist_json(&cold_hist)),
            ("cached_tiles_per_s", json::num_f(tiles / warm_secs)),
            ("cached", hist_json(&warm_hist)),
        ]));
        router.stop();
        for s in shards {
            s.stop();
        }
    }

    // Aggregate-cache capacity: per-shard budget ~60% of the pyramid,
    // so only fleets of ≥ 2 shards hold it all. Steady state = the
    // mean of three post-cold sweeps.
    let budget = (pyramid_bytes as usize * 6 / 10).max(1 << 16);
    let mut pressure = Vec::new();
    let mut pressure_rates = Vec::new();
    for n in FLEETS {
        let (shards, router) = start_fleet(n, budget);
        let addr = router.local_addr();
        let _ = sweep(addr, &paths, CLIENTS); // cold fill
        let mut secs = 0.0;
        let mut hist = LogHistogram::new();
        for _ in 0..3 {
            let (s, h, _) = sweep(addr, &paths, CLIENTS);
            secs += s;
            hist.merge(&h);
        }
        let rate = 3.0 * tiles / secs;
        pressure_rates.push(rate);
        println!(
            "cache pressure ({} byte budget/shard), {n} shard(s): {rate:.0} tiles/s \
             (p50 {:.3} ms, p99 {:.2} ms)",
            budget,
            hist.quantile_le(0.5) as f64 / 1e6,
            hist.quantile_le(0.99) as f64 / 1e6,
        );
        pressure.push(Value::obj(vec![
            ("shards", json::num_u(n as u64)),
            ("tiles_per_s", json::num_f(rate)),
            ("tile", hist_json(&hist)),
        ]));
        router.stop();
        for s in shards {
            s.stop();
        }
    }

    // Proxy tax on cached tiles: one shard, warm z=3 level, p50 direct
    // vs. through the router.
    let (shards, router) = start_fleet(1, 64 << 20);
    let shard_addr = shards[0].local_addr();
    let routed_addr = router.local_addr();
    let z3: Vec<&String> = paths.iter().filter(|p| p.contains("/3/")).collect();
    for path in &z3 {
        let (status, _) = fetch(shard_addr, path);
        assert_eq!(status, 200, "warm {path}");
    }
    let mut direct = LogHistogram::new();
    let mut routed = LogHistogram::new();
    for _ in 0..8 {
        for path in &z3 {
            let start = Instant::now();
            let (status, _) = fetch(shard_addr, path);
            direct.record(start.elapsed().as_nanos() as u64);
            assert_eq!(status, 200);
            let start = Instant::now();
            let (status, _) = fetch(routed_addr, path);
            routed.record(start.elapsed().as_nanos() as u64);
            assert_eq!(status, 200);
        }
    }
    router.stop();
    for s in shards {
        s.stop();
    }
    let direct_p50_us = direct.quantile_le(0.5) as f64 / 1e3;
    let routed_p50_us = routed.quantile_le(0.5) as f64 / 1e3;
    println!(
        "router proxy overhead on cached tiles: p50 {direct_p50_us:.0} µs direct \
         → {routed_p50_us:.0} µs routed (+{:.0} µs)",
        routed_p50_us - direct_p50_us
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::obj(vec![
        ("host_cores", json::num_u(cores as u64)),
        ("max_z", json::num_u(MAX_Z as u64)),
        ("tiles", json::num_u(paths.len() as u64)),
        ("clients", json::num_u(CLIENTS as u64)),
        ("fleets", Value::Arr(fleets)),
        (
            "cold_scaling_1_to_2",
            json::num_f(cold_rates[1] / cold_rates[0]),
        ),
        (
            "cold_scaling_1_to_4",
            json::num_f(cold_rates[2] / cold_rates[0]),
        ),
        (
            "cache_pressure",
            Value::obj(vec![
                ("budget_bytes_per_shard", json::num_u(budget as u64)),
                ("pyramid_bytes", json::num_u(pyramid_bytes)),
                ("fleets", Value::Arr(pressure)),
                (
                    "scaling_1_to_2",
                    json::num_f(pressure_rates[1] / pressure_rates[0]),
                ),
                (
                    "scaling_1_to_4",
                    json::num_f(pressure_rates[2] / pressure_rates[0]),
                ),
            ]),
        ),
        (
            "router_overhead",
            Value::obj(vec![
                ("direct", hist_json(&direct)),
                ("routed", hist_json(&routed)),
                ("direct_p50_us", json::num_f(direct_p50_us)),
                ("routed_p50_us", json::num_f(routed_p50_us)),
                ("added_p50_us", json::num_f(routed_p50_us - direct_p50_us)),
            ]),
        ),
    ])
}

/// One GET that also surfaces the `X-Kdv-Level` header, so the sweep
/// can prove which index actually answered.
fn fetch_level(addr: SocketAddr, path: &str) -> (u16, Option<String>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .expect("request");
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
    let level = head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("x-kdv-level")
            .then(|| value.trim().to_string())
    });
    (status, level, raw[head_end + 4..].to_vec())
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
                    let (status, lvl, body) = fetch_level(server.local_addr(), &path);
                    let ns = start.elapsed().as_nanos() as u64;
                    assert_eq!(status, 200, "{name} {path}");
                    assert!(body.starts_with(b"\x89PNG"), "{name} {path}: not a PNG");
                    hists[slot].record(ns);
                    if slot == 0 {
                        let lvl = lvl.expect("level header");
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
/// The headline `p99_speedup_batched` (scalar per-pixel p99 over SIMD
/// batched p99) is taken on the aggregate z ≤ 4 population, with
/// per-zoom splits alongside; `p99_speedup_simd_batched` isolates what
/// SIMD adds on the batched path. `host_cores` and the SIMD capability
/// fields are recorded because the absolute numbers (and the SIMD
/// columns' meaning) depend on them.
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
        match (tau_tile, batched) {
            (false, false) => render_tile_eps(ev, raster, eps, b, &cm, scale, m),
            (false, true) => render_tile_eps_batched(tev, raster, eps, b, &cm, scale, m),
            (true, false) => render_tile_tau(ev, raster, tau, b, m),
            (true, true) => render_tile_tau_batched(tev, raster, tau, b, m),
        }
        .expect("tile renders")
    };
    let rounds: usize = if std::env::var("KDV_BENCH_FAST").is_ok() {
        2
    } else {
        3
    };
    // zoom → tile index → mode → best-of-rounds nanoseconds.
    let mut mins: Vec<Vec<[u64; 4]>> = LEVELS
        .iter()
        .map(|&z| vec![[u64::MAX; 4]; 2 * (1usize << z) * (1usize << z)])
        .collect();
    for _ in 0..rounds {
        for (zi, &z) in LEVELS.iter().enumerate() {
            let mut idx = 0usize;
            for tau_tile in [false, true] {
                for x in 0..1u32 << z {
                    for y in 0..1u32 << z {
                        let raster = pyramid_raster(&base, z, x, y).expect("tile raster");
                        for (slot, &(name, simd, batched)) in MODES.iter().enumerate() {
                            kdv_geom::simd::set_simd_enabled(simd);
                            let start = Instant::now();
                            let tile = render(&raster, tau_tile, batched);
                            let ns = start.elapsed().as_nanos() as u64;
                            assert!(tile.is_complete(), "z{z} ({x},{y}) {name}: degraded");
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

    let p99 = |h: &LogHistogram| h.quantile_le(0.99) as f64;
    let mut zooms = Vec::new();
    let mut speedups = Vec::new();
    for (zi, &z) in LEVELS.iter().enumerate() {
        let speedup = p99(&hists[zi][BASELINE]) / p99(&hists[zi][BEST]);
        speedups.push(speedup);
        let cells: Vec<String> = MODES
            .iter()
            .enumerate()
            .map(|(slot, (name, _, _))| format!("{name} {:.2}", p99(&hists[zi][slot]) / 1e6))
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
        fields.push(("p99_speedup_batched", json::num_f(speedup)));
        zooms.push(Value::obj(fields));
    }
    let min_speedup = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let agg_speedup = p99(&all[BASELINE]) / p99(&all[BEST]);
    let simd_speedup = p99(&all[SCALAR_BATCHED]) / p99(&all[BEST]);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_z = *LEVELS.iter().max().expect("levels");
    println!(
        "cold path: z≤{max_z} cold-tile p99 scalar per-pixel {:.2} ms → simd batched {:.2} ms \
         ({agg_speedup:.1}x; worst single zoom {min_speedup:.1}x; simd on batched \
         {simd_speedup:.2}x) ({cores} core(s), simd {})",
        p99(&all[BASELINE]) / 1e6,
        p99(&all[BEST]) / 1e6,
        if kdv_geom::simd::simd_supported() {
            "avx2"
        } else {
            "unavailable"
        },
    );
    let mut agg_fields = vec![("tiles", json::num_u(all[0].count()))];
    for (slot, (name, _, _)) in MODES.into_iter().enumerate() {
        agg_fields.push((name, hist_json(&all[slot])));
    }
    Value::obj(vec![
        ("host_cores", json::num_u(cores as u64)),
        (
            "simd_supported",
            Value::Bool(kdv_geom::simd::simd_supported()),
        ),
        (
            "simd_lanes",
            json::num_u(kdv_geom::simd::simd_lanes() as u64),
        ),
        ("kinds", Value::Str("eps+tau".to_string())),
        ("rounds", json::num_u(rounds as u64)),
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
    let mut points = Dataset::Crime.generate(POINTS, SEED);
    points.scale_weights(1.0 / points.len() as f64);
    let kernel = Kernel::gaussian(scott_gamma(&points).gamma);
    let config = ServerConfig {
        tile_size: TILE_SIZE,
        max_z: *LEVELS.iter().max().expect("levels"),
        eps: 0.1,
        workers: 4,
        ..ServerConfig::default()
    };
    let server = TileServer::start(config, &points, kernel).expect("server start");
    let addr = server.local_addr();

    let mut levels = Vec::new();
    for z in LEVELS {
        let mut cold = LogHistogram::new();
        let mut cached = LogHistogram::new();
        for (pass, hist) in [(0, &mut cold), (1, &mut cached)] {
            for x in 0..1u32 << z {
                for y in 0..1u32 << z {
                    let path = format!("/tiles/eps/{z}/{x}/{y}.png");
                    let start = Instant::now();
                    let (status, body) = fetch(addr, &path);
                    let ns = start.elapsed().as_nanos() as u64;
                    assert_eq!(status, 200, "{path} (pass {pass})");
                    assert!(body.starts_with(b"\x89PNG"), "{path}: not a PNG");
                    hist.record(ns);
                }
            }
        }
        println!(
            "z={z}: cold p50 {:.1} ms, cached p50 {:.3} ms ({} tiles)",
            cold.quantile_le(0.5) as f64 / 1e6,
            cached.quantile_le(0.5) as f64 / 1e6,
            cold.count(),
        );
        levels.push(Value::obj(vec![
            ("z", json::num_u(z as u64)),
            ("tiles", json::num_u(cold.count())),
            ("cold", hist_json(&cold)),
            ("cached", hist_json(&cached)),
        ]));
    }
    server.stop();

    let cold_path = cold_path();

    let mut fields = vec![
        ("schema", Value::Str("kdv-bench-serve/7".to_string())),
        ("dataset", Value::Str("crime".to_string())),
        ("points", json::num_u(POINTS as u64)),
        ("tile_size", json::num_u(TILE_SIZE as u64)),
        ("kind", Value::Str("eps".to_string())),
        ("levels", Value::Arr(levels)),
        ("cold_path", cold_path),
    ];
    // KDV_BENCH_FAST: the CI perf smoke only needs the sections above
    // (cached levels + per-mode cold path); the 1M-point cold-start,
    // ingest, cluster, pyramid, and tracing sections are minutes of
    // extra wall time that belong to full sidecar refreshes.
    if std::env::var("KDV_BENCH_FAST").is_err() {
        let tmp = std::env::temp_dir().join(format!("kdv-serve-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).expect("mkdir tmp");
        fields.push(("cold_start", cold_start(&tmp)));
        fields.push(("ingest", ingest_bench(&tmp)));
        fields.push(("cluster", cluster_bench(&tmp)));
        fields.push(("pyramid", pyramid_bench(&tmp)));
        std::fs::remove_dir_all(&tmp).ok();
        fields.push(("trace_overhead", trace_overhead()));
    }

    let doc = Value::obj(fields);
    std::fs::write(&out, doc.render()).expect("write sidecar");
    println!("wrote {out}");
}
