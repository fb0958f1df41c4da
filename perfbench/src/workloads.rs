//! The serving workloads. Each runs one phase against a fresh server,
//! untraced (`--trace 0`) or traced (`--trace 1`); a traced run adds a
//! paired comparison with an untraced twin server and the in-process
//! layer replay.
//!
//! * `cold_sweep` — a fixed count of distinct tiles in zoom-in session
//!   order on a 1M-point store with a certified pyramid: render and
//!   encode do the work.
//! * `ingest_churn` — an open-loop writer near a hotspot with frequent
//!   compactions beside a closed-loop reader: the write path and the
//!   memtable-aware read path do the work. Its traced run adds the
//!   `browse` phase: zipf-popular, pre-warmed tiles through a two-shard
//!   cluster at a fixed offered rate, where HTTP, cache and router do the
//!   work (per-layer metrics `browse.*` and `cluster.*`).
//! * `calibrate` — not a workload: measures the capacities the offered
//!   rates and the cold trace length below are derived from.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use kdv_telemetry::json;
use kdv_viz::colormap::render_binary;
use kdv_viz::render::BinaryGrid;
use kdv_viz::tile_render::pyramid_raster;

use crate::client::Conn;
use crate::drive::{self, accept_all, Req, Sample};
use crate::exact::{check_tau_tile, Checked, Exact};
use crate::fixture::{self, Fixture, DATASET, EPS, MAX_Z, PYRAMID_MAX_Z, SIDE, TILE};
use crate::host::{self, Probe};
use crate::layers::{self, Metrics};
use crate::png::{self, Image};
use crate::procs::{self, Server};
use crate::requests::{self, Kind, Rng, Tile};
use crate::scrape::{self, Scrape};
use crate::stats::{mean, median, quantile};

/// Client connections: at most the reference host's core count (2).
const CONNS: usize = 2;
/// Server spawns timed per e2e run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Slices of a timed window, with the host probed between them.
const SLICES: usize = 16;
/// Writes in the post-window ack probe of `cold_sweep`'s traced run.
const ACK_PROBE: usize = 2_000;
/// Tiles per (kind, zoom) whose bytes are reported and whose τ masks are
/// checked against EXACT: the first ones in request order.
const CHECK_PER_ZOOM: usize = 2;
/// Full-index tiles replayed in-process (the ablation uses half).
const LAYER_SAMPLE: usize = 24;
/// Traces each traced server retains for per-request span attribution.
const TRACE_RING: usize = 1024;
/// Requests in the paired traced-vs-untraced comparison: cold tiles on
/// `cold_sweep`, cached ones elsewhere.
const PAIRED_COLD: usize = 100;
const PAIRED_HOT: usize = 2_000;

// Traffic. Rates are fixed, so every build is offered the same load;
// each derives from a capacity `--workload calibrate` measured on the
// reference host (2 vCPUs; the figures are in the README).

/// `cold_sweep` tiles per second at capacity on the reference host
/// (76 and 87 measured). The timed trace is `--seconds` × this many
/// tiles and every build serves all of them, so what is timed does not
/// depend on the speed measured.
const COLD_REF_RATE: f64 = 80.0;
/// The longest a `cold_sweep` window may take before the run is refused.
const COLD_DEADLINE: Duration = Duration::from_secs(120);
/// Capacity for cached tiles through `kdv cluster --shards 2` (2
/// closed-loop connections), requests/s: 25 600 and 29 600 measured.
const BROWSE_CAPACITY: f64 = 27_000.0;
/// Capacity of one closed-loop writer posting one-point batches with
/// `--fsync batch`, acknowledgements/s: 8 300 measured.
const ACK_CAPACITY: f64 = 8_300.0;
/// Offered load as a share of capacity: well below saturation, so the
/// latency tail is the servers' and the host's, not a queue the offered
/// rate builds.
const UTILISATION: f64 = 0.05;
/// `browse` popularity: zipf exponent 0.8, inside the 0.64–0.83 range
/// Breslau et al. measured for web-cache request streams (INFOCOM
/// 1999), over every tile of zooms 0–[`BROWSE_MAX_Z`], both kinds: 170
/// tiles of 12 KiB, 3% of one shard's default 64 MiB cache.
const ZIPF_S: f64 = 0.8;
const BROWSE_MAX_Z: u8 = 3;
/// Length of the `browse` window, seconds: 27 000 requests, 270 beyond
/// p99, while keeping the traced `ingest_churn` run short.
const BROWSE_SECONDS: f64 = 20.0;
/// `ingest_churn` writes one point per batch (one reported incident per
/// request), and compacts every this many seconds' worth of points:
/// over ten cycles a window. Compacting every second instead spread the
/// reader's p99 over seeds twice as wide.
const WRITE_BATCH: usize = 1;
const COMPACT_EVERY_S: f64 = 3.0;

fn browse_rate() -> f64 {
    UTILISATION * BROWSE_CAPACITY
}

fn write_rate() -> f64 {
    UTILISATION * ACK_CAPACITY
}

/// What the command line asked for, plus where to put scratch files.
pub struct Ctx {
    /// The `kdv` binary under test.
    pub kdv: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Timed window per phase, seconds.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics).
    pub traced: bool,
    /// Scratch directory inside the checkout.
    pub work: PathBuf,
}

impl Ctx {
    fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    fn fresh_store(&self, fx: &Fixture, tag: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(format!("store-{tag}"));
        fixture::copy_store(&fx.store, &dir)?;
        Ok(dir)
    }
}

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted in timed windows and probes.
    pub attempted: u64,
    /// Of those: non-2xx, refused, timed out, or a wrong tile.
    pub failed: u64,
    /// Answers that arrived but were wrong (bad tile, lost write).
    pub wrong: u64,
    /// Pixels that broke their contract against EXACT.
    pub violations: u64,
    /// Metric name → value.
    pub metrics: Metrics,
    /// `key=value` labels printed with the result.
    pub labels: Vec<String>,
}

/// One retained server trace: its ID and `(stage, µs)` spans.
type TraceRow = (String, Vec<(String, f64)>);

/// Server-side view of a traced phase.
struct View {
    before: Vec<Scrape>,
    after: Vec<Scrape>,
    fin: Vec<Scrape>,
    /// The servers' retained traces of the window's last requests.
    traces: Vec<TraceRow>,
    /// Paired traced-vs-untraced p50 difference, percent.
    overhead: f64,
    router: Option<(Scrape, Scrape)>,
    proxy: Option<(Vec<f64>, Vec<f64>)>,
}

/// One server lifetime's measurements.
#[derive(Default)]
struct Phase {
    tiles: Vec<Sample>,
    writes: Vec<Sample>,
    /// `writes` are the post-window ack probe, not timed-window traffic.
    probe: bool,
    /// Setup times at the reference host's speed, seconds.
    setups: Vec<f64>,
    /// The timed window's length at the reference host's speed, seconds.
    busy_s: f64,
    /// The window's length as measured, seconds.
    raw_busy_s: f64,
    /// Host probe readings, ms.
    host_ms: Vec<f64>,
    rss_mb: f64,
    wrong: u64,
    checked: Checked,
    bytes_eps: Vec<f64>,
    bytes_tau: Vec<f64>,
    view: Option<View>,
}

impl Phase {
    fn failed(&self) -> u64 {
        let bad = |s: &Sample| !s.ok() || s.wrong;
        (self.tiles.iter().filter(|s| bad(s)).count()
            + self.writes.iter().filter(|s| bad(s)).count()) as u64
            + self.wrong
    }

    fn wrong(&self) -> u64 {
        let wrong = |s: &&Sample| s.ok() && s.wrong;
        (self.tiles.iter().filter(wrong).count() + self.writes.iter().filter(wrong).count()) as u64
            + self.wrong
    }

    fn attempted(&self) -> u64 {
        (self.tiles.len() + self.writes.len()) as u64
    }
}

/// Runs `workload`.
pub fn run(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    match workload {
        "cold_sweep" => cold_sweep(ctx),
        "ingest_churn" => ingest_churn(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn serve_flags(fx: &Fixture, traced: bool, with_tau: bool) -> Vec<String> {
    let mut f: Vec<String> = Vec::new();
    if with_tau {
        f.extend(["--tau".to_string(), fx.tau.to_string()]);
    }
    let rest = [
        ("--eps", EPS.to_string()),
        ("--tile-size", TILE.to_string()),
        ("--max-z", MAX_Z.to_string()),
        ("--pyramid-max-z", PYRAMID_MAX_Z.to_string()),
        ("--workers", CONNS.to_string()),
        ("--fsync", "batch".to_string()),
    ];
    for (k, v) in rest {
        f.extend([k.to_string(), v]);
    }
    f.push("--preload".into());
    if traced {
        // Retain every request of a window's tail for span attribution.
        f.extend(["--trace-ring".to_string(), TRACE_RING.to_string()]);
    } else {
        f.push("--no-trace".into());
    }
    f
}

/// Spawns `setups` servers in turn, timing each to readiness, and keeps
/// the last one running. Each time is taken to the reference host's
/// speed with the probe readings around it.
fn start(
    setups: usize,
    probe: &mut Probe,
    spawn: impl Fn() -> Result<Server, String>,
) -> Result<(Server, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut before = probe.read();
    loop {
        let server = spawn()?;
        let after = probe.read();
        times.push(server.setup_s * host::scale(before, after));
        before = after;
        if times.len() >= setups {
            return Ok((server, times));
        }
        server.stop()?;
    }
}

/// Runs a timed window as [`SLICES`] consecutive slices, `slice(k)`
/// returning slice `k`'s `(tiles, writes)`, and reads the host probe
/// before the first slice and after each one, once `idle` has let the
/// server go quiet. Stamps every sample with its slice's host scale and
/// records in `p` the window's length, measured and scaled.
fn sliced(
    p: &mut Phase,
    probe: &mut Probe,
    mut slice: impl FnMut(usize) -> Result<(Vec<Sample>, Vec<Sample>), String>,
    mut idle: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let mut before = probe.read();
    for k in 0..SLICES {
        let t = Instant::now();
        let (mut tiles, mut writes) = slice(k)?;
        let secs = t.elapsed().as_secs_f64();
        idle()?;
        let after = probe.read();
        let f = host::scale(before, after);
        for s in tiles.iter_mut().chain(&mut writes) {
            s.scale = f;
        }
        p.raw_busy_s += secs;
        p.busy_s += secs * f;
        p.tiles.extend(tiles);
        p.writes.extend(writes);
        before = after;
    }
    Ok(())
}

/// The `k`-th of [`SLICES`] equal parts of `0..n`.
fn part(n: usize, k: usize) -> std::ops::Range<usize> {
    n * k / SLICES..n * (k + 1) / SLICES
}

/// The two τ mask colours `(hot, cold)` as the library paints them.
fn binary_colors() -> ([u8; 3], [u8; 3]) {
    let mut g = BinaryGrid::falses(2, 1);
    g.set(0, 0, true);
    let img = render_binary(&g);
    (img.get(0, 0), img.get(1, 0))
}

/// Decodes a served tile and checks its shape: a `TILE × TILE` PNG,
/// and for τ only the two mask colours.
fn decode_tile(kind: Kind, body: &[u8], colors: ([u8; 3], [u8; 3])) -> Option<Image> {
    let img = png::decode(body).ok()?;
    if img.width != TILE || img.height != TILE {
        return None;
    }
    if kind == Kind::Tau && img.rgb.iter().any(|&c| c != colors.0 && c != colors.1) {
        return None;
    }
    Some(img)
}

/// Checks a τ tile's mask against EXACT at `pixels` seeded pixels (all
/// of them when `pixels` covers the tile).
fn exact_check(
    exact: &Exact,
    fx: &Fixture,
    tile: Tile,
    img: &Image,
    rng: &mut Rng,
    pixels: usize,
) -> Checked {
    let raster =
        pyramid_raster(&fx.base, tile.z, tile.x, tile.y).expect("trace tiles are in range");
    let at: Vec<(u32, u32)> = if pixels >= (TILE * TILE) as usize {
        (0..TILE)
            .flat_map(|r| (0..TILE).map(move |c| (c, r)))
            .collect()
    } else {
        (0..pixels)
            .map(|_| {
                (
                    rng.below(TILE as usize) as u32,
                    rng.below(TILE as usize) as u32,
                )
            })
            .collect()
    };
    check_tau_tile(exact, &raster, img, binary_colors(), fx.tau, &at)
}

/// Validates every timed tile kept with its body (status, degradation,
/// shape), marking failures `wrong`; returns the valid ones decoded, in
/// request order.
fn validate_tiles(p: &mut Phase, tile_at: &dyn Fn(usize) -> Tile) -> Vec<(Tile, usize, Image)> {
    let colors = binary_colors();
    let mut valid = Vec::new();
    for s in &mut p.tiles {
        if !s.ok() || s.wrong {
            continue; // already counted as failed
        }
        let tile = tile_at(s.index);
        let img = match (&s.body, s.degraded) {
            (Some(body), false) => decode_tile(tile.kind, body, colors),
            _ => None,
        };
        match img {
            Some(img) => valid.push((tile, s.bytes, img)),
            None => {
                s.wrong = true;
                eprintln!(
                    "perfbench: wrong tile {}: degraded={}, {} body bytes",
                    tile.path(DATASET),
                    s.degraded,
                    s.bytes
                );
            }
        }
    }
    valid
}

/// The first [`CHECK_PER_ZOOM`] tiles of each (kind, zoom) in `tiles`,
/// in order: every zoom served, pyramid levels and full index alike.
fn per_zoom<T>(tiles: impl IntoIterator<Item = T>, tile: impl Fn(&T) -> Tile) -> Vec<T> {
    let mut seen: std::collections::HashMap<(Kind, u8), usize> = Default::default();
    tiles
        .into_iter()
        .filter(|t| {
            let t = tile(t);
            let n = seen.entry((t.kind, t.z)).or_default();
            *n += 1;
            *n <= CHECK_PER_ZOOM
        })
        .collect()
}

/// Reports the sizes of the [`per_zoom`] sample of `tiles` and compares
/// its τ masks with EXACT at `pixels` pixels.
fn check_sample<'a>(
    p: &mut Phase,
    tiles: impl IntoIterator<Item = (Tile, usize, &'a Image)>,
    fx: &Fixture,
    exact: &Exact,
    seed: u64,
    pixels: usize,
) {
    let mut rng = Rng::new(seed, 8);
    for (tile, bytes, img) in per_zoom(tiles, |t| t.0) {
        let seen = match tile.kind {
            Kind::Eps => &mut p.bytes_eps,
            Kind::Tau => &mut p.bytes_tau,
        };
        seen.push(bytes as f64);
        if tile.kind == Kind::Tau {
            let c = exact_check(exact, fx, tile, img, &mut rng, pixels);
            if c.violations > 0 {
                p.wrong += 1;
                eprintln!(
                    "perfbench: {}: {} of {} pixels disagree with EXACT",
                    tile.path(DATASET),
                    c.violations,
                    c.pixels
                );
            }
            p.checked.add(c);
        }
    }
}

/// Post-window write probe on the side dataset: the idle write path's
/// ack latency (HTTP, WAL append, group-commit fsync, invalidation).
fn ack_probe(addr: SocketAddr, fx: &Fixture, seed: u64) -> Vec<Sample> {
    let mut rng = Rng::new(seed, 7);
    let ((x0, x1), (y0, y1)) = fx.base.window();
    let reqs: Vec<Req> = (0..ACK_PROBE)
        .map(|_| {
            let p = [x0 + rng.f64() * (x1 - x0), y0 + rng.f64() * (y1 - y0), 1e-4];
            Req::Post(
                format!("/datasets/{SIDE}/points"),
                requests::append_body(&[p]),
            )
        })
        .collect();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(120);
    drive::closed_loop(addr, &reqs, CONNS, t0, deadline, false, &accept_all)
}

/// Traces each server retained (`--trace-ring`), newest first.
fn fetch_traces(traced: bool, addrs: &[SocketAddr]) -> Result<Vec<TraceRow>, String> {
    let mut rows = Vec::new();
    if !traced {
        return Ok(rows);
    }
    for &a in addrs {
        let resp =
            crate::client::get_once(a, "/debug/traces").map_err(|e| format!("traces {a}: {e}"))?;
        let doc = json::parse(&resp.text())?;
        for t in doc
            .get("traces")
            .and_then(json::Value::as_arr)
            .unwrap_or(&[])
        {
            let Some(id) = t.get("id").and_then(json::Value::as_str) else {
                continue;
            };
            let spans = t
                .get("spans")
                .and_then(json::Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|s| {
                    let name = s.get("name")?.as_str()?.to_string();
                    Some((name, s.get("dur_us")?.as_f64()?))
                })
                .collect();
            rows.push((id.to_string(), spans));
        }
    }
    Ok(rows)
}

fn scrape_if(traced: bool, addrs: &[SocketAddr]) -> Result<Vec<Scrape>, String> {
    if traced {
        scrape::scrape(addrs)
    } else {
        Ok(Vec::new())
    }
}

// ---------------------------------------------------------------- cold_sweep

fn cold_sweep(ctx: &Ctx) -> Result<Outcome, String> {
    let fx = fixture::build(&ctx.work.join("golden"), 1_000_000, true)?;
    let timed = (ctx.seconds * COLD_REF_RATE).ceil() as usize;
    let trace = requests::cold_sweep(ctx.seed, &fx.base, &fx.points, MAX_Z, timed + PAIRED_COLD);
    if trace.len() < timed + PAIRED_COLD {
        return Err(format!(
            "cold_sweep has {} distinct tiles, {} wanted",
            trace.len(),
            timed + PAIRED_COLD
        ));
    }
    let reqs: Vec<Req> = trace[..timed]
        .iter()
        .map(|t| Req::Get(t.path(DATASET)))
        .collect();
    let exact = Exact::new(&fx.points, fx.kernel.gamma);
    let phase = |traced: bool, setups: usize| -> Result<Phase, String> {
        let store = ctx.fresh_store(&fx, if traced { "traced" } else { "plain" })?;
        let flags = serve_flags(&fx, traced, true);
        let mut probe = Probe::new(CONNS);
        let (server, setups) = start(setups, &mut probe, || {
            procs::spawn_serve(&ctx.kdv, &store, &flags, &ctx.work)
        })?;
        let mut p = Phase {
            setups,
            probe: true,
            ..Phase::default()
        };
        let addrs = [server.addr];
        let before = scrape_if(traced, &addrs)?;
        let t0 = Instant::now();
        sliced(
            &mut p,
            &mut probe,
            |k| {
                let at = part(reqs.len(), k);
                let mut tiles = drive::closed_loop(
                    server.addr,
                    &reqs[at.clone()],
                    CONNS,
                    t0,
                    t0 + COLD_DEADLINE,
                    true,
                    &accept_all,
                );
                for s in &mut tiles {
                    s.index += at.start;
                }
                Ok((tiles, Vec::new()))
            },
            || Ok(()),
        )?;
        if p.tiles.len() < reqs.len() {
            return Err(format!(
                "cold_sweep served {} of its {} tiles within {COLD_DEADLINE:?}",
                p.tiles.len(),
                reqs.len()
            ));
        }
        let after = scrape_if(traced, &addrs)?;
        let traces = fetch_traces(traced, &addrs)?;
        let overhead = if traced {
            // Tiles past the timed trace are cold on both servers.
            let spare: Vec<String> = trace[timed..].iter().map(|t| t.path(DATASET)).collect();
            let twin_store = ctx.fresh_store(&fx, "twin")?;
            let twin = procs::spawn_serve(
                &ctx.kdv,
                &twin_store,
                &serve_flags(&fx, false, true),
                &ctx.work,
            )?;
            let pct = paired_overhead(server.addr, twin.addr, &spare)?;
            twin.stop()?;
            pct
        } else {
            0.0
        };
        if traced {
            p.writes = ack_probe(server.addr, &fx, ctx.seed);
        }
        let fin = scrape_if(traced, &addrs)?;
        p.rss_mb = server.peak_rss_mb();
        p.host_ms = probe.readings;
        server.stop()?;
        p.view = traced.then_some(View {
            before,
            after,
            fin,
            traces,
            overhead,
            router: None,
            proxy: None,
        });
        let valid = validate_tiles(&mut p, &|i| trace[i]);
        check_sample(
            &mut p,
            valid.iter().map(|(t, b, img)| (*t, *b, img)),
            &fx,
            &exact,
            ctx.seed,
            64,
        );
        Ok(p)
    };
    if !ctx.traced {
        return outcome(
            &phase(false, SETUPS)?,
            Metrics::new(),
            Checked::default(),
            None,
        );
    }
    let traced = phase(true, 1)?;
    let full: Vec<Tile> = trace[..timed]
        .iter()
        .filter(|t| t.z > PYRAMID_MAX_Z)
        .take(LAYER_SAMPLE)
        .copied()
        .collect();
    let mut m = Metrics::new();
    let inproc = in_process(ctx, &fx, &exact, &full, &mut m)?;
    traced_layers(&traced, &mut m);
    // The browse phase runs with `ingest_churn`'s traced run only.
    for key in BROWSE_KEYS.iter().chain(&BROWSE_OWN) {
        m.insert(format!("browse.{key}"), 0.0);
    }
    outcome(&traced, m, inproc, None)
}

/// The tracing tax, measured paired: `paths` sent alternately to a
/// traced server and its untraced twin (same store, same flags but
/// `--no-trace`), one connection each, so host drift hits both alike.
/// Returns `(traced p50 − untraced p50) / untraced p50` in percent.
fn paired_overhead(traced: SocketAddr, plain: SocketAddr, paths: &[String]) -> Result<f64, String> {
    let (mut a, mut b) = (Conn::new(traced), Conn::new(plain));
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for (k, path) in paths.iter().enumerate() {
        let time = |conn: &mut Conn| -> Result<f64, String> {
            let t = Instant::now();
            let resp = conn.get(path).map_err(|e| format!("{path}: {e}"))?;
            if resp.status != 200 {
                return Err(format!("{path}: status {}", resp.status));
            }
            Ok(t.elapsed().as_secs_f64())
        };
        if k % 2 == 0 {
            on.push(time(&mut a)?);
            off.push(time(&mut b)?);
        } else {
            off.push(time(&mut b)?);
            on.push(time(&mut a)?);
        }
    }
    let base = median(&off);
    Ok(if base > 0.0 {
        (median(&on) - base) / base * 100.0
    } else {
        0.0
    })
}

/// In-process replay and ablation on `sample` against the golden store.
fn in_process(
    ctx: &Ctx,
    fx: &Fixture,
    exact: &Exact,
    sample: &[Tile],
    m: &mut Metrics,
) -> Result<Checked, String> {
    let (idx, entry) = layers::open(&fx.store, m)?;
    let checked = layers::replay(fx, (idx, &entry), sample, exact, ctx.seed, m)?;
    layers::ablation(fx, &entry, &sample[..sample.len().div_ceil(2)], m)?;
    Ok(checked)
}

// -------------------------------------------------------------------- browse

/// Per-layer metrics of the traced `browse` phase, reported with a
/// `browse.` prefix: [`traced_layers`] names, then the phase's own.
const BROWSE_KEYS: [&str; 18] = [
    "server.queue_us_p99",
    "server.total_us_p99",
    "server.rejected",
    "server.render_count",
    "http.parse_us_p50",
    "http.write_us_p50",
    "cache.hit_ratio",
    "cache.lookup_us_p50",
    "telemetry.trace_overhead_pct",
    "stage.queue_us",
    "stage.parse_us",
    "stage.cache_us",
    "stage.catalog_us",
    "stage.ingest_us",
    "stage.render_us",
    "stage.encode_us",
    "stage.write_us",
    "stage.unattributed_share",
];
const BROWSE_OWN: [&str; 5] = [
    "tile_p50_ms",
    "tile_p99_ms",
    "tile_samples",
    "gen.late_ms_p99",
    "gen.valid",
];

/// The traced `browse` phase: zipf-popular tiles, warmed and confirmed
/// cached, offered at a fixed rate through `kdv cluster --shards 2` and
/// timed from their due times; then the router's added latency and the
/// tracing tax against an untraced twin cluster. Every timed answer must
/// be a hit byte-identical to the warmed tile.
fn browse(ctx: &Ctx, fx: &Fixture, exact: &Exact) -> Result<Phase, String> {
    let set = requests::overview(ctx.seed, BROWSE_MAX_Z);
    let n = (browse_rate() * BROWSE_SECONDS) as usize;
    let picks = requests::zipf_trace(ctx.seed, set.len(), n, ZIPF_S);
    let reqs: Vec<Req> = picks
        .iter()
        .map(|&i| Req::Get(set[i].path(DATASET)))
        .collect();
    let dues = drive::schedule(n, browse_rate());
    let store = ctx.fresh_store(fx, "browse")?;
    let router_flags = router_flags(fx);
    let shard_flags = serve_flags(fx, true, false);
    let server = procs::spawn_cluster(&ctx.kdv, &store, 2, &router_flags, &shard_flags, &ctx.work)?;
    let (refs, owner) = warm(server.addr, &set)?;
    let before = scrape::scrape(&server.shards)?;
    let router_before = scrape::scrape(&[server.addr])?;
    let judge = |i: usize, r: &crate::client::Response| {
        r.status == 200 && r.header("X-Kdv-Cache") == Some("hit") && r.body == refs[picks[i]]
    };
    let t0 = Instant::now();
    let tiles = drive::open_loop(server.addr, &reqs, &dues, CONNS, t0, false, &judge);
    let after = scrape::scrape(&server.shards)?;
    let router_after = scrape::scrape(&[server.addr])?;
    let traces = fetch_traces(true, &server.shards)?;
    let proxy = proxy_compare(server.addr, &server.shards, &set, &owner, &picks)?;
    let twin_store = ctx.fresh_store(fx, "browse-twin")?;
    let twin_flags = serve_flags(fx, false, false);
    let twin = procs::spawn_cluster(
        &ctx.kdv,
        &twin_store,
        2,
        &router_flags,
        &twin_flags,
        &ctx.work,
    )?;
    warm(twin.addr, &set)?;
    let paths: Vec<String> = picks
        .iter()
        .take(PAIRED_HOT)
        .map(|&i| set[i].path(DATASET))
        .collect();
    let overhead = paired_overhead(server.addr, twin.addr, &paths)?;
    twin.stop()?;
    let fin = scrape::scrape(&server.shards)?;
    server.stop()?;
    let router = router_before.into_iter().zip(router_after).next();
    let mut p = Phase {
        tiles,
        view: Some(View {
            before,
            after,
            fin,
            traces,
            overhead,
            router,
            proxy: Some(proxy),
        }),
        ..Phase::default()
    };
    // The warmed bodies are what every timed hit was compared with:
    // check their shape and τ masks.
    let colors = binary_colors();
    let mut valid = Vec::new();
    for (t, body) in set.iter().zip(&refs) {
        match decode_tile(t.kind, body, colors) {
            Some(img) => valid.push((*t, body.len(), img)),
            None => {
                p.wrong += 1;
                eprintln!("perfbench: warmed tile {t:?} is not a valid tile");
            }
        }
    }
    check_sample(
        &mut p,
        valid.iter().map(|(t, b, img)| (*t, *b, img)),
        fx,
        exact,
        ctx.seed,
        512,
    );
    Ok(p)
}

/// Adds the `browse` phase to `out`: its per-layer metrics as
/// `browse.*` and `cluster.*`, its requests and its failures.
fn browse_layers(p: &Phase, out: &mut Outcome) {
    let m = &mut out.metrics;
    let mut own = Metrics::new();
    traced_layers(p, &mut own);
    for key in BROWSE_KEYS {
        m.insert(format!("browse.{key}"), own[key]);
    }
    for (key, v) in own.into_iter().filter(|(k, _)| k.starts_with("cluster.")) {
        m.insert(key, v);
    }
    let lat: Vec<f64> = p.tiles.iter().map(Sample::latency_ms).collect();
    let late = gen_late(p).1;
    m.insert("browse.tile_p50_ms".into(), quantile(&lat, 0.5));
    m.insert("browse.tile_p99_ms".into(), quantile(&lat, 0.99));
    m.insert("browse.tile_samples".into(), lat.len() as f64);
    m.insert("browse.gen.late_ms_p99".into(), late);
    m.insert(
        "browse.gen.valid".into(),
        f64::from(u8::from(kept_schedule(p, Some(1.0 / browse_rate())))),
    );
    out.attempted += p.attempted();
    out.failed += p.failed();
    out.wrong += p.wrong();
    out.violations += p.checked.violations;
    out.labels.push(format!(
        "browse_samples={} (beyond p99: {:.0}) rate={}/s",
        lat.len(),
        lat.len() as f64 * 0.01,
        browse_rate()
    ));
}

/// Warmed tile bodies and the shard owning each tile.
type Warmed = (Vec<Vec<u8>>, Vec<Option<usize>>);

/// Renders every tile of `set` through `addr` once, then confirms each
/// is a stable cache hit, so every later request is a hit. Returns the
/// bodies and the owning shard of each tile (`X-Kdv-Shard`, cluster only).
fn warm(addr: SocketAddr, set: &[Tile]) -> Result<Warmed, String> {
    let mut conn = Conn::new(addr);
    let mut refs = Vec::with_capacity(set.len());
    let mut owner = Vec::with_capacity(set.len());
    for t in set {
        let resp = conn
            .get(&t.path(DATASET))
            .map_err(|e| format!("warm {t:?}: {e}"))?;
        if resp.status != 200 {
            return Err(format!("warm {t:?}: status {}", resp.status));
        }
        owner.push(resp.header("X-Kdv-Shard").and_then(|v| v.parse().ok()));
        refs.push(resp.body);
    }
    for (t, r) in set.iter().zip(&refs) {
        let resp = conn
            .get(&t.path(DATASET))
            .map_err(|e| format!("re-warm {t:?}: {e}"))?;
        if resp.header("X-Kdv-Cache") != Some("hit") || &resp.body != r {
            return Err(format!("{t:?} is not a stable cache hit after warming"));
        }
    }
    // Dropping the connection frees the server worker it pinned.
    Ok((refs, owner))
}

/// The router's added latency on cached tiles: the same requests sent
/// through the router and straight to the owning shard, alternately.
fn proxy_compare(
    router: SocketAddr,
    shards: &[SocketAddr],
    set: &[Tile],
    owner: &[Option<usize>],
    picks: &[usize],
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut via = Conn::new(router);
    let mut direct: Vec<Conn> = shards.iter().map(|&a| Conn::new(a)).collect();
    let (mut routed, mut straight) = (Vec::new(), Vec::new());
    for (k, &i) in picks.iter().take(1_000).enumerate() {
        let shard = owner[i]
            .filter(|&s| s < shards.len())
            .ok_or("tile without an owner shard")?;
        let path = set[i].path(DATASET);
        let time = |conn: &mut Conn| -> Result<f64, String> {
            let t = Instant::now();
            let resp = conn.get(&path).map_err(|e| e.to_string())?;
            if resp.status != 200 {
                return Err(format!("{path}: status {}", resp.status));
            }
            Ok(t.elapsed().as_secs_f64() * 1e6)
        };
        if k % 2 == 0 {
            routed.push(time(&mut via)?);
            straight.push(time(&mut direct[shard])?);
        } else {
            straight.push(time(&mut direct[shard])?);
            routed.push(time(&mut via)?);
        }
    }
    Ok((routed, straight))
}

// -------------------------------------------------------------- ingest_churn

/// Server flags for a churned store compacting every `compact_points`.
/// The memtable bound is far above that, so the writer never meets
/// backpressure.
fn churn_flags(fx: &Fixture, traced: bool, compact_points: f64) -> Vec<String> {
    let mut flags = serve_flags(fx, traced, true);
    flags.extend([
        "--compact-points".to_string(),
        (compact_points.round() as usize).to_string(),
        "--memtable-points".to_string(),
        "8192".to_string(),
    ]);
    flags
}

/// The churn hotspot: a seeded pick among the points of the densest z4
/// tile, where incidents concentrate. Any data point would do, but the
/// cost of the tiles around it would then follow the local density the
/// seed happened to pick.
fn hotspot(seed: u64, fx: &Fixture) -> [f64; 2] {
    let at = |i: usize| {
        let p = fx.points.point(i);
        [p[0], p[1]]
    };
    let mut count: std::collections::HashMap<(u32, u32), usize> = Default::default();
    for i in 0..fx.points.len() {
        *count
            .entry(requests::tile_of(&fx.base, at(i), 4))
            .or_default() += 1;
    }
    let densest = count
        .into_iter()
        .max_by_key(|&(tile, n)| (n, std::cmp::Reverse(tile)))
        .map(|(tile, _)| tile);
    let inside: Vec<usize> = (0..fx.points.len())
        .filter(|&i| Some(requests::tile_of(&fx.base, at(i), 4)) == densest)
        .collect();
    at(inside[Rng::new(seed, 5).below(inside.len())])
}

/// The router flags of every cluster.
fn router_flags(fx: &Fixture) -> Vec<String> {
    ["--tau".to_string(), fx.tau.to_string()]
        .into_iter()
        .chain(["--workers", "2", "--max-z", "6"].map(String::from))
        .collect()
}

fn ingest_churn(ctx: &Ctx) -> Result<Outcome, String> {
    let fx = fixture::build(&ctx.work.join("golden"), 20_000, false)?;
    let n_base = fx.points.len();
    let hotspot = hotspot(ctx.seed, &fx);
    // Inside: the 2×2 viewports around the hotspot at z4–z6, both
    // kinds. Outside: twice as many stratified data tiles at z4–z6 away
    // from it. A Gaussian kernel's support covers the whole map, so every
    // write invalidates every cached tile of the dataset and nearly
    // every read is a memtable-dirty render.
    let mut set: Vec<Tile> = Vec::new();
    for kind in [Kind::Tau, Kind::Eps] {
        for z in 4..=6u8 {
            let (hx, hy) = requests::tile_of(&fx.base, hotspot, z);
            for (dx, dy) in [(0i64, 0i64), (1, 0), (0, 1), (1, 1)] {
                let (x, y) = (hx as i64 + dx, hy as i64 + dy);
                if x < 1 << z && y < 1 << z {
                    set.push(Tile {
                        kind,
                        z,
                        x: x as u32,
                        y: y as u32,
                    });
                }
            }
        }
    }
    let inside = set.len();
    for t in requests::tile_set(ctx.seed, 6, &fx.base, &fx.points, 4..=MAX_Z, 400) {
        let (hx, hy) = requests::tile_of(&fx.base, hotspot, t.z);
        let far = (t.x as i64 - hx as i64).abs() > 1 || (t.y as i64 - hy as i64).abs() > 1;
        if far && set.len() < inside * 3 {
            set.push(t);
        }
    }
    // The reader cycles through the set in a seeded order, so the mix is
    // the same whatever the seed: each τ tile eight times per cycle, each
    // ε tile once. An ε delta render costs about three τ ones; the τ
    // weight keeps the reader above 1000 reads, 10 beyond p99, in a 40 s
    // window.
    let weighted: Vec<usize> = (0..set.len())
        .flat_map(|i| std::iter::repeat_n(i, if set[i].kind == Kind::Tau { 8 } else { 1 }))
        .collect();
    let order = requests::shuffled(ctx.seed, 10, weighted.len());
    let picks: Vec<usize> = order
        .iter()
        .map(|&j| weighted[j])
        .cycle()
        .take((ctx.seconds * 2_000.0) as usize)
        .collect();
    let reads: Vec<Req> = picks
        .iter()
        .map(|&i| Req::Get(set[i].path(DATASET)))
        .collect();
    let n_writes = (write_rate() * ctx.seconds) as usize;
    let compact_points = write_rate() * WRITE_BATCH as f64 * COMPACT_EVERY_S;
    let batches = requests::write_batches(
        ctx.seed,
        hotspot,
        0.002,
        1.0 / n_base as f64,
        n_writes,
        WRITE_BATCH,
    );
    let writes: Vec<Req> = batches
        .iter()
        .map(|b| {
            Req::Post(
                format!("/datasets/{DATASET}/points"),
                requests::append_body(b),
            )
        })
        .collect();
    let dues = drive::schedule(n_writes, write_rate());
    let base_exact = Exact::new(&fx.points, fx.kernel.gamma);
    let colors = binary_colors();

    let phase = |traced: bool, setups: usize| -> Result<Phase, String> {
        let store = ctx.fresh_store(&fx, if traced { "traced" } else { "plain" })?;
        let flags = churn_flags(&fx, traced, compact_points);
        let mut probe = Probe::new(CONNS);
        let (server, setups) = start(setups, &mut probe, || {
            procs::spawn_serve(&ctx.kdv, &store, &flags, &ctx.work)
        })?;
        let mut p = Phase {
            setups,
            ..Phase::default()
        };
        warm(server.addr, &set)?;
        let addrs = [server.addr];
        let before = scrape_if(traced, &addrs)?;
        let mut read_from = 0;
        // Each slice carries on the write schedule and the read order
        // where the previous one stopped; between slices the server
        // finishes any compaction before the host is probed. (A held
        // keep-alive connection pins a server worker, so none is kept.)
        sliced(
            &mut p,
            &mut probe,
            |k| {
                let w = part(writes.len(), k);
                let due: Vec<f64> = dues[w.clone()].iter().map(|d| d - dues[w.start]).collect();
                let t = Instant::now();
                let (mut written, mut tiles) = std::thread::scope(|s| {
                    let writer = s.spawn(|| {
                        drive::open_loop(
                            server.addr,
                            &writes[w.clone()],
                            &due,
                            1,
                            t,
                            false,
                            &accept_all,
                        )
                    });
                    let tiles = drive::closed_loop(
                        server.addr,
                        &reads[read_from..],
                        1,
                        t,
                        t + ctx.window() / SLICES as u32,
                        true,
                        &accept_all,
                    );
                    (writer.join().expect("writer thread"), tiles)
                });
                for s in &mut written {
                    s.index += w.start;
                }
                for s in &mut tiles {
                    s.index += read_from;
                }
                read_from += tiles.len();
                Ok((tiles, written))
            },
            || settle(&mut Conn::new(server.addr)).map(drop),
        )?;
        let after = scrape_if(traced, &addrs)?;
        let traces = fetch_traces(traced, &addrs)?;
        // Writer stopped: let the last compaction land, then check that
        // every acknowledged point is live and the served masks match
        // EXACT over base + acknowledged appends.
        let acked: Vec<[f64; 3]> = p
            .writes
            .iter()
            .filter(|s| s.ok())
            .flat_map(|s| batches[s.index].iter().copied())
            .collect();
        let mut conn = Conn::new(server.addr);
        let live = settle(&mut conn)?;
        if live != (n_base + acked.len()) as u64 {
            p.wrong += 1;
            eprintln!(
                "perfbench: {live} live points, expected {}",
                n_base + acked.len()
            );
        }
        let mut exact = base_exact.clone();
        for a in &acked {
            exact.add(a[0], a[1], a[2]);
        }
        let mut fetched = Vec::new();
        for t in per_zoom(set.iter(), |t| **t) {
            let resp = conn
                .get(&t.path(DATASET))
                .map_err(|e| format!("check {t:?}: {e}"))?;
            match (resp.status == 200).then(|| decode_tile(t.kind, &resp.body, colors)) {
                Some(Some(img)) => fetched.push((*t, resp.body.len(), img)),
                _ => {
                    p.wrong += 1;
                    eprintln!("perfbench: check tile {t:?} answered {}", resp.status);
                }
            }
        }
        check_sample(
            &mut p,
            fetched.iter().map(|(t, b, img)| (*t, *b, img)),
            &fx,
            &exact,
            ctx.seed,
            512,
        );
        drop(conn);
        let overhead = if traced {
            // With the writer stopped the tiles cache again: compare
            // cached reads against an untraced twin.
            let twin_store = ctx.fresh_store(&fx, "twin")?;
            let twin = procs::spawn_serve(
                &ctx.kdv,
                &twin_store,
                &serve_flags(&fx, false, true),
                &ctx.work,
            )?;
            warm(server.addr, &set)?;
            warm(twin.addr, &set)?;
            let paths: Vec<String> = picks
                .iter()
                .take(PAIRED_HOT)
                .map(|&i| set[i].path(DATASET))
                .collect();
            let pct = paired_overhead(server.addr, twin.addr, &paths)?;
            twin.stop()?;
            pct
        } else {
            0.0
        };
        let fin = scrape_if(traced, &addrs)?;
        p.rss_mb = server.peak_rss_mb();
        p.host_ms = probe.readings;
        server.stop()?;
        if traced {
            p.view = Some(View {
                before,
                after,
                fin,
                traces,
                overhead,
                router: None,
                proxy: None,
            });
        }
        // Under churn the masks move with every write: the reader's tiles
        // are checked for shape, the settled ones above against EXACT.
        validate_tiles(&mut p, &|i| set[picks[i]]);
        Ok(p)
    };
    let interval = Some(1.0 / write_rate());
    if !ctx.traced {
        return outcome(
            &phase(false, SETUPS)?,
            Metrics::new(),
            Checked::default(),
            interval,
        );
    }
    let traced = phase(true, 1)?;
    let mut m = Metrics::new();
    let sample: Vec<Tile> = set.iter().take(LAYER_SAMPLE).copied().collect();
    let inproc = in_process(ctx, &fx, &base_exact, &sample, &mut m)?;
    traced_layers(&traced, &mut m);
    let misses: Vec<f64> = traced
        .tiles
        .iter()
        .filter(|s| s.ok() && !s.hit)
        .map(Sample::latency_ms)
        .collect();
    m.insert("ingest.miss_tile_ms_p99".into(), quantile(&misses, 0.99));
    let browsed = browse(ctx, &fx, &base_exact)?;
    let mut out = outcome(&traced, m, inproc, interval)?;
    browse_layers(&browsed, &mut out);
    Ok(out)
}

/// Waits until no compaction is running, then returns the dataset's
/// live point count from `/datasets/{name}/stats`.
///
/// The count is read from a request made after one that reported no
/// compaction: a stats response that races a compaction's swap can pair
/// the old base with the new memtable, and then reports the flag
/// already cleared.
fn settle(conn: &mut Conn) -> Result<u64, String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut idle = false;
    loop {
        let resp = conn
            .get(&format!("/datasets/{DATASET}/stats"))
            .map_err(|e| format!("stats: {e}"))?;
        let doc = json::parse(&resp.text())?;
        let compacting = doc.get("ingest").and_then(|i| i.get("compacting"));
        if compacting == Some(&json::Value::Bool(true)) {
            idle = false;
        } else if idle {
            let live = doc.get("points_live").and_then(json::Value::as_f64);
            return live
                .map(|v| v as u64)
                .ok_or_else(|| "stats without points_live".into());
        } else {
            idle = true;
            continue;
        }
        if Instant::now() > deadline {
            return Err("compaction never finished".into());
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

// --------------------------------------------------------------- calibrate

/// Measures the capacities the traffic constants derive from, each a
/// closed loop for `--seconds` against a fresh untraced server: cold
/// tiles per second along the `cold_sweep` trace (2 connections), cached
/// `browse` tiles per second through the two-shard cluster (2
/// connections), and one writer's one-point acknowledgements per second
/// on the churn server. Returns `key=value` lines.
pub fn calibrate(ctx: &Ctx) -> Result<Vec<String>, String> {
    let until = |t0: Instant| t0 + ctx.window();
    let gets = |tiles: &mut dyn Iterator<Item = Tile>| -> Vec<Req> {
        tiles.map(|t| Req::Get(t.path(DATASET))).collect()
    };
    let big = fixture::build(&ctx.work.join("golden-1m"), 1_000_000, true)?;
    let cold = requests::cold_sweep(ctx.seed, &big.base, &big.points, MAX_Z, 20_000);
    let store = ctx.fresh_store(&big, "cold")?;
    let server = procs::spawn_serve(&ctx.kdv, &store, &serve_flags(&big, false, true), &ctx.work)?;
    let t0 = Instant::now();
    let reqs = gets(&mut cold.into_iter());
    let tiles = drive::closed_loop(server.addr, &reqs, CONNS, t0, until(t0), false, &accept_all);
    server.stop()?;
    drop(big);

    let fx = fixture::build(&ctx.work.join("golden-20k"), 20_000, false)?;
    let set = requests::overview(ctx.seed, BROWSE_MAX_Z);
    let picks = requests::zipf_trace(ctx.seed, set.len(), 1_000_000, ZIPF_S);
    let store = ctx.fresh_store(&fx, "browse")?;
    let flags = serve_flags(&fx, false, false);
    let cluster = procs::spawn_cluster(&ctx.kdv, &store, 2, &router_flags(&fx), &flags, &ctx.work)?;
    warm(cluster.addr, &set)?;
    let reqs = gets(&mut picks.iter().map(|&i| set[i]));
    let t0 = Instant::now();
    let hits = drive::closed_loop(
        cluster.addr,
        &reqs,
        CONNS,
        t0,
        until(t0),
        false,
        &accept_all,
    );
    cluster.stop()?;

    let store = ctx.fresh_store(&fx, "churn")?;
    let compact = write_rate() * COMPACT_EVERY_S;
    let server = procs::spawn_serve(
        &ctx.kdv,
        &store,
        &churn_flags(&fx, false, compact),
        &ctx.work,
    )?;
    let p = fx.points.point(0);
    let writes: Vec<Req> =
        requests::write_batches(ctx.seed, [p[0], p[1]], 0.002, 1e-9, 1_000_000, 1)
            .iter()
            .map(|b| {
                Req::Post(
                    format!("/datasets/{DATASET}/points"),
                    requests::append_body(b),
                )
            })
            .collect();
    let t0 = Instant::now();
    let acks = drive::closed_loop(server.addr, &writes, 1, t0, until(t0), false, &accept_all);
    server.stop()?;
    let failed = [&tiles, &hits, &acks]
        .iter()
        .map(|s| s.iter().filter(|s| !s.ok()).count())
        .sum::<usize>();
    Ok(vec![
        format!("cold_tiles_per_s={:.1}", rate(&tiles)),
        format!("browse_capacity_per_s={:.1}", rate(&hits)),
        format!("ack_capacity_per_s={:.1}", rate(&acks)),
        format!("failed_requests={failed}"),
    ])
}

// ----------------------------------------------------------------- metrics

/// The p50 and p99 of how late the generator itself sent its requests,
/// ms (0 for a closed loop).
fn gen_late(p: &Phase) -> (f64, f64) {
    let late: Vec<f64> = p
        .tiles
        .iter()
        .chain(&p.writes)
        .map(|s| s.gen_late * 1e3)
        .collect();
    (quantile(&late, 0.5), quantile(&late, 0.99))
}

/// Whether an open loop with schedule spacing `interval` (seconds) kept
/// its schedule: its median request was sent before the next one fell
/// due. A host stall makes single sends late by a few milliseconds (5 ms
/// at p99 seen on a busy 2-vCPU host), which moves single requests but
/// not the load offered; a generator whose typical send is a whole
/// interval late no longer offers the scheduled rate.
fn kept_schedule(p: &Phase, interval: Option<f64>) -> bool {
    interval.is_none_or(|dt| gen_late(p).0 < dt * 1e3)
}

/// End-to-end metrics (or, for a traced run, the per-layer labels and
/// health metrics added to `m`) and the result labels of one phase.
/// `interval` is an open loop's schedule spacing, seconds: an untraced
/// run whose generator did not keep its schedule is refused rather than
/// reported.
fn outcome(
    p: &Phase,
    mut m: Metrics,
    inproc: Checked,
    interval: Option<f64>,
) -> Result<Outcome, String> {
    let traced = p.view.is_some();
    let mut out = Outcome {
        attempted: p.attempted(),
        failed: p.failed(),
        wrong: p.wrong(),
        violations: p.checked.violations + inproc.violations,
        ..Outcome::default()
    };
    let lat: Vec<f64> = p.tiles.iter().map(Sample::latency_ms).collect();
    let adjusted: Vec<f64> = p.tiles.iter().map(Sample::adjusted_ms).collect();
    let ok = p.tiles.iter().filter(|s| s.ok()).count() as f64;
    let acks: Vec<f64> = p.writes.iter().map(Sample::latency_ms).collect();
    let all_bytes: Vec<f64> = p.bytes_eps.iter().chain(&p.bytes_tau).copied().collect();
    let (late_p50, late_p99) = gen_late(p);
    let on_schedule = kept_schedule(p, interval);
    if !traced && !on_schedule {
        return Err(format!(
            "the open-loop generator fell behind its schedule: median lateness {late_p50:.3} ms"
        ));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simd = kdv_geom::simd::simd_supported();
    if !traced {
        // Times at the reference host's speed (see `host`).
        m.insert("setup_s".into(), median(&p.setups));
        m.insert("tile_p50_ms".into(), quantile(&adjusted, 0.5));
        m.insert("tile_p99_ms".into(), quantile(&adjusted, 0.99));
        m.insert("tiles_per_s".into(), ok / p.busy_s);
        m.insert("bytes_per_tile".into(), mean(&all_bytes));
        m.insert("peak_rss_mb".into(), p.rss_mb);
    } else {
        m.insert("host.nproc".into(), cores as f64);
        m.insert("host.simd_lanes".into(), if simd { 4.0 } else { 1.0 });
        m.insert("host.single_core".into(), f64::from(u8::from(cores == 1)));
        m.insert("host.probe_ms".into(), median(&p.host_ms));
        m.insert("gen.late_ms_p99".into(), late_p99);
        m.insert("gen.valid".into(), f64::from(u8::from(on_schedule)));
        m.insert(
            "error_rate".into(),
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        m.insert("contract_violations".into(), out.violations as f64);
        m.insert("tile_samples".into(), p.tiles.len() as f64);
        m.insert("ingest.ack_p50_ms".into(), quantile(&acks, 0.5));
        m.insert("ingest.ack_p99_ms".into(), quantile(&acks, 0.99));
        m.insert("viz.png_bytes_eps".into(), mean(&p.bytes_eps));
        m.insert("viz.png_bytes_tau".into(), mean(&p.bytes_tau));
    }
    let tail = lat.len() as f64 * 0.01;
    let service: Vec<f64> = p
        .tiles
        .iter()
        .filter(|s| s.ok())
        .map(Sample::service_ms)
        .collect();
    out.labels = vec![
        format!("nproc={cores}"),
        format!("simd={}", if simd { "avx2" } else { "scalar" }),
        format!("single_core={}", if cores == 1 { "yes" } else { "no" }),
        format!("tile_samples={} (beyond p99: {tail:.0})", lat.len()),
        format!(
            "host_probe_ms median={:.1} min={:.1} max={:.1} (reference {})",
            median(&p.host_ms),
            quantile(&p.host_ms, 0.0),
            quantile(&p.host_ms, 1.0),
            host::REF_MS
        ),
        format!(
            "as measured: tile_p50_ms={:.3} tile_p99_ms={:.3} tiles_per_s={:.2}",
            quantile(&lat, 0.5),
            quantile(&lat, 0.99),
            ok / p.raw_busy_s
        ),
        format!(
            "tile_service_ms p50={:.3} p90={:.3} p99={:.3} p99.9={:.3} (send to done)",
            quantile(&service, 0.5),
            quantile(&service, 0.9),
            quantile(&service, 0.99),
            quantile(&service, 0.999)
        ),
        format!("ack_samples={}", acks.len()),
        format!("gen_late_ms p50={late_p50:.3} p99={late_p99:.3}"),
        format!(
            "gen_valid={}",
            match (interval, on_schedule) {
                (None, _) => "closed-loop",
                (Some(_), true) => "yes",
                (Some(_), false) => "NO: the generator fell behind schedule",
            }
        ),
        format!(
            "checked_pixels={} ties={}",
            p.checked.pixels + inproc.pixels,
            p.checked.ties
        ),
    ];
    out.metrics = m;
    Ok(out)
}

/// Successful requests per second over the whole window: from the first
/// send to the last reply.
fn rate(samples: &[Sample]) -> f64 {
    let start = samples.iter().map(|s| s.send).fold(f64::INFINITY, f64::min);
    let end = samples
        .iter()
        .map(|s| s.done)
        .fold(f64::NEG_INFINITY, f64::max);
    if end <= start || !end.is_finite() {
        return 0.0;
    }
    samples.iter().filter(|s| s.ok()).count() as f64 / (end - start)
}

/// Per-layer metrics read off the traced phase's scrapes and samples.
fn traced_layers(traced: &Phase, m: &mut Metrics) {
    let pyr: Vec<f64> = traced
        .tiles
        .iter()
        .filter(|s| s.ok() && !s.hit && s.level.as_deref().is_some_and(|l| l != "full"))
        .map(Sample::latency_ms)
        .collect();
    m.insert("pyramid.render_ms_p50".into(), quantile(&pyr, 0.5));
    m.insert("pyramid.render_ms_p99".into(), quantile(&pyr, 0.99));
    m.entry("ingest.miss_tile_ms_p99".into()).or_insert(0.0);

    let Some(v) = &traced.view else { return };
    m.insert("telemetry.trace_overhead_pct".into(), v.overhead);
    let (b, a) = (&v.before, &v.after);
    const STAGE: &str = "kdv_stage_duration_seconds";
    let stage = |s: &str| format!("stage=\"{s}\"");
    // Self time per stage, per request, over the window requests whose
    // server trace was retained (matched by trace ID, so health probes
    // and scrapes are excluded), and the share of their client-side
    // latency that no server stage accounts for.
    let probe: &[Sample] = if traced.probe { &[] } else { &traced.writes };
    let by_id: std::collections::HashMap<&str, &Sample> = traced
        .tiles
        .iter()
        .chain(probe)
        .filter_map(|s| Some((s.trace_id.as_deref()?, s)))
        .collect();
    let mut sums: std::collections::BTreeMap<&str, f64> =
        kdv_server::STAGES.iter().map(|s| (*s, 0.0)).collect();
    let (mut matched, mut client_us) = (0usize, 0.0);
    for (id, spans) in &v.traces {
        let Some(sample) = by_id.get(id.as_str()) else {
            continue;
        };
        matched += 1;
        client_us += sample.service_ms() * 1e3;
        for (name, dur) in spans {
            if let Some(sum) = sums.get_mut(name.as_str()) {
                *sum += dur;
            }
        }
    }
    for (s, sum) in &sums {
        m.insert(format!("stage.{s}_us"), sum / matched.max(1) as f64);
    }
    let server_us: f64 = sums.values().sum();
    m.insert(
        "stage.unattributed_share".into(),
        if client_us > 0.0 {
            1.0 - server_us / client_us
        } else {
            0.0
        },
    );
    let q = |name: &str, label: &str, q: f64| scrape::quantile_delta(b, a, name, label, q) * 1e6;
    m.insert(
        "server.queue_us_p99".into(),
        q(STAGE, &stage("queue"), 0.99),
    );
    m.insert(
        "server.total_us_p99".into(),
        q("kdv_request_duration_seconds", "", 0.99),
    );
    m.insert(
        "server.rejected".into(),
        scrape::delta(b, a, "kdv_http_responses_total", "class=\"rejected\""),
    );
    m.insert(
        "server.render_count".into(),
        scrape::delta(b, a, &format!("{STAGE}_count"), &stage("render")),
    );
    m.insert("http.parse_us_p50".into(), q(STAGE, &stage("parse"), 0.5));
    m.insert("http.write_us_p50".into(), q(STAGE, &stage("write"), 0.5));
    m.insert("cache.lookup_us_p50".into(), q(STAGE, &stage("cache"), 0.5));
    let hits = scrape::delta(b, a, "kdv_cache_hits_total", "");
    let misses = scrape::delta(b, a, "kdv_cache_misses_total", "");
    m.insert(
        "cache.hit_ratio".into(),
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    let renders = scrape::delta(b, a, "kdv_pyramid_renders_total", "");
    let full = scrape::delta(b, a, "kdv_pyramid_renders_total", "level=\"full\"");
    m.insert(
        "pyramid.level_share".into(),
        if renders > 0.0 {
            (renders - full) / renders
        } else {
            0.0
        },
    );
    m.insert(
        "pyramid.tau_fallback_pixels".into(),
        scrape::delta(b, a, "kdv_pyramid_tau_fallback_pixels_total", ""),
    );
    // Write-path totals over the server's life (all of it benchmark
    // traffic): the churn writer, or the ack probe.
    let total = |name: &str, label: &str| scrape::delta(&[], &v.fin, name, label);
    let records = total("kdv_ingest_records_total", "");
    let fsyncs = total("kdv_ingest_fsyncs_total", "");
    let points = total("kdv_ingest_points_total", "");
    m.insert(
        "store.wal_records_per_fsync".into(),
        if fsyncs > 0.0 { records / fsyncs } else { 0.0 },
    );
    m.insert(
        "store.wal_bytes_per_point".into(),
        if points > 0.0 {
            total("kdv_ingest_wal_bytes_total", "") / points
        } else {
            0.0
        },
    );
    m.insert(
        "ingest.compactions".into(),
        total("kdv_ingest_compactions_total", ""),
    );
    m.insert(
        "ingest.invalidated_tiles".into(),
        total("kdv_ingest_invalidated_tiles_total", ""),
    );
    m.insert(
        "ingest.rejected_backpressure".into(),
        total("kdv_ingest_rejections_total", "reason=\"backpressure\""),
    );
    let (retries, failovers) = match &v.router {
        Some((rb, ra)) => (
            ra.sum("kdv_router_retries_total", "") - rb.sum("kdv_router_retries_total", ""),
            ra.sum("kdv_router_failovers_total", "") - rb.sum("kdv_router_failovers_total", ""),
        ),
        None => (0.0, 0.0),
    };
    m.insert("cluster.upstream_retries".into(), retries);
    m.insert("cluster.failovers".into(), failovers);
    let (add50, add99) = match &v.proxy {
        Some((routed, direct)) => (
            quantile(routed, 0.5) - quantile(direct, 0.5),
            quantile(routed, 0.99) - quantile(direct, 0.99),
        ),
        None => (0.0, 0.0),
    };
    m.insert("cluster.proxy_added_us_p50".into(), add50);
    m.insert("cluster.proxy_added_us_p99".into(), add99);
}
