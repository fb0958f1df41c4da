//! Subcommand implementations.

use crate::args::Args;
use kdv_cluster::{Router, RouterConfig, Supervisor, SupervisorConfig};
use kdv_core::bandwidth::{try_scott_gamma_for, Bandwidth};
use kdv_core::bounds::BoundFamily;
use kdv_core::engine::{BudgetPolicy, RefineEvaluator, RenderBudget, TileEvaluator, TileRule};
use kdv_core::kernel::{Kernel, KernelType};
use kdv_core::query::{
    validate_eps, validate_gamma, validate_raster_dims, validate_tau, validate_threads,
};
use kdv_core::raster::RasterSpec;
use kdv_core::threshold::estimate_levels;
use kdv_data::{csv, sanitize, Dataset};
use kdv_geom::PointSet;
use kdv_index::KdTree;
use kdv_pyramid::{geometric_ladder, PyramidBuilder, PyramidConfig};
use kdv_sampling::{sample_size_for, zorder_sample};
use kdv_server::{ServerConfig, TileServer};
use kdv_store::{Snapshot, SnapshotWriter};
use kdv_telemetry::RenderMetrics;
use kdv_viz::colormap::ColorMap;
use kdv_viz::render::{render as render_raster, PixelOrder, RenderOpts};
use kdv_viz::tile_render::paint_tau_tile;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// SIGTERM-to-flag plumbing for the long-running serving commands
/// (`serve`, `router`, `cluster`): orchestrators (and the cluster
/// supervisor itself) stop services with SIGTERM and expect a drain,
/// not an abort. The handler only flips an atomic — every
/// async-signal-unsafe consequence (closing sockets, fsyncing WALs)
/// runs on the main thread's poll loop.
#[cfg(unix)]
mod term {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM: i32 = 15;
        // SAFETY: installing a handler that only stores to a static
        // atomic — async-signal-safe by construction.
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
        }
    }

    pub fn requested() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod term {
    pub fn install() {}

    pub fn requested() -> bool {
        false
    }
}

/// Loaded, weight-normalized input plus derived parameters.
struct Input {
    points: PointSet,
    kernel: Kernel,
    /// `None` when Scott's rule degenerates (zero spread on every
    /// axis); `--gamma` then becomes mandatory.
    bandwidth: Option<Bandwidth>,
}

fn kernel_type(name: &str) -> Result<KernelType, String> {
    Ok(match name {
        "gaussian" => KernelType::Gaussian,
        "triangular" => KernelType::Triangular,
        "cosine" => KernelType::Cosine,
        "exponential" => KernelType::Exponential,
        "epanechnikov" => KernelType::Epanechnikov,
        "quartic" => KernelType::Quartic,
        other => return Err(format!("unknown kernel {other:?}")),
    })
}

fn load_input(args: &Args) -> Result<Input, String> {
    let [path] = args.positional() else {
        return Err("expected exactly one input CSV path".into());
    };
    load_input_from(Path::new(path), args)
}

/// [`load_input`] with the CSV path supplied by the caller (the `index`
/// subcommands carry their own positional grammar).
fn load_input_from(path: &Path, args: &Args) -> Result<Input, String> {
    let has_weights = args.has("weights");
    let points = csv::load(path, 2, has_weights).map_err(|e| e.to_string())?;
    if points.is_empty() {
        return Err("input contains no points".into());
    }
    // The CSV parser already rejects non-finite fields; this re-check
    // guards every other path into `Input` (and future loaders).
    sanitize::validate(&points).map_err(|e| e.to_string())?;
    let ty = kernel_type(args.get("kernel").unwrap_or("gaussian"))?;
    let bandwidth = try_scott_gamma_for(&points, ty).ok();
    let gamma = match &bandwidth {
        Some(bw) => args.get_parsed("gamma", bw.gamma)?,
        // Scott degenerated (all points identical): the user must pick
        // the kernel scale, but everything downstream still works.
        None => match args.get("gamma") {
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --gamma: cannot parse {v:?}"))?,
            None => {
                return Err(
                    "dataset has zero spread on every axis, so Scott's rule cannot pick \
                     a bandwidth; pass --gamma to set the kernel scale explicitly"
                        .into(),
                )
            }
        },
    };
    validate_gamma(gamma).map_err(|e| e.to_string())?;
    let mut points = points;
    if !has_weights {
        let n = points.len() as f64;
        points.scale_weights(1.0 / n);
    }
    Ok(Input {
        points,
        kernel: Kernel::new(ty, gamma),
        bandwidth,
    })
}

fn raster_for(args: &Args, points: &PointSet) -> Result<RasterSpec, String> {
    let width = args.get_parsed("width", 640u32)?;
    let height = args.get_parsed("height", 480u32)?;
    validate_raster_dims(width, height).map_err(|e| e.to_string())?;
    RasterSpec::try_covering(points, width, height, 0.03).map_err(|e| e.to_string())
}

/// Render-budget flags shared by the εKDV render path. `None` when no
/// budget flag was given (the unbudgeted renderers run).
fn budget_from_args(args: &Args) -> Result<Option<RenderBudget>, String> {
    let max_work: Option<u64> = match args.get("max-work") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("flag --max-work: cannot parse {v:?}"))?,
        ),
        None => None,
    };
    let deadline_ms: Option<u64> = match args.get("deadline-ms") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("flag --deadline-ms: cannot parse {v:?}"))?,
        ),
        None => None,
    };
    if max_work == Some(0) {
        return Err("--max-work must be positive".into());
    }
    if deadline_ms == Some(0) {
        return Err("--deadline-ms must be positive".into());
    }
    if max_work.is_none() && deadline_ms.is_none() {
        return Ok(None);
    }
    let mut budget = RenderBudget::unlimited();
    if let Some(units) = max_work {
        budget = budget.with_max_work(units);
    }
    if let Some(ms) = deadline_ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    Ok(Some(budget))
}

fn out_path(args: &Args, default: &str) -> PathBuf {
    PathBuf::from(args.get("out").unwrap_or(default))
}

/// Writes an image as PNG or PPM depending on the path extension.
fn save_image(img: &kdv_viz::RgbImage, path: &Path) -> Result<(), String> {
    let is_png = path
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("png"));
    if is_png {
        kdv_viz::png::save_png(img, path).map_err(|e| e.to_string())
    } else {
        img.save_ppm(path).map_err(|e| e.to_string())
    }
}

/// Telemetry-related flags shared by the rendering subcommands.
struct Telemetry {
    metrics_path: Option<PathBuf>,
    cost_map_path: Option<PathBuf>,
    verbose: bool,
}

impl Telemetry {
    fn from_args(args: &Args) -> Self {
        Self {
            metrics_path: args.get("metrics").map(PathBuf::from),
            cost_map_path: args.get("cost-map").map(PathBuf::from),
            verbose: args.has("verbose"),
        }
    }

    /// Whether any flag asks for the instrumented render path.
    fn wanted(&self) -> bool {
        self.metrics_path.is_some() || self.cost_map_path.is_some() || self.verbose
    }

    /// Metrics sized for the raster, with a cost map iff one will be
    /// written.
    fn new_metrics(&self, raster: &RasterSpec) -> RenderMetrics {
        if self.cost_map_path.is_some() {
            RenderMetrics::with_cost_map(raster.width(), raster.height())
        } else {
            RenderMetrics::new()
        }
    }

    /// Writes the JSON document / cost-map image / summary line.
    fn emit(&self, metrics: &RenderMetrics, query: &str) -> Result<(), String> {
        if let Some(path) = &self.metrics_path {
            std::fs::write(path, metrics.to_json(query).render())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("metrics → {}", path.display());
        }
        if let Some(path) = &self.cost_map_path {
            let map = metrics
                .cost_map()
                .expect("cost map was requested at construction");
            save_image(&ColorMap::heat().render(map, true), path)?;
            println!("cost map → {}", path.display());
        }
        if self.verbose {
            println!("{}", metrics.summary());
        }
        Ok(())
    }
}

/// `kdv render` — εKDV heat map.
pub fn render(args: &Args) -> Result<(), String> {
    if args.has("help") {
        println!(
            "kdv render <points.csv> [--out map.ppm] [--eps 0.01] [--width 640] [--height 480]\n\
             \x20          [--kernel gaussian|triangular|cosine|exponential|epanechnikov|quartic]\n\
             \x20          [--gamma G] [--weights] [--grayscale] [--threads 1]\n\
             \x20          [--max-work UNITS] [--deadline-ms MS] [--error-map err.ppm]\n\
             \x20          [--metrics m.json] [--cost-map cost.ppm] [--verbose]"
        );
        return Ok(());
    }
    let input = load_input(args)?;
    let eps: f64 = args.get_parsed("eps", 0.01)?;
    validate_eps(eps).map_err(|e| e.to_string())?;
    let threads = args.get_parsed("threads", 1usize)?;
    validate_threads(threads).map_err(|e| e.to_string())?;
    let error_map_path = args.get("error-map").map(PathBuf::from);
    let telemetry = Telemetry::from_args(args);
    let raster = raster_for(args, &input.points)?;
    let tree = KdTree::try_build_default(&input.points).map_err(|e| e.to_string())?;
    let make_ev = || RefineEvaluator::new(&tree, input.kernel, BoundFamily::Quadratic);
    let t0 = Instant::now();
    let mut metrics = telemetry.new_metrics(&raster);
    // A deadline starts ticking here, after parsing and indexing: the
    // budget governs rendering work, not input preparation.
    let budget = budget_from_args(args)?;
    if budget.is_none() && error_map_path.is_some() {
        return Err("--error-map needs a budget (--max-work or --deadline-ms); \
             an unbudgeted render's certified error is ε everywhere"
            .into());
    }
    let mut budget = budget.unwrap_or_default();
    let opts = RenderOpts {
        threads,
        order: PixelOrder::RowMajor,
        metrics: telemetry.wanted().then_some(&mut metrics),
    };
    let out = render_raster(make_ev, &raster, TileRule::Rel(eps), &mut budget, opts)
        .map_err(|e| e.to_string())?;
    let degraded = out.degraded();
    if degraded > 0 {
        println!(
            "budget exhausted after {} work units: {degraded} of {} pixels are \
             best-effort midpoints (see --error-map for certified bounds)",
            budget.work_done(),
            raster.num_pixels()
        );
    }
    if let Some(path) = &error_map_path {
        save_image(&ColorMap::heat().render(&out.error_map(), true), path)?;
        println!("error map → {}", path.display());
    }
    let grid = out.grid();
    let elapsed = t0.elapsed();
    let cm = if args.has("grayscale") {
        ColorMap::grayscale()
    } else {
        ColorMap::heat()
    };
    let out = out_path(args, "map.ppm");
    save_image(&cm.render(&grid, true), &out)?;
    let (lo, hi) = grid.min_max().unwrap_or((0.0, 0.0));
    println!(
        "rendered {}x{} εKDV (ε = {eps}) over {} points in {elapsed:.2?}\n\
         density ∈ [{lo:.3e}, {hi:.3e}] → {}",
        raster.width(),
        raster.height(),
        input.points.len(),
        out.display()
    );
    telemetry.emit(&metrics, "eps")?;
    Ok(())
}

/// `kdv hotspot` — τKDV two-color map.
pub fn hotspot(args: &Args) -> Result<(), String> {
    if args.has("help") {
        println!(
            "kdv hotspot <points.csv> [--out hot.ppm] [--tau T | --tau-sigma K]\n\
             \x20           [--width 640] [--height 480] [--kernel ...] [--gamma G] [--weights]\n\
             \x20           [--metrics m.json] [--cost-map cost.ppm] [--verbose]"
        );
        return Ok(());
    }
    let input = load_input(args)?;
    let telemetry = Telemetry::from_args(args);
    let raster = raster_for(args, &input.points)?;
    let tree = KdTree::try_build_default(&input.points).map_err(|e| e.to_string())?;
    let tau = match args.get("tau") {
        Some(v) => {
            let tau = v
                .parse::<f64>()
                .map_err(|_| format!("--tau: cannot parse {v:?}"))?;
            validate_tau(tau).map_err(|e| e.to_string())?
        }
        None => {
            let k = args.get_parsed("tau-sigma", 0.1)?;
            let levels = estimate_levels(&tree, input.kernel, &raster, 48, 36);
            println!(
                "pixel densities: µ = {:.4e}, σ = {:.4e} → τ = µ + {k}σ = {:.4e}",
                levels.mu,
                levels.sigma,
                levels.tau(k)
            );
            levels.tau(k)
        }
    };
    let t0 = Instant::now();
    // The whole raster is one tile of the batched engine: blocks whose
    // bracket clears τ are decided wholesale, the rest per pixel — the
    // same exact classification as a per-pixel render, in less work.
    let mut tev = TileEvaluator::new(&tree, input.kernel, BoundFamily::Quadratic);
    let mut metrics = telemetry.new_metrics(&raster);
    let tile = tev.eval_tile_with(
        &raster,
        TileRule::Tau(tau),
        &[],
        &mut RenderBudget::unlimited(),
        &mut metrics.events,
    );
    let mask = tile.classify(tau);
    let hot = mask.taus.iter().filter(|t| t.hot).count();
    let image = paint_tau_tile(&raster, &mask, &mut metrics).image;
    metrics.set_wall_ns(t0.elapsed().as_nanos() as u64);
    if telemetry.wanted() {
        telemetry.emit(&metrics, "tau")?;
    }
    let elapsed = t0.elapsed();
    let out = out_path(args, "hotspot.ppm");
    save_image(&image, &out)?;
    println!(
        "τKDV in {elapsed:.2?}: {hot} of {} pixels hot → {}",
        raster.num_pixels(),
        out.display()
    );
    Ok(())
}

/// `kdv progressive` — §6 time-budgeted render.
pub fn progressive(args: &Args) -> Result<(), String> {
    if args.has("help") {
        println!(
            "kdv progressive <points.csv> [--out quick.ppm] [--budget-ms 500] [--eps 0.01]\n\
             \x20               [--width 640] [--height 480] [--kernel ...] [--weights]\n\
             \x20               [--metrics m.json] [--cost-map cost.ppm] [--verbose]"
        );
        return Ok(());
    }
    let input = load_input(args)?;
    let eps: f64 = args.get_parsed("eps", 0.01)?;
    validate_eps(eps).map_err(|e| e.to_string())?;
    let budget_ms = args.get_parsed("budget-ms", 500u64)?;
    let telemetry = Telemetry::from_args(args);
    let raster = raster_for(args, &input.points)?;
    let tree = KdTree::try_build_default(&input.points).map_err(|e| e.to_string())?;
    let make_ev = || RefineEvaluator::new(&tree, input.kernel, BoundFamily::Quadratic);
    let mut metrics = telemetry.new_metrics(&raster);
    let mut budget = RenderBudget::unlimited().with_deadline(Duration::from_millis(budget_ms));
    let opts = RenderOpts {
        threads: 1,
        order: PixelOrder::Progressive,
        metrics: telemetry.wanted().then_some(&mut metrics),
    };
    let out = render_raster(make_ev, &raster, TileRule::Rel(eps), &mut budget, opts)
        .map_err(|e| e.to_string())?;
    if telemetry.wanted() {
        telemetry.emit(&metrics, "progressive")?;
    }
    let path = out_path(args, "progressive.ppm");
    save_image(&ColorMap::heat().render(&out.grid(), true), &path)?;
    println!(
        "progressive render: {} of {} pixels in ≤ {budget_ms} ms ({}) → {}",
        out.evaluated,
        raster.num_pixels(),
        if out.is_complete() {
            "complete"
        } else {
            "partial, fully painted"
        },
        path.display()
    );
    Ok(())
}

/// `kdv serve` — HTTP tile server over the dataset (or, with
/// `--store`, over a whole catalog of snapshot-backed datasets).
pub fn serve(args: &Args) -> Result<(), String> {
    if args.has("help") {
        println!(
            "kdv serve <points.csv> [--addr 127.0.0.1:8080] [--tile-size 256] [--max-z 5]\n\
             \x20         [--pyramid-max-z 4]\n\
             \x20         [--eps 0.05] [--tau T | --tau-sigma K] [--kernel ...] [--gamma G]\n\
             \x20         [--weights] [--workers 4] [--queue 64] [--cache-mb 64]\n\
             \x20         [--cache-shards 8] [--tile-max-work UNITS] [--tile-deadline-ms MS]\n\
             \x20         [--no-trace] [--no-simd]\n\
             \x20         [--trace-ring 128] [--slow-ms 100]\n\
             \x20         [--access-log PATH|-] [--allow-shutdown] [--debug-sleep]\n\
             \x20         [--port-file PATH]\n\
             kdv serve --store <dir> [--store-budget-mb MB] [--tau T] [--preload]\n\
             \x20         [--fsync every|batch] [--memtable-points N] [--compact-points N]\n\
             \x20         [--ingest-max-kb KB] [same serving flags]\n\
             \n\
             Serves GET /tiles/{{eps|tau}}/{{z}}/{{x}}/{{y}}.png, /metrics (JSON, or\n\
             Prometheus text with ?format=prometheus), /healthz, /readyz, and — while\n\
             tracing is on (the default) — /debug/traces and /debug/slow. Every\n\
             response echoes its X-Kdv-Trace-Id; requests at or over --slow-ms are\n\
             retained preferentially. --access-log writes one JSON line per request\n\
             (per-stage latency included) to PATH, or stdout with `-`.\n\
             With --store: scans <dir> for {{name}}.kdvs snapshots (built by `kdv index\n\
             build`) and {{name}}.csv fallbacks, serves them under\n\
             /tiles/{{name}}/{{eps|tau}}/…, loading each dataset lazily on first touch\n\
             (--preload materializes all of them in the background; /readyz answers\n\
             503 until the sweep finishes).\n\
             Budget-degraded tiles answer 200 with an X-Kdv-Degraded header; a full\n\
             accept queue answers 429 with Retry-After. --port-file writes the bound\n\
             address once the listener is live (supervisors discover `--addr :0`\n\
             ports this way). SIGTERM drains: in-flight requests finish, WALs fsync,\n\
             then the process exits 0.\n\
             Snapshot-backed datasets accept durable writes: POST\n\
             /datasets/{{name}}/points with {{\"append\": [[x,y,w],…], \"remove\":\n\
             [[x,y],…]}} acks only after the WAL record is durable under --fsync\n\
             (every: fsync per write; batch: group commit). GET /datasets/{{name}}/stats\n\
             reports the WAL/memtable watermarks."
        );
        return Ok(());
    }
    let store_dir = args.get("store").map(PathBuf::from);
    let input = match &store_dir {
        Some(_) => {
            if !args.positional().is_empty() {
                return Err("--store serves a directory; drop the CSV argument".into());
            }
            None
        }
        None => {
            let load_started = Instant::now();
            let input = load_input(args)?;
            Some((input, load_started.elapsed().as_millis() as u64))
        }
    };
    let eps: f64 = args.get_parsed("eps", 0.05)?;
    validate_eps(eps).map_err(|e| e.to_string())?;
    let tile_size = args.get_parsed("tile-size", 256u32)?;
    let max_z = args.get_parsed("max-z", 5u8)?;
    let pyramid_max_z = args.get_parsed("pyramid-max-z", 4u8)?;
    let workers = args.get_parsed("workers", 4usize)?;
    let queue = args.get_parsed("queue", 64usize)?;
    let cache_mb = args.get_parsed("cache-mb", 64usize)?;
    let cache_shards = args.get_parsed("cache-shards", 8usize)?;
    let store_budget_mb = args.get_parsed("store-budget-mb", 0u64)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080").to_string();
    let fsync = match args.get("fsync").unwrap_or("every") {
        "every" => kdv_store::FsyncPolicy::Every,
        "batch" => kdv_store::FsyncPolicy::Batch,
        other => return Err(format!("--fsync must be 'every' or 'batch', got {other:?}")),
    };
    let memtable_points = args.get_parsed("memtable-points", 8192usize)?;
    let compact_points = args.get_parsed("compact-points", 2048usize)?;
    let ingest_max_kb = args.get_parsed("ingest-max-kb", 1024u64)?;

    let tau = match args.get("tau") {
        Some(v) => {
            let tau = v
                .parse::<f64>()
                .map_err(|_| format!("--tau: cannot parse {v:?}"))?;
            validate_tau(tau).map_err(|e| e.to_string())?
        }
        None => match &input {
            Some((input, _)) => {
                let k = args.get_parsed("tau-sigma", 0.1)?;
                let tree = KdTree::try_build_default(&input.points).map_err(|e| e.to_string())?;
                let raster = RasterSpec::try_covering(&input.points, tile_size, tile_size, 0.05)
                    .map_err(|e| e.to_string())?;
                let levels = estimate_levels(&tree, input.kernel, &raster, 48, 36);
                println!(
                    "pixel densities: µ = {:.4e}, σ = {:.4e} → τ = µ + {k}σ = {:.4e}",
                    levels.mu,
                    levels.sigma,
                    levels.tau(k)
                );
                levels.tau(k)
            }
            // No dataset is loaded at boot in store mode, so there is
            // nothing to calibrate τ against; require an explicit
            // level rather than estimating from whichever dataset
            // happens to be touched first.
            None => return Err("--store requires an explicit --tau level".into()),
        },
    };

    let mut policy = BudgetPolicy::unlimited();
    if let Some(v) = args.get("tile-max-work") {
        let units: u64 = v
            .parse()
            .map_err(|_| format!("flag --tile-max-work: cannot parse {v:?}"))?;
        if units == 0 {
            return Err("--tile-max-work must be positive".into());
        }
        policy = policy.with_max_work(units);
    }
    if let Some(v) = args.get("tile-deadline-ms") {
        let ms: u64 = v
            .parse()
            .map_err(|_| format!("flag --tile-deadline-ms: cannot parse {v:?}"))?;
        if ms == 0 {
            return Err("--tile-deadline-ms must be positive".into());
        }
        policy = policy.with_deadline(Duration::from_millis(ms));
    }

    let config = ServerConfig {
        addr,
        tile_size,
        max_z,
        pyramid_max_z,
        eps,
        tau,
        workers,
        queue,
        cache_bytes: cache_mb << 20,
        cache_shards,
        policy,
        allow_shutdown: args.has("allow-shutdown"),
        debug_sleep: args.has("debug-sleep"),
        data_load_ms: input.as_ref().map_or(0, |(_, ms)| *ms),
        store_budget_bytes: store_budget_mb << 20,
        trace: !args.has("no-trace"),
        trace_ring: args.get_parsed("trace-ring", 128usize)?,
        slow_ms: args.get_parsed("slow-ms", 100u64)?,
        access_log: args.get("access-log").map(str::to_string),
        preload: args.has("preload"),
        fsync,
        ingest_max_body: ingest_max_kb << 10,
        memtable_points,
        compact_points,
        simd: !args.has("no-simd"),
    };
    if config.preload && store_dir.is_none() {
        return Err("--preload only applies to --store serving".into());
    }
    let trace_on = config.trace || config.access_log.is_some();
    let slow_ms = config.slow_ms;
    let server = match (&store_dir, &input) {
        (Some(dir), _) => TileServer::start_with_store(config, dir),
        (None, Some((input, _))) => TileServer::start(config, &input.points, input.kernel),
        (None, None) => unreachable!("one of --store and the CSV path is always present"),
    }
    .map_err(|e| e.to_string())?;
    let bound = server.local_addr();
    match (&store_dir, &input) {
        (Some(dir), _) => {
            let names = server.dataset_names();
            println!(
                "serving {} dataset(s) from {}: ε = {eps}, τ = {tau:.4e}, {tile_size}px tiles \
                 to z ≤ {max_z}, {workers} workers, queue {queue}, cache {cache_mb} MiB",
                names.len(),
                dir.display()
            );
            println!("  datasets: {}", names.join(", "));
            println!(
                "  tiles:    http://{bound}/tiles/{}/eps/0/0/0.png   (kinds: eps, tau)",
                names.first().map(String::as_str).unwrap_or("{dataset}")
            );
        }
        (None, Some((input, _))) => {
            println!(
                "serving {} points: ε = {eps}, τ = {tau:.4e}, {tile_size}px tiles to z ≤ {max_z}, \
                 {workers} workers, queue {queue}, cache {cache_mb} MiB",
                input.points.len()
            );
            println!("  tiles:   http://{bound}/tiles/eps/0/0/0.png   (kinds: eps, tau)");
        }
        (None, None) => unreachable!(),
    }
    let su = server.startup();
    println!(
        "  startup: {} ms (data load {} ms, index {} ms, warm {} ms, source {})",
        su.total_ms, su.data_load_ms, su.index_ms, su.warm_ms, su.source
    );
    println!("  metrics: http://{bound}/metrics  (Prometheus: /metrics?format=prometheus)");
    if trace_on {
        println!("  traces:  http://{bound}/debug/traces  (slow ≥ {slow_ms} ms: /debug/slow)");
    }
    // The port file is how supervisors discover a `--addr 127.0.0.1:0`
    // shard's actual port; written only once the listener is live, so
    // the file's existence doubles as a readiness signal.
    if let Some(path) = args.get("port-file") {
        std::fs::write(path, format!("{bound}\n")).map_err(|e| format!("--port-file: {e}"))?;
    }
    term::install();
    loop {
        if term::requested() {
            // Graceful drain: stop accepting, finish in-flight
            // requests, fsync the WALs, then exit 0.
            server.stop();
            break;
        }
        if server.is_shutdown() {
            // `/shutdown` (when allowed) flips the same flag.
            server.join();
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("server stopped");
    Ok(())
}

/// The router flags `kdv router` and `kdv cluster` share.
fn router_config(args: &Args, shards: Vec<String>) -> Result<RouterConfig, String> {
    Ok(RouterConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:8090").to_string(),
        shards,
        workers: args.get_parsed("workers", 8usize)?,
        queue: args.get_parsed("queue", 128usize)?,
        max_inflight: args.get_parsed("max-inflight", 64usize)?,
        probe_ms: args.get_parsed("probe-ms", 250u64)?,
        max_z: args.get_parsed("max-z", 24u8)?,
        max_body: args.get_parsed("ingest-max-kb", 1024u64)? << 10,
    })
}

/// `kdv router` — the cluster tier's consistent-hash reverse proxy
/// over an externally managed set of shards.
pub fn router(args: &Args) -> Result<(), String> {
    if args.has("help") {
        println!(
            "kdv router --shards HOST:PORT,HOST:PORT,... [--addr 127.0.0.1:8090]\n\
             \x20         [--workers 8] [--queue 128] [--max-inflight 64]\n\
             \x20         [--probe-ms 250] [--max-z 24] [--ingest-max-kb 1024]\n\
             \n\
             Fronts N `kdv serve` shards: routes each tile to its rendezvous-hash\n\
             owner (per-shard cache partitioning), probes /readyz, retries a dead\n\
             shard's tiles once on the hash ring's runner-up (X-Kdv-Failover), and\n\
             pins ingest-mutable datasets wholly to their owner shard. /metrics\n\
             merges every shard's document plus a summed rollup\n\
             (schema kdv-cluster-metrics/1; Prometheus with ?format=prometheus).\n\
             Shard order is identity: keep the --shards list stable across router\n\
             restarts or tile ownership reshuffles."
        );
        return Ok(());
    }
    let shards: Vec<String> = args
        .require::<String>("shards")?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if shards.is_empty() {
        return Err("--shards needs at least one HOST:PORT".into());
    }
    let config = router_config(args, shards)?;
    let n = config.shards.len();
    let router = Router::start(config).map_err(|e| e.to_string())?;
    let bound = router.local_addr();
    println!("routing {n} shard(s) at http://{bound}/  (metrics: /metrics)");
    term::install();
    while !term::requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    router.stop();
    println!("router stopped");
    Ok(())
}

/// `kdv cluster` — one-command scale-out: spawn N shard processes
/// over a shared store, babysit them, and front them with a router.
pub fn cluster(args: &Args) -> Result<(), String> {
    if args.has("help") {
        println!(
            "kdv cluster --shards N --store <dir> --tau T [--addr 127.0.0.1:8090]\n\
             \x20          [--port-dir DIR] [--workers 8] [--queue 128]\n\
             \x20          [--max-inflight 64] [--probe-ms 250] [--ingest-max-kb 1024]\n\
             \x20          [--shard-flags \"...\"]\n\
             \n\
             Spawns N `kdv serve --store <dir>` shard processes on loopback, then a\n\
             router in this process. Crashed shards respawn automatically (same ring\n\
             index, so tile ownership never moves); SIGTERM drains the whole fleet.\n\
             --shard-flags passes extra space-separated flags to every shard, e.g.:\n\
             \x20 kdv cluster --shards 4 --store data/ --tau 2e-4 \\\n\
             \x20             --shard-flags \"--cache-mb 128 --fsync batch\""
        );
        return Ok(());
    }
    let shards: usize = args.get_parsed("shards", 2usize)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let store: String = args.require("store")?;
    let tau: f64 = args.require("tau")?;
    validate_tau(tau).map_err(|e| e.to_string())?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate kdv binary: {e}"))?;
    let port_dir = match args.get("port-dir") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("kdv-cluster-{}", std::process::id())),
    };
    let mut shard_args = vec![
        "--store".to_string(),
        store.clone(),
        "--tau".to_string(),
        tau.to_string(),
    ];
    if let Some(extra) = args.get("shard-flags") {
        shard_args.extend(extra.split_whitespace().map(str::to_string));
    }

    let sup_config = SupervisorConfig {
        exe,
        shards,
        shard_args,
        port_dir,
    };
    // The router comes up after the shards (it needs their ports), but
    // the supervisor needs somewhere to publish respawned addresses
    // from day one — hence the shared slot.
    let router_slot: std::sync::Arc<std::sync::Mutex<Option<Router>>> =
        std::sync::Arc::new(std::sync::Mutex::new(None));
    let respawn_slot = std::sync::Arc::clone(&router_slot);
    let sup = Supervisor::start(
        sup_config,
        Box::new(move |shard, addr| {
            if let Some(router) = respawn_slot.lock().expect("router slot").as_ref() {
                router.set_shard_addr(shard, addr);
            }
        }),
    )
    .map_err(|e| e.to_string())?;
    let addrs = sup.addrs();
    println!("spawned {shards} shard(s): {}", addrs.join(", "));
    let router = match router_config(args, addrs)
        .and_then(|config| Router::start(config).map_err(|e| e.to_string()))
    {
        Ok(router) => router,
        Err(e) => {
            sup.stop();
            return Err(e);
        }
    };
    let bound = router.local_addr();
    *router_slot.lock().expect("router slot") = Some(router);
    println!("cluster at http://{bound}/  (merged metrics: /metrics)");
    term::install();
    while !term::requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    if let Some(router) = router_slot.lock().expect("router slot").take() {
        router.stop();
    }
    sup.stop();
    println!("cluster stopped");
    Ok(())
}

/// `kdv index` — build, inspect, and verify KDVS snapshots.
pub fn index(args: &Args) -> Result<(), String> {
    let help = || {
        println!(
            "kdv index build <points.csv> [--out points.kdvs] [--kernel ...] [--gamma G]\n\
             \x20          [--weights] [--coresets N1,N2,...] [--pyramid] [--pyramid-delta D]\n\
             kdv index inspect <file.kdvs>\n\
             kdv index verify <file.kdvs>\n\
             \n\
             build    serialize the kd-tree + QUAD moments to a KDVS snapshot;\n\
             \x20        --pyramid certifies a coreset ladder (geometric sizes, or\n\
             \x20        --coresets overrides) with per-level sampling bounds ε_s\n\
             inspect  print header, section table, metadata, and pyramid levels\n\
             verify   full load + deep re-validation of moments and topology"
        );
    };
    if args.has("help") {
        help();
        return Ok(());
    }
    match args.positional() {
        [sub, path] => {
            let path = Path::new(path);
            match sub.as_str() {
                "build" => index_build(args, path),
                "inspect" => index_inspect(path),
                "verify" => index_verify(path),
                other => Err(format!(
                    "unknown index subcommand {other:?} (want build, inspect, or verify)"
                )),
            }
        }
        _ => {
            help();
            Err("expected: kdv index <build|inspect|verify> <path>".into())
        }
    }
}

fn index_build(args: &Args, csv_path: &Path) -> Result<(), String> {
    let input = load_input_from(csv_path, args)?;
    let build_started = Instant::now();
    let tree = KdTree::try_build_default(&input.points).map_err(|e| e.to_string())?;
    let build_ms = build_started.elapsed().as_millis();

    let mut writer = SnapshotWriter::new(&tree, input.kernel);
    let sizes = match args.get("coresets") {
        Some(spec) => {
            let mut sizes = Vec::new();
            for part in spec.split(',') {
                let size: usize = part
                    .trim()
                    .parse()
                    .map_err(|_| format!("--coresets: cannot parse {part:?}"))?;
                if size == 0 || size > input.points.len() {
                    return Err(format!(
                        "--coresets: size {size} outside [1, {}]",
                        input.points.len()
                    ));
                }
                sizes.push(size);
            }
            Some(sizes)
        }
        None => None,
    };
    if args.has("pyramid") {
        // Certified ladder: sample, index, and *validate* each level
        // against the exact KDE before persisting its ε_s bound.
        let delta = args.get_parsed("pyramid-delta", 1e-6)?;
        if !(delta > 0.0 && delta < 1.0) {
            return Err("--pyramid-delta must be in (0, 1)".into());
        }
        let mut ladder = sizes.unwrap_or_else(|| geometric_ladder(input.points.len()));
        if ladder.is_empty() {
            return Err(format!(
                "--pyramid: {} points is too small for the default ladder \
                 (needs ≥ 4096); pass explicit sizes via --coresets",
                input.points.len()
            ));
        }
        ladder.sort_unstable();
        let config = PyramidConfig {
            sizes: ladder,
            delta,
            ..PyramidConfig::default()
        };
        let certify_started = Instant::now();
        let (pyramid, report) = PyramidBuilder::new(&tree, input.kernel)
            .with_config(config)
            .build()
            .map_err(|e| format!("--pyramid: {e}"))?;
        println!(
            "pyramid: {} level(s) certified in {} ms (δ = {delta:.1e})",
            pyramid.len(),
            certify_started.elapsed().as_millis()
        );
        for (i, lv) in report.levels.iter().enumerate() {
            println!(
                "  level {i}: {:>8} points  ε_s = {:.5} (hoeffding {:.5}, measured {:.5})",
                lv.size, lv.certified_eps, lv.hoeffding_eps, lv.measured_eps
            );
        }
        writer = writer.with_pyramid(
            pyramid
                .levels()
                .iter()
                .map(|lv| (lv.tree.points().clone(), lv.eps_s))
                .collect(),
        );
    } else if let Some(sizes) = sizes {
        let levels: Vec<_> = sizes
            .iter()
            .map(|&s| zorder_sample(tree.points(), s, 0.25))
            .collect();
        writer = writer.with_coresets(levels);
    }

    let out = match args.get("out") {
        Some(p) => PathBuf::from(p),
        None => csv_path.with_extension(kdv_store::EXTENSION),
    };
    let write_started = Instant::now();
    let bytes = writer.write_to(&out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} points, {} nodes, {bytes} bytes) — build {build_ms} ms, write {} ms",
        out.display(),
        input.points.len(),
        tree.num_nodes(),
        write_started.elapsed().as_millis()
    );
    Ok(())
}

fn index_inspect(path: &Path) -> Result<(), String> {
    let info = Snapshot::inspect(path).map_err(|e| e.to_string())?;
    println!("{}: KDVS version {}", path.display(), info.version);
    let mut flag_names = Vec::new();
    for (bit, name) in [
        (kdv_store::FLAG_CORESETS, "coresets"),
        (kdv_store::FLAG_INGEST, "ingest"),
        (kdv_store::FLAG_PYRAMID, "pyramid"),
    ] {
        if info.flags & bit != 0 {
            flag_names.push(name);
        }
    }
    println!(
        "  flags: {:#06x}{}",
        info.flags,
        if flag_names.is_empty() {
            String::new()
        } else {
            format!(" ({})", flag_names.join(", "))
        }
    );
    println!("  file length: {} bytes", info.file_len);
    println!("  sections:");
    for s in &info.sections {
        println!(
            "    {:4}  offset {:>10}  len {:>10}  crc32 {:#010x}",
            s.name, s.offset, s.len, s.crc
        );
    }
    let m = &info.meta;
    println!(
        "  dataset: {} points (dim {}), {} nodes, root {}, leaf capacity {}, split {:?}",
        m.point_count, m.dim, m.node_count, m.root, m.leaf_capacity, m.split
    );
    println!(
        "  kernel: {:?}, γ = {}, coreset levels: {}",
        m.kernel, m.gamma, m.coreset_levels
    );
    if m.coreset_levels > 0 {
        // Per-level detail lives in the CORE/PYRA payloads, so this
        // needs a full (checksummed) load, not just the header.
        let snap = Snapshot::open(path).map_err(|e| e.to_string())?;
        let d = snap.tree.points().dim() as u64;
        println!("  levels:");
        for (i, level) in snap.coresets.iter().enumerate() {
            let bytes = 8 + 8 * level.len() as u64 * (d + 1);
            let bound = match snap.level_bounds.get(i) {
                Some(eps_s) => format!("ε_s = {eps_s:.5} (certified)"),
                None => "uncertified".to_string(),
            };
            println!(
                "    level {i}: {:>8} points  {:>10} bytes  {bound}",
                level.len(),
                bytes
            );
        }
    }
    Ok(())
}

fn index_verify(path: &Path) -> Result<(), String> {
    let load_started = Instant::now();
    let snap = Snapshot::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let load_ms = load_started.elapsed().as_millis();
    let deep_started = Instant::now();
    snap.verify_deep()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{}: ok — {} points, {} nodes, {} coreset level(s){}; load {load_ms} ms, deep verify {} ms",
        path.display(),
        snap.meta.point_count,
        snap.meta.node_count,
        snap.coresets.len(),
        if snap.level_bounds.is_empty() {
            ""
        } else {
            " with certified pyramid bounds"
        },
        deep_started.elapsed().as_millis()
    );
    Ok(())
}

/// `kdv sample` — Z-order coreset.
pub fn sample(args: &Args) -> Result<(), String> {
    if args.has("help") {
        println!(
            "kdv sample <points.csv> [--out coreset.csv] [--eps 0.02] [--delta 0.2]\n\
             \x20          [--size N] [--weights]"
        );
        return Ok(());
    }
    let [path] = args.positional() else {
        return Err("expected exactly one input CSV path".into());
    };
    let has_weights = args.has("weights");
    let points = csv::load(Path::new(path), 2, has_weights).map_err(|e| e.to_string())?;
    if points.is_empty() {
        return Err("input contains no points".into());
    }
    let size = match args.get("size") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--size: cannot parse {v:?}"))?,
        None => {
            let eps = args.get_parsed("eps", 0.02)?;
            let delta = args.get_parsed("delta", 0.2)?;
            sample_size_for(eps, delta)
        }
    };
    let coreset = zorder_sample(&points, size, 0.5);
    let out = out_path(args, "coreset.csv");
    csv::save(&out, &coreset, true).map_err(|e| e.to_string())?;
    println!(
        "coreset: {} of {} points (weights rescaled) → {}",
        coreset.len(),
        points.len(),
        out.display()
    );
    Ok(())
}

/// `kdv stats` — dataset summary and recommended parameters.
pub fn stats(args: &Args) -> Result<(), String> {
    if args.has("help") {
        println!("kdv stats <points.csv> [--weights] [--kernel ...]");
        return Ok(());
    }
    let input = load_input(args)?;
    let ps = &input.points;
    let mbr = kdv_geom::Mbr::of_set(ps).expect("non-empty");
    let mean = ps.mean().expect("non-empty");
    let std = ps.std_dev().expect("non-empty");
    println!("points:        {}", ps.len());
    println!("total weight:  {:.6}", ps.total_weight());
    println!(
        "x:             [{:.6}, {:.6}]  mean {:.6}  σ {:.6}",
        mbr.lo()[0],
        mbr.hi()[0],
        mean[0],
        std[0]
    );
    println!(
        "y:             [{:.6}, {:.6}]  mean {:.6}  σ {:.6}",
        mbr.lo()[1],
        mbr.hi()[1],
        mean[1],
        std[1]
    );
    match input.bandwidth {
        Some(bw) => {
            println!("Scott h:       {:.6}", bw.h);
            println!(
                "recommended:   --kernel {} --gamma {:.6}",
                input.kernel.ty.name(),
                input.kernel.gamma
            );
        }
        None => println!("Scott h:       undefined (zero spread on every axis)"),
    }
    let tree = KdTree::build_default(ps);
    println!(
        "kd-tree:       {} nodes, {} leaves, depth {}",
        tree.num_nodes(),
        tree.num_leaves(),
        tree.depth()
    );
    Ok(())
}

/// `kdv synth` — emulated benchmark dataset.
pub fn synth(args: &Args) -> Result<(), String> {
    if args.has("help") {
        println!(
            "kdv synth --dataset elnino|crime|home|hep [--n 100000] [--seed 42] [--out data.csv]"
        );
        return Ok(());
    }
    let name: String = args.require("dataset")?;
    let ds = match name.as_str() {
        "elnino" | "el_nino" => Dataset::ElNino,
        "crime" => Dataset::Crime,
        "home" => Dataset::Home,
        "hep" => Dataset::Hep,
        other => return Err(format!("unknown dataset {other:?}")),
    };
    let n = args.get_parsed("n", 100_000usize)?;
    let seed = args.get_parsed("seed", 42u64)?;
    if n == 0 {
        return Err("--n must be positive".into());
    }
    let points = ds.generate(n, seed);
    let out = out_path(args, "data.csv");
    csv::save(&out, &points, false).map_err(|e| e.to_string())?;
    println!("wrote {} {} points → {}", n, ds.name(), out.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(items: &[&str]) -> Args {
        let raw: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        Args::parse(&raw).expect("parse")
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("kdv_cli_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    #[test]
    fn synth_then_render_roundtrip() {
        let csv_path = tmp("synth.csv");
        let map_path = tmp("synth.ppm");
        synth(&args(&[
            "--dataset",
            "crime",
            "--n",
            "800",
            "--out",
            csv_path.to_str().expect("utf8"),
        ]))
        .expect("synth");
        assert!(csv_path.exists());

        render(&args(&[
            csv_path.to_str().expect("utf8"),
            "--out",
            map_path.to_str().expect("utf8"),
            "--width",
            "32",
            "--height",
            "24",
            "--eps",
            "0.05",
        ]))
        .expect("render");
        let bytes = std::fs::read(&map_path).expect("read ppm");
        assert!(bytes.starts_with(b"P6\n32 24\n255\n"));

        // PNG output selected by extension.
        let png_path = tmp("synth.png");
        render(&args(&[
            csv_path.to_str().expect("utf8"),
            "--out",
            png_path.to_str().expect("utf8"),
            "--width",
            "16",
            "--height",
            "12",
            "--eps",
            "0.05",
        ]))
        .expect("render png");
        let bytes = std::fs::read(&png_path).expect("read png");
        assert!(bytes.starts_with(b"\x89PNG\r\n\x1a\n"));
    }

    #[test]
    fn hotspot_and_progressive_and_sample_and_stats() {
        let csv_path = tmp("all.csv");
        synth(&args(&[
            "--dataset",
            "home",
            "--n",
            "600",
            "--out",
            csv_path.to_str().expect("utf8"),
        ]))
        .expect("synth");
        let p = csv_path.to_str().expect("utf8");

        let hot = tmp("hot.ppm");
        hotspot(&args(&[
            p,
            "--out",
            hot.to_str().expect("utf8"),
            "--width",
            "16",
            "--height",
            "12",
            "--tau-sigma",
            "0.1",
        ]))
        .expect("hotspot");
        assert!(hot.exists());

        let prog = tmp("prog.ppm");
        progressive(&args(&[
            p,
            "--out",
            prog.to_str().expect("utf8"),
            "--width",
            "16",
            "--height",
            "12",
            "--budget-ms",
            "50",
        ]))
        .expect("progressive");
        assert!(prog.exists());

        let core = tmp("core.csv");
        sample(&args(&[
            p,
            "--out",
            core.to_str().expect("utf8"),
            "--size",
            "100",
        ]))
        .expect("sample");
        let coreset = csv::load(&core, 2, true).expect("load coreset");
        assert_eq!(coreset.len(), 100);
        assert!((coreset.total_weight() - 600.0).abs() < 1e-6);

        stats(&args(&[p])).expect("stats");
    }

    #[test]
    fn render_with_metrics_threads_and_cost_map() {
        let csv_path = tmp("metrics.csv");
        synth(&args(&[
            "--dataset",
            "crime",
            "--n",
            "700",
            "--out",
            csv_path.to_str().expect("utf8"),
        ]))
        .expect("synth");
        let p = csv_path.to_str().expect("utf8");

        let map = tmp("metrics_map.ppm");
        let metrics_json = tmp("metrics.json");
        let cost_map = tmp("metrics_cost.ppm");
        render(&args(&[
            p,
            "--out",
            map.to_str().expect("utf8"),
            "--width",
            "16",
            "--height",
            "12",
            "--eps",
            "0.05",
            "--threads",
            "2",
            "--metrics",
            metrics_json.to_str().expect("utf8"),
            "--cost-map",
            cost_map.to_str().expect("utf8"),
            "--verbose",
        ]))
        .expect("metered render");

        // The cost map is a PPM raster with the render's dimensions.
        let cost_bytes = std::fs::read(&cost_map).expect("read cost map");
        assert!(cost_bytes.starts_with(b"P6\n16 12\n255\n"));

        // The metrics document parses and carries the headline counters.
        let text = std::fs::read_to_string(&metrics_json).expect("read metrics");
        let doc = kdv_telemetry::json::parse(&text).expect("metrics JSON parses");
        use kdv_telemetry::json::Value;
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("kdv-metrics/1")
        );
        assert_eq!(doc.get("query").and_then(Value::as_str), Some("eps"));
        assert_eq!(doc.get("pixels").and_then(Value::as_f64), Some(16.0 * 12.0));
        assert_eq!(doc.get("threads").and_then(Value::as_f64), Some(2.0));
        let counters = doc.get("counters").expect("counters object");
        for key in ["heap_pops", "node_bounds", "leaf_scans", "point_evals"] {
            let v = counters.get(key).and_then(Value::as_f64).expect(key);
            assert!(v > 0.0, "{key} should be positive");
        }
        assert!(
            doc.get("iterations")
                .and_then(|h| h.get("buckets"))
                .and_then(Value::as_arr)
                .is_some_and(|b| !b.is_empty()),
            "iteration histogram should have mass"
        );
    }

    #[test]
    fn progressive_metrics_include_checkpoints() {
        let csv_path = tmp("prog_metrics.csv");
        synth(&args(&[
            "--dataset",
            "home",
            "--n",
            "500",
            "--out",
            csv_path.to_str().expect("utf8"),
        ]))
        .expect("synth");
        let metrics_json = tmp("prog_metrics.json");
        progressive(&args(&[
            csv_path.to_str().expect("utf8"),
            "--out",
            tmp("prog_metrics.ppm").to_str().expect("utf8"),
            "--width",
            "16",
            "--height",
            "12",
            "--budget-ms",
            "10000",
            "--metrics",
            metrics_json.to_str().expect("utf8"),
        ]))
        .expect("progressive");
        let text = std::fs::read_to_string(&metrics_json).expect("read metrics");
        let doc = kdv_telemetry::json::parse(&text).expect("parse");
        use kdv_telemetry::json::Value;
        let cps = doc
            .get("checkpoints")
            .and_then(Value::as_arr)
            .expect("checkpoints");
        assert!(!cps.is_empty(), "progressive metrics record checkpoints");
    }

    /// Metering and threading never change a rendered byte: one code
    /// path renders them all. Hotspot maps always come from the tile
    /// engine, so the old tiled switch is gone.
    #[test]
    fn outputs_are_identical_with_metrics_and_threads() {
        let csv_path = tmp("identical.csv");
        synth(&args(&[
            "--dataset",
            "crime",
            "--n",
            "800",
            "--out",
            csv_path.to_str().expect("utf8"),
        ]))
        .expect("synth");
        let p = csv_path.to_str().expect("utf8");
        let json = tmp("identical.json");
        let json = json.to_str().expect("utf8");
        let run = |cmd: fn(&Args) -> Result<(), String>, name: &str, extra: &[&str]| {
            let out = tmp(name);
            let mut flags = vec![p, "--out", out.to_str().expect("utf8")];
            flags.extend_from_slice(&["--width", "20", "--height", "15"]);
            flags.extend_from_slice(extra);
            cmd(&args(&flags)).expect(name);
            std::fs::read(&out).expect("read output")
        };
        let plain = run(render, "identical_plain.ppm", &[]);
        assert_eq!(plain, run(render, "identical_m.ppm", &["--metrics", json]));
        assert_eq!(plain, run(render, "identical_t.ppm", &["--threads", "3"]));
        let both = ["--threads", "3", "--metrics", json];
        assert_eq!(plain, run(render, "identical_tm.ppm", &both));
        let hot = run(hotspot, "identical_hot.ppm", &[]);
        assert_eq!(
            hot,
            run(hotspot, "identical_hot_m.ppm", &["--metrics", json])
        );
        let removed_switch = [p.to_string(), format!("--{}", "tiled")];
        assert!(
            Args::parse(&removed_switch).is_err(),
            "not a switch any more"
        );
    }

    #[test]
    fn render_rejects_bad_eps_and_kernel() {
        let csv_path = tmp("bad.csv");
        std::fs::write(&csv_path, "0.0,0.0\n1.0,1.0\n").expect("write");
        let p = csv_path.to_str().expect("utf8");
        assert!(render(&args(&[p, "--eps", "-1"])).is_err());
        assert!(render(&args(&[p, "--eps", "0"])).is_err());
        assert!(render(&args(&[p, "--eps", "inf"])).is_err());
        assert!(render(&args(&[p, "--kernel", "nope"])).is_err());
        assert!(render(&args(&[p, "--threads", "0"])).is_err());
        assert!(render(&args(&[p, "--gamma", "-2"])).is_err());
        assert!(render(&args(&[p, "--width", "0"])).is_err());
        assert!(render(&args(&[p, "--height", "0"])).is_err());
        assert!(render(&args(&[p, "--max-work", "0"])).is_err());
        assert!(render(&args(&[p, "--deadline-ms", "0"])).is_err());
    }

    #[test]
    fn malformed_inputs_error_without_panicking() {
        // Corrupt CSV: non-numeric field.
        let garbled = tmp("garbled.csv");
        std::fs::write(&garbled, "0.0,0.0\n1.0,banana\n").expect("write");
        let err =
            render(&args(&[garbled.to_str().expect("utf8")])).expect_err("corrupt CSV rejected");
        assert!(err.contains("line 2"), "error names the line: {err}");

        // NaN coordinates.
        let nans = tmp("nans.csv");
        std::fs::write(&nans, "0.0,0.0\nNaN,1.0\n").expect("write");
        let err =
            render(&args(&[nans.to_str().expect("utf8")])).expect_err("NaN coordinate rejected");
        assert!(err.contains("non-finite"), "unexpected error: {err}");

        // Empty input.
        let empty = tmp("empty.csv");
        std::fs::write(&empty, "").expect("write");
        assert!(render(&args(&[empty.to_str().expect("utf8")])).is_err());

        // Negative τ.
        let ok = tmp("tau.csv");
        std::fs::write(&ok, "0.0,0.0\n1.0,1.0\n0.5,0.5\n").expect("write");
        let p = ok.to_str().expect("utf8");
        assert!(hotspot(&args(&[p, "--tau", "-0.5"])).is_err());
        assert!(hotspot(&args(&[p, "--tau", "nan"])).is_err());
    }

    #[test]
    fn zero_spread_dataset_needs_explicit_gamma() {
        // All points identical: Scott's rule has no bandwidth to offer.
        let dup = tmp("dup.csv");
        std::fs::write(&dup, "1.0,2.0\n1.0,2.0\n1.0,2.0\n1.0,2.0\n").expect("write");
        let p = dup.to_str().expect("utf8");
        let err = render(&args(&[p])).expect_err("Scott must degenerate");
        assert!(err.contains("--gamma"), "error suggests the fix: {err}");
        // With an explicit scale the pipeline runs end to end.
        let out = tmp("dup.ppm");
        render(&args(&[
            p,
            "--gamma",
            "1.0",
            "--out",
            out.to_str().expect("utf8"),
            "--width",
            "6",
            "--height",
            "5",
        ]))
        .expect("explicit gamma renders duplicates");
        assert!(out.exists());
    }

    #[test]
    fn budgeted_render_degrades_and_writes_error_map() {
        let csv_path = tmp("budget.csv");
        synth(&args(&[
            "--dataset",
            "crime",
            "--n",
            "900",
            "--out",
            csv_path.to_str().expect("utf8"),
        ]))
        .expect("synth");
        let p = csv_path.to_str().expect("utf8");

        let map = tmp("budget_map.ppm");
        let err_map = tmp("budget_err.ppm");
        // 16×12 pixels with only ~2 work units each and a harsh ε: the
        // cap is certain to run out, yet the render must succeed.
        render(&args(&[
            p,
            "--out",
            map.to_str().expect("utf8"),
            "--width",
            "16",
            "--height",
            "12",
            "--eps",
            "0.000001",
            "--max-work",
            "400",
            "--error-map",
            err_map.to_str().expect("utf8"),
        ]))
        .expect("budgeted render succeeds");
        let bytes = std::fs::read(&err_map).expect("read error map");
        assert!(bytes.starts_with(b"P6\n16 12\n255\n"));

        // Budgeted + threads exercises the parallel budgeted path.
        render(&args(&[
            p,
            "--out",
            map.to_str().expect("utf8"),
            "--width",
            "16",
            "--height",
            "12",
            "--eps",
            "0.05",
            "--threads",
            "2",
            "--max-work",
            "1000000000",
        ]))
        .expect("parallel budgeted render succeeds");

        // --error-map without a budget is a usage error.
        assert!(render(&args(&[p, "--error-map", err_map.to_str().expect("utf8")])).is_err());
    }

    #[test]
    fn missing_input_is_reported() {
        assert!(render(&args(&["/nonexistent/definitely.csv"])).is_err());
        assert!(render(&args(&[])).is_err());
    }

    #[test]
    fn serve_rejects_bad_configuration_before_binding() {
        let csv_path = tmp("serve_bad.csv");
        std::fs::write(&csv_path, "0.0,0.0\n1.0,1.0\n0.5,0.5\n").expect("write");
        let p = csv_path.to_str().expect("utf8");
        assert!(serve(&args(&[p, "--workers", "0", "--tau", "0.5"])).is_err());
        assert!(serve(&args(&[p, "--queue", "0", "--tau", "0.5"])).is_err());
        assert!(serve(&args(&[p, "--tile-size", "4", "--tau", "0.5"])).is_err());
        assert!(serve(&args(&[p, "--tau", "-1"])).is_err());
        assert!(serve(&args(&[p, "--tau", "0.5", "--tile-max-work", "0"])).is_err());
        assert!(serve(&args(&[p, "--tau", "0.5", "--tile-deadline-ms", "0"])).is_err());
        assert!(serve(&args(&[p, "--tau", "0.5", "--eps", "-1"])).is_err());
        assert!(serve(&args(&[
            p,
            "--tau",
            "0.5",
            "--addr",
            "definitely-not-an-addr"
        ]))
        .is_err());
    }

    #[test]
    fn synth_requires_dataset() {
        assert!(synth(&args(&["--n", "10"])).is_err());
        assert!(synth(&args(&["--dataset", "mars"])).is_err());
    }
}
