//! The tile server: admission control, routing, tracing.
//!
//! Architecture (one process, no async runtime):
//!
//! * the connection plumbing is the shared [`Frontend`]: an **accept
//!   thread** feeding a *bounded* queue that answers `429 Too Many
//!   Requests` + `Retry-After` at the door when full — load shedding
//!   at the door, not in the kitchen — and a fixed pool of **worker
//!   threads** that serve one request per connection (`Connection:
//!   close` by default; a client that sends an explicit `Connection:
//!   keep-alive` — the cluster router's proxy path does — keeps the
//!   connection under a short idle timeout). The shard plugs in as a
//!   [`Service`]: its trace spans and its HTTP and ingest counters,
//! * the dataset's kd-tree is built **once** at startup and shared
//!   immutably (`Arc`); each request constructs its own cheap
//!   [`RefineEvaluator`] over the shared tree,
//! * every tile render runs under a fresh [`RenderBudget`] issued by
//!   the configured [`BudgetPolicy`], so one adversarial tile degrades
//!   (HTTP `200` + `X-Kdv-Degraded`) instead of starving the pool,
//! * rendered tiles land in the sharded byte-capacity LRU
//!   ([`crate::cache`]) — except degraded ones: caching a tile that
//!   only exists because the server was momentarily overloaded would
//!   serve the degraded bytes forever after the load has passed,
//! * every request is **traced** end to end (on by default): the
//!   accept timestamp is the span origin, each stage — queue wait,
//!   parse, cache lookup, catalog materialization, refinement, PNG
//!   encode, socket write — is a named span with work/byte
//!   annotations, and the completed trace lands in a bounded
//!   [`TraceRing`] served at `/debug/traces` (slow traces are retained
//!   preferentially at `/debug/slow`). The trace ID is echoed on every
//!   response as `X-Kdv-Trace-Id`. With `--no-trace` the builder is
//!   inert: no clock reads, no allocation, no ring pushes.
//!
//! [`RenderBudget`]: kdv_core::engine::RenderBudget

use std::collections::HashMap;
use std::io::{self, Write as _};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kdv_core::engine::BudgetPolicy;
use kdv_core::error::KdvError;
use kdv_core::kernel::Kernel;
use kdv_geom::PointSet;
use kdv_index::KdTree;
use kdv_store::{FsyncPolicy, WalOp};
use kdv_telemetry::json::{self, Value};
use kdv_telemetry::registry::SERVE_SCHEMA;
use kdv_telemetry::trace::OpenSpan;
use kdv_telemetry::{
    Declared, DepthProfile, Family, HttpCounters, IngestCounters, LogHistogram, PromWriter,
    PyramidCounters, Reading, RenderMetrics, Summary, TagValue, Trace, TraceBuilder, TraceId,
    TraceMeta, TraceRing, TracingProbe, Unit, CACHE, HTTP, INGEST, PYRAMID, RENDER, RENDER_SHAPE,
    STORE, TRACE_RING,
};
use kdv_viz::tile_render::{paint_eps_tile, paint_tau_tile, pyramid_raster};
use kdv_viz::{png, ColorMap};

use crate::cache::{TileCache, TileKey, OCCUPANCY};
use crate::catalog::{finish_entry, Catalog, DatasetEntry, DatasetSource, RenderSettings};
pub use crate::http::ServeError;
use crate::http::{text_response, Frontend, Request, RequestError, Response, Service};
use crate::ingest::{self, CommitError, DeltaView, IngestState};
use crate::render::{pick_level, TilePlan, FULL_LEVEL};
use crate::tile::{parse_tile_path, valid_dataset_name, TileAddr, TileKind};

/// Margin added around the data's bounding box for the level-0
/// window (fraction of each axis span).
const MARGIN_FRAC: f64 = 0.05;

/// Longest `/debug/sleep/{ms}` pause honored.
const MAX_DEBUG_SLEEP_MS: u64 = 10_000;

/// Everything `kdv serve` needs to decide before binding a socket.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 picks a free one).
    pub addr: String,
    /// Tile edge length in pixels (tiles are square).
    pub tile_size: u32,
    /// Deepest zoom level served (tile addresses beyond it are `400`).
    pub max_z: u8,
    /// Deepest zoom level the coreset pyramid may answer ε tiles at;
    /// deeper tiles, and every τ tile, render from the full index.
    /// Pyramid routing additionally requires a certified level with
    /// `ε_s ≤ ε/2`.
    pub pyramid_max_z: u8,
    /// εKDV error tolerance.
    pub eps: f64,
    /// τKDV density threshold.
    pub tau: f64,
    /// Worker threads rendering tiles.
    pub workers: usize,
    /// Bounded accept-queue depth; connection `workers + queue + 1`
    /// gets a `429`.
    pub queue: usize,
    /// Tile-cache capacity in payload bytes.
    pub cache_bytes: usize,
    /// Tile-cache shard count.
    pub cache_shards: usize,
    /// Per-request render budget recipe.
    pub policy: BudgetPolicy,
    /// Honor `GET /shutdown` (for CI and tests; off by default).
    pub allow_shutdown: bool,
    /// Honor `GET /debug/sleep/{ms}` (a testing aid that holds a
    /// worker busy; off by default).
    pub debug_sleep: bool,
    /// Milliseconds the caller spent loading the raw data before
    /// handing it over (the CLI measures its CSV read); folded into
    /// the startup report so `startup.total_ms` is honest end-to-end.
    pub data_load_ms: u64,
    /// Estimated-byte budget across materialized catalog datasets
    /// (store mode only); 0 disables eviction.
    pub store_budget_bytes: u64,
    /// Record per-request traces (spans, `/debug/traces`, stage
    /// histograms). On by default; `--no-trace` turns the builder into
    /// a no-op with zero clock reads on the request path.
    pub trace: bool,
    /// Completed traces retained in each ring (recent and slow).
    pub trace_ring: usize,
    /// Requests at or over this many milliseconds end-to-end are
    /// retained preferentially in the slow ring (`/debug/slow`).
    pub slow_ms: u64,
    /// JSON-lines access log destination: a file path, or `-` for
    /// stdout. `None` disables the log. Setting it forces tracing on
    /// (log lines are derived from the completed trace).
    pub access_log: Option<String>,
    /// Materialize every catalog dataset in the background at boot;
    /// `/readyz` answers `503` until the sweep finishes. Off by
    /// default: datasets load lazily and `/readyz` is ready at bind.
    pub preload: bool,
    /// WAL durability policy for streaming ingest: `Every` fsyncs per
    /// acknowledged record, `Batch` group-commits (one fsync covers
    /// every record appended before it started).
    pub fsync: FsyncPolicy,
    /// Largest accepted ingest request body in bytes; a declared
    /// `Content-Length` over it is refused with `413` before the body
    /// is read.
    pub ingest_max_body: u64,
    /// Memtable size (points) beyond which ingest writes are shed
    /// with `429 Retry-After` until compaction catches up.
    pub memtable_points: usize,
    /// Memtable size (points) that triggers a background compaction
    /// folding the log into a fresh snapshot.
    pub compact_points: usize,
    /// Use the explicit SIMD leaf-scan path when the CPU supports it.
    /// `--no-simd` turns it off process-wide (the scalar path is
    /// bit-identical; this is an escape hatch for triage).
    pub simd: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            tile_size: 256,
            max_z: 5,
            pyramid_max_z: 4,
            eps: 0.05,
            tau: 1e-3,
            workers: 4,
            queue: 64,
            cache_bytes: 64 << 20,
            cache_shards: 8,
            policy: BudgetPolicy::unlimited(),
            allow_shutdown: false,
            debug_sleep: false,
            data_load_ms: 0,
            store_budget_bytes: 0,
            trace: true,
            trace_ring: 128,
            slow_ms: 100,
            access_log: None,
            preload: false,
            fsync: FsyncPolicy::Every,
            ingest_max_body: 1 << 20,
            memtable_points: 8192,
            compact_points: 2048,
            simd: true,
        }
    }
}

/// Where the boot time went, for the startup log line and `/metrics`.
///
/// The store exists to shrink `index_ms`: building the kd-tree and its
/// moments is the dominant cost, and a snapshot-backed boot replaces it
/// with a directory scan (datasets then load lazily, off the boot
/// path).
#[derive(Debug, Clone, Copy)]
pub struct StartupReport {
    /// End-to-end milliseconds from data to accepting sockets.
    pub total_ms: u64,
    /// Reading the raw data (reported by the caller; 0 when unknown).
    pub data_load_ms: u64,
    /// Building the index — or, in store mode, scanning the catalog.
    pub index_ms: u64,
    /// The εKDV color-scale sweep (pyramid warm-up).
    pub warm_ms: u64,
    /// `"built"` for an in-process tree, `"catalog"` for a store boot.
    pub source: &'static str,
}

impl StartupReport {
    fn to_json(self) -> Value {
        Value::obj(vec![
            ("total_ms", json::num_u(self.total_ms)),
            ("data_load_ms", json::num_u(self.data_load_ms)),
            ("index_ms", json::num_u(self.index_ms)),
            ("warm_ms", json::num_u(self.warm_ms)),
            ("source", Value::Str(self.source.to_string())),
        ])
    }
}

/// The fixed span taxonomy, in pipeline order. Every traced request
/// passes through a subset of these; `/metrics` exposes one latency
/// histogram per stage under this exact name set.
pub const STAGES: [&str; 8] = [
    "queue", "parse", "cache", "catalog", "ingest", "render", "encode", "write",
];

/// Per-stage latency histograms (microseconds), fed from completed
/// traces — so they cost nothing when tracing is off.
struct StageStats {
    stages: [LogHistogram; STAGES.len()],
    /// End-to-end (accept → response written) latency.
    total: LogHistogram,
}

impl StageStats {
    fn new() -> Self {
        Self {
            stages: std::array::from_fn(|_| LogHistogram::new()),
            total: LogHistogram::new(),
        }
    }

    fn record(&mut self, trace: &Trace) {
        for span in &trace.spans {
            if let Some(i) = STAGES.iter().position(|s| *s == span.name) {
                self.stages[i].record(span.dur_us);
            }
        }
        self.total.record(trace.total_us);
    }
}

kdv_telemetry::metric_table! {
    /// The `trace` block's latency histograms, written after the ring
    /// counters of [`kdv_telemetry::TRACE_RING`].
    static STAGE_LATENCY: StageStats = "trace" {
        "stages": Family::histogram("kdv_stage_duration_seconds",
            "Per-stage request latency, from traces.", Summary::BriefUs, Unit::Us).label("stage")
            => |s| Reading::Hists(STAGES.iter().copied().zip(&s.stages).collect()),
        "stages.total": Family::histogram("kdv_request_duration_seconds",
            "End-to-end request latency (accept to response written).", Summary::BriefUs, Unit::Us)
            => |s| Reading::Hist(&s.total),
    }
}

kdv_telemetry::metric_table! {
    /// Top-level `uptime_ms`.
    static UPTIME: Instant = "" {
        "uptime_ms": Family::gauge("kdv_uptime_seconds", "Seconds since the server started.")
            .unit(Unit::Ms)
            => |t| Reading::U(t.elapsed().as_millis() as u64),
    }
}

/// Every table of a shard's `/metrics`, in document order.
pub fn metric_tables() -> [&'static dyn Declared; 11] {
    [
        &UPTIME,
        &HTTP,
        &CACHE,
        &OCCUPANCY,
        &RENDER_SHAPE,
        &RENDER,
        &STORE,
        &INGEST,
        &PYRAMID,
        &TRACE_RING,
        &STAGE_LATENCY,
    ]
}

/// Per-request trace state threaded through routing: the span builder
/// plus the metadata bits ([`TraceMeta`]) that are only known deep in
/// the tile path (cache disposition, degradation).
struct RequestTrace {
    tb: TraceBuilder,
    cache: Option<&'static str>,
    degraded: bool,
    /// The span that crosses a [`Service`] hook: `parse` from `begin`
    /// to `respond`, then `write` from `respond` to `finish`.
    open: Option<OpenSpan>,
}

/// Shared immutable server state plus the few mutable rendezvous
/// points (cache shards, metrics, ingest — each behind its own
/// fine-grained lock or atomic).
struct Inner {
    /// Every dataset this server fronts. Single-dataset mode is a
    /// one-slot catalog; store mode scans a directory and loads lazily.
    catalog: Catalog,
    /// Whether tile paths carry a `{dataset}` segment (store mode).
    multi: bool,
    eps: f64,
    tau: f64,
    cm: ColorMap,
    policy: BudgetPolicy,
    max_z: u8,
    /// Deepest zoom the coreset pyramid may answer.
    pyramid_max_z: u8,
    /// Which level (or the full index) served each render.
    pyramid: PyramidCounters,
    cache: TileCache,
    http: HttpCounters,
    /// Live merged refinement telemetry across all tile renders.
    metrics: Mutex<RenderMetrics>,
    startup: StartupReport,
    shutdown: AtomicBool,
    allow_shutdown: bool,
    debug_sleep: bool,
    started: Instant,
    /// Completed-trace retention; `None` when tracing is disabled.
    traces: Option<TraceRing>,
    /// Per-stage latency histograms, fed on trace completion only.
    stages: Mutex<StageStats>,
    /// JSON-lines access log sink (file or stdout), one line per
    /// completed trace.
    access_log: Option<Mutex<Box<dyn io::Write + Send>>>,
    /// `/readyz` gate: false while a `--preload` sweep is still
    /// materializing catalog datasets.
    ready: AtomicBool,
    /// Per-dataset ingest pipelines (WAL + memtable), materialized on
    /// the first write — or on the first read when a WAL file already
    /// exists next to the snapshot (boot-time crash recovery).
    ingest: Mutex<HashMap<usize, Arc<IngestState>>>,
    /// The streaming-ingest ledger shared with `/metrics`.
    ingest_counters: IngestCounters,
    /// WAL durability policy.
    fsync: FsyncPolicy,
    /// Memtable backpressure threshold (points).
    memtable_points: usize,
    /// Memtable compaction threshold (points).
    compact_points: usize,
    /// In-flight background compaction threads, joined at shutdown so
    /// a stopped server leaves no half-written snapshot swap behind.
    compactions: Mutex<Vec<JoinHandle<()>>>,
}

/// A running tile server (see [`TileServer::start`]).
pub struct TileServer {
    inner: Arc<Inner>,
    front: Frontend<Inner>,
}

impl TileServer {
    /// Validates the configuration, builds the kd-tree, sweeps the
    /// density range for the shared color scale, and starts the
    /// [`Frontend`] with `config.workers` render workers.
    ///
    /// `points` should already carry their normalized weights (the CLI
    /// applies `scale_weights` before calling this); `kernel` is the
    /// bandwidth-calibrated kernel shared by every tile.
    pub fn start(
        config: ServerConfig,
        points: &PointSet,
        kernel: Kernel,
    ) -> Result<Self, ServeError> {
        validate_config(&config)?;
        let build_started = Instant::now();
        let tree = KdTree::build_default(points);
        let index_ms = build_started.elapsed().as_millis() as u64;
        let entry = finish_entry(
            "default",
            tree,
            kernel,
            render_settings(&config),
            index_ms,
            DatasetSource::Built,
        )
        .map_err(ServeError::Config)?;
        let startup = StartupReport {
            total_ms: config.data_load_ms + index_ms + entry.warm_ms,
            data_load_ms: config.data_load_ms,
            index_ms,
            warm_ms: entry.warm_ms,
            source: "built",
        };
        Self::start_inner(config, Catalog::single(entry), startup, false)
    }

    /// Boots from a store directory instead of raw points: scans the
    /// catalog (`{name}.kdvs` snapshots, `{name}.csv` fallbacks),
    /// binds, and serves `/tiles/{dataset}/{kind}/{z}/{x}/{y}.png`.
    /// Datasets materialize lazily on first touch — the boot path pays
    /// a directory scan, not an index build.
    pub fn start_with_store(config: ServerConfig, store_dir: &Path) -> Result<Self, ServeError> {
        validate_config(&config)?;
        let scan_started = Instant::now();
        let catalog = Catalog::open(
            store_dir,
            config.store_budget_bytes,
            render_settings(&config),
        )
        .map_err(ServeError::Config)?;
        let index_ms = scan_started.elapsed().as_millis() as u64;
        let startup = StartupReport {
            total_ms: config.data_load_ms + index_ms,
            data_load_ms: config.data_load_ms,
            index_ms,
            warm_ms: 0,
            source: "catalog",
        };
        Self::start_inner(config, catalog, startup, true)
    }

    fn start_inner(
        config: ServerConfig,
        catalog: Catalog,
        startup: StartupReport,
        multi: bool,
    ) -> Result<Self, ServeError> {
        // Process-wide SIMD kill switch: `--no-simd` forces every leaf
        // scan (including batched-tile finishing passes) onto the
        // bit-identical scalar path.
        kdv_geom::simd::set_simd_enabled(config.simd);

        // The access log implies tracing: its lines are rendered from
        // completed traces.
        let trace_on = config.trace || config.access_log.is_some();
        let access_log: Option<Mutex<Box<dyn io::Write + Send>>> = match &config.access_log {
            None => None,
            Some(dest) if dest == "-" => Some(Mutex::new(Box::new(io::stdout()))),
            Some(path) => {
                let file = std::fs::File::options()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| {
                        ServeError::Config(format!("cannot open access log {path}: {e}"))
                    })?;
                Some(Mutex::new(Box::new(file)))
            }
        };

        let inner = Arc::new(Inner {
            catalog,
            multi,
            eps: config.eps,
            tau: config.tau,
            cm: ColorMap::heat(),
            policy: config.policy,
            max_z: config.max_z,
            pyramid_max_z: config.pyramid_max_z,
            pyramid: PyramidCounters::default(),
            cache: TileCache::new(config.cache_bytes, config.cache_shards),
            http: HttpCounters::default(),
            metrics: Mutex::new(RenderMetrics::new()),
            startup,
            shutdown: AtomicBool::new(false),
            allow_shutdown: config.allow_shutdown,
            debug_sleep: config.debug_sleep,
            started: Instant::now(),
            traces: trace_on
                .then(|| TraceRing::new(config.trace_ring, config.slow_ms.saturating_mul(1_000))),
            stages: Mutex::new(StageStats::new()),
            access_log,
            ready: AtomicBool::new(!config.preload),
            ingest: Mutex::new(HashMap::new()),
            ingest_counters: IngestCounters::default(),
            fsync: config.fsync,
            memtable_points: config.memtable_points,
            compact_points: config.compact_points,
            compactions: Mutex::new(Vec::new()),
        });

        if config.preload {
            // Materialize every dataset off the accept path; `/readyz`
            // flips to 200 when the sweep completes. Load failures are
            // already surfaced per-dataset through /metrics and tile
            // 500s, so the sweep itself is best-effort.
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("kdv-serve-preload".to_string())
                .spawn(move || {
                    for idx in 0..inner.catalog.len() {
                        let _ = inner.catalog.get(idx);
                    }
                    inner.ready.store(true, Ordering::SeqCst);
                })
                .map_err(ServeError::Io)?;
        }
        let front = Frontend::start(
            &config.addr,
            "kdv-serve",
            config.workers,
            config.queue,
            config.ingest_max_body,
            Arc::clone(&inner),
        )?;
        Ok(Self { inner, front })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Where this server's boot time went (also under `startup` in
    /// `/metrics`). The CLI logs it right after binding.
    pub fn startup(&self) -> StartupReport {
        self.inner.startup
    }

    /// Sorted names of the datasets this server fronts.
    pub fn dataset_names(&self) -> Vec<String> {
        self.inner
            .catalog
            .names()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    /// Blocks until the server shuts down (via [`TileServer::stop`]
    /// from another thread, or a `GET /shutdown` when enabled).
    pub fn join(self) {
        self.front.join();
        drain(&self.inner);
    }

    /// Initiates shutdown and waits for every thread to exit.
    pub fn stop(self) {
        self.front.stop();
        drain(&self.inner);
    }

    /// Whether shutdown has been requested (a `/shutdown` hit, or
    /// [`TileServer::stop`] racing from another thread). The CLI polls
    /// this so a SIGTERM watcher and the HTTP shutdown path can share
    /// one exit loop.
    pub fn is_shutdown(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }
}

/// The rest of a stop once the worker pool is gone: compactions
/// finish their snapshot swap before the server counts as stopped
/// (tests copy the store directory right after `stop()` returns), and
/// every live WAL is fsynced so nothing acknowledged (or even
/// buffered) rides only in the page cache when the process exits.
fn drain(inner: &Inner) {
    let handles: Vec<JoinHandle<()>> = {
        let mut guard = inner
            .compactions
            .lock()
            .expect("compaction registry poisoned");
        guard.drain(..).collect()
    };
    for h in handles {
        let _ = h.join();
    }
    let states: Vec<Arc<IngestState>> = {
        let guard = inner.ingest.lock().expect("ingest registry poisoned");
        guard.values().cloned().collect()
    };
    for state in states {
        let _ = state.sync_wal();
    }
}

fn validate_config(config: &ServerConfig) -> Result<(), ServeError> {
    if config.tile_size < 8 || config.tile_size > 1024 {
        return Err(ServeError::Config(format!(
            "tile size must be in [8, 1024], got {}",
            config.tile_size
        )));
    }
    if !(config.eps.is_finite() && config.eps > 0.0) {
        return Err(ServeError::Config(format!(
            "ε must be positive, got {}",
            config.eps
        )));
    }
    if !(config.tau.is_finite() && config.tau > 0.0) {
        return Err(ServeError::Config(format!(
            "τ must be positive, got {}",
            config.tau
        )));
    }
    if config.memtable_points == 0 || config.compact_points == 0 {
        return Err(ServeError::Config(
            "memtable and compaction thresholds must be at least 1 point".into(),
        ));
    }
    if config.compact_points > config.memtable_points {
        return Err(ServeError::Config(format!(
            "compaction threshold ({}) must not exceed the memtable cap ({}) — writes \
             would stall before compaction ever triggers",
            config.compact_points, config.memtable_points
        )));
    }
    Ok(())
}

fn render_settings(config: &ServerConfig) -> RenderSettings {
    RenderSettings {
        tile_size: config.tile_size,
        margin_frac: MARGIN_FRAC,
        eps: config.eps,
    }
}

impl Service for Inner {
    type Exchange = RequestTrace;

    fn shutdown(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn shed(&self) {
        self.http.rejected();
    }

    fn begin(&self, accepted: Instant) -> RequestTrace {
        let mut tb = if self.traces.is_some() {
            TraceBuilder::with_origin(accepted)
        } else {
            TraceBuilder::off()
        };
        tb.span_between("queue", accepted, Instant::now());
        let parse = tb.begin("parse");
        RequestTrace {
            tb,
            cache: None,
            degraded: false,
            open: Some(parse),
        }
    }

    fn respond(
        self: &Arc<Self>,
        rt: &mut RequestTrace,
        request: Result<&Request, &RequestError>,
    ) -> Response {
        if let Some(parse) = rt.open.take() {
            rt.tb.end(parse);
        }
        let request = match request {
            Ok(request) => request,
            Err(reject) => {
                match reject {
                    RequestError::Bad(_) => self.http.bad_request(),
                    // Backpressure by refusal, counted as a shed (like
                    // the 429 paths), not a 400: /metrics should
                    // separate client bugs from backpressure.
                    RequestError::TooLarge { .. } => {
                        self.ingest_counters.reject_too_large();
                        self.http.rejected();
                    }
                }
                return stamp_trace(rt, reject.response());
            }
        };
        // Adopt a forwarded trace ID (the cluster router sends one) so the
        // shard's trace carries the same ID the client saw end to end.
        if let Some(forwarded) = request.trace_id.as_deref().and_then(TraceId::from_hex) {
            rt.tb.set_id(forwarded);
        }
        self.http.request();
        let response = route(self, request, rt);
        let response = stamp_trace(rt, response);
        rt.open = Some(rt.tb.begin("write"));
        response
    }

    fn finish(
        &self,
        mut rt: RequestTrace,
        request: Option<&Request>,
        response: &Response,
        wrote: bool,
    ) {
        let Some(request) = request else {
            finish_trace(self, rt, "", "", response);
            return;
        };
        if let Some(write) = rt.open.take() {
            rt.tb.end_with(
                write,
                vec![("bytes", TagValue::U64(response.body_len() as u64))],
            );
        }
        if wrote {
            self.http.sent(response.body_len() as u64);
        }
        finish_trace(self, rt, &request.method, &request.path, response);
    }
}

/// Echoes the trace ID on the outgoing response (every response, so a
/// client can quote the ID when reporting a slow or failed tile).
fn stamp_trace(rt: &RequestTrace, response: Response) -> Response {
    match rt.tb.id() {
        Some(id) => response.header("X-Kdv-Trace-Id", id.to_hex()),
        None => response,
    }
}

/// Seals the request's trace: pushes it into the retention rings,
/// folds its spans into the per-stage histograms, and emits the
/// access-log line. All of it is skipped when tracing is off.
fn finish_trace(inner: &Inner, rt: RequestTrace, method: &str, path: &str, response: &Response) {
    let Some(ring) = &inner.traces else {
        return;
    };
    let RequestTrace {
        tb,
        cache,
        degraded,
        ..
    } = rt;
    let Some(trace) = tb.finish(TraceMeta {
        method: method.to_string(),
        path: path.to_string(),
        status: response.status(),
        bytes: response.body_len() as u64,
        cache,
        degraded,
    }) else {
        return;
    };
    inner
        .stages
        .lock()
        .expect("stage histograms poisoned")
        .record(&trace);
    if let Some(log) = &inner.access_log {
        let line = access_log_line(&trace);
        let mut sink = log.lock().expect("access log poisoned");
        let _ = writeln!(sink, "{line}");
        let _ = sink.flush();
    }
    ring.push(trace);
}

/// One JSON access-log line for a completed trace: request line,
/// outcome, total and per-stage latency, and the trace ID.
fn access_log_line(trace: &Trace) -> String {
    let ts_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let stage_fields = trace
        .spans
        .iter()
        .map(|s| (s.name, json::num_u(s.dur_us)))
        .collect();
    Value::obj(vec![
        ("ts_ms", json::num_u(ts_ms)),
        ("trace_id", Value::Str(trace.id.to_hex())),
        ("method", Value::Str(trace.meta.method.clone())),
        ("path", Value::Str(trace.meta.path.clone())),
        ("status", json::num_u(trace.meta.status as u64)),
        ("bytes", json::num_u(trace.meta.bytes)),
        (
            "cache",
            match trace.meta.cache {
                Some(c) => Value::Str(c.to_string()),
                None => Value::Null,
            },
        ),
        ("degraded", Value::Bool(trace.meta.degraded)),
        ("total_us", json::num_u(trace.total_us)),
        ("stages_us", Value::obj(stage_fields)),
    ])
    .render_compact()
}

fn route(inner: &Arc<Inner>, request: &Request, rt: &mut RequestTrace) -> Response {
    let path = request.path.as_str();
    if let Some(rest) = path.strip_prefix("/datasets/") {
        return datasets_response(inner, request, rest, rt);
    }
    if request.method != "GET" {
        inner.http.bad_request();
        return text_response(400, "Bad Request", "only GET is supported");
    }
    if let Some(rest) = path.strip_prefix("/debug/sleep/") {
        return debug_sleep(inner, rest);
    }
    match path {
        "/metrics" => {
            inner.http.ok(false);
            if request.query.as_deref() == Some("format=prometheus") {
                let body = metrics_prometheus(inner);
                Response::new(200, "OK").body(
                    "text/plain; version=0.0.4; charset=utf-8",
                    body.into_bytes(),
                )
            } else {
                let body = metrics_json(inner).render();
                Response::new(200, "OK").body("application/json", body.into_bytes())
            }
        }
        "/debug/traces" => debug_traces(inner, false),
        "/debug/slow" => debug_traces(inner, true),
        "/healthz" => {
            inner.http.ok(false);
            text_response(200, "OK", "ok")
        }
        "/readyz" => {
            if inner.ready.load(Ordering::SeqCst) {
                inner.http.ok(false);
                text_response(200, "OK", "ready")
            } else {
                // Not-ready is transient by construction; tell load
                // balancers when to look again.
                text_response(503, "Service Unavailable", "preloading datasets")
                    .header("Retry-After", "1")
            }
        }
        "/shutdown" => {
            if inner.allow_shutdown {
                inner.shutdown.store(true, Ordering::SeqCst);
                inner.http.ok(false);
                text_response(200, "OK", "shutting down")
            } else {
                inner.http.not_found();
                text_response(404, "Not Found", "shutdown is not enabled")
            }
        }
        p if p.starts_with("/tiles/") => tile_response(inner, p, rt),
        _ => {
            inner.http.not_found();
            text_response(404, "Not Found", "no such resource")
        }
    }
}

/// `/debug/traces` (recent) and `/debug/slow` (threshold-crossers):
/// the retained rings as JSON, newest first.
fn debug_traces(inner: &Inner, slow_only: bool) -> Response {
    let Some(ring) = &inner.traces else {
        inner.http.not_found();
        return text_response(404, "Not Found", "tracing is disabled (--no-trace)");
    };
    let traces = if slow_only {
        ring.slow()
    } else {
        ring.recent()
    };
    let body = Value::obj(vec![
        (
            "slow_threshold_ms",
            json::num_u(ring.slow_threshold_us() / 1_000),
        ),
        ("completed", json::num_u(ring.completed())),
        ("slow_seen", json::num_u(ring.slow_seen())),
        (
            "traces",
            Value::Arr(traces.iter().map(|t| t.to_json()).collect()),
        ),
    ])
    .render();
    inner.http.ok(false);
    Response::new(200, "OK").body("application/json", body.into_bytes())
}

fn debug_sleep(inner: &Inner, ms: &str) -> Response {
    if !inner.debug_sleep {
        inner.http.not_found();
        return text_response(404, "Not Found", "debug endpoints are not enabled");
    }
    match ms.parse::<u64>() {
        Ok(ms) if ms <= MAX_DEBUG_SLEEP_MS => {
            std::thread::sleep(Duration::from_millis(ms));
            inner.http.ok(false);
            text_response(200, "OK", "slept")
        }
        _ => {
            inner.http.bad_request();
            text_response(400, "Bad Request", "sleep duration must be a small integer")
        }
    }
}

/// The cache-key byte for a level pick (`FULL_LEVEL` = full index).
fn level_byte(level: Option<usize>) -> u8 {
    level.map_or(FULL_LEVEL, |l| l.min(FULL_LEVEL as usize - 1) as u8)
}

/// The `X-Kdv-Level` header value: a level index, or `full`.
fn level_label(level: Option<usize>) -> String {
    match level {
        Some(l) => l.to_string(),
        None => "full".to_string(),
    }
}

fn tile_response(inner: &Arc<Inner>, path: &str, rt: &mut RequestTrace) -> Response {
    let (dataset, addr) = match parse_tile_path(path, inner.max_z, inner.multi) {
        Ok(parsed) => parsed,
        Err(e) => {
            inner.http.bad_request();
            return text_response(400, "Bad Request", &e.to_string());
        }
    };
    let idx = match &dataset {
        Some(name) => match inner.catalog.lookup(name) {
            Some(idx) => idx,
            None => {
                inner.http.not_found();
                return text_response(
                    404,
                    "Not Found",
                    &format!("no dataset {name:?} in this catalog"),
                );
            }
        },
        None => 0,
    };
    // Materialize the dataset (instant when already resident). A load
    // failure — corrupt snapshot, unreadable file — is a 500 with the
    // store's structured message, and is *not* cached: replacing the
    // file heals the dataset on the next request.
    let catalog_span = rt.tb.begin("catalog");
    let entry = match inner.catalog.get(idx) {
        Ok(entry) => entry,
        Err(message) => {
            rt.tb.end(catalog_span);
            inner.http.internal_error();
            return text_response(500, "Internal Server Error", &message);
        }
    };
    rt.tb.end(catalog_span);
    // Streaming ingest: pick up this dataset's WAL-backed memtable if
    // one exists on disk. GETs never *create* a WAL — read-only
    // catalogs stay read-only.
    let state = match ingest_state(inner, idx, &entry, false) {
        Ok(state) => state,
        Err(message) => {
            inner.http.internal_error();
            return text_response(500, "Internal Server Error", &message);
        }
    };
    // The pyramid level is part of the tile's identity: it is decided
    // *before* the cache lookup from the entry state alone, so hits
    // and misses agree on which bytes a key names.
    let pick = |entry: &DatasetEntry| {
        pick_level(
            &entry.pyramid,
            addr.kind,
            addr.z,
            inner.pyramid_max_z,
            inner.eps,
        )
    };
    let mut level = pick(&entry);
    let mut key = TileKey {
        dataset: idx as u32,
        addr,
        param_bits: match addr.kind {
            TileKind::Eps => inner.eps.to_bits(),
            TileKind::Tau => inner.tau.to_bits(),
        },
        gamma_bits: entry.kernel.gamma.to_bits(),
        level: level_byte(level),
    };
    let cache_span = rt.tb.begin("cache");
    let cached = inner.cache.get(&key);
    rt.tb.end_with(
        cache_span,
        vec![(
            "bytes",
            TagValue::U64(cached.as_ref().map_or(0, |d| d.len() as u64)),
        )],
    );
    if let Some(data) = cached {
        inner.http.ok(false);
        rt.cache = Some("hit");
        return Response::new(200, "OK")
            .header("X-Kdv-Cache", "hit")
            .header("X-Kdv-Level", level_label(level))
            .body("image/png", data.as_ref().clone());
    }
    rt.cache = Some("miss");
    // Render against a consistent (base, memtable) pair. A compaction
    // that lands mid-render swaps the base under us and rebuilds the
    // memtable — detected by the generation counter bumping, in which
    // case the torn tile is discarded and re-rendered against the new
    // pair. Bounded retries: compactions are rare next to one render.
    let mut entry = entry;
    let mut attempts = 0;
    loop {
        let generation = state.as_ref().map(|s| s.generation());
        let delta = state.as_ref().map(|s| s.delta());
        let rendered = render_tile(
            inner,
            &entry,
            addr,
            rt,
            delta.as_ref().filter(|d| !d.is_empty()),
            level,
        );
        let (bytes, degraded_pixels) = match rendered {
            Ok(out) => out,
            Err(e) => {
                inner.http.internal_error();
                return text_response(500, "Internal Server Error", &e.to_string());
            }
        };
        if let (Some(s), Some(g)) = (&state, generation) {
            if s.generation() != g && attempts < 3 {
                attempts += 1;
                entry = match inner.catalog.get(idx) {
                    Ok(entry) => entry,
                    Err(message) => {
                        inner.http.internal_error();
                        return text_response(500, "Internal Server Error", &message);
                    }
                };
                // Compaction re-certifies the ladder; the new base may
                // route this tile to a different level, so re-pick and
                // re-key before the retry render.
                level = pick(&entry);
                key.level = level_byte(level);
                continue;
            }
        }
        // A write landing mid-render may have already invalidated this
        // tile's cache line before we insert: only cache tiles whose
        // delta snapshot is still current (and whose base was stable).
        let fresh = match (&state, &delta) {
            (Some(s), Some(d)) => s.epoch() == d.epoch && Some(s.generation()) == generation,
            _ => true,
        };
        let data = Arc::new(bytes);
        if degraded_pixels == 0 && fresh {
            // Degraded tiles are *served* but never cached: they
            // reflect transient overload, not the density field.
            inner.cache.insert(key, Arc::clone(&data));
            // A write can commit (bumping the epoch) and run its
            // invalidation sweep entirely between the freshness check
            // above and the insert — the sweep misses an entry that
            // is not there yet. Re-check after the insert: if the
            // world moved on, pull the tile ourselves. Writers bump
            // before sweeping, so one side always sees the other.
            let still_fresh = match (&state, &delta) {
                (Some(s), Some(d)) => s.epoch() == d.epoch && Some(s.generation()) == generation,
                _ => true,
            };
            if !still_fresh {
                inner.cache.remove(&key);
            }
        }
        inner.http.ok(degraded_pixels > 0);
        rt.degraded = degraded_pixels > 0;
        let mut response = Response::new(200, "OK")
            .header("X-Kdv-Cache", "miss")
            .header("X-Kdv-Level", level_label(level));
        if degraded_pixels > 0 {
            response = response.header("X-Kdv-Degraded", degraded_pixels.to_string());
        }
        return response.body("image/png", data.as_ref().clone());
    }
}

/// Dispatches `/datasets/{name}/points` (POST: durable streaming
/// ingest) and `/datasets/{name}/stats` (GET: ingest bookkeeping).
fn datasets_response(
    inner: &Arc<Inner>,
    request: &Request,
    rest: &str,
    rt: &mut RequestTrace,
) -> Response {
    let Some((name, action)) = rest.split_once('/') else {
        inner.http.not_found();
        return text_response(404, "Not Found", "expected /datasets/{name}/{points|stats}");
    };
    if !valid_dataset_name(name) {
        inner.http.bad_request();
        return text_response(400, "Bad Request", "invalid dataset name");
    }
    let Some(idx) = inner.catalog.lookup(name) else {
        inner.http.not_found();
        return text_response(
            404,
            "Not Found",
            &format!("no dataset {name:?} in this catalog"),
        );
    };
    match (request.method.as_str(), action) {
        ("POST", "points") => ingest_post(inner, request, idx, rt),
        ("GET", "stats") => dataset_stats(inner, idx),
        (_, "points") | (_, "stats") => {
            inner.http.bad_request();
            text_response(400, "Bad Request", "wrong method for this resource")
        }
        _ => {
            inner.http.not_found();
            text_response(404, "Not Found", "expected /datasets/{name}/{points|stats}")
        }
    }
}

/// A parsed `/points` body: weighted appends + tombstone coordinates.
type IngestBatch = (Vec<[f64; 3]>, Vec<[f64; 2]>);

/// Parses a `/points` body: `{"append": [[x, y, w], ...],
/// "remove": [[x, y], ...]}`. At least one list must be non-empty,
/// every number finite, and every append weight strictly positive —
/// a negative weight would panic `PointSet::from_vecs` at compaction
/// time, long after the write was durably acknowledged.
fn parse_ingest_body(body: &[u8]) -> Result<IngestBatch, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_string())?;
    let value = json::parse(text)?;
    let floats = |v: &Value, arity: usize, what: &str| -> Result<Vec<f64>, String> {
        let items = v
            .as_arr()
            .filter(|items| items.len() == arity)
            .ok_or_else(|| format!("each {what:?} entry must be an array of {arity} numbers"))?;
        items
            .iter()
            .map(|x| {
                x.as_f64()
                    .filter(|f| f.is_finite())
                    .ok_or_else(|| format!("{what:?} entries must hold finite numbers"))
            })
            .collect()
    };
    let list = |key: &str| -> Result<Vec<Vec<f64>>, String> {
        match value.get(key) {
            None => Ok(Vec::new()),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| format!("{key:?} must be an array"))?
                .iter()
                .map(|item| floats(item, if key == "append" { 3 } else { 2 }, key))
                .collect(),
        }
    };
    let appends: Vec<[f64; 3]> = list("append")?
        .into_iter()
        .map(|f| [f[0], f[1], f[2]])
        .collect();
    if appends.iter().any(|p| p[2] <= 0.0) {
        return Err("\"append\" weights must be > 0".to_string());
    }
    let removes: Vec<[f64; 2]> = list("remove")?.into_iter().map(|f| [f[0], f[1]]).collect();
    if appends.is_empty() && removes.is_empty() {
        return Err("body must carry a non-empty \"append\" or \"remove\" list".to_string());
    }
    Ok((appends, removes))
}

/// The lazily materialized [`IngestState`] for slot `idx`. With
/// `create` false (read paths) a state only materializes when a WAL
/// file already exists on disk; POSTs pass true and create one.
/// `Ok(None)` means the dataset has no ingest state and should not get
/// one here (directory-backed slots stay read-only).
fn ingest_state(
    inner: &Inner,
    idx: usize,
    entry: &Arc<DatasetEntry>,
    create: bool,
) -> Result<Option<Arc<IngestState>>, String> {
    {
        let registry = inner.ingest.lock().expect("ingest registry poisoned");
        if let Some(state) = registry.get(&idx) {
            return Ok(Some(Arc::clone(state)));
        }
    }
    let Some(snapshot_path) = inner.catalog.snapshot_path(idx) else {
        return Ok(None);
    };
    let wal_path = snapshot_path.with_extension(kdv_store::WAL_EXTENSION);
    if !create && !wal_path.exists() {
        return Ok(None);
    }
    let mut registry = inner.ingest.lock().expect("ingest registry poisoned");
    // Double-checked: another worker may have opened the WAL while we
    // probed the filesystem.
    if let Some(state) = registry.get(&idx) {
        return Ok(Some(Arc::clone(state)));
    }
    let state = Arc::new(IngestState::open(
        wal_path,
        entry,
        inner.fsync,
        &inner.ingest_counters,
    )?);
    registry.insert(idx, Arc::clone(&state));
    Ok(Some(state))
}

/// `POST /datasets/{name}/points`: appends/tombstones points durably.
/// The 200 is written only after the WAL record reached the
/// configured durability point — an acked point survives any crash.
fn ingest_post(
    inner: &Arc<Inner>,
    request: &Request,
    idx: usize,
    rt: &mut RequestTrace,
) -> Response {
    let catalog_span = rt.tb.begin("catalog");
    let entry = match inner.catalog.get(idx) {
        Ok(entry) => entry,
        Err(message) => {
            rt.tb.end(catalog_span);
            inner.http.internal_error();
            return text_response(500, "Internal Server Error", &message);
        }
    };
    rt.tb.end(catalog_span);
    let (appends, removes) = match parse_ingest_body(&request.body) {
        Ok(parsed) => parsed,
        Err(message) => {
            inner.http.bad_request();
            return text_response(400, "Bad Request", &message);
        }
    };
    let state = match ingest_state(inner, idx, &entry, true) {
        Ok(Some(state)) => state,
        Ok(None) => {
            inner.http.bad_request();
            return text_response(
                400,
                "Bad Request",
                "streaming ingest needs a snapshot-backed dataset (.kdvs store)",
            );
        }
        Err(message) => {
            inner.http.internal_error();
            return text_response(500, "Internal Server Error", &message);
        }
    };
    // A batch that would tombstone every remaining point is refused
    // up front: an empty dataset can never compact, so accepting it
    // would wedge the dataset behind permanent 429s. (Checked again
    // race-free inside commit; this early check keeps the common case
    // all-or-nothing.)
    if state.would_empty(&appends, &removes) {
        inner.http.bad_request();
        return text_response(
            400,
            "Bad Request",
            "batch would tombstone every remaining point; a dataset cannot be emptied",
        );
    }
    let incoming = appends.len() + removes.len();
    if state.point_count() + incoming > inner.memtable_points {
        // The memtable is priced into every tile pixel; past the cap,
        // writes wait for compaction rather than degrade reads.
        inner.ingest_counters.reject_backpressure();
        inner.http.rejected();
        return text_response(
            429,
            "Too Many Requests",
            "memtable is full; retry after compaction",
        )
        .header("Retry-After", "1");
    }
    let ingest_span = rt.tb.begin("ingest");
    let mut committed = None;
    for op in [
        (!appends.is_empty()).then(|| WalOp::Append(appends.clone())),
        (!removes.is_empty()).then(|| WalOp::Tombstone(removes.clone())),
    ]
    .into_iter()
    .flatten()
    {
        let points = match &op {
            WalOp::Append(p) => p.len() as u64,
            WalOp::Tombstone(c) => c.len() as u64,
        };
        let is_append = matches!(op, WalOp::Append(_));
        let started = Instant::now();
        match state.commit(op, &inner.ingest_counters) {
            Ok(done) => {
                let ns = started.elapsed().as_nanos() as u64;
                if is_append {
                    inner.ingest_counters.append(points, ns);
                } else {
                    inner.ingest_counters.tombstone(points, ns);
                }
                committed = Some(done);
            }
            Err(CommitError::WouldEmpty) => {
                // A concurrent writer emptied the rest between our
                // admission check and this commit. Any appends in this
                // batch were already applied (and stay durable).
                rt.tb.end(ingest_span);
                inner.http.bad_request();
                return text_response(
                    400,
                    "Bad Request",
                    "remove rejected: it would tombstone every remaining point",
                );
            }
            Err(CommitError::Store(e)) => {
                rt.tb.end(ingest_span);
                inner.http.internal_error();
                return text_response(
                    500,
                    "Internal Server Error",
                    &format!("durable write failed: {e}"),
                );
            }
        }
    }
    let committed = committed.expect("parse_ingest_body rejects empty bodies");
    rt.tb.end_with(
        ingest_span,
        vec![
            ("points", TagValue::U64(incoming as u64)),
            ("seq", TagValue::U64(committed.seq)),
        ],
    );
    // Drop exactly the cached tiles the write can alter: anything the
    // dilated bounding rect of the touched coordinates reaches.
    let mut invalidated = 0u64;
    for op in [
        (!appends.is_empty()).then_some(WalOp::Append(appends)),
        (!removes.is_empty()).then_some(WalOp::Tombstone(removes)),
    ]
    .into_iter()
    .flatten()
    {
        invalidated += invalidate_for_write(inner, idx, &entry, &op);
    }
    maybe_spawn_compaction(inner, idx, &state);
    inner.http.ok(false);
    let body = Value::obj(vec![
        ("acked", Value::Bool(true)),
        ("seq", json::num_u(committed.seq)),
        ("wal_len", json::num_u(committed.wal_len)),
        (
            "fsync",
            Value::Str(
                match inner.fsync {
                    FsyncPolicy::Every => "every",
                    FsyncPolicy::Batch => "batch",
                }
                .to_string(),
            ),
        ),
        ("invalidated_tiles", json::num_u(invalidated)),
    ])
    .render();
    Response::new(200, "OK").body("application/json", body.into_bytes())
}

/// Drops cached tiles a write can alter. With a finite-support (or
/// effectively finite) kernel only tiles whose window intersects the
/// write's dilated bounding rect go; a kernel with no usable cutoff
/// clears the whole dataset.
fn invalidate_for_write(inner: &Inner, idx: usize, entry: &DatasetEntry, op: &WalOp) -> u64 {
    let dataset = idx as u32;
    let dropped = match (ingest::support_radius(entry.kernel), ingest::op_rect(op)) {
        (Some(r), Some(rect)) => {
            let rect = ingest::dilate_rect(rect, r);
            inner.cache.invalidate_where(|k| {
                k.dataset == dataset
                    && ingest::tile_intersects(&entry.base, k.addr.z, k.addr.x, k.addr.y, &rect)
            })
        }
        _ => inner.cache.invalidate_where(|k| k.dataset == dataset),
    };
    inner.ingest_counters.invalidated(dropped);
    dropped
}

/// Kicks off a background compaction when the memtable crosses the
/// configured threshold; at most one per dataset at a time.
fn maybe_spawn_compaction(inner: &Arc<Inner>, idx: usize, state: &Arc<IngestState>) {
    if state.point_count() < inner.compact_points {
        return;
    }
    if state.compacting.swap(true, Ordering::SeqCst) {
        return;
    }
    let worker_inner = Arc::clone(inner);
    let worker_state = Arc::clone(state);
    let spawned = std::thread::Builder::new()
        .name("kdv-serve-compact".to_string())
        .spawn(move || {
            // Reset via a drop guard: if compaction panics, unwinding
            // must still clear the flag — a stuck `compacting` would
            // silently disable compaction for this dataset forever
            // (and, once the memtable filled, reject every write).
            struct ClearCompacting(Arc<IngestState>);
            impl Drop for ClearCompacting {
                fn drop(&mut self) {
                    self.0.compacting.store(false, Ordering::SeqCst);
                }
            }
            let _clear = ClearCompacting(Arc::clone(&worker_state));
            run_compaction(&worker_inner, idx, &worker_state);
        });
    match spawned {
        Ok(handle) => {
            let mut handles = inner
                .compactions
                .lock()
                .expect("compaction registry poisoned");
            handles.retain(|h| !h.is_finished());
            handles.push(handle);
        }
        Err(_) => state.compacting.store(false, Ordering::SeqCst),
    }
}

/// One compaction run: fold the memtable into a fresh snapshot, swap
/// it into the catalog, and drop every cached artifact derived from
/// the old base. Failure leaves the WAL intact — durability is never
/// traded for compaction progress.
fn run_compaction(inner: &Inner, idx: usize, state: &IngestState) {
    match ingest::compact(state, &inner.catalog, idx, &inner.ingest_counters) {
        Ok(None) => {}
        Ok(Some(_)) => {
            let dataset = idx as u32;
            // The base changed wholesale: every cached tile for this
            // dataset describes the old tree's summation order.
            let dropped = inner.cache.invalidate_where(|k| k.dataset == dataset);
            inner.ingest_counters.invalidated(dropped);
        }
        Err(message) => {
            inner.ingest_counters.compaction_failure();
            eprintln!("kdv-serve: compaction failed: {message}");
        }
    }
}

/// `GET /datasets/{name}/stats`: point counts and, when streaming
/// ingest is live for this dataset, the WAL/memtable watermarks the
/// crash harness verifies recovery against.
fn dataset_stats(inner: &Arc<Inner>, idx: usize) -> Response {
    let entry = match inner.catalog.get(idx) {
        Ok(entry) => entry,
        Err(message) => {
            inner.http.internal_error();
            return text_response(500, "Internal Server Error", &message);
        }
    };
    let state = match ingest_state(inner, idx, &entry, false) {
        Ok(state) => state,
        Err(message) => {
            inner.http.internal_error();
            return text_response(500, "Internal Server Error", &message);
        }
    };
    let base_points = entry.tree.points().len() as u64;
    let (points_live, ingest) = match &state {
        Some(state) => {
            let s = state.status();
            let live = (base_points + s.appends as u64).saturating_sub(s.removed as u64);
            let obj = Value::obj(vec![
                ("enabled", Value::Bool(true)),
                (
                    "fsync",
                    Value::Str(
                        match inner.fsync {
                            FsyncPolicy::Every => "every",
                            FsyncPolicy::Batch => "batch",
                        }
                        .to_string(),
                    ),
                ),
                ("last_seq", json::num_u(s.last_seq)),
                ("durable_seq", json::num_u(s.durable_seq)),
                ("wal_len", json::num_u(s.wal_len)),
                ("ops", json::num_u(s.ops as u64)),
                ("appends", json::num_u(s.appends as u64)),
                ("removed", json::num_u(s.removed as u64)),
                ("epoch", json::num_u(s.epoch)),
                (
                    "compacting",
                    Value::Bool(state.compacting.load(Ordering::SeqCst)),
                ),
            ]);
            (live, obj)
        }
        None => (
            base_points,
            Value::obj(vec![("enabled", Value::Bool(false))]),
        ),
    };
    inner.http.ok(false);
    let body = Value::obj(vec![
        ("name", Value::Str(entry.name.clone())),
        ("base_points", json::num_u(base_points)),
        ("applied_seq", json::num_u(entry.applied_seq)),
        ("points_live", json::num_u(points_live)),
        ("ingest", ingest),
    ])
    .render();
    Response::new(200, "OK").body("application/json", body.into_bytes())
}

/// Renders one tile under a fresh budget, merging its telemetry into
/// the server-wide aggregate. Returns the encoded PNG and the number
/// of budget-degraded pixels.
///
/// Every tile is one batched engine call; the kind, the level pick and
/// the memtable only choose its tree, stop rule and per-pixel offset
/// ([`TilePlan`], which states each path's contract). When the request
/// is traced, the engine runs with a [`DepthProfile`] teed into its
/// probe, so the `render` span carries the work attribution (heap pops,
/// bound evaluations, point evaluations, resyncs, and pops-by-depth);
/// untraced renders feed only the event counters.
fn render_tile(
    inner: &Inner,
    entry: &DatasetEntry,
    addr: TileAddr,
    rt: &mut RequestTrace,
    delta: Option<&DeltaView>,
    level: Option<usize>,
) -> Result<(Vec<u8>, u64), KdvError> {
    let raster = pyramid_raster(&entry.base, addr.z, addr.x, addr.y)?;
    let mut metrics = RenderMetrics::new();
    let mut depth = DepthProfile::new();
    let render_span = rt.tb.begin("render");
    let start = Instant::now();
    let plan = TilePlan::new(
        entry, addr.kind, level, inner.eps, inner.tau, &raster, delta,
    );
    match level {
        Some(l) => inner.pyramid.level_render(l),
        None => inner.pyramid.full_render(),
    }
    let mut budget = inner.policy.issue();
    let events = &mut metrics.events;
    let tile = if rt.tb.is_enabled() {
        let mut probe = TracingProbe::new(events, &mut depth);
        plan.eval(&raster, &mut budget, &mut probe)?
    } else {
        plan.eval(&raster, &mut budget, events)?
    };
    let tile = match addr.kind {
        TileKind::Eps => paint_eps_tile(&raster, &tile, &inner.cm, entry.scale, &mut metrics),
        TileKind::Tau => paint_tau_tile(&raster, &tile.classify(inner.tau), &mut metrics),
    };
    metrics.set_wall_ns(start.elapsed().as_nanos() as u64);
    rt.tb.end_with(
        render_span,
        vec![
            ("level", TagValue::Str(level_label(level))),
            ("heap_pops", TagValue::U64(metrics.events.heap_pops)),
            ("node_bounds", TagValue::U64(metrics.events.node_bounds)),
            ("point_evals", TagValue::U64(metrics.events.point_evals)),
            ("resyncs", TagValue::U64(metrics.events.resyncs)),
            ("frontier_reuse", TagValue::U64(metrics.frontier_reuse)),
            ("simd_lanes", TagValue::U64(metrics.simd_lanes as u64)),
            ("degraded_pixels", TagValue::U64(tile.degraded_pixels)),
            ("depth_pops", TagValue::Pairs(depth.nonzero())),
        ],
    );
    inner
        .metrics
        .lock()
        .expect("metrics aggregate poisoned")
        .merge(&metrics);
    let encode_span = rt.tb.begin("encode");
    let bytes = png::encode(&tile.image);
    rt.tb.end_with(
        encode_span,
        vec![("bytes", TagValue::U64(bytes.len() as u64))],
    );
    Ok((bytes, tile.degraded_pixels))
}

/// The `/metrics` document: every block's declared rows, plus the
/// JSON-only startup report and catalog status.
fn metrics_json(inner: &Inner) -> Value {
    let mut cache = CACHE.json_fields(&inner.cache.snapshot());
    cache.extend(OCCUPANCY.json_fields(&inner.cache));
    let mut store = STORE.json_fields(&inner.catalog.counters().snapshot());
    store.push(("catalog".to_string(), inner.catalog.status_json()));
    let render = inner
        .metrics
        .lock()
        .expect("metrics aggregate poisoned")
        .to_json("tiles");
    let mut doc = vec![("schema".to_string(), Value::Str(SERVE_SCHEMA.to_string()))];
    doc.extend(UPTIME.json_fields(&inner.started));
    doc.extend(
        [
            ("startup", inner.startup.to_json()),
            ("http", HTTP.json(&inner.http.snapshot())),
            ("cache", Value::Obj(cache)),
            ("render", render),
            ("store", Value::Obj(store)),
            ("ingest", INGEST.json(&inner.ingest_counters.snapshot())),
            ("pyramid", PYRAMID.json(&inner.pyramid.snapshot())),
            ("trace", trace_json(inner)),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    Value::Obj(doc)
}

/// The `trace` block: ring counters and per-stage latency summaries
/// (microseconds), or just `enabled: false`.
fn trace_json(inner: &Inner) -> Value {
    let mut fields = vec![("enabled".to_string(), Value::Bool(inner.traces.is_some()))];
    if let Some(ring) = &inner.traces {
        fields.extend(TRACE_RING.json_fields(ring));
        let stages = inner.stages.lock().expect("stage histograms poisoned");
        fields.extend(STAGE_LATENCY.json_fields(&stages));
    }
    Value::Obj(fields)
}

/// `/metrics?format=prometheus`: the same rows in text exposition
/// 0.0.4.
fn metrics_prometheus(inner: &Inner) -> String {
    let mut w = PromWriter::new();
    w.add(&UPTIME, &inner.started);
    w.add(&HTTP, &inner.http.snapshot());
    w.add(&CACHE, &inner.cache.snapshot());
    w.add(&OCCUPANCY, &inner.cache);
    w.add(&STORE, &inner.catalog.counters().snapshot());
    w.add(&INGEST, &inner.ingest_counters.snapshot());
    w.add(&PYRAMID, &inner.pyramid.snapshot());
    {
        let render = inner.metrics.lock().expect("metrics aggregate poisoned");
        w.add(&RENDER_SHAPE, &render);
        w.add(&RENDER, &render);
    }
    if let Some(ring) = &inner.traces {
        w.add(&TRACE_RING, ring);
        w.add(
            &STAGE_LATENCY,
            &inner.stages.lock().expect("stage histograms poisoned"),
        );
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::png_decode::decode;
    use kdv_core::bandwidth::scott_gamma;
    use kdv_core::engine::{NoProbe, RenderBudget};
    use kdv_core::raster::RasterSpec;
    use kdv_core::threshold::estimate_levels;
    use kdv_data::Dataset;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// The body of one `GET path` (answered with `Connection: close`).
    fn get_body(addr: SocketAddr, path: &str) -> Vec<u8> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: kdv\r\n\r\n").as_bytes())
            .expect("send request");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read response");
        let head = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("response has a head");
        assert!(raw.starts_with(b"HTTP/1.1 200"), "{path}: not 200");
        raw.split_off(head + 4)
    }

    /// Every ε and τ tile of a z0–3 sweep, fetched over HTTP, decodes
    /// to exactly the image the server painted before encoding it.
    #[test]
    fn served_tiles_decode_to_the_painted_images_bit_for_bit() {
        let mut points = Dataset::Crime.generate(2000, 5);
        points.scale_weights(1.0 / points.len() as f64);
        let kernel = Kernel::gaussian(scott_gamma(&points).gamma);
        let tree = KdTree::build_default(&points);
        let raster = RasterSpec::covering(&points, 32, 32, MARGIN_FRAC);
        let tau = estimate_levels(&tree, kernel, &raster, 32, 32).tau(0.1);
        let config = ServerConfig {
            tile_size: 32,
            max_z: 3,
            eps: 0.2,
            tau,
            workers: 2,
            ..ServerConfig::default()
        };
        let server = TileServer::start(config, &points, kernel).expect("start");
        let inner = &server.inner;
        let entry = inner.catalog.get(0).expect("the one dataset");
        let mut kinds_seen = [0usize; 2];
        for kind in [TileKind::Eps, TileKind::Tau] {
            for z in 0..=3u8 {
                for x in 0..1u32 << z {
                    for y in 0..1u32 << z {
                        let path = format!("/tiles/{}/{z}/{x}/{y}.png", kind.as_str());
                        let served = decode(&get_body(server.local_addr(), &path))
                            .unwrap_or_else(|e| panic!("{path}: {e}"));
                        let raster = pyramid_raster(&entry.base, z, x, y).expect("in range");
                        let plan =
                            TilePlan::new(&entry, kind, None, inner.eps, inner.tau, &raster, None);
                        let tile = plan
                            .eval(&raster, &mut RenderBudget::unlimited(), &mut NoProbe)
                            .expect("valid plan");
                        let mut metrics = RenderMetrics::new();
                        let painted = match kind {
                            TileKind::Eps => {
                                paint_eps_tile(&raster, &tile, &inner.cm, entry.scale, &mut metrics)
                            }
                            TileKind::Tau => {
                                paint_tau_tile(&raster, &tile.classify(inner.tau), &mut metrics)
                            }
                        };
                        assert!(served.matches(&painted.image), "{path}: pixels differ");
                        kinds_seen[usize::from(served.color_type == 3)] += 1;
                    }
                }
            }
        }
        assert!(
            kinds_seen.iter().all(|&n| n > 0),
            "the sweep covers both RGB and palette tiles: {kinds_seen:?}"
        );
        server.stop();
    }
}
