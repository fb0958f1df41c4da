//! The tile server: worker pool, admission control, routing.
//!
//! Architecture (one process, no async runtime):
//!
//! * an **accept thread** owns the `TcpListener`. Each accepted
//!   connection is pushed onto a *bounded* queue; when the queue is
//!   full the accept thread answers `429 Too Many Requests` with a
//!   `Retry-After` hint itself rather than letting latency grow
//!   without bound — load shedding at the door, not in the kitchen,
//! * a fixed pool of **worker threads** pops connections, parses one
//!   request, routes it, and closes the socket (`Connection: close` by
//!   default; a client that sends an explicit `Connection: keep-alive`
//!   — the cluster router's proxy path does — keeps the connection,
//!   and the worker serves follow-up requests from the same read
//!   buffer under a short idle timeout),
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
use std::fmt;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kdv_core::bounds::BoundFamily;
use kdv_core::engine::BudgetPolicy;
use kdv_core::error::KdvError;
use kdv_core::kernel::Kernel;
use kdv_geom::PointSet;
use kdv_index::KdTree;
use kdv_store::{FsyncPolicy, WalOp};
use kdv_telemetry::json::{self, Value};
use kdv_telemetry::{
    DepthProfile, HttpCounters, IngestCounters, LogHistogram, PromWriter, PyramidCounters,
    RenderMetrics, TagValue, Trace, TraceBuilder, TraceId, TraceMeta, TraceRing, TracingProbe,
    MAX_TRACKED_LEVELS,
};
use kdv_viz::tile_render::{paint_eps_tile, paint_tau_tile, pyramid_raster};
use kdv_viz::{png, ColorMap};

use crate::cache::{TileCache, TileKey};
use crate::catalog::{finish_entry, Catalog, DatasetEntry, DatasetSource, RenderSettings};
use crate::http::{read_request_from, text_response, Request, RequestError, Response};
use crate::ingest::{self, CommitError, DeltaView, IngestState};
use crate::render::{pick_level, TilePlan, FULL_LEVEL};
use crate::tile::{parse_tile_path, valid_dataset_name, TileAddr, TileKind};

/// Per-connection socket timeouts: a stuck client costs a worker at
/// most this long.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

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
    /// Margin added around the data's bounding box for the level-0
    /// window (fraction of each axis span).
    pub margin_frac: f64,
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
            margin_frac: 0.05,
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

/// Why the server failed to start.
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

impl From<KdvError> for ServeError {
    fn from(e: KdvError) -> Self {
        ServeError::Config(e.to_string())
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

/// Per-request trace state threaded through routing: the span builder
/// plus the metadata bits ([`TraceMeta`]) that are only known deep in
/// the tile path (cache disposition, degradation).
struct RequestTrace {
    tb: TraceBuilder,
    cache: Option<&'static str>,
    degraded: bool,
}

impl RequestTrace {
    fn new(inner: &Inner, accepted: Instant) -> Self {
        Self {
            tb: if inner.traces.is_some() {
                TraceBuilder::with_origin(accepted)
            } else {
                TraceBuilder::off()
            },
            cache: None,
            degraded: false,
        }
    }
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
    family: BoundFamily,
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
    local_addr: SocketAddr,
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
    /// Ingest body cap (bytes).
    ingest_max_body: u64,
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
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl TileServer {
    /// Validates the configuration, builds the kd-tree, sweeps the
    /// density range for the shared color scale, binds the socket, and
    /// spawns the accept thread plus `config.workers` render workers.
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
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

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
            family: BoundFamily::Quadratic,
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
            local_addr,
            started: Instant::now(),
            traces: trace_on
                .then(|| TraceRing::new(config.trace_ring, config.slow_ms.saturating_mul(1_000))),
            stages: Mutex::new(StageStats::new()),
            access_log,
            ready: AtomicBool::new(!config.preload),
            ingest: Mutex::new(HashMap::new()),
            ingest_counters: IngestCounters::default(),
            fsync: config.fsync,
            ingest_max_body: config.ingest_max_body,
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

        let (tx, rx) = sync_channel::<(TcpStream, Instant)>(config.queue);
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let inner = Arc::clone(&inner);
            let rx = Arc::clone(&rx);
            let handle = std::thread::Builder::new()
                .name(format!("kdv-serve-worker-{i}"))
                .spawn(move || worker_loop(&inner, &rx))
                .map_err(ServeError::Io)?;
            workers.push(handle);
        }

        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("kdv-serve-accept".to_string())
                .spawn(move || accept_loop(&inner, &listener, tx))
                .map_err(ServeError::Io)?
        };

        Ok(Self {
            inner,
            addr: local_addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
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
    pub fn join(mut self) {
        self.join_threads();
    }

    /// Initiates shutdown and waits for every thread to exit.
    pub fn stop(mut self) {
        self.request_stop();
        self.join_threads();
    }

    /// Whether shutdown has been requested (a `/shutdown` hit, or
    /// [`TileServer::stop`] racing from another thread). The CLI polls
    /// this so a SIGTERM watcher and the HTTP shutdown path can share
    /// one exit loop.
    pub fn is_shutdown(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    fn request_stop(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept thread's blocking `accept()`.
        let _ = TcpStream::connect(self.addr);
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Compactions finish their snapshot swap before the process is
        // considered stopped (tests copy the store directory right
        // after `stop()` returns).
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = self
                .inner
                .compactions
                .lock()
                .expect("compaction registry poisoned");
            guard.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        // Graceful-drain durability: with the worker pool gone, fsync
        // every live WAL so nothing acknowledged (or even buffered)
        // rides only in the page cache when the process exits.
        let states: Vec<Arc<IngestState>> = {
            let guard = self.inner.ingest.lock().expect("ingest registry poisoned");
            guard.values().cloned().collect()
        };
        for state in states {
            let _ = state.sync_wal();
        }
    }
}

fn validate_config(config: &ServerConfig) -> Result<(), ServeError> {
    if config.tile_size < 8 || config.tile_size > 1024 {
        return Err(ServeError::Config(format!(
            "tile size must be in [8, 1024], got {}",
            config.tile_size
        )));
    }
    if config.workers == 0 {
        return Err(ServeError::Config("need at least one worker".into()));
    }
    if config.queue == 0 {
        return Err(ServeError::Config("queue depth must be at least 1".into()));
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
        margin_frac: config.margin_frac,
        eps: config.eps,
    }
}

fn accept_loop(
    inner: &Inner,
    listener: &TcpListener,
    tx: std::sync::mpsc::SyncSender<(TcpStream, Instant)>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
        let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
        // Nagle off: every response is written in one buffer, so
        // delaying the final short segment for an ACK only adds
        // latency — most visibly on the router's proxy path.
        let _ = stream.set_nodelay(true);
        // The accept timestamp rides along so the worker can attribute
        // queue wait to a span whose origin is *here*, not at dequeue.
        match tx.try_send((stream, Instant::now())) {
            Ok(()) => {}
            Err(TrySendError::Full((mut stream, _))) => {
                // Admission control: shed load at the door with a hint
                // instead of queueing unboundedly. Drain the request
                // bytes already in flight first — closing with unread
                // data sends RST, and the client would see a reset
                // instead of the 429.
                inner.http.rejected();
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                let mut scratch = [0u8; 1024];
                let _ = io::Read::read(&mut stream, &mut scratch);
                let resp = text_response(429, "Too Many Requests", "tile queue is full")
                    .header("Retry-After", "1");
                let _ = resp.write_to(&mut stream);
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping `tx` here disconnects the channel; workers drain the
    // queue and exit.
}

fn worker_loop(inner: &Arc<Inner>, rx: &Mutex<Receiver<(TcpStream, Instant)>>) {
    loop {
        let stream = {
            let guard = rx.lock().expect("accept queue poisoned");
            guard.recv()
        };
        match stream {
            Ok((stream, accepted)) => handle_connection(inner, stream, accepted),
            Err(_) => break, // accept thread gone and queue drained
        }
    }
}

/// How long a worker waits for the next request on a kept-alive
/// connection before handing itself back to the pool. Short on
/// purpose: an idle persistent connection pins a worker, and the
/// router reconnects transparently when its pooled connection has
/// been idled out.
const KEEPALIVE_IDLE: Duration = Duration::from_secs(2);

fn handle_connection(inner: &Arc<Inner>, mut stream: TcpStream, accepted: Instant) {
    // The head/body read buffer persists across requests on the same
    // connection (carrying any pipelined bytes with it), so a
    // keep-alive proxy path pays one allocation per connection, not
    // one per tile.
    let mut carry = Vec::new();
    let mut accepted = accepted;
    loop {
        if !handle_request(inner, &mut stream, accepted, &mut carry) {
            break;
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Between requests, wait for the next request's first byte
        // under the (short) keep-alive idle timeout — *outside* any
        // trace, so idle time on a persistent connection is never
        // attributed to a request.
        if carry.is_empty() {
            let _ = stream.set_read_timeout(Some(KEEPALIVE_IDLE));
            let mut first = [0u8; 1];
            match stream.peek(&mut first) {
                Ok(n) if n > 0 => {}
                _ => break, // closed, reset, or idled out
            }
            let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
        }
        accepted = Instant::now();
    }
    if inner.shutdown.load(Ordering::SeqCst) {
        // Wake the accept thread so shutdown is prompt.
        let _ = TcpStream::connect(inner.local_addr);
    }
}

/// Serves one request off `stream`; returns whether the connection
/// should be kept open for another.
fn handle_request(
    inner: &Arc<Inner>,
    stream: &mut TcpStream,
    accepted: Instant,
    carry: &mut Vec<u8>,
) -> bool {
    let mut rt = RequestTrace::new(inner, accepted);
    rt.tb.span_between("queue", accepted, Instant::now());
    let parse = rt.tb.begin("parse");
    let request = match read_request_from(stream, inner.ingest_max_body, carry) {
        Ok(Ok(request)) => request,
        Ok(Err(reject)) => {
            rt.tb.end(parse);
            let response = match reject {
                RequestError::Bad(message) => {
                    inner.http.bad_request();
                    text_response(400, "Bad Request", &message)
                }
                RequestError::TooLarge { declared, cap } => {
                    // Backpressure by refusal: the body was never read,
                    // so the worker is free immediately. Drain what the
                    // client already pipelined (bounded) so closing
                    // with unread data doesn't RST away the response.
                    // Counted as a shed/rejection (like the 429 paths),
                    // not a 400: /metrics should separate client bugs
                    // from backpressure.
                    inner.ingest_counters.reject_too_large();
                    inner.http.rejected();
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                    let mut scratch = [0u8; 4096];
                    for _ in 0..16 {
                        match io::Read::read(&mut *stream, &mut scratch) {
                            Ok(0) | Err(_) => break,
                            Ok(_) => {}
                        }
                    }
                    text_response(
                        413,
                        "Payload Too Large",
                        &format!("declared body of {declared} bytes exceeds the {cap}-byte cap"),
                    )
                    .header("Retry-After", "1")
                }
            };
            let response = stamp_trace(&rt, response);
            let _ = response.write_to(stream);
            let _ = stream.shutdown(std::net::Shutdown::Write);
            finish_trace(inner, rt, "", "", &response);
            return false;
        }
        Err(_) => return false, // transport failure: nothing to answer
    };
    rt.tb.end(parse);
    // Adopt a forwarded trace ID (the cluster router sends one) so the
    // shard's trace carries the same ID the client saw end to end.
    if let Some(forwarded) = request.trace_id.as_deref().and_then(TraceId::from_hex) {
        rt.tb.set_id(forwarded);
    }
    inner.http.request();
    // Persistence is opt-in (explicit `Connection: keep-alive`), and a
    // draining server closes regardless so shutdown never waits out an
    // idle connection.
    let keep = request.keep_alive && !inner.shutdown.load(Ordering::SeqCst);
    let response = route(inner, &request, &mut rt).keep_alive(keep);
    let response = stamp_trace(&rt, response);
    let write = rt.tb.begin("write");
    let wrote = response.write_to(stream).is_ok();
    rt.tb.end_with(
        write,
        vec![("bytes", TagValue::U64(response.body_len() as u64))],
    );
    let keep = keep && wrote;
    if !keep {
        // Half-close before sealing the trace: the client's
        // read-to-EOF completes without waiting on ring and histogram
        // mutexes, so trace finalization is off the measured path.
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    if wrote {
        inner.http.sent(response.body_len() as u64);
    }
    finish_trace(inner, rt, &request.method, &request.path, &response);
    keep
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
        plan.eval(inner.family, &raster, &mut budget, &mut probe)?
    } else {
        plan.eval(inner.family, &raster, &mut budget, events)?
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

/// The `/metrics` document: HTTP + cache counters and the merged
/// refinement telemetry, all through the kdv-telemetry JSON writer.
fn metrics_json(inner: &Inner) -> Value {
    let cache = inner.cache.snapshot();
    let mut cache_fields = match cache.to_json() {
        Value::Obj(fields) => fields,
        _ => unreachable!("cache snapshot serializes to an object"),
    };
    cache_fields.push((
        "bytes_used".to_string(),
        json::num_u(inner.cache.bytes_used() as u64),
    ));
    cache_fields.push((
        "entries".to_string(),
        json::num_u(inner.cache.entries() as u64),
    ));
    let render = inner
        .metrics
        .lock()
        .expect("metrics aggregate poisoned")
        .to_json("tiles");
    let mut store_fields = match inner.catalog.counters().snapshot().to_json() {
        Value::Obj(fields) => fields,
        _ => unreachable!("store snapshot serializes to an object"),
    };
    store_fields.push(("catalog".to_string(), inner.catalog.status_json()));
    Value::obj(vec![
        ("schema", Value::Str("kdv-serve-metrics/7".to_string())),
        (
            "uptime_ms",
            json::num_u(inner.started.elapsed().as_millis() as u64),
        ),
        ("startup", inner.startup.to_json()),
        ("http", inner.http.snapshot().to_json()),
        ("cache", Value::Obj(cache_fields)),
        ("render", render),
        ("store", Value::Obj(store_fields)),
        ("ingest", inner.ingest_counters.snapshot().to_json()),
        ("pyramid", inner.pyramid.snapshot().to_json()),
        ("trace", trace_json(inner)),
    ])
}

/// The `trace` block of the JSON `/metrics` document: ring state and
/// per-stage latency summaries (microseconds).
fn trace_json(inner: &Inner) -> Value {
    let Some(ring) = &inner.traces else {
        return Value::obj(vec![("enabled", Value::Bool(false))]);
    };
    let stages = inner.stages.lock().expect("stage histograms poisoned");
    let hist_summary = |h: &LogHistogram| {
        Value::obj(vec![
            ("count", json::num_u(h.count())),
            ("mean_us", json::num_f(h.mean())),
            ("p50_le_us", json::num_u(h.quantile_le(0.5))),
            ("p99_le_us", json::num_u(h.quantile_le(0.99))),
            ("max_us", json::num_u(h.max())),
        ])
    };
    let mut stage_fields: Vec<(&str, Value)> = STAGES
        .iter()
        .zip(stages.stages.iter())
        .map(|(name, h)| (*name, hist_summary(h)))
        .collect();
    stage_fields.push(("total", hist_summary(&stages.total)));
    Value::obj(vec![
        ("enabled", Value::Bool(true)),
        (
            "slow_threshold_ms",
            json::num_u(ring.slow_threshold_us() / 1_000),
        ),
        ("completed", json::num_u(ring.completed())),
        ("slow_seen", json::num_u(ring.slow_seen())),
        ("stages", Value::obj(stage_fields)),
    ])
}

/// `/metrics?format=prometheus`: the same counters and histograms in
/// text exposition 0.0.4. Names carry the `kdv_` prefix and base units
/// (`_seconds`, `_bytes`) per the Prometheus conventions; the
/// [`PromWriter`] enforces header-before-samples and name uniqueness.
fn metrics_prometheus(inner: &Inner) -> String {
    let mut w = PromWriter::new();
    w.gauge(
        "kdv_uptime_seconds",
        "Seconds since the server started.",
        inner.started.elapsed().as_secs_f64(),
    );
    let http = inner.http.snapshot();
    w.counter(
        "kdv_http_requests_total",
        "Requests that reached routing.",
        http.requests as f64,
    );
    w.counter_family(
        "kdv_http_responses_total",
        "Responses by outcome class.",
        &[
            ("class=\"ok\"".to_string(), http.ok as f64),
            ("class=\"bad_request\"".to_string(), http.bad_request as f64),
            ("class=\"not_found\"".to_string(), http.not_found as f64),
            ("class=\"rejected\"".to_string(), http.rejected as f64),
            (
                "class=\"internal_error\"".to_string(),
                http.internal_error as f64,
            ),
        ],
    );
    w.counter(
        "kdv_http_degraded_responses_total",
        "200 responses that carried the degraded marker.",
        http.degraded as f64,
    );
    w.counter(
        "kdv_http_response_bytes_total",
        "Response body bytes written.",
        http.bytes_sent as f64,
    );
    let cache = inner.cache.snapshot();
    w.counter(
        "kdv_cache_hits_total",
        "Tile-cache hits.",
        cache.hits as f64,
    );
    w.counter(
        "kdv_cache_misses_total",
        "Tile-cache misses.",
        cache.misses as f64,
    );
    w.counter(
        "kdv_cache_insertions_total",
        "Tiles inserted into the cache.",
        cache.insertions as f64,
    );
    w.counter(
        "kdv_cache_evictions_total",
        "Tiles evicted to make room.",
        cache.evictions as f64,
    );
    w.counter(
        "kdv_cache_evicted_bytes_total",
        "Payload bytes evicted.",
        cache.evicted_bytes as f64,
    );
    w.gauge(
        "kdv_cache_bytes_used",
        "Payload bytes resident in the tile cache.",
        inner.cache.bytes_used() as f64,
    );
    w.gauge(
        "kdv_cache_entries",
        "Tiles resident in the cache.",
        inner.cache.entries() as f64,
    );
    let store = inner.catalog.counters().snapshot();
    w.counter(
        "kdv_store_loads_total",
        "Datasets materialized from snapshots.",
        store.loads as f64,
    );
    w.counter(
        "kdv_store_builds_total",
        "Datasets built from raw data.",
        store.builds as f64,
    );
    w.counter(
        "kdv_store_load_failures_total",
        "Failed dataset materializations.",
        store.load_failures as f64,
    );
    w.counter(
        "kdv_store_checksum_failures_total",
        "Snapshot loads rejected for CRC mismatches.",
        store.checksum_failures as f64,
    );
    w.counter(
        "kdv_store_evictions_total",
        "Datasets evicted under the byte budget.",
        store.evictions as f64,
    );
    w.counter(
        "kdv_store_evicted_bytes_total",
        "Estimated bytes released by dataset evictions.",
        store.evicted_bytes as f64,
    );
    w.histogram(
        "kdv_store_load_seconds",
        "Wall time per snapshot load.",
        &store.load_ns,
        1e-9,
    );
    w.histogram(
        "kdv_store_build_seconds",
        "Wall time per from-source dataset build.",
        &store.build_ns,
        1e-9,
    );
    let ingest = inner.ingest_counters.snapshot();
    w.counter_family(
        "kdv_ingest_records_total",
        "Durable WAL records written, by operation.",
        &[
            ("op=\"append\"".to_string(), ingest.appends as f64),
            ("op=\"tombstone\"".to_string(), ingest.tombstones as f64),
        ],
    );
    w.counter_family(
        "kdv_ingest_points_total",
        "Points carried by durable WAL records, by operation.",
        &[
            ("op=\"append\"".to_string(), ingest.append_points as f64),
            (
                "op=\"tombstone\"".to_string(),
                ingest.tombstone_points as f64,
            ),
        ],
    );
    w.counter(
        "kdv_ingest_acks_total",
        "Writes acknowledged after reaching the durability point.",
        ingest.acks as f64,
    );
    w.counter_family(
        "kdv_ingest_rejections_total",
        "Ingest requests refused before any WAL write.",
        &[
            (
                "reason=\"too_large\"".to_string(),
                ingest.rejected_too_large as f64,
            ),
            (
                "reason=\"backpressure\"".to_string(),
                ingest.rejected_backpressure as f64,
            ),
        ],
    );
    w.counter(
        "kdv_ingest_wal_bytes_total",
        "WAL record bytes appended.",
        ingest.wal_bytes as f64,
    );
    w.counter(
        "kdv_ingest_fsyncs_total",
        "WAL fsync calls issued.",
        ingest.fsyncs as f64,
    );
    w.counter(
        "kdv_ingest_compactions_total",
        "Memtable-to-snapshot compactions completed.",
        ingest.compactions as f64,
    );
    w.counter(
        "kdv_ingest_compaction_failures_total",
        "Compactions that failed and left the WAL intact.",
        ingest.compaction_failures as f64,
    );
    w.counter(
        "kdv_ingest_replays_total",
        "Boot-time WAL replays.",
        ingest.replays as f64,
    );
    w.counter(
        "kdv_ingest_replayed_records_total",
        "Records recovered by WAL replays.",
        ingest.replayed_records as f64,
    );
    w.counter(
        "kdv_ingest_torn_tails_total",
        "Replays that truncated a torn WAL tail.",
        ingest.torn_tails as f64,
    );
    w.counter(
        "kdv_ingest_invalidated_tiles_total",
        "Cached tiles dropped because a write could alter them.",
        ingest.invalidated_tiles as f64,
    );
    let pyr = inner.pyramid.snapshot();
    let mut pyr_family: Vec<(String, f64)> = (0..MAX_TRACKED_LEVELS)
        .map(|l| (format!("level=\"{l}\""), pyr.level_renders[l] as f64))
        .collect();
    pyr_family.push(("level=\"full\"".to_string(), pyr.full_renders as f64));
    w.counter_family(
        "kdv_pyramid_renders_total",
        "Tile renders by the coreset level that served them.",
        &pyr_family,
    );
    w.histogram(
        "kdv_ingest_ack_seconds",
        "Wall time from WAL append to durable ack.",
        &ingest.ack_ns,
        1e-9,
    );
    w.histogram(
        "kdv_ingest_compaction_seconds",
        "Wall time per compaction.",
        &ingest.compact_ns,
        1e-9,
    );
    {
        let render = inner.metrics.lock().expect("metrics aggregate poisoned");
        w.counter(
            "kdv_render_pixels_total",
            "Tile pixels rendered.",
            render.pixels as f64,
        );
        w.counter(
            "kdv_render_heap_pops_total",
            "Refinement heap pops across all tiles.",
            render.events.heap_pops as f64,
        );
        w.counter(
            "kdv_render_node_bounds_total",
            "Quadratic bound evaluations.",
            render.events.node_bounds as f64,
        );
        w.counter(
            "kdv_render_point_evals_total",
            "Exact kernel evaluations at leaves.",
            render.events.point_evals as f64,
        );
        w.counter(
            "kdv_render_resyncs_total",
            "Kahan-resync passes over the refinement heap.",
            render.events.resyncs as f64,
        );
        w.counter(
            "kdv_render_degraded_pixels_total",
            "Pixels cut short by a render budget.",
            render.degraded_pixels as f64,
        );
        w.counter(
            "kdv_render_frontier_reuse_total",
            "Node-bound evaluations avoided via shared tile frontiers.",
            render.frontier_reuse as f64,
        );
        w.gauge(
            "kdv_render_simd_lanes",
            "f64 lanes per distance evaluation (4 on the AVX2 path, 1 scalar).",
            render.simd_lanes as f64,
        );
        w.histogram(
            "kdv_render_pixel_seconds",
            "Per-pixel refinement latency.",
            &render.latency_ns,
            1e-9,
        );
        w.histogram(
            "kdv_render_iterations",
            "Refinement iterations per pixel.",
            &render.iterations,
            1.0,
        );
    }
    if let Some(ring) = &inner.traces {
        w.counter(
            "kdv_traces_total",
            "Requests traced end to end.",
            ring.completed() as f64,
        );
        w.counter(
            "kdv_slow_traces_total",
            "Traces at or over the slow threshold.",
            ring.slow_seen() as f64,
        );
        let stages = inner.stages.lock().expect("stage histograms poisoned");
        let labels: Vec<String> = STAGES.iter().map(|s| format!("stage=\"{s}\"")).collect();
        let series: Vec<(&str, &LogHistogram)> = labels
            .iter()
            .map(String::as_str)
            .zip(stages.stages.iter())
            .collect();
        w.histogram_family(
            "kdv_stage_duration_seconds",
            "Per-stage request latency, from traces.",
            &series,
            1e-6,
        );
        w.histogram(
            "kdv_request_duration_seconds",
            "End-to-end request latency (accept to response written).",
            &stages.total,
            1e-6,
        );
    }
    w.finish()
}
