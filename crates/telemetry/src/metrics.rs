//! Per-render metric aggregation.

use kdv_core::engine::RefineStats;
use kdv_core::raster::DensityGrid;

use crate::counters::EventCounters;
use crate::hist::LogHistogram;
use crate::json::{self, Value};
use crate::registry::{Family, Kind, Reading, Summary, Unit};

/// A time-to-quality checkpoint: how many pixels had final values after
/// how much elapsed time (progressive renders, paper §6 / Fig 20).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Pixels fully evaluated at this point.
    pub pixels: u64,
    /// Wall time elapsed since the render started, in nanoseconds.
    pub elapsed_ns: u64,
}

/// Whether a render delivered its full quality contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RenderStatus {
    /// Every pixel met the query's own stop rule (ε or τ).
    #[default]
    Complete,
    /// A budget ran out (or a worker had to be retried) before every
    /// pixel converged; degraded pixels hold best-effort midpoints with
    /// certified error bounds.
    Degraded,
}

impl RenderStatus {
    /// Stable lowercase name (used in JSON and CLI output).
    pub fn as_str(self) -> &'static str {
        match self {
            RenderStatus::Complete => "complete",
            RenderStatus::Degraded => "degraded",
        }
    }
}

/// Everything one render (or one thread's share of a render) observed.
///
/// A renderer drives this in three steps: hand `&mut metrics.events`
/// to the evaluator as its [`kdv_core::engine::Probe`], call
/// [`record_pixel`](RenderMetrics::record_pixel) after each pixel, and
/// [`set_wall_ns`](RenderMetrics::set_wall_ns) once at the end.
/// Parallel renders build one sibling per thread and
/// [`merge`](RenderMetrics::merge) them in deterministic band order.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderMetrics {
    /// Raw refinement-event totals (also the render's probe).
    pub events: EventCounters,
    /// Pixels recorded.
    pub pixels: u64,
    /// Distribution of refinement iterations (heap pops) per pixel.
    pub iterations: LogHistogram,
    /// Distribution of per-pixel latency in nanoseconds. Wall-clock
    /// noise makes this the one non-deterministic field; comparisons
    /// and merge tests should use the event counters instead.
    pub latency_ns: LogHistogram,
    /// Total render wall time in nanoseconds.
    pub wall_ns: u64,
    /// Worker threads that contributed (1 for sequential renders).
    pub threads: u32,
    /// Time-to-quality checkpoints, in the order they were recorded.
    pub checkpoints: Vec<Checkpoint>,
    /// Whether every pixel met its quality contract.
    pub status: RenderStatus,
    /// Pixels cut short by a budget (best-effort midpoints).
    pub degraded_pixels: u64,
    /// Parallel bands whose worker panicked and were retried
    /// sequentially.
    pub band_retries: u32,
    /// Bound evaluations pixels *skipped* thanks to a shared tile
    /// frontier (sum of [`RefineStats::frontier_reuse`]; 0 for
    /// per-pixel renders).
    pub frontier_reuse: u64,
    /// Widest SIMD lane count any recorded pixel's leaf scans used
    /// (1 = scalar everywhere; 0 = no pixels recorded).
    pub simd_lanes: u32,
    cost_map: Option<DensityGrid>,
}

impl Default for RenderMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl RenderMetrics {
    /// Metrics without a cost map.
    pub fn new() -> Self {
        Self {
            events: EventCounters::default(),
            pixels: 0,
            iterations: LogHistogram::new(),
            latency_ns: LogHistogram::new(),
            wall_ns: 0,
            threads: 1,
            checkpoints: Vec::new(),
            status: RenderStatus::Complete,
            degraded_pixels: 0,
            band_retries: 0,
            frontier_reuse: 0,
            simd_lanes: 0,
            cost_map: None,
        }
    }

    /// Marks one pixel as budget-degraded: counted, and the render's
    /// status drops to [`RenderStatus::Degraded`].
    pub fn mark_degraded_pixel(&mut self) {
        self.degraded_pixels += 1;
        self.status = RenderStatus::Degraded;
    }

    /// Records one parallel band retried sequentially after its worker
    /// panicked. The retry recomputes the band, so the result stays
    /// correct; the event is surfaced because a panicking worker is
    /// always worth investigating.
    pub fn record_band_retry(&mut self) {
        self.band_retries += 1;
    }

    /// Metrics that additionally accumulate a `width × height` per-pixel
    /// cost map (each pixel's [`RefineStats::total_work`]).
    pub fn with_cost_map(width: u32, height: u32) -> Self {
        let mut m = Self::new();
        m.cost_map = Some(DensityGrid::zeros(width, height));
        m
    }

    /// An empty metrics object with the same cost-map configuration —
    /// what each worker thread of a parallel render starts from.
    pub fn sibling(&self) -> Self {
        let mut m = Self::new();
        if let Some(map) = &self.cost_map {
            m.cost_map = Some(DensityGrid::zeros(map.width(), map.height()));
        }
        m
    }

    /// Records one finished pixel: its iteration count into the
    /// histogram, its latency, and (when a cost map is attached) its
    /// total refinement work at `(col, row)`.
    ///
    /// Event counters are *not* touched here — they accumulate live via
    /// the probe during evaluation, so nothing is double-counted.
    pub fn record_pixel(&mut self, col: u32, row: u32, stats: &RefineStats, latency_ns: u64) {
        self.pixels += 1;
        self.iterations.record(stats.iterations as u64);
        self.latency_ns.record(latency_ns);
        self.frontier_reuse += stats.frontier_reuse as u64;
        self.simd_lanes = self.simd_lanes.max(stats.simd_lanes as u32);
        if let Some(map) = &mut self.cost_map {
            map.set(col, row, stats.total_work() as f64);
        }
    }

    /// Appends a time-to-quality checkpoint.
    pub fn checkpoint(&mut self, pixels: u64, elapsed_ns: u64) {
        self.checkpoints.push(Checkpoint { pixels, elapsed_ns });
    }

    /// Sets the total render wall time.
    pub fn set_wall_ns(&mut self, wall_ns: u64) {
        self.wall_ns = wall_ns;
    }

    /// The per-pixel cost map, if one was requested.
    pub fn cost_map(&self) -> Option<&DensityGrid> {
        self.cost_map.as_ref()
    }

    /// Mean refinement iterations per recorded pixel.
    pub fn mean_iterations(&self) -> f64 {
        self.iterations.mean()
    }

    /// Folds another thread's metrics into this one.
    ///
    /// Counters, pixel counts, and histograms add; cost maps add
    /// pixel-wise (bands are disjoint, so this is a union); checkpoints
    /// concatenate; `wall_ns` takes the max (threads ran concurrently);
    /// `threads` adds.
    ///
    /// # Panics
    /// Panics if exactly one side has a cost map, or the maps disagree
    /// on shape — siblings never do.
    pub fn merge(&mut self, other: &RenderMetrics) {
        self.events.merge(&other.events);
        self.pixels += other.pixels;
        self.iterations.merge(&other.iterations);
        self.latency_ns.merge(&other.latency_ns);
        self.wall_ns = self.wall_ns.max(other.wall_ns);
        self.threads += other.threads;
        self.checkpoints.extend_from_slice(&other.checkpoints);
        if other.status == RenderStatus::Degraded {
            self.status = RenderStatus::Degraded;
        }
        self.degraded_pixels += other.degraded_pixels;
        self.band_retries += other.band_retries;
        self.frontier_reuse += other.frontier_reuse;
        self.simd_lanes = self.simd_lanes.max(other.simd_lanes);
        match (&mut self.cost_map, &other.cost_map) {
            (None, None) => {}
            (Some(mine), Some(theirs)) => {
                assert_eq!(mine.width(), theirs.width(), "cost-map shape mismatch");
                assert_eq!(mine.height(), theirs.height(), "cost-map shape mismatch");
                for row in 0..mine.height() {
                    for col in 0..mine.width() {
                        let v = mine.get(col, row) + theirs.get(col, row);
                        mine.set(col, row, v);
                    }
                }
            }
            _ => panic!("cannot merge metrics with and without a cost map"),
        }
    }

    /// One-line human summary for `--verbose` output.
    pub fn summary(&self) -> String {
        let degraded = match self.status {
            RenderStatus::Complete => String::new(),
            RenderStatus::Degraded => format!(
                "; DEGRADED ({} px best-effort, {} band retries)",
                self.degraded_pixels, self.band_retries
            ),
        };
        format!(
            "{} px in {:.1} ms ({} thread{}): {} heap pops, {} node bounds, \
             {} leaf scans, {} point evals, {} resyncs; iters/px mean {:.1} p99 ≤ {} max {}{degraded}",
            self.pixels,
            self.wall_ns as f64 / 1e6,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.events.heap_pops,
            self.events.node_bounds,
            self.events.leaf_scans,
            self.events.point_evals,
            self.events.resyncs,
            self.mean_iterations(),
            self.iterations.quantile_le(0.99),
            self.iterations.max(),
        )
    }

    /// The full metrics document (`kdv-metrics/1` schema). `query`
    /// names what was rendered, e.g. `"eps"`, `"tau"`, `"progressive"`.
    ///
    /// The cost map appears as a summary (shape + work totals), not the
    /// raw raster — that exports separately as an image.
    pub fn to_json(&self, query: &str) -> Value {
        let cost_map = match &self.cost_map {
            None => Value::Null,
            Some(map) => {
                let total: f64 = map.values().iter().sum();
                let max = map.min_max().map_or(0.0, |(_, hi)| hi);
                Value::obj(vec![
                    ("width", json::num_u(map.width() as u64)),
                    ("height", json::num_u(map.height() as u64)),
                    ("total_work", json::num_f(total)),
                    ("max_work", json::num_f(max)),
                ])
            }
        };
        let checkpoints = self
            .checkpoints
            .iter()
            .map(|c| {
                Value::obj(vec![
                    ("pixels", json::num_u(c.pixels)),
                    ("elapsed_ms", json::num_f(c.elapsed_ns as f64 / 1e6)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("schema".to_string(), Value::Str("kdv-metrics/1".into())),
            ("query".to_string(), Value::Str(query.into())),
        ];
        fields.extend(RENDER_SHAPE.json_fields(self));
        fields.push((
            "status".to_string(),
            Value::Str(self.status.as_str().into()),
        ));
        fields.extend(RENDER.json_fields(self));
        fields.push(("checkpoints".to_string(), Value::Arr(checkpoints)));
        fields.push(("cost_map".to_string(), cost_map));
        Value::Obj(fields)
    }
}

crate::metric_table! {
    /// The render block's pixel count and shape, written before its
    /// `status`: wall time (max over merged renders) and contributing
    /// threads are JSON-only.
    pub static RENDER_SHAPE: RenderMetrics = "render" {
        "pixels": Family::counter("kdv_render_pixels_total", "Tile pixels rendered.")
            => |m| Reading::U(m.pixels),
        "wall_ms": Family::json_only(Kind::Gauge).unit(Unit::Ms)
            => |m| Reading::F(m.wall_ns as f64 / 1e6),
        "threads": Family::json_only(Kind::Gauge) => |m| Reading::U(m.threads as u64),
    }
}

crate::metric_table! {
    /// The render block's work accounting, written after its `status`.
    pub static RENDER: RenderMetrics = "render" {
        "degraded_pixels": Family::counter("kdv_render_degraded_pixels_total",
            "Pixels cut short by a render budget.") => |m| Reading::U(m.degraded_pixels),
        "band_retries": Family::counter("kdv_render_band_retries_total",
            "Parallel bands retried sequentially after a worker panic.")
            => |m| Reading::U(m.band_retries as u64),
        "counters.heap_pops": Family::counter("kdv_render_heap_pops_total",
            "Refinement heap pops across all tiles.") => |m| Reading::U(m.events.heap_pops),
        "counters.node_bounds":
            Family::counter("kdv_render_node_bounds_total", "Quadratic bound evaluations.")
            => |m| Reading::U(m.events.node_bounds),
        "counters.leaf_scans":
            Family::counter("kdv_render_leaf_scans_total", "Leaves refined to their exact sums.")
            => |m| Reading::U(m.events.leaf_scans),
        "counters.point_evals":
            Family::counter("kdv_render_point_evals_total", "Exact kernel evaluations at leaves.")
            => |m| Reading::U(m.events.point_evals),
        "counters.resyncs": Family::counter("kdv_render_resyncs_total",
            "Kahan-resync passes over the refinement heap.") => |m| Reading::U(m.events.resyncs),
        "counters.total_work": Family::json_only(Kind::Counter)
            => |m| Reading::U(m.events.total_work()),
        "counters.frontier_reuse": Family::counter("kdv_render_frontier_reuse_total",
            "Node-bound evaluations avoided via shared tile frontiers.")
            => |m| Reading::U(m.frontier_reuse),
        "counters.simd_lanes": Family::gauge("kdv_render_simd_lanes",
            "f64 lanes per distance evaluation (4 on the AVX2 path, 1 scalar).")
            => |m| Reading::U(m.simd_lanes as u64),
        "iterations": Family::histogram("kdv_render_iterations", "Refinement iterations per pixel.",
            Summary::Full, Unit::None) => |m| Reading::Hist(&m.iterations),
        "latency_ns": Family::histogram("kdv_render_pixel_seconds", "Per-pixel refinement latency.",
            Summary::Full, Unit::Ns) => |m| Reading::Hist(&m.latency_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(iterations: usize, point_evals: usize) -> RefineStats {
        RefineStats {
            iterations,
            exact_leaves: 1,
            node_bounds: 2 * iterations,
            point_evals,
            resyncs: 0,
            ..RefineStats::default()
        }
    }

    #[test]
    fn record_pixel_fills_histograms_and_cost_map() {
        let mut m = RenderMetrics::with_cost_map(2, 2);
        m.record_pixel(0, 0, &stats(4, 10), 1_000);
        m.record_pixel(1, 1, &stats(8, 30), 2_000);
        assert_eq!(m.pixels, 2);
        assert_eq!(m.iterations.count(), 2);
        assert_eq!(m.iterations.sum(), 12);
        assert_eq!(m.latency_ns.sum(), 3_000);
        let map = m.cost_map().expect("cost map");
        assert_eq!(map.get(0, 0), stats(4, 10).total_work() as f64);
        assert_eq!(map.get(1, 1), stats(8, 30).total_work() as f64);
        assert_eq!(map.get(1, 0), 0.0);
        // Events stay untouched — they accumulate via the probe.
        assert_eq!(m.events, EventCounters::default());
    }

    #[test]
    fn merge_combines_disjoint_bands() {
        let base = RenderMetrics::with_cost_map(2, 2);
        let mut a = base.sibling();
        let mut b = base.sibling();
        a.record_pixel(0, 0, &stats(4, 10), 500);
        a.events.heap_pops = 4;
        a.wall_ns = 10;
        b.record_pixel(1, 1, &stats(6, 20), 700);
        b.events.heap_pops = 6;
        b.wall_ns = 25;
        b.checkpoint(1, 20);

        let mut merged = base;
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.pixels, 2);
        assert_eq!(merged.events.heap_pops, 10);
        assert_eq!(merged.wall_ns, 25);
        assert_eq!(merged.threads, 3); // base + two siblings
        assert_eq!(
            merged.checkpoints,
            vec![Checkpoint {
                pixels: 1,
                elapsed_ns: 20
            }]
        );
        let map = merged.cost_map().expect("cost map");
        assert_eq!(map.get(0, 0), stats(4, 10).total_work() as f64);
        assert_eq!(map.get(1, 1), stats(6, 20).total_work() as f64);
    }

    #[test]
    #[should_panic(expected = "cost map")]
    fn merge_rejects_mismatched_cost_map_presence() {
        let mut a = RenderMetrics::with_cost_map(2, 2);
        let b = RenderMetrics::new();
        a.merge(&b);
    }

    #[test]
    fn json_document_roundtrips_and_has_counters() {
        let mut m = RenderMetrics::with_cost_map(2, 1);
        m.record_pixel(0, 0, &stats(3, 12), 1_500);
        m.record_pixel(1, 0, &stats(5, 40), 2_500);
        m.events.add_stats(&stats(3, 12));
        m.events.add_stats(&stats(5, 40));
        m.set_wall_ns(4_000_000);
        m.checkpoint(2, 4_000_000);

        let doc = m.to_json("eps");
        let text = doc.render();
        let back = crate::json::parse(&text).expect("metrics JSON parses");
        assert_eq!(back, doc);
        assert_eq!(
            back.get("schema").and_then(Value::as_str),
            Some("kdv-metrics/1")
        );
        assert_eq!(back.get("pixels").and_then(Value::as_f64), Some(2.0));
        let counters = back.get("counters").expect("counters");
        assert_eq!(counters.get("heap_pops").and_then(Value::as_f64), Some(8.0));
        assert_eq!(
            counters.get("point_evals").and_then(Value::as_f64),
            Some(52.0)
        );
        let cost = back.get("cost_map").expect("cost map summary");
        assert_eq!(cost.get("width").and_then(Value::as_f64), Some(2.0));
        let cps = back
            .get("checkpoints")
            .and_then(Value::as_arr)
            .expect("checkpoints");
        assert_eq!(cps.len(), 1);
        assert_eq!(cps[0].get("elapsed_ms").and_then(Value::as_f64), Some(4.0));
    }

    #[test]
    fn degraded_status_propagates_through_merge_and_json() {
        let mut a = RenderMetrics::new();
        let mut b = RenderMetrics::new();
        assert_eq!(a.status, RenderStatus::Complete);
        b.mark_degraded_pixel();
        b.mark_degraded_pixel();
        b.record_band_retry();
        a.merge(&b);
        assert_eq!(a.status, RenderStatus::Degraded);
        assert_eq!(a.degraded_pixels, 2);
        assert_eq!(a.band_retries, 1);

        let doc = a.to_json("eps");
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("degraded"));
        assert_eq!(
            doc.get("degraded_pixels").and_then(Value::as_f64),
            Some(2.0)
        );
        assert_eq!(doc.get("band_retries").and_then(Value::as_f64), Some(1.0));
        assert!(a.summary().contains("DEGRADED"), "{}", a.summary());

        let clean = RenderMetrics::new();
        let doc = clean.to_json("eps");
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("complete"));
        assert!(!clean.summary().contains("DEGRADED"));
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let mut m = RenderMetrics::new();
        m.record_pixel(0, 0, &stats(7, 9), 100);
        m.events.heap_pops = 7;
        m.set_wall_ns(2_500_000);
        let s = m.summary();
        assert!(s.contains("1 px"), "{s}");
        assert!(s.contains("2.5 ms"), "{s}");
        assert!(s.contains("7 heap pops"), "{s}");
    }
}
