//! Full-raster rendering: εKDV density grids and τKDV binary masks.
//!
//! [`render`] is the one renderer over the refinement engine: any
//! [`TileRule`], any budget, any thread count, row-major or §6
//! progressive order, metered or not — one code path, so a metered,
//! threaded or budgeted render is the plain one by construction. The
//! `dyn` [`PixelEvaluator`] renderers ([`render_eps`], [`render_tau`],
//! [`render_eps_progressive`]) serve the paper's non-bound baselines
//! (EXACT, Scikit, Z-order), which have no bracket to report.

use crate::progressive::progressive_order;
use kdv_core::engine::{
    BudgetedEval, NoProbe, Probe, RefineEvaluator, RefineStats, RenderBudget, TileRule,
};
use kdv_core::error::KdvError;
use kdv_core::method::PixelEvaluator;
use kdv_core::query::validate_threads;
use kdv_core::raster::{DensityGrid, RasterSpec};
use kdv_telemetry::RenderMetrics;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A row-major grid of booleans (τKDV output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryGrid {
    width: u32,
    height: u32,
    values: Vec<bool>,
}

impl BinaryGrid {
    /// Creates an all-false grid.
    pub fn falses(width: u32, height: u32) -> Self {
        Self {
            width,
            height,
            values: vec![false; width as usize * height as usize],
        }
    }

    /// Grid width.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Value at `(col, row)`.
    #[inline]
    pub fn get(&self, col: u32, row: u32) -> bool {
        self.values[row as usize * self.width as usize + col as usize]
    }

    /// Sets value at `(col, row)`.
    #[inline]
    pub fn set(&mut self, col: u32, row: u32, v: bool) {
        self.values[row as usize * self.width as usize + col as usize] = v;
    }

    /// Number of `true` (hot) pixels.
    pub fn count_hot(&self) -> usize {
        self.values.iter().filter(|&&b| b).count()
    }

    /// Fraction of pixels that differ from `other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn disagreement(&self, other: &BinaryGrid) -> f64 {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        let diff = self
            .values
            .iter()
            .zip(&other.values)
            .filter(|(a, b)| a != b)
            .count();
        diff as f64 / self.values.len() as f64
    }
}

/// Renders a full εKDV density grid in row-major order.
pub fn render_eps(ev: &mut dyn PixelEvaluator, raster: &RasterSpec, eps: f64) -> DensityGrid {
    let mut grid = DensityGrid::zeros(raster.width(), raster.height());
    for row in 0..raster.height() {
        for col in 0..raster.width() {
            let q = raster.pixel_center(col, row);
            grid.set(col, row, ev.eval_eps(&q, eps));
        }
    }
    grid
}

/// Renders a full τKDV binary mask in row-major order.
pub fn render_tau(ev: &mut dyn PixelEvaluator, raster: &RasterSpec, tau: f64) -> BinaryGrid {
    let mut grid = BinaryGrid::falses(raster.width(), raster.height());
    for row in 0..raster.height() {
        for col in 0..raster.width() {
            let q = raster.pixel_center(col, row);
            grid.set(col, row, ev.eval_tau(&q, tau));
        }
    }
    grid
}

/// Outcome of a progressive render.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressiveRender {
    /// The (possibly partial) density grid; unevaluated pixels carry
    /// their enclosing block's representative value, so the grid is
    /// always fully painted (§6).
    pub grid: DensityGrid,
    /// Number of pixels actually evaluated before the deadline.
    pub evaluated: usize,
    /// Whether every pixel was evaluated exactly.
    pub complete: bool,
}

/// Renders εKDV in the §6 progressive order, stopping after `budget`
/// (the "user terminates the process at time t" of Fig 20/21).
///
/// Every prefix paints the full raster: step values fill their whole
/// quad-tree block and finer steps overwrite sub-blocks.
pub fn render_eps_progressive(
    ev: &mut dyn PixelEvaluator,
    raster: &RasterSpec,
    eps: f64,
    budget: Option<Duration>,
) -> ProgressiveRender {
    let steps = progressive_order(raster.width(), raster.height());
    let mut canvas = ProgressiveCanvas::new(raster.width(), raster.height());
    let start = Instant::now();
    let mut evaluated = 0usize;
    for step in &steps {
        if let Some(b) = budget {
            if evaluated > 0 && start.elapsed() >= b {
                break;
            }
        }
        let q = raster.pixel_center(step.col, step.row);
        let v = ev.eval_eps(&q, eps);
        evaluated += 1;
        canvas.apply(step, v);
    }
    ProgressiveRender {
        grid: canvas.into_grid(),
        complete: evaluated == steps.len(),
        evaluated,
    }
}

/// The order [`render`] visits pixels in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PixelOrder {
    /// Row-major. Every pixel is evaluated; once the budget runs out
    /// the rest degrade to their root-bound midpoints.
    #[default]
    RowMajor,
    /// The §6 coarse-to-fine order, single-threaded. An exhausted
    /// budget stops the descent and the grid stays fully painted at
    /// the coarsest completed level (the "user stops at time t" of
    /// Figs 20–21).
    Progressive,
}

/// How [`render`] runs: threads, pixel order, and optional metrics.
#[derive(Debug)]
pub struct RenderOpts<'m> {
    /// Row bands rendered concurrently (at least 1).
    pub threads: usize,
    /// Pixel visiting order.
    pub order: PixelOrder,
    /// Telemetry sink: refinement events, per-pixel histograms, the
    /// cost map, degraded pixels, band retries and — in the
    /// progressive order — time-to-quality checkpoints.
    pub metrics: Option<&'m mut RenderMetrics>,
}

impl Default for RenderOpts<'_> {
    fn default() -> Self {
        Self {
            threads: 1,
            order: PixelOrder::RowMajor,
            metrics: None,
        }
    }
}

/// What [`render`] asks of each band's evaluator. [`RefineEvaluator`]
/// is the engine; a wrapper may add its own probe to every query (the
/// chaos suite injects faults that way).
pub trait BandEvaluator {
    /// One budgeted query (see [`RefineEvaluator::eval`]).
    fn eval<P: Probe>(
        &mut self,
        q: &[f64],
        rule: TileRule,
        budget: &mut RenderBudget,
        probe: &mut P,
    ) -> Result<BudgetedEval, KdvError>;

    /// Diagnostics of the most recent query.
    fn last_stats(&self) -> RefineStats;
}

impl BandEvaluator for RefineEvaluator<'_> {
    #[inline]
    fn eval<P: Probe>(
        &mut self,
        q: &[f64],
        rule: TileRule,
        budget: &mut RenderBudget,
        probe: &mut P,
    ) -> Result<BudgetedEval, KdvError> {
        RefineEvaluator::eval(self, q, rule, budget, probe)
    }

    #[inline]
    fn last_stats(&self) -> RefineStats {
        RefineEvaluator::last_stats(self)
    }
}

impl<E: BandEvaluator + ?Sized> BandEvaluator for &mut E {
    #[inline]
    fn eval<P: Probe>(
        &mut self,
        q: &[f64],
        rule: TileRule,
        budget: &mut RenderBudget,
        probe: &mut P,
    ) -> Result<BudgetedEval, KdvError> {
        (**self).eval(q, rule, budget, probe)
    }

    #[inline]
    fn last_stats(&self) -> RefineStats {
        (**self).last_stats()
    }
}

/// The bracket of a pixel [`render`] never reached: nothing is known.
const UNREACHED: BudgetedEval = BudgetedEval {
    lb: f64::NEG_INFINITY,
    ub: f64::INFINITY,
    exhausted: true,
};

/// The output of [`render`]: every pixel's certified bracket, from
/// which the density grid, error map, τ mask and degraded count follow.
#[derive(Debug, Clone, PartialEq)]
pub struct Rendered {
    width: u32,
    height: u32,
    order: PixelOrder,
    /// Row-major brackets. A pixel the progressive order never reached
    /// holds the unbounded bracket, flagged `exhausted`.
    pub evals: Vec<BudgetedEval>,
    /// Pixels evaluated (all of them in row-major order).
    pub evaluated: usize,
}

impl Rendered {
    /// The density estimate per pixel: each bracket's midpoint. In the
    /// progressive order every evaluated value paints its whole §6
    /// block, so the grid is complete after any prefix.
    pub fn grid(&self) -> DensityGrid {
        if self.order == PixelOrder::RowMajor {
            let values = self.evals.iter().map(BudgetedEval::estimate).collect();
            return DensityGrid::from_values(self.width, self.height, values);
        }
        let mut canvas = ProgressiveCanvas::new(self.width, self.height);
        let width = self.width as usize;
        for step in progressive_order(self.width, self.height)
            .iter()
            .take(self.evaluated)
        {
            let e = self.evals[step.row as usize * width + step.col as usize];
            canvas.apply(step, e.estimate());
        }
        canvas.into_grid()
    }

    /// The certified bound on `|grid − F|` per evaluated pixel: each
    /// bracket's half-gap.
    pub fn error_map(&self) -> DensityGrid {
        let values = self.evals.iter().map(BudgetedEval::half_gap).collect();
        DensityGrid::from_values(self.width, self.height, values)
    }

    /// The τ mask of a render under [`TileRule::Tau`]`(tau)` and its
    /// undecided pixels (only those may be misclassified).
    pub fn classify(&self, tau: f64) -> (BinaryGrid, BinaryGrid) {
        let mut mask = BinaryGrid::falses(self.width, self.height);
        let mut undecided = BinaryGrid::falses(self.width, self.height);
        for (i, e) in self.evals.iter().enumerate() {
            let t = e.classify(tau);
            let (col, row) = (i as u32 % self.width, i as u32 / self.width);
            mask.set(col, row, t.hot);
            undecided.set(col, row, !t.decided);
        }
        (mask, undecided)
    }

    /// Pixels that did not meet the rule: cut short by the budget, or
    /// never reached.
    pub fn degraded(&self) -> u64 {
        self.evals.iter().filter(|e| e.exhausted).count() as u64
    }

    /// Whether every pixel met the rule.
    pub fn is_complete(&self) -> bool {
        self.degraded() == 0
    }
}

/// One band's rows `[first_row, first_row + rows)`.
#[derive(Debug, Clone, Copy)]
struct Band {
    first_row: usize,
    rows: usize,
}

/// Splits `height` rows into at most `threads` contiguous bands.
fn bands(height: usize, threads: usize) -> Vec<Band> {
    let rows_per_band = height.div_ceil(threads);
    let mut out = Vec::new();
    let mut first_row = 0usize;
    while first_row < height {
        let rows = rows_per_band.min(height - first_row);
        out.push(Band { first_row, rows });
        first_row += rows;
    }
    out
}

/// What a finished band hands back: its metrics sibling (when metered),
/// its spent budget share, and how many pixels it evaluated.
type BandResult = Result<(Option<RenderMetrics>, RenderBudget, usize), KdvError>;

/// Renders `raster` on the per-pixel engine toward `rule` under one
/// render-wide `budget`: the one raster renderer over
/// [`RefineEvaluator`].
///
/// Rows split into `opts.threads` bands. Each band gets an evaluator
/// from `make_ev` (called on this thread), a proportional
/// [`RenderBudget::split`] of the remaining work cap (the deadline is
/// shared), and a [`RenderMetrics::sibling`] when metered; spent shares
/// are absorbed back into `budget` and siblings merge in band order, so
/// the output and every deterministic metric are independent of the
/// thread count. A band whose evaluation panics is retried once,
/// sequentially, with a fresh evaluator, budget share and sibling
/// (recorded as a band retry); a second panic yields
/// [`KdvError::WorkerPanicked`]. A single band runs on this thread.
///
/// Rejects an invalid rule, zero threads, and the progressive order on
/// more than one thread.
pub fn render<E, F>(
    mut make_ev: F,
    raster: &RasterSpec,
    rule: TileRule,
    budget: &mut RenderBudget,
    opts: RenderOpts<'_>,
) -> Result<Rendered, KdvError>
where
    E: BandEvaluator + Send,
    F: FnMut() -> E,
{
    rule.validate()?;
    let threads = validate_threads(opts.threads)?;
    let progressive = opts.order == PixelOrder::Progressive;
    if progressive && threads > 1 {
        return Err(KdvError::invalid(
            "threads",
            "the progressive order renders single-threaded",
        ));
    }
    let start = Instant::now();
    let mut metrics = opts.metrics;
    let width = raster.width() as usize;
    let height = raster.height() as usize;
    let mut evals = vec![UNREACHED; width * height];
    let layout = bands(height, threads);
    let share = |band: &Band| band.rows as f64 / height as f64;
    let run = |ev: &mut E,
               band: Band,
               out: &mut [BudgetedEval],
               mut child: RenderBudget,
               mut local: Option<RenderMetrics>|
     -> BandResult {
        let evaluated = if progressive {
            fill_progressive(ev, raster, rule, out, &mut child, local.as_mut())?
        } else {
            fill_rows(ev, raster, rule, band, out, &mut child, local.as_mut())?
        };
        Ok((local, child, evaluated))
    };

    // All shares are split off before any band spends, so each owns its
    // part of the *initial* remaining cap.
    let jobs: Vec<_> = layout
        .iter()
        .map(|band| {
            let sibling = metrics.as_deref().map(RenderMetrics::sibling);
            (make_ev(), budget.split(share(band)), sibling)
        })
        .collect();
    let outcomes: Vec<std::thread::Result<BandResult>> = if layout.len() == 1 {
        let (mut ev, child, local) = jobs.into_iter().next().expect("one band");
        let band = layout[0];
        vec![catch_unwind(AssertUnwindSafe(|| {
            run(&mut ev, band, &mut evals, child, local)
        }))]
    } else {
        std::thread::scope(|scope| {
            let mut rest: &mut [BudgetedEval] = &mut evals;
            let mut handles = Vec::new();
            for (band, (mut ev, child, local)) in layout.iter().copied().zip(jobs) {
                let (out, tail) = rest.split_at_mut(band.rows * width);
                rest = tail;
                let run = &run;
                handles.push(scope.spawn(move || run(&mut ev, band, out, child, local)));
            }
            handles.into_iter().map(|h| h.join()).collect()
        })
    };

    let mut evaluated = 0usize;
    for (i, (band, outcome)) in layout.iter().copied().zip(outcomes).enumerate() {
        let result = match outcome {
            Ok(result) => result,
            Err(_) => {
                // A panic can leave an evaluator in any state: retry the
                // band with fresh everything, on this thread.
                if let Some(m) = metrics.as_deref_mut() {
                    m.record_band_retry();
                }
                let out = &mut evals[band.first_row * width..][..band.rows * width];
                out.fill(UNREACHED);
                let child = budget.split(share(&band));
                let local = metrics.as_deref().map(RenderMetrics::sibling);
                catch_unwind(AssertUnwindSafe(|| {
                    run(&mut make_ev(), band, out, child, local)
                }))
                .map_err(|_| KdvError::WorkerPanicked { band: i })?
            }
        };
        let (local, child, n) = result?;
        budget.absorb(&child);
        evaluated += n;
        if let (Some(m), Some(local)) = (metrics.as_deref_mut(), local) {
            m.merge(&local);
        }
    }
    if let Some(m) = metrics {
        m.threads = layout.len() as u32;
        m.set_wall_ns(start.elapsed().as_nanos() as u64);
    }
    Ok(Rendered {
        width: raster.width(),
        height: raster.height(),
        order: opts.order,
        evals,
        evaluated,
    })
}

/// Evaluates one pixel, metering it when `metrics` is set.
#[inline]
fn eval_pixel<E: BandEvaluator>(
    ev: &mut E,
    raster: &RasterSpec,
    (col, row): (u32, u32),
    rule: TileRule,
    budget: &mut RenderBudget,
    metrics: Option<&mut RenderMetrics>,
) -> Result<BudgetedEval, KdvError> {
    let q = raster.pixel_center(col, row);
    let Some(m) = metrics else {
        return ev.eval(&q, rule, budget, &mut NoProbe);
    };
    let t0 = Instant::now();
    let e = ev.eval(&q, rule, budget, &mut m.events)?;
    let latency = t0.elapsed().as_nanos() as u64;
    m.record_pixel(col, row, &ev.last_stats(), latency);
    if e.exhausted {
        m.mark_degraded_pixel();
    }
    Ok(e)
}

/// Row-major pass over one band; `out` holds the band's rows.
fn fill_rows<E: BandEvaluator>(
    ev: &mut E,
    raster: &RasterSpec,
    rule: TileRule,
    band: Band,
    out: &mut [BudgetedEval],
    budget: &mut RenderBudget,
    mut metrics: Option<&mut RenderMetrics>,
) -> Result<usize, KdvError> {
    let width = raster.width() as usize;
    for (i, slot) in out.iter_mut().enumerate() {
        let pixel = ((i % width) as u32, (band.first_row + i / width) as u32);
        *slot = eval_pixel(ev, raster, pixel, rule, budget, metrics.as_deref_mut())?;
    }
    Ok(out.len())
}

/// §6 coarse-to-fine pass over the whole raster (`out` is row-major),
/// with a time-to-quality checkpoint whenever the evaluated count
/// reaches a power of two, plus a final one.
fn fill_progressive<E: BandEvaluator>(
    ev: &mut E,
    raster: &RasterSpec,
    rule: TileRule,
    out: &mut [BudgetedEval],
    budget: &mut RenderBudget,
    mut metrics: Option<&mut RenderMetrics>,
) -> Result<usize, KdvError> {
    let width = raster.width() as usize;
    let start = Instant::now();
    let mut evaluated = 0usize;
    for step in progressive_order(raster.width(), raster.height()) {
        if evaluated > 0 && budget.is_exhausted() {
            break;
        }
        let pixel = (step.col, step.row);
        out[step.row as usize * width + step.col as usize] =
            eval_pixel(ev, raster, pixel, rule, budget, metrics.as_deref_mut())?;
        evaluated += 1;
        if let Some(m) = metrics.as_deref_mut() {
            if evaluated.is_power_of_two() {
                m.checkpoint(evaluated as u64, start.elapsed().as_nanos() as u64);
            }
        }
    }
    if let Some(m) = metrics {
        if !evaluated.is_power_of_two() {
            m.checkpoint(evaluated as u64, start.elapsed().as_nanos() as u64);
        }
    }
    Ok(evaluated)
}

/// Incremental canvas for progressive rendering.
///
/// Applying a step paints its block with the representative's value —
/// except over pixels whose *own* evaluation already happened at a
/// coarser level, which keep their exact values. After all steps, every
/// pixel holds exactly its own evaluated density.
#[derive(Debug, Clone)]
pub struct ProgressiveCanvas {
    grid: DensityGrid,
    evaluated: Vec<bool>,
}

impl ProgressiveCanvas {
    /// Creates an empty canvas.
    pub fn new(width: u32, height: u32) -> Self {
        Self {
            grid: DensityGrid::zeros(width, height),
            evaluated: vec![false; width as usize * height as usize],
        }
    }

    /// Applies one progressive step with its evaluated density.
    pub fn apply(&mut self, step: &crate::progressive::ProgressiveStep, value: f64) {
        let width = self.grid.width() as usize;
        let (x0, y0) = step.block_origin;
        let (w, h) = step.block_size;
        for row in y0..y0 + h {
            for col in x0..x0 + w {
                if !self.evaluated[row as usize * width + col as usize] {
                    self.grid.set(col, row, value);
                }
            }
        }
        // The representative's value is final; mark it after the fill so
        // the loop above paints it too.
        self.grid.set(step.col, step.row, value);
        self.evaluated[step.row as usize * width + step.col as usize] = true;
    }

    /// Read access to the (partial) grid.
    pub fn grid(&self) -> &DensityGrid {
        &self.grid
    }

    /// Consumes the canvas, returning the grid.
    pub fn into_grid(self) -> DensityGrid {
        self.grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_core::bandwidth::scott_gamma;
    use kdv_core::bounds::BoundFamily;
    use kdv_core::kernel::Kernel;
    use kdv_core::method::ExactScan;
    use kdv_data::Dataset;
    use kdv_index::KdTree;

    fn setup() -> (kdv_geom::PointSet, Kernel, RasterSpec) {
        let ps = Dataset::Crime.generate(4000, 77);
        let kernel = Kernel::gaussian(scott_gamma(&ps).gamma);
        let raster = RasterSpec::covering(&ps, 24, 18, 0.05);
        (ps, kernel, raster)
    }

    #[test]
    fn eps_render_matches_exact_within_tolerance() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut quad = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut exact = ExactScan::new(&ps, kernel);
        let eps = 0.01;
        let approx = render_eps(&mut quad, &raster, eps);
        let truth = render_eps(&mut exact, &raster, eps);
        assert!(approx.mean_relative_error(&truth) <= eps);
    }

    #[test]
    fn tau_render_agrees_with_exact() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut quad = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut exact = ExactScan::new(&ps, kernel);
        // A mid-range threshold away from any single pixel's F (margin
        // comes from using a quantile of the exact grid).
        let truth_grid = render_eps(&mut exact, &raster, 0.01);
        let (lo, hi) = truth_grid.min_max().expect("non-empty");
        let tau = lo + 0.4 * (hi - lo);
        let mask_quad = render_tau(&mut quad, &raster, tau);
        let mask_exact = render_tau(&mut ExactScan::new(&ps, kernel), &raster, tau);
        assert!(
            mask_quad.disagreement(&mask_exact) < 0.01,
            "τ masks disagree on too many pixels"
        );
        assert!(mask_quad.count_hot() > 0, "threshold should mark hotspots");
        assert!(mask_quad.count_hot() < raster.num_pixels());
    }

    #[test]
    fn unbudgeted_progressive_equals_row_major() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut a = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut b = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let full = render_eps(&mut a, &raster, 0.01);
        let prog = render_eps_progressive(&mut b, &raster, 0.01, None);
        assert!(prog.complete);
        assert_eq!(prog.evaluated, raster.num_pixels());
        // Same evaluator determinism → identical grids.
        assert_eq!(prog.grid, full);
    }

    #[test]
    fn budgeted_progressive_paints_every_pixel() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let prog = render_eps_progressive(&mut ev, &raster, 0.01, Some(Duration::from_micros(200)));
        assert!(prog.evaluated >= 1);
        // Even a tiny budget yields a fully-painted (coarse) grid whose
        // error against exact is finite and reasonable.
        let mut exact = ExactScan::new(&ps, kernel);
        let truth = render_eps(&mut exact, &raster, 0.01);
        let err = prog.grid.mean_relative_error(&truth);
        assert!(err.is_finite());
    }

    #[test]
    fn progressive_error_decreases_with_budget() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut exact = ExactScan::new(&ps, kernel);
        let truth = render_eps(&mut exact, &raster, 0.01);

        // Drive by evaluated-pixel prefixes rather than wall clock for
        // determinism: emulate budgets via step-limited replays.
        let steps = progressive_order(raster.width(), raster.height());
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut errors = Vec::new();
        for limit in [1usize, 16, 64, steps.len()] {
            let mut canvas = ProgressiveCanvas::new(raster.width(), raster.height());
            for step in &steps[..limit] {
                let q = raster.pixel_center(step.col, step.row);
                let v = kdv_core::method::PixelEvaluator::eval_eps(&mut ev, &q, 0.01);
                canvas.apply(step, v);
            }
            errors.push(canvas.grid().mean_relative_error(&truth));
        }
        assert!(
            errors[errors.len() - 1] <= errors[0],
            "finer prefixes must not be worse: {errors:?}"
        );
        assert!(errors[errors.len() - 1] <= 0.01, "full render meets ε");
    }

    /// `render` under an unlimited budget with `threads` bands and
    /// metrics on or off.
    fn render_mode(
        tree: &KdTree,
        kernel: Kernel,
        raster: &RasterSpec,
        rule: TileRule,
        threads: usize,
        metrics: Option<&mut RenderMetrics>,
    ) -> (Rendered, RenderBudget) {
        let mut budget = RenderBudget::unlimited();
        let opts = RenderOpts {
            threads,
            metrics,
            ..RenderOpts::default()
        };
        let make_ev = || RefineEvaluator::new(tree, kernel, BoundFamily::Quadratic);
        let out = render(make_ev, raster, rule, &mut budget, opts).expect("valid input");
        (out, budget)
    }

    /// Metered, threaded and budgeted renders are one code path: every
    /// combination equals the plain Table 6 render bit for bit, and the
    /// deterministic metrics and the work accounted do not depend on
    /// the thread count.
    #[test]
    fn every_mode_of_render_equals_the_plain_render() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut plain_ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let plain = render_eps(&mut plain_ev, &raster, 0.01);
        let (lo, hi) = plain.min_max().expect("non-empty");
        let tau = lo + 0.4 * (hi - lo);
        let plain_mask = render_tau(&mut plain_ev, &raster, tau);

        let (reference, ref_budget) =
            render_mode(&tree, kernel, &raster, TileRule::Rel(0.01), 1, None);
        let mut ref_metrics = RenderMetrics::with_cost_map(raster.width(), raster.height());
        render_mode(
            &tree,
            kernel,
            &raster,
            TileRule::Rel(0.01),
            1,
            Some(&mut ref_metrics),
        );
        assert!(ref_budget.work_done() > 0, "work must be accounted");
        for threads in [1usize, 2, 4, 64] {
            for metered in [false, true] {
                let mut metrics = RenderMetrics::with_cost_map(raster.width(), raster.height());
                let m = metered.then_some(&mut metrics);
                let (out, budget) =
                    render_mode(&tree, kernel, &raster, TileRule::Rel(0.01), threads, m);
                let mode = format!("{threads} threads, metered {metered}");
                assert!(out.is_complete(), "{mode}");
                assert_eq!(out.evaluated, raster.num_pixels(), "{mode}");
                assert_eq!(out.grid(), plain, "{mode}: grid");
                assert_eq!(out, reference, "{mode}: brackets");
                assert_eq!(budget.work_done(), ref_budget.work_done(), "{mode}: work");
                // The error map honors ε even for converged pixels.
                let err = out.error_map();
                for (e, v) in err.values().iter().zip(plain.values()) {
                    assert!(*e >= 0.0 && *e <= 0.5 * 0.01 * v.abs() + 1e-12, "{mode}");
                }
                if metered {
                    // Latency and wall time are wall-clock noise; every
                    // other field is deterministic.
                    assert_eq!(metrics.events, ref_metrics.events, "{mode}");
                    assert_eq!(metrics.pixels, raster.num_pixels() as u64, "{mode}");
                    assert_eq!(metrics.iterations, ref_metrics.iterations, "{mode}");
                    assert_eq!(metrics.cost_map(), ref_metrics.cost_map(), "{mode}");
                    let bands = threads.min(raster.height() as usize) as u32;
                    assert_eq!(metrics.threads, bands, "{mode}");
                    assert_eq!(metrics.status, kdv_telemetry::RenderStatus::Complete);
                }
            }
            for metered in [false, true] {
                let mut metrics = RenderMetrics::new();
                let m = metered.then_some(&mut metrics);
                let (taus, _) = render_mode(&tree, kernel, &raster, TileRule::Tau(tau), threads, m);
                let (mask, undecided) = taus.classify(tau);
                assert_eq!(
                    mask, plain_mask,
                    "{threads} threads, metered {metered}: τ mask"
                );
                assert_eq!(undecided.count_hot(), 0);
            }
        }
        // Every pixel did at least the root bound evaluation.
        let map = ref_metrics.cost_map().expect("cost map requested");
        assert_eq!(
            (map.width(), map.height()),
            (raster.width(), raster.height())
        );
        assert!(
            map.min_max().expect("non-empty").0 >= 1.0,
            "un-accounted pixel"
        );
        assert!(ref_metrics.events.heap_pops > 0 && ref_metrics.events.point_evals > 0);
    }

    #[test]
    fn exhausted_budget_degrades_but_error_map_upper_bounds_truth() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut exact = ExactScan::new(&ps, kernel);
        let truth = render_eps(&mut exact, &raster, 0.01);
        for threads in [1usize, 3] {
            // ~3 work units per pixel: enough for root bounds, far
            // short of ε = 1e-6 convergence.
            let cap = 3 * raster.num_pixels() as u64;
            let mut budget = RenderBudget::unlimited().with_max_work(cap);
            let mut metrics = RenderMetrics::new();
            let opts = RenderOpts {
                threads,
                metrics: Some(&mut metrics),
                ..RenderOpts::default()
            };
            let make_ev = || RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
            let out = render(make_ev, &raster, TileRule::Rel(1e-6), &mut budget, opts)
                .expect("valid input");
            assert!(out.degraded() > 0, "tiny budget must degrade pixels");
            assert!(budget.is_exhausted(), "band shares are absorbed back");
            assert_eq!(out.evaluated, raster.num_pixels(), "row-major visits all");
            assert_eq!(metrics.status, kdv_telemetry::RenderStatus::Degraded);
            assert_eq!(metrics.degraded_pixels, out.degraded());
            assert_eq!(metrics.pixels, raster.num_pixels() as u64);
            let (grid, err) = (out.grid(), out.error_map());
            for row in 0..raster.height() {
                for col in 0..raster.width() {
                    let (v, e, f) = (grid.get(col, row), err.get(col, row), truth.get(col, row));
                    assert!(
                        (v - f).abs() <= e + 1e-9 * (1.0 + f.abs()),
                        "({col},{row}): |{v} − {f}| exceeds certified error {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn budgeted_tau_flags_undecided_pixels() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut exact = ExactScan::new(&ps, kernel);
        let truth = render_eps(&mut exact, &raster, 0.01);
        let (lo, hi) = truth.min_max().expect("non-empty");
        let tau = lo + 0.4 * (hi - lo);
        let mut tiny = RenderBudget::unlimited().with_max_work(raster.num_pixels() as u64);
        let make_ev = || RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let out = render(
            make_ev,
            &raster,
            TileRule::Tau(tau),
            &mut tiny,
            RenderOpts::default(),
        )
        .expect("valid");
        let (mask, undecided) = out.classify(tau);
        assert!(
            undecided.count_hot() > 0,
            "a tiny budget leaves pixels undecided"
        );
        assert_eq!(undecided.count_hot() as u64, out.degraded());
        for row in 0..raster.height() {
            for col in 0..raster.width() {
                let f = truth.get(col, row);
                // Exactly-at-τ pixels depend on summation order; every
                // other decided pixel must match the exact answer.
                if !undecided.get(col, row) && (f - tau).abs() > 1e-9 * (1.0 + f.abs()) {
                    assert_eq!(
                        mask.get(col, row),
                        f >= tau,
                        "decided pixel ({col},{row}) must be correct"
                    );
                }
            }
        }
    }

    #[test]
    fn progressive_order_paints_every_pixel_and_checkpoints() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let make_ev = || RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let progressive = |budget: &mut RenderBudget, metrics: Option<&mut RenderMetrics>| {
            let opts = RenderOpts {
                order: PixelOrder::Progressive,
                metrics,
                ..RenderOpts::default()
            };
            render(make_ev, &raster, TileRule::Rel(0.01), budget, opts).expect("valid input")
        };
        // Unlimited: the same pixels as the plain progressive render.
        let mut metrics = RenderMetrics::new();
        let full = progressive(&mut RenderBudget::unlimited(), Some(&mut metrics));
        let plain = render_eps_progressive(&mut make_ev(), &raster, 0.01, None);
        assert!(full.is_complete());
        assert_eq!(full.evaluated, raster.num_pixels());
        assert_eq!(full.grid(), plain.grid);
        let cps = &metrics.checkpoints;
        assert_eq!(
            cps.last().expect("final checkpoint").pixels,
            raster.num_pixels() as u64
        );
        for w in cps.windows(2) {
            assert!(w[1].pixels > w[0].pixels, "pixel counts must increase");
            assert!(w[1].elapsed_ns >= w[0].elapsed_ns, "time must not go back");
        }
        // Power-of-two cadence plus the final one.
        assert!(cps.len() >= 2 && cps.len() <= 64);

        // A tiny budget stops the descent, but the grid stays painted.
        let mut tiny = RenderBudget::unlimited().with_max_work(50);
        let out = progressive(&mut tiny, None);
        assert!(!out.is_complete());
        assert!(out.evaluated >= 1 && out.evaluated < raster.num_pixels());
        assert!(
            out.grid().values().iter().all(|v| v.is_finite()),
            "fully painted"
        );
    }

    #[test]
    fn render_rejects_bad_input() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut budget = RenderBudget::unlimited();
        let make_ev = || RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut attempt = |rule, threads, order| {
            let opts = RenderOpts {
                threads,
                order,
                metrics: None,
            };
            render(make_ev, &raster, rule, &mut budget, opts)
        };
        let row_major = PixelOrder::RowMajor;
        assert!(attempt(TileRule::Rel(0.0), 1, row_major).is_err());
        assert!(attempt(TileRule::Rel(f64::NAN), 1, row_major).is_err());
        assert!(attempt(TileRule::Tau(-1.0), 1, row_major).is_err());
        assert!(matches!(
            attempt(TileRule::Rel(0.01), 0, row_major),
            Err(KdvError::InvalidParameter {
                name: "threads",
                ..
            })
        ));
        assert!(attempt(TileRule::Rel(0.01), 2, PixelOrder::Progressive).is_err());
    }

    /// Panics on its first query if poisoned.
    struct FlakyOnce<'a> {
        inner: RefineEvaluator<'a>,
        poisoned: bool,
    }

    impl BandEvaluator for FlakyOnce<'_> {
        fn eval<P: Probe>(
            &mut self,
            q: &[f64],
            rule: TileRule,
            budget: &mut RenderBudget,
            probe: &mut P,
        ) -> Result<BudgetedEval, KdvError> {
            assert!(!self.poisoned, "injected fault: poisoned evaluator");
            self.inner.eval(q, rule, budget, probe)
        }
        fn last_stats(&self) -> RefineStats {
            self.inner.last_stats()
        }
    }

    /// A panicking band is retried on a fresh evaluator and the output
    /// is the clean render; a band that panics again is an error. The
    /// chaos suite repeats this with injected faults inside the engine.
    #[test]
    fn a_panicking_band_is_retried_once() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let (clean, _) = render_mode(&tree, kernel, &raster, TileRule::Rel(0.01), 1, None);
        for threads in [1usize, 3] {
            let mut made = 0;
            let make_ev = || {
                made += 1;
                FlakyOnce {
                    inner: RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic),
                    poisoned: made == 1,
                }
            };
            let opts = RenderOpts {
                threads,
                ..RenderOpts::default()
            };
            let mut budget = RenderBudget::unlimited();
            let out = render(make_ev, &raster, TileRule::Rel(0.01), &mut budget, opts)
                .expect("the retry recovers the band");
            assert_eq!(made, threads + 1, "one fresh evaluator for the retry");
            assert_eq!(out.evals, clean.evals, "{threads} threads");

            let always = || FlakyOnce {
                inner: RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic),
                poisoned: true,
            };
            let opts = RenderOpts {
                threads,
                ..RenderOpts::default()
            };
            let err = render(always, &raster, TileRule::Rel(0.01), &mut budget, opts)
                .expect_err("a deterministic panic cannot be retried away");
            assert!(matches!(err, KdvError::WorkerPanicked { band: 0 }));
        }
    }

    #[test]
    fn binary_grid_disagreement_counts() {
        let mut a = BinaryGrid::falses(2, 2);
        let b = BinaryGrid::falses(2, 2);
        a.set(0, 0, true);
        assert!((a.disagreement(&b) - 0.25).abs() < 1e-12);
        assert_eq!(a.count_hot(), 1);
    }
}
