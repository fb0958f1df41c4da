//! Metered rendering: the renderers of [`crate::render`] and
//! [`crate::parallel`], instrumented with [`kdv_telemetry`].
//!
//! These take a concrete [`RefineEvaluator`] rather than a
//! `dyn PixelEvaluator` because metering is a refinement-engine notion:
//! the evaluator's probe hooks and [`RefineStats`] feed the metrics.
//! The un-metered renderers stay exactly as they were — the engine loop
//! is monomorphized over the probe, so they compile to the same code as
//! before this module existed.
//!
//! Event counters accumulate *live* through the probe
//! (`&mut metrics.events`) during evaluation; per-pixel histograms and
//! the cost map are fed from [`RefineStats`] after each pixel. Nothing
//! is counted twice.

use crate::progressive::progressive_order;
use crate::render::{
    BinaryGrid, BudgetedRender, BudgetedTauRender, ProgressiveCanvas, ProgressiveRender,
};
use kdv_core::engine::{RefineEvaluator, RenderBudget};
use kdv_core::error::KdvError;
use kdv_core::query::validate_eps;
use kdv_core::raster::{DensityGrid, RasterSpec};
use kdv_telemetry::RenderMetrics;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Renders a full εKDV density grid, accumulating metrics.
///
/// Bit-identical to [`crate::render::render_eps`] on the same
/// evaluator: the probe only observes.
pub fn render_eps_metered(
    ev: &mut RefineEvaluator<'_>,
    raster: &RasterSpec,
    eps: f64,
    metrics: &mut RenderMetrics,
) -> DensityGrid {
    let start = Instant::now();
    let mut grid = DensityGrid::zeros(raster.width(), raster.height());
    for row in 0..raster.height() {
        for col in 0..raster.width() {
            let q = raster.pixel_center(col, row);
            let t0 = Instant::now();
            let v = ev.eval_eps_with(&q, eps, &mut metrics.events);
            let latency = t0.elapsed().as_nanos() as u64;
            grid.set(col, row, v);
            metrics.record_pixel(col, row, &ev.last_stats(), latency);
        }
    }
    metrics.set_wall_ns(start.elapsed().as_nanos() as u64);
    grid
}

/// Renders a full τKDV binary mask, accumulating metrics.
pub fn render_tau_metered(
    ev: &mut RefineEvaluator<'_>,
    raster: &RasterSpec,
    tau: f64,
    metrics: &mut RenderMetrics,
) -> BinaryGrid {
    let start = Instant::now();
    let mut grid = BinaryGrid::falses(raster.width(), raster.height());
    for row in 0..raster.height() {
        for col in 0..raster.width() {
            let q = raster.pixel_center(col, row);
            let t0 = Instant::now();
            let v = ev.eval_tau_with(&q, tau, &mut metrics.events);
            let latency = t0.elapsed().as_nanos() as u64;
            grid.set(col, row, v);
            metrics.record_pixel(col, row, &ev.last_stats(), latency);
        }
    }
    metrics.set_wall_ns(start.elapsed().as_nanos() as u64);
    grid
}

/// Renders εKDV on `threads` worker threads, accumulating metrics.
///
/// Each thread gets an evaluator from `make_evaluator` and a sibling of
/// `metrics`; siblings merge back in band order after all threads join,
/// so every field except the latency histograms and wall time is
/// deterministic and equal to a sequential metered render.
///
/// # Panics
/// Panics if `threads == 0`.
pub fn render_eps_parallel_metered<'t, F>(
    make_evaluator: F,
    raster: &RasterSpec,
    eps: f64,
    threads: usize,
    metrics: &mut RenderMetrics,
) -> DensityGrid
where
    F: Fn() -> RefineEvaluator<'t> + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let start = Instant::now();
    let width = raster.width();
    let height = raster.height() as usize;
    let mut values = vec![0.0f64; width as usize * height];

    let band_metrics = std::thread::scope(|scope| {
        let rows_per_band = height.div_ceil(threads);
        let mut rest: &mut [f64] = &mut values;
        let mut band_start = 0usize;
        let mut handles = Vec::new();
        while band_start < height {
            let rows = rows_per_band.min(height - band_start);
            let (band, tail) = rest.split_at_mut(rows * width as usize);
            rest = tail;
            let first_row = band_start;
            let make = &make_evaluator;
            let mut local = metrics.sibling();
            handles.push(scope.spawn(move || {
                let band_t0 = Instant::now();
                let mut ev = make();
                for (r, row_vals) in band.chunks_mut(width as usize).enumerate() {
                    let row = (first_row + r) as u32;
                    for (col, slot) in row_vals.iter_mut().enumerate() {
                        let q = raster.pixel_center(col as u32, row);
                        let t0 = Instant::now();
                        *slot = ev.eval_eps_with(&q, eps, &mut local.events);
                        let latency = t0.elapsed().as_nanos() as u64;
                        local.record_pixel(col as u32, row, &ev.last_stats(), latency);
                    }
                }
                local.set_wall_ns(band_t0.elapsed().as_nanos() as u64);
                local
            }));
            band_start += rows;
        }
        // Joining in spawn order keeps the merge deterministic.
        handles
            .into_iter()
            .map(|h| h.join().expect("render worker panicked"))
            .collect::<Vec<_>>()
    });

    for band in &band_metrics {
        metrics.merge(band);
    }
    metrics.threads = band_metrics.len() as u32;
    metrics.set_wall_ns(start.elapsed().as_nanos() as u64);
    DensityGrid::from_values(width, raster.height(), values)
}

/// Renders εKDV under a [`RenderBudget`] with metrics: degraded pixels
/// are counted ([`RenderMetrics::mark_degraded_pixel`]), dropping the
/// metrics' status to `Degraded`, and the returned
/// [`BudgetedRender`] carries the per-pixel achieved-error map.
pub fn render_eps_budgeted_metered(
    ev: &mut RefineEvaluator<'_>,
    raster: &RasterSpec,
    eps: f64,
    budget: &mut RenderBudget,
    metrics: &mut RenderMetrics,
) -> Result<BudgetedRender, KdvError> {
    let start = Instant::now();
    let mut grid = DensityGrid::zeros(raster.width(), raster.height());
    let mut error_map = DensityGrid::zeros(raster.width(), raster.height());
    let mut degraded_pixels = 0u64;
    for row in 0..raster.height() {
        for col in 0..raster.width() {
            let q = raster.pixel_center(col, row);
            let t0 = Instant::now();
            let e = ev.eval_eps_budgeted_with(&q, eps, budget, &mut metrics.events)?;
            let latency = t0.elapsed().as_nanos() as u64;
            grid.set(col, row, e.estimate());
            error_map.set(col, row, e.half_gap());
            metrics.record_pixel(col, row, &ev.last_stats(), latency);
            if e.exhausted {
                degraded_pixels += 1;
                metrics.mark_degraded_pixel();
            }
        }
    }
    metrics.set_wall_ns(start.elapsed().as_nanos() as u64);
    Ok(BudgetedRender {
        grid,
        error_map,
        degraded_pixels,
    })
}

/// Renders τKDV under a [`RenderBudget`] with metrics: undecided
/// pixels (bracket had not cleared τ at exhaustion) are counted as
/// degraded, exactly mirroring [`render_eps_budgeted_metered`]. This
/// is the tile server's τ path: per-tile budgets, live metrics.
pub fn render_tau_budgeted_metered(
    ev: &mut RefineEvaluator<'_>,
    raster: &RasterSpec,
    tau: f64,
    budget: &mut RenderBudget,
    metrics: &mut RenderMetrics,
) -> Result<BudgetedTauRender, KdvError> {
    let start = Instant::now();
    let mut mask = BinaryGrid::falses(raster.width(), raster.height());
    let mut undecided_map = BinaryGrid::falses(raster.width(), raster.height());
    let mut undecided = 0u64;
    for row in 0..raster.height() {
        for col in 0..raster.width() {
            let q = raster.pixel_center(col, row);
            let t0 = Instant::now();
            let t = ev.eval_tau_budgeted_with(&q, tau, budget, &mut metrics.events)?;
            let latency = t0.elapsed().as_nanos() as u64;
            mask.set(col, row, t.hot);
            undecided_map.set(col, row, !t.decided);
            metrics.record_pixel(col, row, &ev.last_stats(), latency);
            if !t.decided {
                undecided += 1;
                metrics.mark_degraded_pixel();
            }
        }
    }
    metrics.set_wall_ns(start.elapsed().as_nanos() as u64);
    Ok(BudgetedTauRender {
        mask,
        undecided_map,
        undecided,
    })
}

/// Renders εKDV on `threads` workers under one render-wide
/// [`RenderBudget`], with metrics and full fault containment.
///
/// Each band receives a proportional [`RenderBudget::split`] of the
/// remaining work cap (the deadline is shared); spent child budgets are
/// absorbed back so `budget` accounts the whole render. A panicking
/// worker's band is retried sequentially with a fresh evaluator and a
/// fresh budget share, recorded via
/// [`RenderMetrics::record_band_retry`]; a band failing twice yields
/// [`KdvError::WorkerPanicked`].
pub fn render_eps_parallel_budgeted_metered<'t, F>(
    make_evaluator: F,
    raster: &RasterSpec,
    eps: f64,
    threads: usize,
    budget: &mut RenderBudget,
    metrics: &mut RenderMetrics,
) -> Result<BudgetedRender, KdvError>
where
    F: Fn() -> RefineEvaluator<'t> + Sync,
{
    if threads == 0 {
        return Err(KdvError::invalid("threads", "need at least one thread"));
    }
    validate_eps(eps)?;
    let start = Instant::now();
    let width = raster.width() as usize;
    let height = raster.height() as usize;
    let mut values = vec![0.0f64; width * height];
    let mut errors = vec![0.0f64; width * height];

    let rows_per_band = height.div_ceil(threads);
    struct BandSpec {
        first_row: usize,
        rows: usize,
    }
    let mut layout = Vec::new();
    {
        let mut first_row = 0usize;
        while first_row < height {
            let rows = rows_per_band.min(height - first_row);
            layout.push(BandSpec { first_row, rows });
            first_row += rows;
        }
    }
    // All splits are taken before any child spends, so each band owns
    // its share of the *initial* remaining cap.
    let shares: Vec<RenderBudget> = layout
        .iter()
        .map(|b| budget.split(b.rows as f64 / height as f64))
        .collect();

    // One band's work: fill value/error slices, return its metrics,
    // spent budget, and degraded count. Shared by workers and retries.
    let run_band = |band: &BandSpec,
                    vals: &mut [f64],
                    errs: &mut [f64],
                    mut child: RenderBudget,
                    mut local: RenderMetrics|
     -> Result<(RenderMetrics, RenderBudget, u64), KdvError> {
        let band_t0 = Instant::now();
        let mut ev = make_evaluator();
        let mut degraded = 0u64;
        for (r, (row_vals, row_errs)) in vals
            .chunks_mut(width)
            .zip(errs.chunks_mut(width))
            .enumerate()
        {
            let row = (band.first_row + r) as u32;
            for col in 0..width {
                let q = raster.pixel_center(col as u32, row);
                let t0 = Instant::now();
                let e = ev.eval_eps_budgeted_with(&q, eps, &mut child, &mut local.events)?;
                let latency = t0.elapsed().as_nanos() as u64;
                row_vals[col] = e.estimate();
                row_errs[col] = e.half_gap();
                local.record_pixel(col as u32, row, &ev.last_stats(), latency);
                if e.exhausted {
                    degraded += 1;
                    local.mark_degraded_pixel();
                }
            }
        }
        local.set_wall_ns(band_t0.elapsed().as_nanos() as u64);
        Ok((local, child, degraded))
    };

    // Phase 1: parallel. Per band: Ok(worker result) or Err(panicked).
    #[allow(clippy::large_enum_variant)] // one value per band; size is irrelevant
    enum BandOutcome {
        Done(Result<(RenderMetrics, RenderBudget, u64), KdvError>),
        Panicked,
    }
    let outcomes: Vec<BandOutcome> = std::thread::scope(|scope| {
        let mut rest_v: &mut [f64] = &mut values;
        let mut rest_e: &mut [f64] = &mut errors;
        let mut handles = Vec::new();
        for (band, share) in layout.iter().zip(&shares) {
            let (vals, tail_v) = rest_v.split_at_mut(band.rows * width);
            let (errs, tail_e) = rest_e.split_at_mut(band.rows * width);
            rest_v = tail_v;
            rest_e = tail_e;
            let local = metrics.sibling();
            let child = share.clone();
            let run = &run_band;
            handles.push(scope.spawn(move || run(band, vals, errs, child, local)));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(res) => BandOutcome::Done(res),
                Err(_) => BandOutcome::Panicked,
            })
            .collect()
    });

    // Phase 2: merge results in band order; retry panicked bands
    // sequentially with fresh evaluators and budget shares.
    let mut degraded_pixels = 0u64;
    let mut worker_count = 0u32;
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let band = &layout[i];
        let result = match outcome {
            BandOutcome::Done(res) => res,
            BandOutcome::Panicked => {
                metrics.record_band_retry();
                let start_idx = band.first_row * width;
                let end = start_idx + band.rows * width;
                let vals = &mut values[start_idx..end];
                let errs = &mut errors[start_idx..end];
                let child = budget.split(band.rows as f64 / height as f64);
                let local = metrics.sibling();
                catch_unwind(AssertUnwindSafe(|| {
                    run_band(band, vals, errs, child, local)
                }))
                .map_err(|_| KdvError::WorkerPanicked { band: i })?
            }
        };
        let (local, child, degraded) = result?;
        metrics.merge(&local);
        budget.absorb(&child);
        degraded_pixels += degraded;
        worker_count += 1;
    }
    metrics.threads = worker_count;
    metrics.set_wall_ns(start.elapsed().as_nanos() as u64);
    Ok(BudgetedRender {
        grid: DensityGrid::from_values(raster.width(), raster.height(), values),
        error_map: DensityGrid::from_values(raster.width(), raster.height(), errors),
        degraded_pixels,
    })
}

/// Renders εKDV in the §6 progressive order with metrics and
/// time-to-quality checkpoints.
///
/// A checkpoint is recorded whenever the evaluated-pixel count reaches
/// a power of two, plus one final checkpoint — so the metrics document
/// traces quality-over-time (Fig 20/21) with logarithmically many
/// entries.
pub fn render_eps_progressive_metered(
    ev: &mut RefineEvaluator<'_>,
    raster: &RasterSpec,
    eps: f64,
    budget: Option<Duration>,
    metrics: &mut RenderMetrics,
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
        let t0 = Instant::now();
        let v = ev.eval_eps_with(&q, eps, &mut metrics.events);
        let latency = t0.elapsed().as_nanos() as u64;
        metrics.record_pixel(step.col, step.row, &ev.last_stats(), latency);
        evaluated += 1;
        canvas.apply(step, v);
        if evaluated.is_power_of_two() {
            metrics.checkpoint(evaluated as u64, start.elapsed().as_nanos() as u64);
        }
    }
    let wall = start.elapsed().as_nanos() as u64;
    if !evaluated.is_power_of_two() || evaluated == 0 {
        metrics.checkpoint(evaluated as u64, wall);
    }
    metrics.set_wall_ns(wall);
    ProgressiveRender {
        grid: canvas.into_grid(),
        complete: evaluated == steps.len(),
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::render_eps_parallel;
    use crate::render::{render_eps, render_eps_progressive, render_tau};
    use kdv_core::bandwidth::scott_gamma;
    use kdv_core::bounds::BoundFamily;
    use kdv_data::Dataset;
    use kdv_index::KdTree;

    fn setup() -> (kdv_geom::PointSet, kdv_core::kernel::Kernel, RasterSpec) {
        let ps = Dataset::Crime.generate(3000, 42);
        let kernel = kdv_core::kernel::Kernel::gaussian(scott_gamma(&ps).gamma);
        let raster = RasterSpec::covering(&ps, 20, 16, 0.05);
        (ps, kernel, raster)
    }

    #[test]
    fn metered_eps_render_is_bit_identical_to_plain() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut plain = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut metered = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut metrics = RenderMetrics::with_cost_map(raster.width(), raster.height());
        let a = render_eps(&mut plain, &raster, 0.01);
        let b = render_eps_metered(&mut metered, &raster, 0.01, &mut metrics);
        assert_eq!(a, b, "metering changed the rendered grid");
        assert_eq!(metrics.pixels, raster.num_pixels() as u64);
        assert!(metrics.events.heap_pops > 0);
        assert!(metrics.events.point_evals > 0);
        assert_eq!(metrics.iterations.count(), metrics.pixels);
    }

    #[test]
    fn metered_tau_render_is_identical_to_plain() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut plain = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut metered = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        // Pick a mid-range τ from a quick ε render.
        let grid = render_eps(
            &mut RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic),
            &raster,
            0.05,
        );
        let (lo, hi) = grid.min_max().expect("non-empty");
        let tau = lo + 0.4 * (hi - lo);
        let mut metrics = RenderMetrics::new();
        let a = render_tau(&mut plain, &raster, tau);
        let b = render_tau_metered(&mut metered, &raster, tau, &mut metrics);
        assert_eq!(a, b);
        assert_eq!(metrics.pixels, raster.num_pixels() as u64);
    }

    #[test]
    fn parallel_metrics_merge_equals_sequential() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut seq_metrics = RenderMetrics::with_cost_map(raster.width(), raster.height());
        let mut seq_ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let seq_grid = render_eps_metered(&mut seq_ev, &raster, 0.01, &mut seq_metrics);

        for threads in [1usize, 2, 4] {
            let mut par_metrics = RenderMetrics::with_cost_map(raster.width(), raster.height());
            let par_grid = render_eps_parallel_metered(
                || RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic),
                &raster,
                0.01,
                threads,
                &mut par_metrics,
            );
            assert_eq!(par_grid, seq_grid, "{threads} threads changed the grid");
            // Deterministic fields must match the sequential render
            // exactly; latency histograms and wall time are wall-clock
            // noise and excluded by design.
            assert_eq!(par_metrics.events, seq_metrics.events);
            assert_eq!(par_metrics.pixels, seq_metrics.pixels);
            assert_eq!(par_metrics.iterations, seq_metrics.iterations);
            assert_eq!(par_metrics.cost_map(), seq_metrics.cost_map());
        }
    }

    #[test]
    fn parallel_metered_matches_unmetered_parallel() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let plain = render_eps_parallel(
            || RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic),
            &raster,
            0.01,
            3,
        );
        let mut metrics = RenderMetrics::new();
        let metered = render_eps_parallel_metered(
            || RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic),
            &raster,
            0.01,
            3,
            &mut metrics,
        );
        assert_eq!(plain, metered);
        assert_eq!(metrics.threads, 3);
    }

    #[test]
    fn cost_map_dims_match_raster_and_covers_pixels() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut metrics = RenderMetrics::with_cost_map(raster.width(), raster.height());
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        render_eps_metered(&mut ev, &raster, 0.01, &mut metrics);
        let map = metrics.cost_map().expect("cost map requested");
        assert_eq!(map.width(), raster.width());
        assert_eq!(map.height(), raster.height());
        // Every pixel did at least the root bound evaluation.
        let (lo, _) = map.min_max().expect("non-empty");
        assert!(lo >= 1.0, "cost map has an un-accounted pixel: min {lo}");
    }

    #[test]
    fn budgeted_metered_marks_degraded_status() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut metrics = RenderMetrics::new();
        let cap = 3 * raster.num_pixels() as u64;
        let mut budget = kdv_core::engine::RenderBudget::unlimited().with_max_work(cap);
        let out = render_eps_budgeted_metered(&mut ev, &raster, 1e-7, &mut budget, &mut metrics)
            .expect("valid input");
        assert!(out.degraded_pixels > 0);
        assert_eq!(metrics.status, kdv_telemetry::RenderStatus::Degraded);
        assert_eq!(metrics.degraded_pixels, out.degraded_pixels);
        assert_eq!(metrics.pixels, raster.num_pixels() as u64);

        // Unlimited budget: complete status, grid matches the plain
        // budgeted renderer.
        let mut ev2 = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut m2 = RenderMetrics::new();
        let mut unlimited = kdv_core::engine::RenderBudget::unlimited();
        let full = render_eps_budgeted_metered(&mut ev2, &raster, 0.01, &mut unlimited, &mut m2)
            .expect("valid input");
        assert_eq!(full.degraded_pixels, 0);
        assert_eq!(m2.status, kdv_telemetry::RenderStatus::Complete);
        let plain = render_eps(
            &mut RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic),
            &raster,
            0.01,
        );
        // Budgeted path reports midpoints of the same brackets the plain
        // path averages, so the grids agree bit-for-bit.
        assert_eq!(full.grid, plain);
    }

    #[test]
    fn parallel_budgeted_metered_accounts_work_and_matches_sequential() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);

        let mut unlimited = kdv_core::engine::RenderBudget::unlimited();
        let mut metrics = RenderMetrics::with_cost_map(raster.width(), raster.height());
        let par = render_eps_parallel_budgeted_metered(
            || RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic),
            &raster,
            0.01,
            3,
            &mut unlimited,
            &mut metrics,
        )
        .expect("valid input");
        assert_eq!(par.degraded_pixels, 0);
        assert!(unlimited.work_done() > 0, "children absorbed into parent");

        let mut seq_ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut seq_budget = kdv_core::engine::RenderBudget::unlimited();
        let mut seq_metrics = RenderMetrics::with_cost_map(raster.width(), raster.height());
        let seq = render_eps_budgeted_metered(
            &mut seq_ev,
            &raster,
            0.01,
            &mut seq_budget,
            &mut seq_metrics,
        )
        .expect("valid input");
        assert_eq!(par.grid, seq.grid, "threading must not change output");
        assert_eq!(par.error_map, seq.error_map);
        assert_eq!(metrics.events, seq_metrics.events);
        assert_eq!(metrics.cost_map(), seq_metrics.cost_map());
        assert_eq!(unlimited.work_done(), seq_budget.work_done());

        // A capped parallel render degrades but terminates, and the
        // budget never runs away past cap + per-band overshoot.
        let cap = 2 * raster.num_pixels() as u64;
        let mut capped = kdv_core::engine::RenderBudget::unlimited().with_max_work(cap);
        let mut m3 = RenderMetrics::new();
        let deg = render_eps_parallel_budgeted_metered(
            || RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic),
            &raster,
            1e-7,
            3,
            &mut capped,
            &mut m3,
        )
        .expect("valid input");
        assert!(deg.degraded_pixels > 0);
        assert_eq!(m3.status, kdv_telemetry::RenderStatus::Degraded);
    }

    #[test]
    fn progressive_metered_matches_plain_and_checkpoints_are_monotone() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut a = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut b = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let plain = render_eps_progressive(&mut a, &raster, 0.01, None);
        let mut metrics = RenderMetrics::new();
        let metered = render_eps_progressive_metered(&mut b, &raster, 0.01, None, &mut metrics);
        assert_eq!(plain, metered);
        assert!(metered.complete);

        let cps = &metrics.checkpoints;
        assert!(!cps.is_empty());
        assert_eq!(
            cps.last().expect("final checkpoint").pixels,
            raster.num_pixels() as u64
        );
        for w in cps.windows(2) {
            assert!(w[1].pixels > w[0].pixels, "pixel counts must increase");
            assert!(w[1].elapsed_ns >= w[0].elapsed_ns, "time must not go back");
        }
        // Power-of-two cadence: log₂(pixels) + final ≥ entries ≥ 2.
        assert!(cps.len() >= 2);
        assert!(cps.len() as u32 <= 64);
    }
}
