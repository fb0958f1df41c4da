//! Workload construction and timing shared by every figure runner.

use kdv_core::bandwidth::scott_gamma_for;
use kdv_core::bounds::BoundFamily;
use kdv_core::engine::{Probe, RefineEvaluator, RenderBudget, TileRule};
use kdv_core::kernel::{Kernel, KernelType};
use kdv_core::method::{make_evaluator, MethodKind, MethodParams, PixelEvaluator};
use kdv_core::raster::RasterSpec;
use kdv_data::Dataset;
use kdv_geom::PointSet;
use kdv_index::KdTree;
use kdv_telemetry::RenderMetrics;
use kdv_viz::render::{render, RenderOpts};
use std::time::{Duration, Instant};

/// How far below paper scale an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunScale {
    /// Fraction of each dataset's paper cardinality to generate.
    pub n_frac: f64,
    /// Divisor applied to both raster axes (8 → 1280×960 becomes
    /// 160×120).
    pub res_div: u32,
    /// Soft per-cell wall-clock budget; a method exceeding it is
    /// reported as censored, mirroring the paper's 7200 s cutoff.
    pub cell_budget: Duration,
}

impl RunScale {
    /// The default quick scale (about 1% workloads).
    pub fn quick() -> Self {
        Self {
            n_frac: 0.01,
            res_div: 8,
            cell_budget: Duration::from_secs(10),
        }
    }

    /// A ~10% scale: the smallest size at which the paper's method
    /// separation is clearly visible (minutes per headline figure).
    pub fn medium() -> Self {
        Self {
            n_frac: 0.1,
            res_div: 8,
            cell_budget: Duration::from_secs(60),
        }
    }

    /// A ~0.1% smoke scale for tests and CI.
    pub fn smoke() -> Self {
        Self {
            n_frac: 0.001,
            res_div: 32,
            cell_budget: Duration::from_secs(2),
        }
    }

    /// The paper's published scale (hours of runtime).
    pub fn paper() -> Self {
        Self {
            n_frac: 1.0,
            res_div: 1,
            cell_budget: Duration::from_secs(7200),
        }
    }

    /// Dataset cardinality at this scale (at least 500 points).
    pub fn dataset_size(&self, ds: Dataset) -> usize {
        ((ds.paper_size() as f64 * self.n_frac) as usize).max(500)
    }

    /// Scaled resolution for a paper resolution.
    pub fn resolution(&self, paper_w: u32, paper_h: u32) -> (u32, u32) {
        (
            (paper_w / self.res_div).max(8),
            (paper_h / self.res_div).max(6),
        )
    }
}

/// A fully-constructed experiment substrate: dataset, index, kernel,
/// raster.
#[derive(Debug)]
pub struct Workload {
    /// Which dataset emulation this is.
    pub dataset: Dataset,
    /// The generated points.
    pub points: PointSet,
    /// kd-tree over the points.
    pub tree: KdTree,
    /// Kernel with Scott's-rule γ.
    pub kernel: Kernel,
    /// Raster covering the data window.
    pub raster: RasterSpec,
}

impl Workload {
    /// Builds a workload for a dataset at scale with a paper resolution.
    pub fn build(
        ds: Dataset,
        kernel_ty: KernelType,
        scale: &RunScale,
        paper_res: (u32, u32),
        seed: u64,
    ) -> Self {
        let n = scale.dataset_size(ds);
        Self::build_with_n(
            ds,
            kernel_ty,
            n,
            scale.resolution(paper_res.0, paper_res.1),
            seed,
        )
    }

    /// Builds a workload with an explicit point count and resolution.
    pub fn build_with_n(
        ds: Dataset,
        kernel_ty: KernelType,
        n: usize,
        res: (u32, u32),
        seed: u64,
    ) -> Self {
        let points = ds.generate(n, seed);
        let bw = scott_gamma_for(&points, kernel_ty);
        let mut points = points;
        points.scale_weights(bw.weight);
        let kernel = Kernel::new(kernel_ty, bw.gamma);
        let tree = KdTree::build_default(&points);
        let raster = RasterSpec::covering(&points, res.0, res.1, 0.02);
        Self {
            dataset: ds,
            points,
            tree,
            kernel,
            raster,
        }
    }

    /// Constructs the evaluator for a method (εKDV configuration).
    pub fn evaluator_eps(
        &self,
        method: MethodKind,
        zorder_eps: f64,
    ) -> Option<Box<dyn PixelEvaluator + '_>> {
        let params = MethodParams {
            zorder_eps,
            ..MethodParams::default()
        };
        make_evaluator(method, &self.tree, self.kernel, "εKDV", &params).ok()
    }

    /// Constructs a concrete refinement evaluator over this workload's
    /// tree — the form the metered/probed timing paths need (the boxed
    /// [`PixelEvaluator`] erases the stats interface).
    pub fn refine_evaluator(&self, family: BoundFamily) -> RefineEvaluator<'_> {
        RefineEvaluator::new(&self.tree, self.kernel, family)
    }

    /// Constructs the evaluator for a method (τKDV configuration).
    pub fn evaluator_tau(&self, method: MethodKind) -> Option<Box<dyn PixelEvaluator + '_>> {
        make_evaluator(
            method,
            &self.tree,
            self.kernel,
            "τKDV",
            &MethodParams::default(),
        )
        .ok()
    }
}

/// Result of one timed cell: seconds, or `None` if the budget censored
/// the run.
pub type CellTime = Option<f64>;

/// Times a full-raster εKDV render under the budget; returns `None`
/// (censored) when the budget expires mid-render, like the paper's
/// "> 7200 s" entries.
pub fn time_eps_render(
    ev: &mut dyn PixelEvaluator,
    raster: &RasterSpec,
    eps: f64,
    budget: Duration,
) -> CellTime {
    let start = Instant::now();
    for row in 0..raster.height() {
        for col in 0..raster.width() {
            let q = raster.pixel_center(col, row);
            std::hint::black_box(ev.eval_eps(&q, eps));
        }
        if start.elapsed() > budget {
            return None;
        }
    }
    Some(start.elapsed().as_secs_f64())
}

/// Times a full-raster εKDV render of the refinement engine through
/// [`render`] with `metrics` attached: refinement events, per-pixel
/// histograms, and (if configured) the cost map accumulate into it.
/// `budget` is the render's deadline; a run that hits it is censored
/// like [`time_eps_render`]'s (its remaining pixels degrade to root
/// bounds, so it still ends promptly).
pub fn time_eps_render_with_metrics<'t>(
    make_ev: impl FnMut() -> RefineEvaluator<'t>,
    raster: &RasterSpec,
    eps: f64,
    budget: Duration,
    metrics: &mut RenderMetrics,
) -> CellTime {
    let start = Instant::now();
    let mut deadline = RenderBudget::unlimited().with_deadline(budget);
    let opts = RenderOpts {
        metrics: Some(metrics),
        ..RenderOpts::default()
    };
    let out = render(make_ev, raster, TileRule::Rel(eps), &mut deadline, opts)
        .expect("valid εKDV render");
    std::hint::black_box(out);
    (!deadline.is_exhausted()).then(|| start.elapsed().as_secs_f64())
}

/// A probe recording the per-pixel loop's bracket after every step:
/// the bound-convergence trace of Fig 18 and Table 3.
#[derive(Debug, Default)]
struct BracketTrace(Vec<(f64, f64)>);

impl Probe for BracketTrace {
    fn bracket(&mut self, lb: f64, ub: f64) {
        self.0.push((lb, ub));
    }
}

/// The bracket trace of one εKDV query at `q`, from the root bounds to
/// the step that meets ε.
pub fn eps_trace(ev: &mut RefineEvaluator<'_>, q: &[f64], eps: f64) -> Vec<(f64, f64)> {
    let mut trace = BracketTrace::default();
    ev.eval(
        q,
        TileRule::Rel(eps),
        &mut RenderBudget::unlimited(),
        &mut trace,
    )
    .expect("valid εKDV query");
    trace.0
}

/// Times a full-raster τKDV render under the budget.
pub fn time_tau_render(
    ev: &mut dyn PixelEvaluator,
    raster: &RasterSpec,
    tau: f64,
    budget: Duration,
) -> CellTime {
    let start = Instant::now();
    for row in 0..raster.height() {
        for col in 0..raster.width() {
            let q = raster.pixel_center(col, row);
            std::hint::black_box(ev.eval_tau(&q, tau));
        }
        if start.elapsed() > budget {
            return None;
        }
    }
    Some(start.elapsed().as_secs_f64())
}

/// Formats a cell time like the paper's plots (censored = `>budget`).
pub fn fmt_cell(t: CellTime, budget: Duration) -> String {
    match t {
        Some(s) => format!("{s:.4}"),
        None => format!(">{}", budget.as_secs()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_shrinks_paper_sizes() {
        let s = RunScale::quick();
        assert_eq!(s.dataset_size(Dataset::Hep), 70_000);
        assert_eq!(s.resolution(1280, 960), (160, 120));
    }

    #[test]
    fn scaled_sizes_never_degenerate() {
        let s = RunScale::smoke();
        assert!(s.dataset_size(Dataset::ElNino) >= 500);
        let (w, h) = s.resolution(320, 240);
        assert!(w >= 8 && h >= 6);
    }

    #[test]
    fn workload_builds_all_methods() {
        let w = Workload::build_with_n(Dataset::Crime, KernelType::Gaussian, 800, (16, 12), 3);
        for m in MethodKind::ALL {
            let eps_ok = w.evaluator_eps(m, 0.05).is_some();
            assert_eq!(eps_ok, m.supports_eps(), "{m:?} εKDV availability");
            let tau_ok = w.evaluator_tau(m).is_some();
            assert_eq!(tau_ok, m.supports_tau(), "{m:?} τKDV availability");
        }
    }

    #[test]
    fn censoring_kicks_in_for_tiny_budget() {
        let w = Workload::build_with_n(Dataset::Hep, KernelType::Gaussian, 20_000, (64, 48), 4);
        let mut ev = w.evaluator_eps(MethodKind::Exact, 0.05).expect("exact");
        let t = time_eps_render(&mut ev, &w.raster, 0.01, Duration::from_nanos(1));
        assert!(t.is_none(), "1 ns budget must censor");
        assert_eq!(fmt_cell(t, Duration::from_secs(9)), ">9");
    }

    #[test]
    fn metered_timing_accumulates_events() {
        let w = Workload::build_with_n(Dataset::Crime, KernelType::Gaussian, 1000, (12, 9), 7);
        let mut metrics = RenderMetrics::new();
        let t = time_eps_render_with_metrics(
            || w.refine_evaluator(BoundFamily::Quadratic),
            &w.raster,
            0.05,
            Duration::from_secs(30),
            &mut metrics,
        );
        assert!(t.is_some(), "smoke workload should finish within budget");
        assert_eq!(metrics.pixels, w.raster.num_pixels() as u64);
        assert!(metrics.events.heap_pops > 0);
        assert_eq!(metrics.iterations.sum(), metrics.events.heap_pops);
        assert!(metrics.wall_ns > 0);
    }

    #[test]
    fn weights_are_normalized_by_scott_rule() {
        let w = Workload::build_with_n(Dataset::Home, KernelType::Gaussian, 1000, (8, 6), 5);
        assert!((w.points.total_weight() - 1.0).abs() < 1e-9);
    }
}
