//! Fig 20: average relative error of the progressive visualization
//! framework after time budgets t ∈ {0.01, 0.05, 0.25, 1.25, 6.25} s,
//! for EXACT, aKDE, KARL, QUAD and Z-Order, on all four datasets.
//!
//! Paper expectation: under the same budget QUAD evaluates the most
//! pixels and thus shows the lowest error at every timestamp; all
//! curves fall with t.

use crate::figures::FigureCtx;
use crate::report::Table;
use crate::workload::Workload;
use kdv_core::kernel::KernelType;
use kdv_core::method::MethodKind;
use kdv_data::Dataset;
use kdv_viz::render::{render_eps, render_eps_progressive};
use std::time::Duration;

/// The paper's five timestamps (seconds).
pub const BUDGETS_S: [f64; 5] = [0.01, 0.05, 0.25, 1.25, 6.25];

/// Methods compared in Fig 20.
pub const METHODS: [MethodKind; 5] = [
    MethodKind::Exact,
    MethodKind::Akde,
    MethodKind::Karl,
    MethodKind::Quad,
    MethodKind::ZOrder,
];

const EPS: f64 = 0.01;

/// Runs the figure.
pub fn run(ctx: &FigureCtx) -> Vec<Table> {
    let mut tables = Vec::new();
    for ds in Dataset::ALL {
        let w = Workload::build(ds, KernelType::Gaussian, &ctx.scale, (1280, 960), ctx.seed);
        let mut exact_ev = w.evaluator_eps(MethodKind::Exact, EPS).expect("exact");
        let truth = render_eps(&mut *exact_ev, &w.raster, EPS);

        let mut t = Table::new(
            format!(
                "Fig 20 ({}) — progressive avg relative error vs budget",
                ds.name()
            ),
            &["t_sec", "EXACT", "aKDE", "KARL", "QUAD", "Z-order"],
        );
        for budget in BUDGETS_S {
            let mut row = vec![format!("{budget}")];
            for m in METHODS {
                let mut ev = w.evaluator_eps(m, EPS).expect("εKDV method");
                let out = render_eps_progressive(
                    &mut *ev,
                    &w.raster,
                    EPS,
                    Some(Duration::from_secs_f64(budget)),
                );
                row.push(format!("{:.4e}", out.grid.mean_relative_error(&truth)));
            }
            t.push_row(row);
        }
        let _ = t.save_tsv(
            &ctx.out_dir,
            &format!("fig20_{}", ds.name().replace(' ', "_")),
        );
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_core::bounds::BoundFamily;
    use kdv_core::method::PixelEvaluator;
    use kdv_viz::progressive::progressive_order;

    #[test]
    fn quad_error_is_not_worse_than_exact_scan_at_first_budget() {
        // One dataset at smoke scale to keep runtime tiny. Fig 20's
        // claim — under one budget QUAD evaluates the most pixels — is
        // checked at equal work rather than against a wall-clock
        // deadline, so it does not depend on host load or build
        // profile: over the first pixels of the §6 order, QUAD's whole
        // refinement work stays below the point evaluations EXACT
        // spends on the same pixels.
        const PIXELS: usize = 256;
        let ctx = FigureCtx::smoke();
        let w = Workload::build(
            Dataset::Crime,
            KernelType::Gaussian,
            &ctx.scale,
            (1280, 960),
            ctx.seed,
        );
        let mut quad = w.refine_evaluator(BoundFamily::Quadratic);
        let steps = progressive_order(w.raster.width(), w.raster.height());
        let mut quad_work = 0usize;
        for step in &steps[..PIXELS] {
            let v = quad.eval_eps(&w.raster.pixel_center(step.col, step.row), EPS);
            assert!(v.is_finite());
            quad_work += quad.last_stats().total_work();
        }
        let exact_work = PIXELS * w.points.len();
        assert!(
            quad_work < exact_work,
            "QUAD spent {quad_work} work units on {PIXELS} pixels, EXACT {exact_work}"
        );
    }
}
