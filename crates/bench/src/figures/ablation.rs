//! Ablation: where does QUAD's speedup come from?
//!
//! Not a paper figure — this regenerates the *mechanism* behind Figs
//! 14–18 (DESIGN.md §5): for each dataset and bound family, the total
//! number of refinement iterations (priority-queue pops), exact leaf
//! evaluations, node-bound evaluations, and point-kernel evaluations
//! across a full εKDV render, plus their `total_work` sum. Tighter
//! bounds → fewer pops → fewer leaf scans; wall-clock then follows,
//! modulated by each family's per-node evaluation cost (see the
//! `bound_eval` criterion bench for that half of the story).

use crate::figures::FigureCtx;
use crate::report::Table;
use crate::workload::Workload;
use kdv_core::bounds::BoundFamily;
use kdv_core::engine::RefineEvaluator;
use kdv_core::kernel::KernelType;
use kdv_core::method::PixelEvaluator;
use kdv_data::Dataset;

const EPS: f64 = 0.01;

/// Runs the ablation.
pub fn run(ctx: &FigureCtx) -> Vec<Table> {
    let mut t = Table::new(
        "Ablation — refinement effort per full εKDV render (ε = 0.01)",
        &[
            "dataset",
            "family",
            "iterations",
            "exact_leaves",
            "iters_vs_interval",
            "node_bounds",
            "point_evals",
            "total_work",
        ],
    );
    for ds in Dataset::ALL {
        let w = Workload::build(ds, KernelType::Gaussian, &ctx.scale, (1280, 960), ctx.seed);
        let mut interval_iters = 0usize;
        for family in BoundFamily::ALL {
            let mut ev = RefineEvaluator::new(&w.tree, w.kernel, family);
            let mut iters = 0usize;
            let mut leaves = 0usize;
            let mut bounds = 0usize;
            let mut points = 0usize;
            let mut work = 0usize;
            for row in 0..w.raster.height() {
                for col in 0..w.raster.width() {
                    let q = w.raster.pixel_center(col, row);
                    std::hint::black_box(ev.eval_eps(&q, EPS));
                    let s = ev.last_stats();
                    iters += s.iterations;
                    leaves += s.exact_leaves;
                    bounds += s.node_bounds;
                    points += s.point_evals;
                    work += s.total_work();
                }
            }
            if family == BoundFamily::Interval {
                interval_iters = iters;
            }
            t.push_row(vec![
                ds.name().into(),
                format!("{family:?}"),
                format!("{iters}"),
                format!("{leaves}"),
                format!("{:.3}", iters as f64 / interval_iters.max(1) as f64),
                format!("{bounds}"),
                format!("{points}"),
                format!("{work}"),
            ]);
        }
    }
    let _ = t.save_tsv(&ctx.out_dir, "ablation_refinement_effort");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_never_needs_more_iterations() {
        let tables = run(&FigureCtx::smoke());
        let tsv = tables[0].to_tsv();
        for chunk in tsv.lines().skip(2).collect::<Vec<_>>().chunks(3) {
            let iters: Vec<usize> = chunk
                .iter()
                .map(|l| l.split('\t').nth(2).expect("iters").parse().expect("n"))
                .collect();
            // [Interval, Linear, Quadratic] per dataset.
            assert!(
                iters[2] <= iters[0],
                "QUAD iterations exceed interval: {iters:?}"
            );
        }
    }

    #[test]
    fn work_columns_are_consistent() {
        let tables = run(&FigureCtx::smoke());
        let tsv = tables[0].to_tsv();
        for line in tsv.lines().skip(2) {
            let cols: Vec<&str> = line.split('\t').collect();
            let n = |i: usize| cols[i].parse::<usize>().expect("numeric column");
            let (iters, bounds, points, work) = (n(2), n(5), n(6), n(7));
            assert!(bounds > 0 && points > 0, "work columns must be counted");
            // total_work = iterations + node_bounds + point_evals (+
            // resyncs, which the table doesn't break out — hence ≥).
            assert!(work >= iters + bounds + points, "inconsistent: {line}");
        }
    }
}
