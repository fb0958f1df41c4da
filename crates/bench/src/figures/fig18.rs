//! Fig 18: lower/upper bound values versus refinement iteration for
//! KARL and QUAD, at the pixel with the highest KDE value of the *home*
//! dataset, ε = 0.01.
//!
//! Paper expectation: QUAD's bounds close (and the query stops) after
//! far fewer iterations than KARL's — the tightness of §4 made visible.

use crate::figures::FigureCtx;
use crate::report::Table;
use crate::workload::{eps_trace, Workload};
use kdv_core::bounds::BoundFamily;
use kdv_core::engine::RefineEvaluator;
use kdv_core::kernel::KernelType;
use kdv_core::method::PixelEvaluator;
use kdv_data::Dataset;

const EPS: f64 = 0.01;

/// Runs the figure.
pub fn run(ctx: &FigureCtx) -> Vec<Table> {
    let w = Workload::build(
        Dataset::Home,
        KernelType::Gaussian,
        &ctx.scale,
        (1280, 960),
        ctx.seed,
    );

    // Find the hottest pixel on a coarse subgrid (the paper samples the
    // pixel with the highest KDE value).
    let coarse = w.raster.with_resolution(48, 36);
    let mut probe = RefineEvaluator::new(&w.tree, w.kernel, BoundFamily::Quadratic);
    let mut best_q = coarse.pixel_center(0, 0);
    let mut best_f = f64::NEG_INFINITY;
    for row in 0..coarse.height() {
        for col in 0..coarse.width() {
            let q = coarse.pixel_center(col, row);
            let f = probe.eval_eps(&q, 1e-3);
            if f > best_f {
                best_f = f;
                best_q = q;
            }
        }
    }

    let mut karl = RefineEvaluator::new(&w.tree, w.kernel, BoundFamily::Linear);
    let karl_trace = eps_trace(&mut karl, &best_q, EPS);

    let mut quad = RefineEvaluator::new(&w.tree, w.kernel, BoundFamily::Quadratic);
    let quad_trace = eps_trace(&mut quad, &best_q, EPS);

    let mut t = Table::new(
        format!(
            "Fig 18 — bound convergence at hottest pixel (home), QUAD stops at {}, KARL at {}",
            quad_trace.len(),
            karl_trace.len()
        ),
        &["iteration", "LB_KARL", "UB_KARL", "LB_QUAD", "UB_QUAD"],
    );
    let len = karl_trace.len().max(quad_trace.len());
    for i in 0..len {
        let (klb, kub) = karl_trace
            .get(i)
            .copied()
            .unwrap_or(*karl_trace.last().expect("non-empty trace"));
        let (qlb, qub) = quad_trace
            .get(i)
            .copied()
            .unwrap_or(*quad_trace.last().expect("non-empty trace"));
        t.push_row(vec![
            format!("{i}"),
            format!("{klb:.6e}"),
            format!("{kub:.6e}"),
            format!("{qlb:.6e}"),
            format!("{qub:.6e}"),
        ]);
    }
    let _ = t.save_tsv(&ctx.out_dir, "fig18_convergence");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_stops_no_later_than_karl() {
        let tables = run(&FigureCtx::smoke());
        let title = tables[0].title().to_string();
        // "QUAD stops at X, KARL at Y" with X ≤ Y.
        let nums: Vec<usize> = title
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().expect("number"))
            .collect();
        let (quad_stop, karl_stop) = (nums[nums.len() - 2], nums[nums.len() - 1]);
        assert!(
            quad_stop <= karl_stop,
            "QUAD ({quad_stop}) must stop no later than KARL ({karl_stop})"
        );
    }
}
