//! Fig 14: εKDV response time varying the relative error ε, resolution
//! 1280×960 (scaled), all four datasets.
//!
//! Paper expectation: QUAD ≥ one order of magnitude faster than KARL,
//! which beats aKDE and Z-order; all curves fall as ε grows.
//!
//! Besides the TSV table, each dataset writes a
//! `BENCH_fig14_<dataset>.json` sidecar: for the bound-based methods
//! the timing runs through the instrumented engine path, so every cell
//! carries refinement-event counts (heap pops, leaf scans, point
//! evaluations) alongside its wall time — the *why* behind the curves.

use crate::figures::FigureCtx;
use crate::report::Table;
use crate::workload::{fmt_cell, time_eps_render, time_eps_render_with_metrics, Workload};
use kdv_core::kernel::KernelType;
use kdv_core::method::MethodKind;
use kdv_data::Dataset;
use kdv_telemetry::{json, RenderMetrics};

/// The ε sweep of §7.2.
pub const EPS_SWEEP: [f64; 5] = [0.01, 0.02, 0.03, 0.04, 0.05];

/// Methods plotted in Fig 14.
pub const METHODS: [MethodKind; 4] = [
    MethodKind::Akde,
    MethodKind::Karl,
    MethodKind::Quad,
    MethodKind::ZOrder,
];

/// Runs the figure.
pub fn run(ctx: &FigureCtx) -> Vec<Table> {
    let mut tables = Vec::new();
    for ds in Dataset::ALL {
        let w = Workload::build(ds, KernelType::Gaussian, &ctx.scale, (1280, 960), ctx.seed);
        let mut t = Table::new(
            format!(
                "Fig 14 ({}) — εKDV time [s], n = {}, {}x{}",
                ds.name(),
                w.points.len(),
                w.raster.width(),
                w.raster.height()
            ),
            &["eps", "aKDE", "KARL", "QUAD", "Z-order"],
        );
        let mut cells = Vec::new();
        for eps in EPS_SWEEP {
            let mut row = vec![format!("{eps}")];
            for m in METHODS {
                let cell = match m.bound_family() {
                    // Bound-based methods time through the metered
                    // render, which also yields the refinement-event
                    // counts.
                    Some(family) => {
                        let mut metrics = RenderMetrics::new();
                        let cell = time_eps_render_with_metrics(
                            || w.refine_evaluator(family),
                            &w.raster,
                            eps,
                            ctx.scale.cell_budget,
                            &mut metrics,
                        );
                        cells.push(json::Value::obj(vec![
                            ("eps", json::num_f(eps)),
                            ("method", json::Value::Str(format!("{m:?}"))),
                            ("wall_s", cell.map_or(json::Value::Null, json::num_f)),
                            ("heap_pops", json::num_u(metrics.events.heap_pops)),
                            ("node_bounds", json::num_u(metrics.events.node_bounds)),
                            ("leaf_scans", json::num_u(metrics.events.leaf_scans)),
                            ("point_evals", json::num_u(metrics.events.point_evals)),
                            (
                                "mean_iters_per_pixel",
                                json::num_f(metrics.mean_iterations()),
                            ),
                        ]));
                        cell
                    }
                    None => {
                        let mut ev = w.evaluator_eps(m, eps).expect("εKDV method");
                        time_eps_render(&mut *ev, &w.raster, eps, ctx.scale.cell_budget)
                    }
                };
                row.push(fmt_cell(cell, ctx.scale.cell_budget));
            }
            t.push_row(row);
        }
        let slug = ds.name().replace(' ', "_");
        let doc = json::Value::obj(vec![
            ("schema", json::Value::Str("kdv-bench-fig/1".into())),
            ("figure", json::Value::Str("fig14".into())),
            ("dataset", json::Value::Str(ds.name().into())),
            ("n", json::num_u(w.points.len() as u64)),
            ("width", json::num_u(w.raster.width() as u64)),
            ("height", json::num_u(w.raster.height() as u64)),
            ("cells", json::Value::Arr(cells)),
        ]);
        let _ = std::fs::create_dir_all(&ctx.out_dir);
        let _ = std::fs::write(
            ctx.out_dir.join(format!("BENCH_fig14_{slug}.json")),
            doc.render(),
        );
        let _ = t.save_tsv(&ctx.out_dir, &format!("fig14_{slug}"));
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_four_panels() {
        let ctx = FigureCtx::smoke();
        let tables = run(&ctx);
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert_eq!(t.len(), EPS_SWEEP.len());
        }
    }

    #[test]
    fn smoke_run_writes_bench_json_with_event_counts() {
        let ctx = FigureCtx::smoke();
        run(&ctx);
        let path = ctx.out_dir.join("BENCH_fig14_crime.json");
        let text = std::fs::read_to_string(&path).expect("sidecar exists");
        let doc = json::parse(&text).expect("sidecar parses");
        use json::Value;
        assert_eq!(doc.get("figure").and_then(Value::as_str), Some("fig14"));
        let cells = doc.get("cells").and_then(Value::as_arr).expect("cells");
        // Three bound-based methods per ε step.
        assert_eq!(cells.len(), EPS_SWEEP.len() * 3);
        for cell in cells {
            let pops = cell
                .get("heap_pops")
                .and_then(Value::as_f64)
                .expect("heap_pops");
            assert!(pops > 0.0, "every cell refines at least once per pixel");
            assert!(cell.get("leaf_scans").is_some());
            assert!(cell.get("point_evals").is_some());
        }
    }
}
