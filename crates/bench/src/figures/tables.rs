//! The paper's tables: Table 3 (running steps), Table 5 (datasets) and
//! Table 6 (method capabilities).

use crate::figures::FigureCtx;
use crate::report::Table;
use crate::workload::eps_trace;
use kdv_core::bandwidth::scott_gamma;
use kdv_core::bounds::BoundFamily;
use kdv_core::engine::RefineEvaluator;
use kdv_core::kernel::Kernel;
use kdv_core::method::MethodKind;
use kdv_data::Dataset;
use kdv_geom::{Mbr, PointSet};
use kdv_index::{BuildConfig, KdTree};

/// Table 3: the running steps of the indexing framework on a toy
/// 18-point set mirroring the paper's Fig 3 (three levels, four
/// leaves), showing the maintained `lb`/`ub` per popped node.
pub fn run_table3(ctx: &FigureCtx) -> Vec<Table> {
    // 18 points in four spatial clusters ≈ the paper's leaf structure.
    let flat: Vec<f64> = vec![
        // R1: 5 points near (0, 0)
        0.0, 0.0, 0.2, 0.1, 0.1, 0.3, 0.3, 0.2, 0.15, 0.15, // R2: 4 points near (2, 0)
        2.0, 0.0, 2.1, 0.2, 2.2, 0.1, 2.05, 0.15, // R3: 4 points near (0, 2)
        0.0, 2.0, 0.2, 2.1, 0.1, 2.2, 0.15, 2.05, // R4: 5 points near (2, 2)
        2.0, 2.0, 2.1, 2.2, 2.2, 2.1, 2.05, 2.15, 2.15, 2.05,
    ];
    let ps = PointSet::from_rows(2, &flat);
    let tree = KdTree::build(
        &ps,
        BuildConfig {
            leaf_capacity: 5,
            ..BuildConfig::default()
        },
    );
    let kernel = Kernel::gaussian(scott_gamma(&ps).gamma);
    let q = [0.5, 0.5];

    let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
    let trace = eps_trace(&mut ev, &q, 1e-6);

    let mut t = Table::new(
        "Table 3 — running steps of the refinement framework (toy tree, pixel q = (0.5, 0.5))",
        &["step", "lb", "ub", "gap"],
    );
    for (i, (lb, ub)) in trace.iter().enumerate() {
        t.push_row(vec![
            format!("{}", i + 1),
            format!("{lb:.6}"),
            format!("{ub:.6}"),
            format!("{:.6}", ub - lb),
        ]);
    }
    let _ = t.save_tsv(&ctx.out_dir, "table3_running_steps");
    vec![t]
}

/// Table 5: the dataset inventory with generated statistics.
pub fn run_table5(ctx: &FigureCtx) -> Vec<Table> {
    let mut t = Table::new(
        "Table 5 — datasets (emulated; see DESIGN.md substitution #1)",
        &["name", "n_paper", "n_scaled", "dim", "x_extent", "y_extent"],
    );
    for ds in Dataset::ALL {
        let n = ctx.scale.dataset_size(ds);
        let ps = ds.generate(n, ctx.seed);
        let mbr = Mbr::of_set(&ps).expect("non-empty");
        t.push_row(vec![
            ds.name().into(),
            format!("{}", ds.paper_size()),
            format!("{n}"),
            format!("{}", ps.dim()),
            format!("{:.4}", mbr.extent(0)),
            format!("{:.4}", mbr.extent(1)),
        ]);
    }
    let _ = t.save_tsv(&ctx.out_dir, "table5_datasets");
    vec![t]
}

/// Table 6: the method capability matrix, generated from the same code
/// the engine enforces.
pub fn run_table6(ctx: &FigureCtx) -> Vec<Table> {
    let mut t = Table::new(
        "Table 6 — methods for the two variants of KDV",
        &[
            "variant", "EXACT", "Scikit", "Z-order", "aKDE", "tKDC", "KARL", "QUAD",
        ],
    );
    let check = |b: bool| if b { "Y" } else { "x" }.to_string();
    t.push_row(
        std::iter::once("εKDV".to_string())
            .chain(MethodKind::ALL.iter().map(|m| check(m.supports_eps())))
            .collect(),
    );
    t.push_row(
        std::iter::once("τKDV".to_string())
            .chain(MethodKind::ALL.iter().map(|m| check(m.supports_tau())))
            .collect(),
    );
    let _ = t.save_tsv(&ctx.out_dir, "table6_methods");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_trace_converges() {
        let tables = run_table3(&FigureCtx::smoke());
        let t = &tables[0];
        assert!(t.len() >= 2, "expected multiple refinement steps");
        let tsv = t.to_tsv();
        let last = tsv.lines().last().expect("rows");
        let gap: f64 = last.split('\t').nth(3).expect("gap").parse().expect("f64");
        assert!(gap.abs() < 1e-5, "final gap {gap} should be ~0");
    }

    #[test]
    fn table6_matches_paper() {
        let tables = run_table6(&FigureCtx::smoke());
        let tsv = tables[0].to_tsv();
        let rows: Vec<&str> = tsv.lines().skip(2).collect();
        assert_eq!(rows[0], "εKDV\tY\tY\tY\tY\tx\tY\tY");
        assert_eq!(rows[1], "τKDV\tY\tx\tx\tx\tY\tY\tY");
    }

    #[test]
    fn table5_lists_four_datasets() {
        let tables = run_table5(&FigureCtx::smoke());
        assert_eq!(tables[0].len(), 4);
    }
}
