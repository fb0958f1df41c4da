//! Degenerate-geometry regression suite (robustness tentpole).
//!
//! Real datasets contain pathologies the paper's figures never show:
//! every point identical (a sensor stuck on one location), perfectly
//! collinear points (events along a road), a single point, and rasters
//! whose covering window would have zero area. Each case runs through
//! the full εKDV and τKDV pipelines and must produce correct output —
//! not a panic, not an NaN grid.

use kdv_core::bandwidth::try_scott_gamma;
use kdv_core::bounds::{node_bounds, BoundFamily};
use kdv_core::engine::{NoProbe, RefineEvaluator, RenderBudget, TileRule};
use kdv_core::kernel::Kernel;
use kdv_core::method::ExactScan;
use kdv_core::raster::RasterSpec;
use kdv_geom::PointSet;
use kdv_index::{KdTree, NodeId, NodeKind};
use kdv_viz::render::{render_eps, render_tau};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 2-D point set from (x, y, weight) rows.
fn ps(rows: &[(f64, f64, f64)]) -> PointSet {
    let mut out = PointSet::new(2);
    for &(x, y, w) in rows {
        out.push_weighted(&[x, y], w);
    }
    out
}

fn all_duplicates() -> PointSet {
    ps(&[(3.25, -1.5, 1.0); 40])
}

fn collinear() -> PointSet {
    // y = 2x + 1, including repeated knots.
    let mut rows = Vec::new();
    for i in 0..60 {
        let x = -3.0 + 0.1 * i as f64;
        rows.push((x, 2.0 * x + 1.0, 1.0 + (i % 3) as f64));
    }
    rows.push(rows[0]);
    rows.push(rows[0]);
    ps(&rows)
}

fn single_point() -> PointSet {
    ps(&[(0.75, 0.25, 2.0)])
}

fn degenerate_sets() -> Vec<(&'static str, PointSet)> {
    vec![
        ("all-duplicates", all_duplicates()),
        ("collinear", collinear()),
        ("single-point", single_point()),
    ]
}

/// A usable γ even where Scott's rule degenerates (zero spread on
/// every axis of a duplicate-only set).
fn safe_kernel(points: &PointSet) -> Kernel {
    match try_scott_gamma(points) {
        Ok(bw) => Kernel::gaussian(bw.gamma),
        Err(_) => Kernel::gaussian(1.0),
    }
}

#[test]
fn eps_render_survives_degenerate_geometry() {
    for (name, points) in degenerate_sets() {
        let kernel = safe_kernel(&points);
        let tree = KdTree::try_build_default(&points)
            .unwrap_or_else(|e| panic!("{name}: tree build failed: {e}"));
        let raster = RasterSpec::try_covering(&points, 12, 9, 0.05)
            .unwrap_or_else(|e| panic!("{name}: raster failed: {e}"));
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let grid = render_eps(&mut ev, &raster, 0.01);
        let exact = ExactScan::new(&points, kernel);
        for row in 0..raster.height() {
            for col in 0..raster.width() {
                let v = grid.get(col, row);
                assert!(v.is_finite(), "{name}: non-finite pixel ({col},{row})");
                let f = exact.density(&raster.pixel_center(col, row));
                assert!(
                    (v - f).abs() <= 0.5 * 0.01 * f.abs() + 1e-12,
                    "{name}: pixel ({col},{row}) = {v}, exact {f}"
                );
            }
        }
    }
}

#[test]
fn tau_render_survives_degenerate_geometry() {
    for (name, points) in degenerate_sets() {
        let kernel = safe_kernel(&points);
        let tree = KdTree::try_build_default(&points).expect("finite input");
        let raster = RasterSpec::try_covering(&points, 10, 8, 0.05).expect("finite input");
        let exact = ExactScan::new(&points, kernel);
        // τ at 40% of the observed density range.
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for row in 0..raster.height() {
            for col in 0..raster.width() {
                let f = exact.density(&raster.pixel_center(col, row));
                lo = lo.min(f);
                hi = hi.max(f);
            }
        }
        let tau = lo + 0.4 * (hi - lo);
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mask = render_tau(&mut ev, &raster, tau);
        for row in 0..raster.height() {
            for col in 0..raster.width() {
                let f = exact.density(&raster.pixel_center(col, row));
                if (f - tau).abs() <= 1e-9 * (1.0 + f.abs()) {
                    continue; // boundary pixel: summation-order noise decides
                }
                assert_eq!(
                    mask.get(col, row),
                    f >= tau,
                    "{name}: pixel ({col},{row}) misclassified (F = {f}, τ = {tau})"
                );
            }
        }
    }
}

#[test]
fn all_duplicate_points_build_with_tiny_leaves() {
    // Splitting can make no progress when every coordinate is equal;
    // the builder must still terminate with a valid (leaf-heavy) tree.
    let points = all_duplicates();
    let config = kdv_index::BuildConfig {
        leaf_capacity: 2,
        ..Default::default()
    };
    let tree = KdTree::try_build(&points, config).expect("duplicates are finite");
    assert_eq!(tree.points().len(), points.len());
    let kernel = safe_kernel(&points);
    let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
    let q = [3.25, -1.5];
    let f = ExactScan::new(&points, kernel).density(&q);
    let v = ev
        .eval(
            &q,
            TileRule::Rel(0.01),
            &mut RenderBudget::unlimited(),
            &mut NoProbe,
        )
        .expect("valid query")
        .estimate();
    assert!((v - f).abs() <= 0.5 * 0.01 * f.abs() + 1e-12);
}

#[test]
fn zero_area_rasters_are_rejected_not_rendered() {
    assert!(RasterSpec::try_new(0, 8, (0.0, 1.0), (0.0, 1.0)).is_err());
    assert!(RasterSpec::try_new(8, 0, (0.0, 1.0), (0.0, 1.0)).is_err());
    assert!(RasterSpec::try_new(8, 8, (2.0, 2.0), (0.0, 1.0)).is_err());
    assert!(RasterSpec::try_new(8, 8, (0.0, 1.0), (5.0, 5.0)).is_err());
    // But a degenerate *dataset* extent is fine: covering widens it.
    let raster = RasterSpec::try_covering(&single_point(), 8, 8, 0.05).expect("widened window");
    assert!(raster.pixel_center(0, 0).iter().all(|c| c.is_finite()));
}

/// Exact `F_R(q)` for the subtree rooted at `id`, by recursion.
fn exact_node_density(tree: &KdTree, kernel: &Kernel, id: NodeId, q: &[f64]) -> f64 {
    let node = tree.node(id);
    match node.kind {
        NodeKind::Internal { left, right } => {
            exact_node_density(tree, kernel, left, q) + exact_node_density(tree, kernel, right, q)
        }
        NodeKind::Leaf { .. } => tree
            .leaf_points(id)
            .map(|(p, w)| {
                let d2: f64 = p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
                w * kernel.eval_dist2(d2)
            })
            .sum(),
    }
}

/// Satellite 4: randomized property `LB_R(q) ≤ F_R(q) ≤ UB_R(q)` for
/// every QUAD bound variant, on every node of trees over degenerate
/// data, at seeded random query points. Both kernel branches (squared-
/// distance Gaussian and distance-argument Epanechnikov) are covered.
#[test]
fn bounds_bracket_truth_on_degenerate_data() {
    let mut rng = StdRng::seed_from_u64(2026);
    let kernels: [fn(&PointSet) -> Kernel; 2] = [
        |ps| safe_kernel(ps),
        |ps| {
            let g = safe_kernel(ps).gamma;
            Kernel::new(kdv_core::kernel::KernelType::Epanechnikov, g)
        },
    ];
    for (name, points) in degenerate_sets() {
        for make_kernel in kernels {
            let kernel = make_kernel(&points);
            let tree = KdTree::try_build_default(&points).expect("finite input");
            for _ in 0..25 {
                let q = [rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)];
                for family in BoundFamily::ALL {
                    tree.for_each_node(|id, node| {
                        let b = node_bounds(&kernel, family, &node.stats, &node.mbr, &q);
                        let f = exact_node_density(&tree, &kernel, id, &q);
                        let tol = 1e-9 * (1.0 + f.abs());
                        assert!(
                            b.lb <= f + tol && f <= b.ub + tol,
                            "{name}/{family:?}/{:?}: node {id:?} bound \
                             [{}, {}] misses F_R = {f} at q = {q:?}",
                            kernel.ty,
                            b.lb,
                            b.ub
                        );
                    });
                }
            }
        }
    }
}

/// The same property end-to-end: the refinement bracket of every bound
/// family contains the exact density on degenerate data.
#[test]
fn refinement_brackets_truth_for_all_families() {
    let mut rng = StdRng::seed_from_u64(77);
    for (name, points) in degenerate_sets() {
        let kernel = safe_kernel(&points);
        let tree = KdTree::try_build_default(&points).expect("finite input");
        let exact = ExactScan::new(&points, kernel);
        for _ in 0..20 {
            let q = [rng.gen_range(-4.0..4.0), rng.gen_range(-4.0..4.0)];
            let f = exact.density(&q);
            for family in BoundFamily::ALL {
                let mut ev = RefineEvaluator::new(&tree, kernel, family);
                let mut budget = RenderBudget::unlimited();
                let e = ev
                    .eval(&q, TileRule::Rel(0.05), &mut budget, &mut NoProbe)
                    .expect("valid query");
                let (lb, ub) = (e.lb, e.ub);
                let tol = 1e-9 * (1.0 + f.abs());
                assert!(
                    lb <= f + tol && f <= ub + tol,
                    "{name}/{family:?}: [{lb}, {ub}] misses F = {f} at {q:?}"
                );
            }
        }
    }
}
