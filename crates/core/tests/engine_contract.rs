//! Property tests of the engine's user-facing contracts, over random
//! weighted datasets, every kernel, and every bound family.

use kdv_core::bounds::BoundFamily;
use kdv_core::engine::{RefineEvaluator, RenderBudget, TileEvaluator};
use kdv_core::kernel::{Kernel, KernelType};
use kdv_core::method::PixelEvaluator;
use kdv_core::raster::RasterSpec;
use kdv_geom::vecmath::dist2;
use kdv_geom::PointSet;
use kdv_index::{BuildConfig, KdTree};
use proptest::prelude::*;

fn brute_force(ps: &PointSet, kernel: &Kernel, q: &[f64]) -> f64 {
    ps.iter()
        .map(|p| p.weight * kernel.eval_dist2(dist2(q, p.coords)))
        .sum()
}

fn arb_dataset() -> impl Strategy<Value = PointSet> {
    proptest::collection::vec(
        (proptest::collection::vec(-20.0..20.0f64, 2), 0.01..2.0f64),
        8..120,
    )
    .prop_map(|rows| {
        let mut ps = PointSet::new(2);
        for (p, w) in rows {
            ps.push_weighted(&p, w);
        }
        ps
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The εKDV contract: |R(q) − F(q)| ≤ ε·F(q), for every family and
    /// kernel, on random weighted data and queries.
    #[test]
    fn eps_contract(
        ps in arb_dataset(),
        q in proptest::collection::vec(-25.0..25.0f64, 2),
        gamma in 0.02..1.0f64,
        eps in 0.005..0.1f64,
        ty_idx in 0usize..6,
        fam_idx in 0usize..3,
    ) {
        let kernel = Kernel::new(KernelType::ALL[ty_idx], gamma);
        let family = BoundFamily::ALL[fam_idx];
        let tree = KdTree::build(&ps, BuildConfig { leaf_capacity: 8, ..BuildConfig::default() });
        let mut ev = RefineEvaluator::new(&tree, kernel, family);
        let r = ev.eval_eps(&q, eps);
        let f = brute_force(&ps, &kernel, &q);
        // The brute-force reference itself carries summation roundoff;
        // widen by a machine-level tolerance on top of ε.
        let tol = eps * f + 1e-9 * (1.0 + f.abs());
        prop_assert!((r - f).abs() <= tol,
            "{family:?}/{:?}: R = {r} vs F = {f} (ε = {eps})", kernel.ty);
    }

    /// The τKDV contract: classification equals the exact comparison
    /// whenever τ is not within rounding distance of F(q).
    #[test]
    fn tau_contract(
        ps in arb_dataset(),
        q in proptest::collection::vec(-25.0..25.0f64, 2),
        gamma in 0.02..1.0f64,
        tau_scale in 0.1..2.0f64,
        ty_idx in 0usize..6,
        fam_idx in 0usize..3,
    ) {
        let kernel = Kernel::new(KernelType::ALL[ty_idx], gamma);
        let family = BoundFamily::ALL[fam_idx];
        let tree = KdTree::build(&ps, BuildConfig { leaf_capacity: 8, ..BuildConfig::default() });
        let f = brute_force(&ps, &kernel, &q);
        let tau = f * tau_scale + 1e-6;
        if (f - tau).abs() <= 1e-6 * (1.0 + f.abs()) {
            return Ok(()); // boundary: rounding decides, skip.
        }
        let mut ev = RefineEvaluator::new(&tree, kernel, family);
        prop_assert_eq!(ev.eval_tau(&q, tau), f >= tau,
            "{:?}/{:?}: τ = {} vs F = {}", family, kernel.ty, tau, f);
    }

    /// Exhaustive refinement reproduces the brute-force sum.
    #[test]
    fn exhaustive_refinement_is_exact(
        ps in arb_dataset(),
        q in proptest::collection::vec(-25.0..25.0f64, 2),
        gamma in 0.02..1.0f64,
        ty_idx in 0usize..6,
    ) {
        let kernel = Kernel::new(KernelType::ALL[ty_idx], gamma);
        let tree = KdTree::build(&ps, BuildConfig { leaf_capacity: 4, ..BuildConfig::default() });
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let r = ev.eval_exact(&q);
        let f = brute_force(&ps, &kernel, &q);
        prop_assert!((r - f).abs() <= 1e-9 * (1.0 + f.abs()),
            "exhaustive {r} vs brute {f}");
    }

    /// Determinism: the same query twice gives bit-identical results
    /// (the evaluator's reused scratch state must not leak across
    /// queries).
    #[test]
    fn queries_are_deterministic(
        ps in arb_dataset(),
        q in proptest::collection::vec(-25.0..25.0f64, 2),
        gamma in 0.02..1.0f64,
    ) {
        let kernel = Kernel::gaussian(gamma);
        let tree = KdTree::build_default(&ps);
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let r1 = ev.eval_eps(&q, 0.01);
        // Interleave an unrelated query to perturb the scratch state.
        let _ = ev.eval_eps(&[100.0, -100.0], 0.5);
        let r2 = ev.eval_eps(&q, 0.01);
        prop_assert_eq!(r1.to_bits(), r2.to_bits());
    }

    /// Tile-batched refinement honors the same per-pixel contracts as
    /// independent refinement, on random trees and every bound family:
    /// every unbudgeted ε pixel is certified (`ub ≤ (1+ε)·lb`) and its
    /// bracket contains the exact density; the τ hot mask is identical
    /// to the per-pixel evaluator's answers.
    #[test]
    fn batched_tile_matches_per_pixel(
        ps in arb_dataset(),
        gamma in 0.05..1.0f64,
        fam_idx in 0usize..3,
        eps in 0.01..0.3f64,
    ) {
        let family = [BoundFamily::Interval, BoundFamily::Linear, BoundFamily::Quadratic][fam_idx];
        let kernel = Kernel::gaussian(gamma);
        let tree = KdTree::build(&ps, BuildConfig { leaf_capacity: 4, ..BuildConfig::default() });
        let raster = RasterSpec::covering(&ps, 9, 9, 0.05);
        let mut tev = TileEvaluator::new(&tree, kernel, family);
        let mut pev = RefineEvaluator::new(&tree, kernel, family);

        let mut budget = RenderBudget::unlimited();
        let tile = tev.eval_tile_eps(&raster, eps, &mut budget);
        let mut tau = 0.0;
        for (i, e) in tile.evals.iter().enumerate() {
            let (col, row) = (i as u32 % 9, i as u32 / 9);
            let q = raster.pixel_center(col, row);
            prop_assert!(!e.exhausted);
            prop_assert!(e.ub <= (1.0 + eps) * e.lb + 1e-12 * e.ub.abs());
            let exact = pev.eval_exact(&q);
            prop_assert!(e.lb <= exact + 1e-9 * (1.0 + exact.abs()));
            prop_assert!(e.ub >= exact - 1e-9 * (1.0 + exact.abs()));
            tau += exact;
        }
        // τ at ~40% of the mean pixel density: both hot and cold
        // pixels exist in most generated scenes.
        let tau = (tau / 81.0) * 0.4;
        // Densities can underflow to 0 far from the data; skip the τ
        // half for those degenerate scenes (τ must be positive).
        if tau > 0.0 && tau.is_finite() {
            let mut budget = RenderBudget::unlimited();
            let t = tev.eval_tile_tau(&raster, tau, &mut budget);
            for (i, b) in t.taus.iter().enumerate() {
                let (col, row) = (i as u32 % 9, i as u32 / 9);
                let q = raster.pixel_center(col, row);
                prop_assert!(b.decided);
                prop_assert_eq!(b.hot, pev.eval_tau(&q, tau), "pixel ({col},{row})");
            }
        }
    }
}

#[test]
fn eval_eps_halving_eps_tightens_error() {
    // Deterministic sanity: the measured error shrinks (weakly) as ε
    // tightens on a fixed workload.
    let mut ps = PointSet::new(2);
    for i in 0..400 {
        let a = i as f64 * 0.1;
        ps.push(&[a.sin() * 5.0, a.cos() * 3.0]);
    }
    let kernel = Kernel::gaussian(0.4);
    let tree = KdTree::build_default(&ps);
    let q = [1.0, 1.0];
    let f: f64 = ps
        .iter()
        .map(|p| p.weight * kernel.eval_dist2(dist2(&q, p.coords)))
        .sum();
    let mut last = f64::INFINITY;
    for eps in [0.2, 0.05, 0.01, 0.001] {
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let err = (ev.eval_eps(&q, eps) - f).abs() / f;
        assert!(err <= eps, "error {err} above ε = {eps}");
        assert!(err <= last + 1e-12);
        last = err.max(1e-15);
    }
}
