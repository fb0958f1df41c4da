//! Integration coverage of the beyond-the-paper extensions through the
//! facade crate: kernel regression, whole-raster τKDV on the tile
//! engine, split rules,
//! parallel rendering, and PNG output — all composed end to end.

use kdv::core::engine::{NoProbe, TileEvaluator};
use kdv::core::regress::KernelRegression;
use kdv::data::Dataset;
use kdv::geom::vecmath::dist2;
use kdv::index::SplitRule;
use kdv::prelude::*;
use kdv::viz::png;

fn crime_workload(n: usize) -> (PointSet, Kernel) {
    let raw = Dataset::Crime.generate(n, 61);
    let bw = scott_gamma(&raw);
    let mut points = raw;
    points.scale_weights(bw.weight);
    (points, Kernel::gaussian(bw.gamma))
}

#[test]
fn tiled_tau_equals_per_pixel_across_split_rules() {
    let (points, kernel) = crime_workload(5000);
    let raster = RasterSpec::covering(&points, 80, 60, 0.02);
    for split in SplitRule::ALL {
        let tree = KdTree::build(
            &points,
            BuildConfig {
                leaf_capacity: 32,
                split,
            },
        );
        let levels = estimate_levels(&tree, kernel, &raster, 12, 9);
        let tau = levels.tau(0.1);
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let reference = render_tau(&mut ev, &raster, tau);
        // The whole raster as one tile of the batched engine — what
        // `kdv hotspot` runs.
        let mut tev = TileEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut budget = RenderBudget::unlimited();
        let tile = tev
            .eval_tile_with(&raster, TileRule::Tau(tau), &[], &mut budget, &mut NoProbe)
            .classify(tau);
        let mut tiled = BinaryGrid::falses(raster.width(), raster.height());
        for (i, t) in tile.taus.iter().enumerate() {
            assert!(t.decided, "an unlimited budget decides every pixel");
            let i = i as u32;
            tiled.set(i % raster.width(), i / raster.width(), t.hot);
        }
        assert_eq!(tiled, reference, "split rule {split:?}");
    }
}

#[test]
fn split_rules_agree_on_eps_density() {
    let (points, kernel) = crime_workload(4000);
    let raster = RasterSpec::covering(&points, 16, 12, 0.02);
    let mut grids = Vec::new();
    for split in SplitRule::ALL {
        let tree = KdTree::build(
            &points,
            BuildConfig {
                leaf_capacity: 16,
                split,
            },
        );
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        grids.push(render_eps(&mut ev, &raster, 0.01));
    }
    for g in &grids[1..] {
        // Different trees refine differently but every result carries
        // the same ε = 1% guarantee → pairwise within 2%.
        assert!(g.mean_relative_error(&grids[0]) < 0.02);
    }
}

#[test]
fn regression_composes_with_emulated_data() {
    // Response: the (known) density-like score of each crime point's
    // location; the regressor must reproduce it at held-out queries.
    let raw = Dataset::Crime.generate(6000, 67);
    let score = |p: &[f64]| (p[0] + 84.4) * 10.0 + (p[1] - 33.75) * 5.0;
    let ys: Vec<f64> = (0..raw.len()).map(|i| score(raw.point(i))).collect();
    let bw = scott_gamma(&raw);
    let kernel = Kernel::gaussian(bw.gamma * 0.25); // smoother for regression
    let model = KernelRegression::fit(&raw, &ys, kernel);
    let mut predictor = model.predictor();
    let mean = raw.mean().expect("non-empty");
    let q = [mean[0], mean[1]];
    let pred = predictor.predict(&q, 0.02).expect("dense data");
    // Linear response + symmetric kernel → prediction ≈ plane value.
    assert!(
        (pred.value - score(&q)).abs() < 0.2,
        "ŷ = {} vs plane {}",
        pred.value,
        score(&q)
    );
    // Certified interval honest against brute force.
    let brute_num: f64 = (0..raw.len())
        .map(|i| ys[i] * kernel.eval_dist2(dist2(&q, raw.point(i))))
        .sum();
    let brute_den: f64 = (0..raw.len())
        .map(|i| kernel.eval_dist2(dist2(&q, raw.point(i))))
        .sum();
    let truth = brute_num / brute_den;
    assert!(pred.lo - 1e-9 <= truth && truth <= pred.hi + 1e-9);
}

#[test]
fn parallel_png_pipeline() {
    let (points, kernel) = crime_workload(3000);
    let raster = RasterSpec::covering(&points, 40, 30, 0.02);
    let tree = KdTree::build_default(&points);
    let opts = RenderOpts {
        threads: 4,
        ..RenderOpts::default()
    };
    let grid = render(
        || RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic),
        &raster,
        TileRule::Rel(0.01),
        &mut RenderBudget::unlimited(),
        opts,
    )
    .expect("valid render")
    .grid();
    let img = ColorMap::heat().render(&grid, true);
    let bytes = png::encode(&img);
    assert!(bytes.starts_with(b"\x89PNG\r\n\x1a\n"));
    // PNG dimensions encoded big-endian in IHDR.
    assert_eq!(&bytes[16..24], &[0, 0, 0, 40, 0, 0, 0, 30]);
}
