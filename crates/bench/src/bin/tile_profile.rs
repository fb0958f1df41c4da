//! Quick A/B profile of the cold-tile hot path: per-pixel vs
//! tile-batched refinement on one raster, with the work counters that
//! explain the wall time. A tuning aid for the batched engine's
//! constants, not a committed sidecar.
//!
//! ```text
//! cargo run --release -p kdv-bench --bin tile_profile [-- z [points]]
//! ```

use std::time::Instant;

use kdv_core::bandwidth::scott_gamma;
use kdv_core::bounds::BoundFamily;
use kdv_core::engine::{RefineEvaluator, RenderBudget, TileEvaluator};
use kdv_core::kernel::Kernel;
use kdv_core::method::PixelEvaluator;
use kdv_core::raster::RasterSpec;
use kdv_data::Dataset;
use kdv_index::KdTree;

const TILE: u32 = 128;

fn main() {
    let z: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let n: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let mut points = Dataset::Crime.generate(n, 11);
    points.scale_weights(1.0 / points.len() as f64);
    let kernel = Kernel::gaussian(scott_gamma(&points).gamma);
    let tree = KdTree::build_default(&points);
    let base = RasterSpec::covering(&points, TILE, TILE, 0.05);
    // A z-level tile: the base window shrunk 2^z times (top-left tile,
    // which on the crime scatter holds real density).
    let side = 1u32 << z;
    let ((x0, x1), (y0, y1)) = base.window();
    let w = (x1 - x0) / side as f64;
    let h = (y1 - y0) / side as f64;
    let tx = side / 2;
    let ty = side / 2;
    let raster = RasterSpec::new(
        TILE,
        TILE,
        (x0 + tx as f64 * w, x0 + (tx + 1) as f64 * w),
        (y0 + ty as f64 * h, y0 + (ty + 1) as f64 * h),
    );
    let eps = 0.1;

    for family in [BoundFamily::Quadratic] {
        // Per-pixel baseline.
        let mut ev = RefineEvaluator::new(&tree, kernel, family);
        let started = Instant::now();
        let mut pops = 0u64;
        let mut bounds = 0u64;
        let mut pevals = 0u64;
        for row in 0..TILE {
            for col in 0..TILE {
                let q = raster.pixel_center(col, row);
                let _ = ev.eval_eps(&q, eps);
                let s = ev.last_stats();
                pops += s.iterations as u64;
                bounds += s.node_bounds as u64;
                pevals += s.point_evals as u64;
            }
        }
        let per_pixel_ms = started.elapsed().as_secs_f64() * 1e3;
        println!(
            "z={z} {family:?} per-pixel : {per_pixel_ms:7.1} ms  pops {pops:>9}  bounds {bounds:>9}  pevals {pevals:>10}"
        );

        // Batched.
        let mut tev = TileEvaluator::new(&tree, kernel, family);
        let started = Instant::now();
        let mut budget = RenderBudget::unlimited();
        let tile = tev.eval_tile_eps(&raster, eps, &mut budget);
        let batched_ms = started.elapsed().as_secs_f64() * 1e3;
        let (mut pops, mut bounds, mut pevals, mut reuse) = (0u64, 0u64, 0u64, 0u64);
        for s in &tile.stats {
            pops += s.iterations as u64;
            bounds += s.node_bounds as u64;
            pevals += s.point_evals as u64;
            reuse += s.frontier_reuse as u64;
        }
        let sh = tev.shared_stats();
        println!(
            "z={z} {family:?} batched   : {batched_ms:7.1} ms  pops {pops:>9}  bounds {bounds:>9}  pevals {pevals:>10}  reuse {reuse}  shared(pops {} bounds {})  speedup {:.2}x",
            sh.iterations, sh.node_bounds,
            per_pixel_ms / batched_ms
        );
    }
}
