//! τ-threshold selection.
//!
//! The paper's τKDV experiments (§7.2) sweep thresholds
//! `τ ∈ {µ − 0.3σ, …, µ + 0.3σ}` where µ and σ are the mean and
//! standard deviation of `F_P(q)` over the raster's pixels. Computing
//! them over *every* pixel would cost as much as an exact render, so
//! [`estimate_levels`] evaluates a coarse subgrid of pixel centers with
//! a tight εKDV query (ε = 10⁻³); µ and σ converge quickly because the
//! density field is smooth at kernel scale.

use crate::bounds::BoundFamily;
use crate::engine::RefineEvaluator;
use crate::kernel::Kernel;
use crate::method::PixelEvaluator;
use crate::raster::RasterSpec;
use kdv_index::KdTree;

/// Pixel-density statistics defining the τ sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TauLevels {
    /// Mean pixel density µ.
    pub mu: f64,
    /// Standard deviation σ of pixel densities.
    pub sigma: f64,
}

impl TauLevels {
    /// The threshold `µ + k·σ` (the paper sweeps `k ∈ [−0.3, 0.3]`).
    pub fn tau(&self, k: f64) -> f64 {
        self.mu + k * self.sigma
    }

    /// The seven thresholds of the paper's Fig 15 sweep.
    pub fn paper_sweep(&self) -> [f64; 7] {
        [-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3].map(|k| self.tau(k))
    }
}

/// Estimates µ and σ of the pixel-density distribution on a
/// `sample_w × sample_h` subgrid of the raster.
///
/// # Panics
/// Panics on a zero-sized subgrid.
pub fn estimate_levels(
    tree: &KdTree,
    kernel: Kernel,
    raster: &RasterSpec,
    sample_w: u32,
    sample_h: u32,
) -> TauLevels {
    assert!(sample_w > 0 && sample_h > 0, "subgrid must be non-empty");
    let coarse = raster.with_resolution(sample_w, sample_h);
    let mut ev = RefineEvaluator::new(tree, kernel, BoundFamily::Quadratic);
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    let n = (sample_w as usize * sample_h as usize) as f64;
    for row in 0..sample_h {
        for col in 0..sample_w {
            let q = coarse.pixel_center(col, row);
            let f = ev.eval_eps(&q, 1e-3);
            sum += f;
            sum_sq += f * f;
        }
    }
    let mu = sum / n;
    let var = (sum_sq / n - mu * mu).max(0.0);
    TauLevels {
        mu,
        sigma: var.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_geom::PointSet;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    fn dataset() -> PointSet {
        let mut rng = StdRng::seed_from_u64(41);
        let flat: Vec<f64> = (0..3000).map(|_| rng.gen_range(0.0..10.0)).collect();
        PointSet::from_rows(2, &flat)
    }

    #[test]
    fn sweep_is_symmetric_around_mu() {
        let levels = TauLevels {
            mu: 10.0,
            sigma: 2.0,
        };
        let sweep = levels.paper_sweep();
        assert_eq!(sweep[3], 10.0);
        assert!((sweep[0] - 9.4).abs() < 1e-12);
        assert!((sweep[6] - 10.6).abs() < 1e-12);
    }

    #[test]
    fn estimates_are_resolution_stable() {
        let ps = dataset();
        let tree = KdTree::build_default(&ps);
        let kernel = Kernel::gaussian(0.1);
        let raster = RasterSpec::covering(&ps, 64, 64, 0.05);
        let a = estimate_levels(&tree, kernel, &raster, 16, 12);
        let b = estimate_levels(&tree, kernel, &raster, 32, 24);
        // Coarse and finer subgrids must agree to within a few percent
        // of the density scale.
        assert!((a.mu - b.mu).abs() <= 0.1 * b.mu.max(1e-12));
        assert!(a.sigma > 0.0 && b.sigma > 0.0);
    }
}
