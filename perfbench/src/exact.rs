//! EXACT: brute-force kernel density, the reference every served tile
//! is checked against.
//!
//! The sum skips terms whose exponent exceeds [`CUTOFF`]; each skipped
//! term is below `w·e^-CUTOFF`, so the result is short of the true sum
//! by less than `W·e^-CUTOFF` (`W` the total weight, ~1e-26·W) — far
//! inside the tie band the checks allow.

use kdv_core::raster::RasterSpec;
use kdv_geom::PointSet;

use crate::png::Image;

/// Exponent beyond which a Gaussian term is dropped.
pub const CUTOFF: f64 = 60.0;

/// Relative half-width of the τ tie band: pixels whose exact density is
/// this close to τ may legitimately classify either way.
pub const TIE_BAND: f64 = 1e-6;

/// A weighted 2-D point set under a Gaussian kernel `exp(-γ·d²)`.
#[derive(Debug, Clone)]
pub struct Exact {
    xs: Vec<f64>,
    ys: Vec<f64>,
    ws: Vec<f64>,
    gamma: f64,
}

impl Exact {
    /// The reference for `points` under bandwidth `gamma`.
    pub fn new(points: &PointSet, gamma: f64) -> Self {
        let mut e = Self {
            xs: Vec::with_capacity(points.len()),
            ys: Vec::with_capacity(points.len()),
            ws: Vec::with_capacity(points.len()),
            gamma,
        };
        for i in 0..points.len() {
            let p = points.point(i);
            e.add(p[0], p[1], points.weight(i));
        }
        e
    }

    /// Adds one weighted point (an acknowledged append).
    pub fn add(&mut self, x: f64, y: f64, w: f64) {
        self.xs.push(x);
        self.ys.push(y);
        self.ws.push(w);
    }

    /// `Σ wᵢ·exp(-γ‖q − pᵢ‖²)`.
    pub fn density(&self, q: [f64; 2]) -> f64 {
        let mut sum = 0.0;
        for ((&x, &y), &w) in self.xs.iter().zip(&self.ys).zip(&self.ws) {
            let (dx, dy) = (x - q[0], y - q[1]);
            let a = self.gamma * (dx * dx + dy * dy);
            if a < CUTOFF {
                sum += w * (-a).exp();
            }
        }
        sum
    }
}

/// Outcome of checking pixels against EXACT.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checked {
    /// Pixels compared.
    pub pixels: u64,
    /// Pixels inside the tie band (not judged).
    pub ties: u64,
    /// Pixels that broke the contract.
    pub violations: u64,
}

impl Checked {
    /// Accumulates another tally.
    pub fn add(&mut self, other: Checked) {
        self.pixels += other.pixels;
        self.ties += other.ties;
        self.violations += other.violations;
    }
}

/// Checks a decoded τ tile at `pixels` against EXACT classification:
/// a pixel must be the hot colour where `F ≥ τ` and the cold colour
/// where `F < τ`, outside the tie band.
pub fn check_tau_tile(
    exact: &Exact,
    raster: &RasterSpec,
    img: &Image,
    colors: ([u8; 3], [u8; 3]),
    tau: f64,
    pixels: &[(u32, u32)],
) -> Checked {
    let (hot, cold) = colors;
    let mut out = Checked::default();
    for &(col, row) in pixels {
        out.pixels += 1;
        let c = img.get(col, row);
        if c != hot && c != cold {
            out.violations += 1;
            continue;
        }
        let f = exact.density(raster.pixel_center(col, row));
        if (f - tau).abs() <= TIE_BAND * tau {
            out.ties += 1;
        } else if (f >= tau) != (c == hot) {
            out.violations += 1;
        }
    }
    out
}

/// Whether a certified εKDV bracket honours the relative contract at a
/// pixel whose exact density is `f`: `lb ≤ F ≤ ub` and the estimate
/// within `(1 ± ε)·F` (with float slack).
pub fn eps_ok(f: f64, lb: f64, ub: f64, estimate: f64, eps: f64) -> bool {
    let slack = 1e-9 * f + 1e-300;
    lb <= f + slack && ub >= f - slack && (estimate - f).abs() <= eps * f + slack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_matches_the_closed_form() {
        let mut ps = PointSet::new(2);
        ps.push_weighted(&[0.0, 0.0], 2.0);
        ps.push_weighted(&[1.0, 0.0], 1.0);
        let e = Exact::new(&ps, 0.5);
        let want = 2.0 * (-0.5f64 * 0.25).exp() + (-0.5f64 * 0.25).exp();
        assert!((e.density([0.5, 0.0]) - want).abs() < 1e-15);
        assert!(eps_ok(1.0, 0.95, 1.04, 1.0, 0.1));
        assert!(!eps_ok(1.0, 1.01, 1.04, 1.02, 0.1), "lb above the truth");
        assert!(!eps_ok(1.0, 0.5, 1.5, 1.3, 0.1), "estimate outside (1±ε)");
    }
}
