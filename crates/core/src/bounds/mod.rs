//! Aggregate bound functions `LB_R(q) ≤ F_R(q) ≤ UB_R(q)` on index nodes.
//!
//! Three families, one per "camp" of prior work plus the paper's
//! contribution (§2 Table 2, §3, §4, §5):
//!
//! * [`BoundFamily::Interval`] — aKDE \[17\] / tKDC \[13\]: evaluate the
//!   (monotone) kernel profile at the min/max distance between `q` and
//!   the node MBR. `O(d)` per node, loosest.
//! * [`BoundFamily::Linear`] — KARL \[7\]: chord/tangent linear bounds on
//!   `exp(−x)` aggregated through the `O(d)` second-moment identity.
//!   Gaussian only — for distance kernels the required `Σ wᵢ dist` has
//!   no cheap moment form (§5.1), so this family degrades to the
//!   interval bounds there, exactly as the paper describes.
//! * [`BoundFamily::Quadratic`] — QUAD (this paper): quadratic bounds,
//!   `O(d²)` for Gaussian (Lemma 3) and `O(d)` for distance kernels
//!   (Lemma 4), provably tighter than both families above.
//!
//! Every family is additionally intersected with the interval bounds
//! and clamped to `lb ≥ 0` — cheap, and it makes the §5.2.2 remark ("we
//! can always get the tighter lower bound compared with `LB_R`") hold
//! by construction even in edge cases.

pub mod interval;
pub mod linear;
pub mod quadratic;
pub mod quadratic_dist;

use crate::kernel::{Kernel, KernelType};
use kdv_geom::simd::exp_neg;
use kdv_geom::Mbr;
use kdv_index::NodeStats;

/// Which bound family to use inside the refinement engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundFamily {
    /// Min/max-distance bounds (aKDE, tKDC).
    Interval,
    /// KARL's linear bounds (Gaussian kernel only; interval otherwise).
    Linear,
    /// QUAD's quadratic bounds (all kernels).
    Quadratic,
}

impl BoundFamily {
    /// All families, for exhaustive tests.
    pub const ALL: [BoundFamily; 3] = [
        BoundFamily::Interval,
        BoundFamily::Linear,
        BoundFamily::Quadratic,
    ];
}

/// A lower/upper bound pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound on `F_R(q)`.
    pub lb: f64,
    /// Upper bound on `F_R(q)`.
    pub ub: f64,
}

impl Interval {
    /// The zero interval (bounds of an empty node).
    pub const ZERO: Interval = Interval { lb: 0.0, ub: 0.0 };

    /// An exact value as a zero-width interval.
    #[inline]
    pub fn exact(v: f64) -> Self {
        Self { lb: v, ub: v }
    }

    /// Intersects two valid bound intervals for the same quantity.
    ///
    /// Both inputs bracket the true value, so the result does too; a
    /// floating-point inversion (`lb > ub` by rounding noise) collapses
    /// to the midpoint to stay well-formed.
    #[inline]
    pub fn intersect(self, other: Interval) -> Interval {
        let lb = self.lb.max(other.lb);
        let ub = self.ub.min(other.ub);
        if lb <= ub {
            Interval { lb, ub }
        } else {
            let mid = 0.5 * (lb + ub);
            Interval { lb: mid, ub: mid }
        }
    }

    /// Bound gap `ub − lb`, the refinement priority (§3.2).
    #[inline]
    pub fn gap(&self) -> f64 {
        self.ub - self.lb
    }

    /// Tightens `self` with a *candidate* interval that may be
    /// numerically unreliable (the chord/tangent constructions cancel
    /// catastrophically at extreme kernel arguments, where the true
    /// values underflow). Sides that conflict with `self` — a candidate
    /// `ub` below our `lb`, a candidate `lb` above our `ub`, or
    /// non-finite values — are discarded rather than trusted.
    #[inline]
    pub fn refined_with(self, candidate: Interval) -> Interval {
        let mut out = self;
        if candidate.lb.is_finite() && candidate.lb > out.lb && candidate.lb <= out.ub {
            out.lb = candidate.lb;
        }
        if candidate.ub.is_finite() && candidate.ub < out.ub && candidate.ub >= out.lb {
            out.ub = candidate.ub;
        }
        out
    }
}

/// Evaluates the chosen bound family for one node against query `q`.
///
/// `stats`/`mbr` describe the node (see [`kdv_index`]); the result
/// satisfies `lb ≤ F_R(q) ≤ ub` for
/// `F_R(q) = Σ_{pᵢ ∈ R} wᵢ·K(q, pᵢ)`.
///
/// Convenience wrapper around [`node_bounds_pre`] that translates `q`
/// into the statistics' centered frame itself. The refinement engine
/// translates once per query instead — with one tree all nodes share
/// the center, and the translation is the dominant cost of the `O(d)`
/// contractions.
#[inline]
pub fn node_bounds(
    kernel: &Kernel,
    family: BoundFamily,
    stats: &NodeStats,
    mbr: &Mbr,
    q: &[f64],
) -> Interval {
    let d = q.len();
    let mut stack = [0.0f64; 16];
    if d <= 16 {
        stats.translate_query(q, &mut stack[..d]);
        node_bounds_pre(kernel, family, stats, mbr, q, &stack[..d])
    } else {
        let mut buf = vec![0.0; d];
        stats.translate_query(q, &mut buf);
        node_bounds_pre(kernel, family, stats, mbr, q, &buf)
    }
}

/// [`node_bounds`] with the query pre-translated into the statistics'
/// centered frame (`qt = q − stats.center`).
///
/// # Panics
/// Debug-asserts that `qt` matches `q` under the node's center.
#[inline]
pub fn node_bounds_pre(
    kernel: &Kernel,
    family: BoundFamily,
    stats: &NodeStats,
    mbr: &Mbr,
    q: &[f64],
    qt: &[f64],
) -> Interval {
    debug_assert!(q
        .iter()
        .zip(qt)
        .zip(&stats.center)
        .all(|((&qi, &ti), &ci)| (qi - ci - ti).abs() <= 1e-12 * (1.0 + qi.abs())));
    if stats.weight <= 0.0 {
        return Interval::ZERO;
    }
    match kernel.ty {
        KernelType::Gaussian => {
            let x_min = kernel.gamma * mbr.min_dist2(q);
            let x_max = kernel.gamma * mbr.max_dist2(q);
            let base = interval::gaussian(stats.weight, x_min, x_max);
            match family {
                BoundFamily::Interval => base,
                BoundFamily::Linear => {
                    let sx = kernel.gamma * stats.sum_dist2_pre(qt);
                    base.refined_with(linear::gaussian(stats.weight, sx, x_min, x_max))
                }
                BoundFamily::Quadratic => {
                    let (s2, s4) = stats.sum_dist2_dist4_pre(qt);
                    let sx = kernel.gamma * s2;
                    let sx2 = kernel.gamma * kernel.gamma * s4;
                    base.refined_with(quadratic::gaussian(stats.weight, sx, sx2, x_min, x_max))
                }
            }
        }
        _ => {
            let x_min = kernel.gamma * mbr.min_dist2(q).sqrt();
            let x_max = kernel.gamma * mbr.max_dist2(q).sqrt();
            let base = interval::distance(kernel, stats.weight, x_min, x_max);
            match family {
                // §5.1: no O(d) linear bound exists for distance
                // kernels, so KARL runs with interval bounds there.
                BoundFamily::Interval | BoundFamily::Linear => base,
                BoundFamily::Quadratic => {
                    base.refined_with(quadratic_dist::bounds(kernel, stats, qt, x_min, x_max))
                }
            }
        }
    }
}

/// One-sided cover of the polynomial `exp_neg`'s own relative error
/// (≲1 ulp of libm, tested ≤ 4 ulp) on the interval-family sides.
const POLY_EXP_ULP: f64 = 8.0 * f64::EPSILON;

/// Absolute pad — relative to the interval upper bound `W·e^{−x_min}`
/// — applied to the chord/tangent refinements assembled from
/// polynomial exps. The constructions are endpoint-interpolating forms
/// evaluated at in-interval arguments, so perturbing each exp by `η`
/// relative shifts the aggregate by at most a small multiple of
/// `η·W·e^{−x_min}` (every exp involved is ≤ `e^{−x_min}`, and the
/// curvature terms contribute ≤ `(Δ+1)e^{−Δ} ≤ 1` of it per unit
/// weight). 256 ulp leaves ~30× headroom over that analysis; the
/// near-degenerate cancellation regimes the guarded constructions
/// share with the libm path are unchanged.
const POLY_EXP_PAD: f64 = 256.0 * f64::EPSILON;

/// Upper bound on `exp(−x)` past the polynomial's underflow cutoff:
/// the poly returns `0.0` there, but an *upper* bound must not, so the
/// assembly substitutes `exp(−700) < 9.86e−305`.
const EXP_CUTOFF_CEIL: f64 = 9.86e-305;

/// Interval-family Gaussian bounds `w·[e^{−x_max}, e^{−x_min}]` from
/// precomputed polynomial exps ([`kdv_geom::simd::exp_neg`] or
/// [`kdv_geom::simd::exp_neg_map`], bit-identical): the tile engine's
/// one box interval, whether [`box_bounds`] evaluates it for one node
/// or the engine for a batch of nodes against one block box.
/// One-sided [`POLY_EXP_ULP`] covers make the poly's ≤4-ulp error
/// certified, and arguments past the poly's underflow cutoff substitute
/// [`EXP_CUTOFF_CEIL`] on the upper side.
#[inline]
pub fn gaussian_interval_from_exps(w: f64, x_min: f64, e_min: f64, e_max: f64) -> Interval {
    let ub = w * if x_min > kdv_geom::simd::EXP_NEG_CUTOFF {
        EXP_CUTOFF_CEIL
    } else {
        e_min * (1.0 + POLY_EXP_ULP)
    };
    let lb = (w * e_max * (1.0 - POLY_EXP_ULP)).max(0.0);
    Interval { lb, ub }
}

/// The [`kdv_geom::simd::gauss_quad_assemble`] parameter block
/// carrying this module's certification policy: the one-sided exp
/// covers of [`gaussian_interval_from_exps`], the [`POLY_EXP_PAD`] on
/// the parabola candidates, the cutoff substitute and the degeneracy
/// threshold. With them the vectorized assembly is a certified
/// (slightly wider) bracket of `F_R(q)`, interchangeable with
/// [`node_bounds_pre`]'s quadratic family under the engine's ε/τ
/// contracts.
pub fn quad_assemble_consts() -> kdv_geom::simd::QuadAssembleConsts {
    kdv_geom::simd::QuadAssembleConsts {
        ulp: POLY_EXP_ULP,
        pad: POLY_EXP_PAD,
        cutoff_ceil: EXP_CUTOFF_CEIL,
        degenerate_span: crate::kernel::gaussian::DEGENERATE_SPAN,
    }
}

/// Uniform bounds over a whole *query box*: an interval bracketing
/// `F_R(q)` for **every** `q` in `query_box` simultaneously.
///
/// Built from box-to-box distances and the (robust) interval family —
/// the chord/tangent families are per-query and do not lift to boxes
/// cheaply. This is the primitive behind the tile engine's block
/// decisions ([`crate::engine::TileEvaluator`]): when a block's box
/// bounds decide the rule, every pixel of the block is decided at once.
///
/// The Gaussian arm is [`gaussian_interval_from_exps`] over the
/// polynomial [`kdv_geom::simd::exp_neg`], bit-identical to the tile
/// engine's batched box bounds, so block decisions and work counts are
/// the same on every host and with SIMD on or off. Other kernels use
/// their closed-form interval bounds.
#[inline]
pub fn box_bounds(kernel: &Kernel, stats: &NodeStats, mbr: &Mbr, query_box: &Mbr) -> Interval {
    if stats.weight <= 0.0 {
        return Interval::ZERO;
    }
    let dmin2 = query_box.min_dist2_box(mbr);
    let dmax2 = query_box.max_dist2_box(mbr);
    match kernel.ty {
        KernelType::Gaussian => {
            let (x_min, x_max) = (kernel.gamma * dmin2, kernel.gamma * dmax2);
            gaussian_interval_from_exps(stats.weight, x_min, exp_neg(x_min), exp_neg(x_max))
        }
        _ => interval::distance(
            kernel,
            stats.weight,
            kernel.gamma * dmin2.sqrt(),
            kernel.gamma * dmax2.sqrt(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_takes_tighter_sides() {
        let a = Interval { lb: 0.0, ub: 10.0 };
        let b = Interval { lb: 2.0, ub: 12.0 };
        let c = a.intersect(b);
        assert_eq!(c, Interval { lb: 2.0, ub: 10.0 });
    }

    #[test]
    fn intersect_collapses_inversion() {
        let a = Interval {
            lb: 5.0,
            ub: 5.0 + 1e-16,
        };
        let b = Interval {
            lb: 5.0 + 2e-16,
            ub: 6.0,
        };
        let c = a.intersect(b);
        assert!(c.lb <= c.ub);
    }

    #[test]
    fn exact_has_zero_gap() {
        let e = Interval::exact(3.5);
        assert_eq!(e.gap(), 0.0);
        assert_eq!(e.lb, e.ub);
    }

    // Cross-family correctness and tightness-ordering tests live in
    // `tests/bound_correctness.rs` at the crate root, where they can
    // drive full kd-trees.

    use kdv_geom::simd::gauss_quad_assemble;
    use kdv_geom::vecmath::dist2;
    use kdv_geom::PointSet;
    use kdv_index::NodeStats;
    use proptest::prelude::*;

    proptest! {
        /// The tile engine's vectorized quadratic assembly
        /// ([`gauss_quad_assemble`] over polynomial exps, with
        /// [`quad_assemble_consts`]) is a certified bracket of the
        /// exact aggregate, like [`node_bounds_pre`].
        #[test]
        fn batch_assembly_brackets_exact(
            flat in proptest::collection::vec(-10.0..10.0f64, 2..40),
            q in proptest::collection::vec(-12.0..12.0f64, 2),
            gamma in 0.01..2.0f64,
        ) {
            let n = flat.len() / 2 * 2;
            let ps = PointSet::from_rows(2, &flat[..n]);
            let mut s = NodeStats::zero(2);
            for p in ps.iter() {
                s.accumulate(p.coords, p.weight);
            }
            let mbr = Mbr::of_set(&ps).unwrap();
            let w = s.weight;
            let x_min = gamma * mbr.min_dist2(&q);
            let x_max = gamma * mbr.max_dist2(&q);
            let sx = (gamma * s.sum_dist2(&q)).clamp(w * x_min, w * x_max);
            let sx2 = (gamma * gamma * s.sum_dist4(&q))
                .clamp(w * x_min * x_min, w * x_max * x_max);
            let t = (sx / w).clamp(x_min, x_max);
            let (mut lb, mut ub) = ([0.0], [0.0]);
            gauss_quad_assemble(
                w, &[x_min], &[x_max], &[t],
                &[exp_neg(x_min)], &[exp_neg(x_max)], &[exp_neg(t)], &[sx], &[sx2],
                &quad_assemble_consts(), &mut lb, &mut ub,
            );
            let f: f64 = ps
                .iter()
                .map(|p| p.weight * (-gamma * dist2(&q, p.coords)).exp())
                .sum();
            prop_assert!(lb[0] <= f * (1.0 + 1e-9) + 1e-12, "lb {} > F {}", lb[0], f);
            prop_assert!(f <= ub[0] * (1.0 + 1e-9) + 1e-12, "F {} > ub {}", f, ub[0]);
            // Never looser than the interval family it intersects.
            prop_assert!(lb[0] >= 0.0 && ub[0] <= w * exp_neg(x_min) * (1.0 + 1e-12) + 1e-300);
        }
    }
}
