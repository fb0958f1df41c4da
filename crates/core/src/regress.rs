//! Nadaraya–Watson kernel regression on QUAD bounds — the paper's §8
//! future work ("we will further apply QUAD to other kernel-based
//! machine learning models, e.g., kernel regression …"), implemented.
//!
//! The regression estimate at a query `q` is a ratio of two kernel
//! aggregations:
//!
//! ```text
//!           Σ wᵢ·yᵢ·K(q, pᵢ)      N(q)
//! ŷ(q) =  ------------------  =  ------
//!           Σ wᵢ·K(q, pᵢ)         D(q)
//! ```
//!
//! Splitting the numerator by response sign, `N = N⁺ − N⁻` with
//! `N⁺ = Σ wᵢ·max(yᵢ, 0)·K` and `N⁻ = Σ wᵢ·max(−yᵢ, 0)·K`, turns all
//! three quantities into non-negative kernel aggregations — exactly
//! what the refinement engine bounds. Interval arithmetic on the three
//! brackets then bounds the ratio, and the predictor refines all three
//! geometrically until the ratio interval meets the requested relative
//! width. Every piece reuses the εKDV machinery, so the speedup of the
//! quadratic bounds transfers directly.

use crate::bounds::BoundFamily;
use crate::engine::{NoProbe, RefineEvaluator, RenderBudget, TileRule};
use crate::kernel::Kernel;
use kdv_geom::PointSet;
use kdv_index::{BuildConfig, KdTree};

/// Floor below which the denominator is treated as "no data in range".
const DENSITY_FLOOR: f64 = 1e-300;

/// A bounded regression prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Point estimate (interval midpoint).
    pub value: f64,
    /// Certified lower bound on ŷ(q).
    pub lo: f64,
    /// Certified upper bound on ŷ(q).
    pub hi: f64,
}

/// A fitted kernel regression model.
///
/// # Examples
/// ```
/// use kdv_core::kernel::Kernel;
/// use kdv_core::regress::KernelRegression;
/// use kdv_geom::PointSet;
///
/// // y = 2·x₀ sampled on a line.
/// let mut xs = PointSet::new(2);
/// let mut ys = Vec::new();
/// for i in 0..200 {
///     let x = i as f64 / 100.0;
///     xs.push(&[x, 0.0]);
///     ys.push(2.0 * x);
/// }
/// let model = KernelRegression::fit(&xs, &ys, Kernel::gaussian(200.0));
/// let mut p = model.predictor();
/// let pred = p.predict(&[1.0, 0.0], 0.01).expect("data in range");
/// assert!((pred.value - 2.0).abs() < 0.05);
/// assert!(pred.lo <= pred.value && pred.value <= pred.hi);
/// ```
#[derive(Debug)]
pub struct KernelRegression {
    den: KdTree,
    pos: Option<KdTree>,
    neg: Option<KdTree>,
    kernel: Kernel,
    family: BoundFamily,
}

impl KernelRegression {
    /// Fits the model: builds the (up to three) weighted indexes.
    ///
    /// Point weights of `xs` are multiplied into the aggregations, so a
    /// uniform `1/n` weighting (or coreset re-weighting) carries over.
    ///
    /// # Panics
    /// Panics if `ys.len() != xs.len()`, `xs` is empty, or any response
    /// is non-finite.
    pub fn fit(xs: &PointSet, ys: &[f64], kernel: Kernel) -> Self {
        Self::fit_with(
            xs,
            ys,
            kernel,
            BoundFamily::Quadratic,
            BuildConfig::default(),
        )
    }

    /// [`KernelRegression::fit`] with an explicit bound family and tree
    /// configuration (useful for ablations against KARL/interval).
    pub fn fit_with(
        xs: &PointSet,
        ys: &[f64],
        kernel: Kernel,
        family: BoundFamily,
        config: BuildConfig,
    ) -> Self {
        assert_eq!(xs.len(), ys.len(), "one response per point");
        assert!(!xs.is_empty(), "cannot fit on an empty dataset");
        assert!(ys.iter().all(|y| y.is_finite()), "responses must be finite");

        let mut pos = PointSet::new(xs.dim());
        let mut neg = PointSet::new(xs.dim());
        for (i, &y) in ys.iter().enumerate() {
            let w = xs.weight(i);
            if y > 0.0 {
                pos.push_weighted(xs.point(i), w * y);
            } else if y < 0.0 {
                neg.push_weighted(xs.point(i), w * (-y));
            }
        }
        Self {
            den: KdTree::build(xs, config),
            pos: (!pos.is_empty()).then(|| KdTree::build(&pos, config)),
            neg: (!neg.is_empty()).then(|| KdTree::build(&neg, config)),
            kernel,
            family,
        }
    }

    /// Creates a reusable predictor (owns the per-query scratch state).
    pub fn predictor(&self) -> Predictor<'_> {
        Predictor {
            den: RefineEvaluator::new(&self.den, self.kernel, self.family),
            pos: self
                .pos
                .as_ref()
                .map(|t| RefineEvaluator::new(t, self.kernel, self.family)),
            neg: self
                .neg
                .as_ref()
                .map(|t| RefineEvaluator::new(t, self.kernel, self.family)),
        }
    }
}

/// Per-query state for [`KernelRegression`].
#[derive(Debug)]
pub struct Predictor<'a> {
    den: RefineEvaluator<'a>,
    pos: Option<RefineEvaluator<'a>>,
    neg: Option<RefineEvaluator<'a>>,
}

impl Predictor<'_> {
    /// Predicts ŷ(q) with certified bounds of relative width ≤ `eps`
    /// (relative to the larger bound magnitude).
    ///
    /// Returns `None` when the denominator's kernel mass at `q` is
    /// numerically zero — no data point is within kernel range, so the
    /// regression is undefined there (only possible for compact-support
    /// kernels or extreme distances).
    ///
    /// # Panics
    /// Panics if `eps` is not positive and finite, or `q` is not a
    /// finite point of the data's dimensionality.
    pub fn predict(&mut self, q: &[f64], eps: f64) -> Option<Prediction> {
        assert!(eps.is_finite() && eps > 0.0, "ε must be positive");
        // Refine all three aggregations geometrically until the ratio
        // interval is tight. Inner ε starts coarse; each round halves
        // it, and each eval reuses the engine (queries are independent,
        // so re-evaluation cost is bounded by the final tightness).
        let mut inner = (eps / 4.0).min(0.25);
        for _ in 0..48 {
            let (dl, dh) = eps_bracket(&mut self.den, q, inner);
            if dh <= DENSITY_FLOOR {
                return None;
            }
            let (pl, ph) = match &mut self.pos {
                Some(ev) => eps_bracket(ev, q, inner),
                None => (0.0, 0.0),
            };
            let (nl, nh) = match &mut self.neg {
                Some(ev) => eps_bracket(ev, q, inner),
                None => (0.0, 0.0),
            };
            let num_lo = pl - nh;
            let num_hi = ph - nl;
            if dl > DENSITY_FLOOR {
                // Interval division with positive denominator [dl, dh].
                let lo = if num_lo >= 0.0 {
                    num_lo / dh
                } else {
                    num_lo / dl
                };
                let hi = if num_hi >= 0.0 {
                    num_hi / dl
                } else {
                    num_hi / dh
                };
                let scale = lo.abs().max(hi.abs()).max(f64::MIN_POSITIVE);
                if hi - lo <= eps * scale {
                    return Some(Prediction {
                        value: 0.5 * (lo + hi),
                        lo,
                        hi,
                    });
                }
            }
            inner *= 0.5;
            if inner < 1e-14 {
                // Bounds cannot tighten further (we are at exact
                // evaluation); return the best interval we have.
                let lo = if num_lo >= 0.0 {
                    num_lo / dh
                } else {
                    num_lo / dl.max(DENSITY_FLOOR)
                };
                let hi = if num_hi >= 0.0 {
                    num_hi / dl.max(DENSITY_FLOOR)
                } else {
                    num_hi / dh
                };
                return Some(Prediction {
                    value: 0.5 * (lo + hi),
                    lo,
                    hi,
                });
            }
        }
        unreachable!("inner ε reaches the exactness floor within 48 halvings");
    }
}

/// The εKDV bracket `(lb, ub)` of one aggregation at `q`: a certified
/// `lb ≤ F(q) ≤ ub` with `ub ≤ (1 + ε)·lb`. The ratio needs the bracket,
/// not a point estimate, to keep its own guarantee.
fn eps_bracket(ev: &mut RefineEvaluator<'_>, q: &[f64], eps: f64) -> (f64, f64) {
    let e = ev
        .eval(
            q,
            TileRule::Rel(eps),
            &mut RenderBudget::unlimited(),
            &mut NoProbe,
        )
        .expect("εKDV query at a finite point");
    (e.lb, e.ub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelType;
    use kdv_geom::vecmath::dist2;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    fn brute_nw(xs: &PointSet, ys: &[f64], kernel: &Kernel, q: &[f64]) -> Option<f64> {
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, y) in ys.iter().enumerate().take(xs.len()) {
            let k = xs.weight(i) * kernel.eval_dist2(dist2(q, xs.point(i)));
            num += y * k;
            den += k;
        }
        (den > 0.0).then_some(num / den)
    }

    fn noisy_plane(n: usize, seed: u64) -> (PointSet, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = PointSet::new(2);
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.gen_range(-2.0..2.0);
            let b = rng.gen_range(-2.0..2.0);
            xs.push(&[a, b]);
            // y = 3a − b + 1, mildly noisy, sign-mixed.
            ys.push(3.0 * a - b + 1.0 + rng.gen_range(-0.05..0.05));
        }
        (xs, ys)
    }

    #[test]
    fn recovers_linear_function() {
        let (xs, ys) = noisy_plane(4000, 1);
        let kernel = Kernel::gaussian(40.0);
        let model = KernelRegression::fit(&xs, &ys, kernel);
        let mut p = model.predictor();
        for q in [[0.0, 0.0], [1.0, -1.0], [-1.5, 0.5]] {
            let expect = 3.0 * q[0] - q[1] + 1.0;
            let pred = p.predict(&q, 0.01).expect("dense data");
            assert!(
                (pred.value - expect).abs() < 0.15,
                "ŷ({q:?}) = {} vs plane {expect}",
                pred.value
            );
        }
    }

    #[test]
    fn interval_contains_brute_force_ratio() {
        let (xs, ys) = noisy_plane(1500, 2);
        let kernel = Kernel::gaussian(10.0);
        let model = KernelRegression::fit(&xs, &ys, kernel);
        let mut p = model.predictor();
        for q in [[0.3, 0.7], [-1.0, -1.0], [2.2, 2.2]] {
            let truth = brute_nw(&xs, &ys, &kernel, &q).expect("positive mass");
            let pred = p.predict(&q, 0.02).expect("prediction");
            let slack = 1e-9 * (1.0 + truth.abs());
            assert!(
                pred.lo - slack <= truth && truth <= pred.hi + slack,
                "truth {truth} outside [{}, {}]",
                pred.lo,
                pred.hi
            );
            assert!(pred.hi - pred.lo <= 0.02 * pred.lo.abs().max(pred.hi.abs()) + 1e-12);
        }
    }

    #[test]
    fn all_negative_responses_work() {
        let mut xs = PointSet::new(1);
        let mut ys = Vec::new();
        for i in 0..300 {
            xs.push(&[i as f64 / 100.0]);
            ys.push(-5.0);
        }
        let model = KernelRegression::fit(&xs, &ys, Kernel::gaussian(50.0));
        let mut p = model.predictor();
        let pred = p.predict(&[1.5], 0.01).expect("data in range");
        // ε = 0.01 certifies 1% relative width around the true −5.
        assert!(
            (pred.value + 5.0).abs() <= 0.05,
            "constant −5, got {}",
            pred.value
        );
        assert!(pred.lo <= -5.0 + 1e-9 && -5.0 <= pred.hi + 1e-9);
    }

    #[test]
    fn compact_kernel_far_query_is_none() {
        let mut xs = PointSet::new(2);
        xs.push(&[0.0, 0.0]);
        let model = KernelRegression::fit(&xs, &[1.0], Kernel::new(KernelType::Triangular, 1.0));
        let mut p = model.predictor();
        assert!(p.predict(&[100.0, 100.0], 0.01).is_none());
    }

    #[test]
    fn zero_responses_predict_zero() {
        let mut xs = PointSet::new(1);
        for i in 0..50 {
            xs.push(&[i as f64]);
        }
        let ys = vec![0.0; 50];
        let model = KernelRegression::fit(&xs, &ys, Kernel::gaussian(0.1));
        let mut p = model.predictor();
        let pred = p.predict(&[25.0], 0.01).expect("mass present");
        assert_eq!(pred.value, 0.0);
        assert_eq!((pred.lo, pred.hi), (0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "one response per point")]
    fn mismatched_lengths_panic() {
        let xs = PointSet::from_rows(1, &[0.0, 1.0]);
        KernelRegression::fit(&xs, &[1.0], Kernel::gaussian(1.0));
    }

    #[test]
    fn quadratic_family_predicts_same_as_interval_family() {
        let (xs, ys) = noisy_plane(800, 3);
        let kernel = Kernel::gaussian(5.0);
        let a = KernelRegression::fit_with(
            &xs,
            &ys,
            kernel,
            BoundFamily::Quadratic,
            BuildConfig::default(),
        );
        let b = KernelRegression::fit_with(
            &xs,
            &ys,
            kernel,
            BoundFamily::Interval,
            BuildConfig::default(),
        );
        let (mut pa, mut pb) = (a.predictor(), b.predictor());
        for q in [[0.0, 0.0], [1.0, 1.0]] {
            let ra = pa.predict(&q, 0.01).expect("a");
            let rb = pb.predict(&q, 0.01).expect("b");
            assert!(
                (ra.value - rb.value).abs() <= 0.02 * ra.value.abs().max(1e-9),
                "families disagree: {} vs {}",
                ra.value,
                rb.value
            );
        }
    }
}
