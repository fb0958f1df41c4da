//! The end-to-end KDV methods of the paper's Table 6.
//!
//! | method | εKDV | τKDV | kernels | strategy |
//! |---|---|---|---|---|
//! | EXACT  | ✓ | ✓ | all | sequential scan |
//! | Scikit | ✓ | ✗ | all | kd-tree DFS, node-local tolerance |
//! | Z-Order| ✓ | ✗ | 2-D only | Morton coreset + EXACT on sample |
//! | aKDE   | ✓ | ✗ | all | best-first, interval bounds |
//! | tKDC   | ✗ | ✓ | all | best-first, interval bounds |
//! | KARL   | ✓ | ✓ | Gaussian | best-first, linear bounds |
//! | QUAD   | ✓ | ✓ | all | best-first, quadratic bounds |
//!
//! All methods answer pixels through one [`PixelEvaluator`] interface so
//! renderers, the progressive framework, and the figure harness treat
//! them uniformly. [`make_evaluator`] enforces the capability matrix,
//! returning [`KdvError`] for unsupported combinations.

pub mod exact;
pub mod scikit;
pub mod zorder;

use crate::bounds::BoundFamily;
use crate::engine::RefineEvaluator;
use crate::error::KdvError;
use crate::kernel::{Kernel, KernelType};
use kdv_index::KdTree;

pub use exact::ExactScan;
pub use scikit::ScikitDfs;
pub use zorder::ZOrderScan;

/// Identifier of a KDV method (Table 6 row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Sequential scan.
    Exact,
    /// Scikit-learn-style kd-tree DFS with node-local tolerance.
    Scikit,
    /// Z-order coreset sampling + EXACT on the sample.
    ZOrder,
    /// Best-first refinement with interval bounds, εKDV (Gray–Moore).
    Akde,
    /// Best-first refinement with interval bounds, τKDV (Gan–Bailis).
    Tkdc,
    /// Best-first refinement with KARL's linear bounds.
    Karl,
    /// Best-first refinement with QUAD's quadratic bounds (this paper).
    Quad,
}

impl MethodKind {
    /// All methods, in the paper's Table 6 column order.
    pub const ALL: [MethodKind; 7] = [
        MethodKind::Exact,
        MethodKind::Scikit,
        MethodKind::ZOrder,
        MethodKind::Akde,
        MethodKind::Tkdc,
        MethodKind::Karl,
        MethodKind::Quad,
    ];

    /// Whether the method answers εKDV with its intended guarantee.
    pub fn supports_eps(self) -> bool {
        !matches!(self, MethodKind::Tkdc)
    }

    /// Whether the method answers τKDV with a deterministic guarantee.
    pub fn supports_tau(self) -> bool {
        matches!(
            self,
            MethodKind::Exact | MethodKind::Tkdc | MethodKind::Karl | MethodKind::Quad
        )
    }

    /// Whether the method supports the kernel (§5.1: KARL's linear
    /// bounds need the Gaussian kernel's squared-distance argument).
    pub fn supports_kernel(self, kernel: KernelType) -> bool {
        match self {
            MethodKind::Karl => kernel == KernelType::Gaussian,
            _ => true,
        }
    }

    /// The bound family a best-first method refines with.
    pub fn bound_family(self) -> Option<BoundFamily> {
        match self {
            MethodKind::Akde | MethodKind::Tkdc => Some(BoundFamily::Interval),
            MethodKind::Karl => Some(BoundFamily::Linear),
            MethodKind::Quad => Some(BoundFamily::Quadratic),
            _ => None,
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            MethodKind::Exact => "EXACT",
            MethodKind::Scikit => "Scikit",
            MethodKind::ZOrder => "Z-order",
            MethodKind::Akde => "aKDE",
            MethodKind::Tkdc => "tKDC",
            MethodKind::Karl => "KARL",
            MethodKind::Quad => "QUAD",
        }
    }
}

/// A per-pixel KDV query answerer.
///
/// `eval_eps` returns an estimate of `F_P(q)` whose accuracy contract
/// depends on the method (deterministic `(1 ± ε)` for bound-based
/// methods and EXACT, probabilistic for Z-Order). `eval_tau` classifies
/// `F_P(q) ≥ τ`.
pub trait PixelEvaluator {
    /// εKDV at pixel `q`.
    fn eval_eps(&mut self, q: &[f64], eps: f64) -> f64;

    /// τKDV at pixel `q`.
    fn eval_tau(&mut self, q: &[f64], tau: f64) -> bool;
}

impl<T: PixelEvaluator + ?Sized> PixelEvaluator for Box<T> {
    fn eval_eps(&mut self, q: &[f64], eps: f64) -> f64 {
        (**self).eval_eps(q, eps)
    }

    fn eval_tau(&mut self, q: &[f64], tau: f64) -> bool {
        (**self).eval_tau(q, tau)
    }
}

impl<T: PixelEvaluator + ?Sized> PixelEvaluator for &mut T {
    fn eval_eps(&mut self, q: &[f64], eps: f64) -> f64 {
        (**self).eval_eps(q, eps)
    }

    fn eval_tau(&mut self, q: &[f64], tau: f64) -> bool {
        (**self).eval_tau(q, tau)
    }
}

/// Parameters for methods that need more than the tree and kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodParams {
    /// Z-Order failure probability δ (paper uses e.g. 0.2).
    pub zorder_delta: f64,
    /// Z-Order target relative error used to size the sample.
    pub zorder_eps: f64,
    /// Z-Order stratification phase in `[0, 1)`.
    pub zorder_phase: f64,
}

impl Default for MethodParams {
    fn default() -> Self {
        Self {
            zorder_delta: 0.2,
            zorder_eps: 0.01,
            zorder_phase: 0.5,
        }
    }
}

/// Builds the evaluator for a method, enforcing Table 6 and §5.1.
///
/// `query` is `"εKDV"` or `"τKDV"` and is validated against the
/// capability matrix.
pub fn make_evaluator<'a>(
    kind: MethodKind,
    tree: &'a KdTree,
    kernel: Kernel,
    query: &'static str,
    params: &MethodParams,
) -> Result<Box<dyn PixelEvaluator + 'a>, KdvError> {
    let eps_query = query == "εKDV";
    if eps_query && !kind.supports_eps() {
        return Err(KdvError::UnsupportedQuery {
            method: kind,
            query,
        });
    }
    if !eps_query && !kind.supports_tau() {
        return Err(KdvError::UnsupportedQuery {
            method: kind,
            query,
        });
    }
    if !kind.supports_kernel(kernel.ty) {
        return Err(KdvError::UnsupportedKernel {
            method: kind,
            kernel: kernel.ty,
        });
    }
    Ok(match kind {
        MethodKind::Exact => Box::new(ExactScan::new(tree.points(), kernel)),
        MethodKind::Scikit => Box::new(ScikitDfs::new(tree, kernel)),
        MethodKind::ZOrder => Box::new(ZOrderScan::new(
            tree.points(),
            kernel,
            params.zorder_eps,
            params.zorder_delta,
            params.zorder_phase,
        )),
        MethodKind::Akde | MethodKind::Tkdc | MethodKind::Karl | MethodKind::Quad => Box::new(
            RefineEvaluator::new(tree, kernel, kind.bound_family().expect("bound method")),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_geom::PointSet;

    fn small_tree() -> KdTree {
        let ps = PointSet::from_rows(2, &[0.0, 0.0, 1.0, 0.5, 0.2, 0.8, 2.0, 2.0]);
        KdTree::build_default(&ps)
    }

    #[test]
    fn capability_matrix_matches_table6() {
        use MethodKind::*;
        let eps_ok = [Exact, Scikit, ZOrder, Akde, Karl, Quad];
        let tau_ok = [Exact, Tkdc, Karl, Quad];
        for m in MethodKind::ALL {
            assert_eq!(m.supports_eps(), eps_ok.contains(&m), "{m:?} εKDV");
            assert_eq!(m.supports_tau(), tau_ok.contains(&m), "{m:?} τKDV");
        }
    }

    #[test]
    fn karl_rejects_distance_kernels() {
        assert!(!MethodKind::Karl.supports_kernel(KernelType::Triangular));
        let tree = small_tree();
        let err = make_evaluator(
            MethodKind::Karl,
            &tree,
            Kernel::triangular(1.0),
            "εKDV",
            &MethodParams::default(),
        )
        .err()
        .expect("expected error");
        assert!(matches!(err, KdvError::UnsupportedKernel { .. }));
    }

    #[test]
    fn tkdc_rejects_eps_queries() {
        let tree = small_tree();
        let err = make_evaluator(
            MethodKind::Tkdc,
            &tree,
            Kernel::gaussian(1.0),
            "εKDV",
            &MethodParams::default(),
        )
        .err()
        .expect("expected error");
        assert!(matches!(err, KdvError::UnsupportedQuery { .. }));
    }

    #[test]
    fn all_eps_methods_agree_on_small_input() {
        let tree = small_tree();
        let kernel = Kernel::gaussian(0.5);
        let q = [0.5, 0.5];
        let mut exact = ExactScan::new(tree.points(), kernel);
        let truth = exact.eval_eps(&q, 0.01);
        for m in MethodKind::ALL {
            if !m.supports_eps() || m == MethodKind::ZOrder {
                continue; // Z-Order is probabilistic; covered elsewhere.
            }
            let mut ev =
                make_evaluator(m, &tree, kernel, "εKDV", &MethodParams::default()).unwrap();
            let r = ev.eval_eps(&q, 0.01);
            assert!(
                (r - truth).abs() <= 0.01 * truth + 1e-12,
                "{m:?}: {r} vs exact {truth}"
            );
        }
    }

    #[test]
    fn all_tau_methods_agree_on_small_input() {
        let tree = small_tree();
        let kernel = Kernel::gaussian(0.5);
        let q = [0.5, 0.5];
        let mut exact = ExactScan::new(tree.points(), kernel);
        let truth = exact.eval_eps(&q, 0.01);
        for m in MethodKind::ALL {
            if !m.supports_tau() {
                continue;
            }
            let mut ev =
                make_evaluator(m, &tree, kernel, "τKDV", &MethodParams::default()).unwrap();
            assert!(ev.eval_tau(&q, truth * 0.9), "{m:?} below-τ case");
            assert!(!ev.eval_tau(&q, truth * 1.1), "{m:?} above-τ case");
        }
    }
}
