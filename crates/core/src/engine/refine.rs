//! Per-pixel best-first refinement.

use super::budget::{BudgetedEval, RenderBudget};
use super::probe::{NoProbe, Probe};
use super::tile::TileRule;
use crate::bounds::{node_bounds_pre, BoundFamily, Interval};
use crate::error::KdvError;
use crate::kernel::Kernel;
use crate::method::PixelEvaluator;
use crate::query::validate_query_point;
use kdv_index::{KdTree, NodeId, NodeKind};
use std::collections::BinaryHeap;

/// Unit roundoff of f64 (used for the incremental-sum error tracking).
pub(super) const EPS_MACH: f64 = 2.220_446_049_250_313e-16;

/// Resync the incremental sums from the heap once the tracked rounding
/// error exceeds this fraction of the sums' magnitude.
pub(super) const RESYNC_REL: f64 = 1e-6;

/// Per-query diagnostics (iteration counts feed Fig 18, the
/// `refine_pixel` bench, and the telemetry cost maps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefineStats {
    /// Nodes popped from the priority queue.
    pub iterations: usize,
    /// Leaves evaluated exactly.
    pub exact_leaves: usize,
    /// Node lower/upper bound evaluations (root + two per split).
    pub node_bounds: usize,
    /// Point-kernel evaluations performed by exact leaf scans.
    pub point_evals: usize,
    /// Incremental-sum resync passes forced by float rounding error.
    pub resyncs: usize,
    /// Heap pops / bound evaluations *avoided* by sharing one tile
    /// frontier across pixels (batched path only; always 0 for the
    /// per-pixel entry points). Excluded from [`total_work`], which
    /// counts work performed.
    ///
    /// [`total_work`]: RefineStats::total_work
    pub frontier_reuse: usize,
    /// SIMD lane width the leaf scans ran with for this query
    /// (4 on the AVX2 path, 1 scalar).
    pub simd_lanes: usize,
}

impl RefineStats {
    /// Scalar cost proxy for one query: every counted operation — heap
    /// pop, node-bound evaluation, point-kernel evaluation, resync
    /// pass — weighs one unit. This is what the telemetry cost maps
    /// rasterize ("where did the render's work go").
    #[inline]
    pub fn total_work(&self) -> usize {
        self.iterations + self.node_bounds + self.point_evals + self.resyncs
    }
}

/// A heap entry: one frontier node with its cached bounds and its
/// depth in the tree (root = 0) for per-depth work attribution.
#[derive(Debug, Clone, Copy)]
struct Entry {
    gap: f64,
    node: NodeId,
    lb: f64,
    ub: f64,
    depth: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.gap == other.gap
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap on the bound gap (§3.2's priority).
        self.gap.total_cmp(&other.gap)
    }
}

/// Best-first branch-and-bound evaluator over one kd-tree.
///
/// The evaluator owns its priority queue and reuses the allocation
/// across pixels — rendering a 1280×960 frame issues over a million
/// queries, so per-query allocations would dominate.
#[derive(Debug)]
pub struct RefineEvaluator<'a> {
    tree: &'a KdTree,
    kernel: Kernel,
    family: BoundFamily,
    heap: BinaryHeap<Entry>,
    stats: RefineStats,
    /// Reusable buffer for the query translated into the tree's
    /// centered statistics frame (all nodes share one center).
    qt: Vec<f64>,
    /// Reusable squared-distance scratch for SoA leaf scans.
    d2: Vec<f64>,
}

/// When the refinement loop stops.
#[derive(Clone, Copy)]
enum Stop {
    /// As soon as the bracket decides the rule.
    Rule(TileRule),
    /// Once every node is exact (ground-truth evaluation).
    Exhaust,
}

impl<'a> RefineEvaluator<'a> {
    /// Creates an evaluator using the given kernel and bound family.
    pub fn new(tree: &'a KdTree, kernel: Kernel, family: BoundFamily) -> Self {
        Self {
            tree,
            kernel,
            family,
            heap: BinaryHeap::new(),
            stats: RefineStats::default(),
            qt: vec![0.0; tree.points().dim()],
            d2: Vec::new(),
        }
    }

    /// The bound family driving refinement.
    pub fn family(&self) -> BoundFamily {
        self.family
    }

    /// Diagnostics of the most recent query.
    pub fn last_stats(&self) -> RefineStats {
        self.stats
    }

    /// The per-pixel query: refines `q` toward `rule` — the paper's
    /// one branch-and-bound loop, εKDV and τKDV differing only in the
    /// stop test (§3.2) — until the rule holds *or* `budget` runs out.
    ///
    /// The returned [`BudgetedEval`] always brackets the true density.
    /// When `exhausted` is set, `estimate()` is the best-effort midpoint
    /// and `half_gap()` certifies its absolute error; under
    /// [`TileRule::Tau`] the classification is
    /// [`BudgetedEval::classify`]. Work spent (in
    /// [`RefineStats::total_work`] units) accumulates into `budget`
    /// across calls, so one budget caps a whole render. An unlimited
    /// budget is charged once per query rather than per iteration, so
    /// it costs the loop nothing.
    ///
    /// Rejects an invalid rule, a wrong-dimension query and non-finite
    /// query coordinates with a structured [`KdvError`].
    pub fn eval<P: Probe>(
        &mut self,
        q: &[f64],
        rule: TileRule,
        budget: &mut RenderBudget,
        probe: &mut P,
    ) -> Result<BudgetedEval, KdvError> {
        rule.validate()?;
        validate_query_point(q, self.tree.points().dim())?;
        let (lb, ub, exhausted) = if budget.is_limited() {
            self.refine(q, Stop::Rule(rule), Some(budget), probe)
        } else {
            let out = self.refine(q, Stop::Rule(rule), None, probe);
            budget.charge(self.stats.total_work() as u64);
            out
        };
        Ok(BudgetedEval { lb, ub, exhausted })
    }

    /// Exact `F_P(q)` by fully refining (used for ground truth in tests
    /// and quality experiments; prefer [`crate::method::ExactScan`] for
    /// the paper's EXACT baseline timing).
    pub fn eval_exact(&mut self, q: &[f64]) -> f64 {
        let (lb, _ub, _) = self.refine(q, Stop::Exhaust, None, &mut NoProbe);
        lb
    }

    /// Core loop of §3.2/Table 3. Returns final `(lb, ub, exhausted)`;
    /// `exhausted` is only ever `true` when a budget was supplied.
    fn refine<P: Probe>(
        &mut self,
        q: &[f64],
        rule: Stop,
        budget: Option<&mut RenderBudget>,
        probe: &mut P,
    ) -> (f64, f64, bool) {
        assert_eq!(
            q.len(),
            self.tree.points().dim(),
            "query dimensionality mismatch"
        );
        self.heap.clear();
        self.stats = RefineStats {
            simd_lanes: kdv_geom::simd::simd_lanes(),
            ..RefineStats::default()
        };
        // Translate q once into the shared centered frame. The buffer is
        // moved out for the duration of the loop (it must be borrowable
        // alongside `&mut self.heap`) and restored on every exit path.
        let mut qt = std::mem::take(&mut self.qt);
        qt.resize(q.len(), 0.0);
        self.tree
            .node(self.tree.root())
            .stats
            .translate_query(q, &mut qt);
        let result = self.refine_loop(q, &qt, rule, budget, probe);
        self.qt = qt;
        result
    }

    /// The §3.2 loop proper, with the translated query borrowed.
    fn refine_loop<P: Probe>(
        &mut self,
        q: &[f64],
        qt: &[f64],
        rule: Stop,
        mut budget: Option<&mut RenderBudget>,
        probe: &mut P,
    ) -> (f64, f64, bool) {
        let root = self.tree.root();
        let rb = self.bounds_of(root, q, qt);
        self.stats.node_bounds += 1;
        probe.node_bound();
        if let Some(b) = budget.as_deref_mut() {
            b.charge(1);
        }
        self.push(root, rb, 0);

        // Global bounds are kept incrementally:
        //   lb = exact_acc + Σ_{heap} lb_i,   ub = exact_acc + Σ_{heap} ub_i.
        //
        // Two sources of unsoundness are handled explicitly:
        //
        // * Splitting a node can momentarily *loosen* one side
        //   (children's quadratic bounds need not dominate the parent's
        //   sum), so the reported bounds are the monotone envelope —
        //   every snapshot is a valid bracket of F, hence so are the
        //   running max/min.
        // * Incremental `+=`/`-=` updates leave absolute rounding
        //   residue of the *largest* magnitudes that ever passed through
        //   the sums. At low-density pixels the true remaining sum can
        //   be many orders below that residue (the drift even turns
        //   `ub_sum` negative). `err` conservatively tracks the total
        //   absolute rounding error, the reported bounds are widened by
        //   it, and the sums are recomputed from the heap whenever the
        //   error stops being negligible.
        let mut exact_acc = 0.0;
        let mut lb_sum = rb.lb;
        let mut ub_sum = rb.ub;
        let mut err = 0.0f64;
        let mut best_lb = f64::NEG_INFINITY;
        let mut best_ub = f64::INFINITY;

        loop {
            // A probe may force an (idempotent) resync — the chaos
            // suite's cheapest fault-injection point. `NoProbe` returns
            // a constant `false` and the whole branch folds away.
            let forced = probe.force_resync();
            if forced || err > RESYNC_REL * (lb_sum.abs() + ub_sum.abs()) {
                lb_sum = self.heap.iter().map(|e| e.lb).sum();
                ub_sum = self.heap.iter().map(|e| e.ub).sum();
                // Error of freshly summing k same-sign values.
                err = EPS_MACH * self.heap.len() as f64 * (lb_sum.abs() + ub_sum.abs());
                self.stats.resyncs += 1;
                probe.resync();
                if let Some(b) = budget.as_deref_mut() {
                    b.charge(1);
                }
            }
            best_lb = best_lb.max(exact_acc + lb_sum - err);
            best_ub = best_ub.min(exact_acc + ub_sum + err);
            probe.bracket(best_lb, best_ub);
            if let Stop::Rule(rule) = rule {
                if rule.decides(best_lb, best_ub) {
                    return (best_lb, best_ub, false);
                }
            }
            // Budget exhaustion is checked *after* the envelope update,
            // so the returned bracket always reflects at least the root
            // bounds and every snapshot is a valid bracket of F.
            if budget.as_deref().is_some_and(RenderBudget::is_exhausted) {
                return (best_lb, best_ub, true);
            }

            let Some(entry) = self.heap.pop() else {
                // Everything is exact: lb == ub == F(q).
                return (exact_acc, exact_acc, false);
            };
            self.stats.iterations += 1;
            probe.heap_pop();
            probe.node_visit(entry.depth);
            let mut units = 1u64;

            match self.tree.node(entry.node).kind {
                NodeKind::Leaf { .. } => {
                    let (exact, points) = self.exact_leaf(entry.node, q);
                    exact_acc += exact;
                    lb_sum -= entry.lb;
                    ub_sum -= entry.ub;
                    err += EPS_MACH
                        * (lb_sum.abs()
                            + ub_sum.abs()
                            + entry.lb.abs()
                            + entry.ub.abs()
                            + exact_acc);
                    self.stats.exact_leaves += 1;
                    self.stats.point_evals += points;
                    probe.leaf_scan(points);
                    units += points as u64;
                }
                NodeKind::Internal { left, right } => {
                    let bl = self.bounds_of(left, q, qt);
                    let br = self.bounds_of(right, q, qt);
                    self.stats.node_bounds += 2;
                    probe.node_bound();
                    probe.node_bound();
                    lb_sum += bl.lb + br.lb - entry.lb;
                    ub_sum += bl.ub + br.ub - entry.ub;
                    err += EPS_MACH
                        * (lb_sum.abs()
                            + ub_sum.abs()
                            + entry.lb.abs()
                            + entry.ub.abs()
                            + bl.ub
                            + br.ub);
                    self.push(left, bl, entry.depth + 1);
                    self.push(right, br, entry.depth + 1);
                    units += 2;
                }
            }
            if let Some(b) = budget.as_deref_mut() {
                b.charge(units);
            }
        }
    }

    #[inline]
    fn bounds_of(&self, id: NodeId, q: &[f64], qt: &[f64]) -> Interval {
        let node = self.tree.node(id);
        node_bounds_pre(&self.kernel, self.family, &node.stats, &node.mbr, q, qt)
    }

    #[inline]
    fn push(&mut self, node: NodeId, b: Interval, depth: u32) {
        self.heap.push(Entry {
            gap: b.gap(),
            node,
            lb: b.lb,
            ub: b.ub,
            depth,
        });
    }

    /// Exact kernel aggregation over one leaf's contiguous points;
    /// returns the sum and the number of point-kernel evaluations.
    ///
    /// Distances come from the tree's column-major view via
    /// [`kdv_geom::simd::dist2_block`] (runtime-dispatched AVX2 or the
    /// bit-identical scalar pass) into a reused scratch buffer; the
    /// kernel transform stays scalar so results never depend on the
    /// dispatch decision.
    fn exact_leaf(&mut self, id: NodeId, q: &[f64]) -> (f64, usize) {
        exact_leaf_scan(self.tree, &self.kernel, id, q, &mut self.d2)
    }
}

/// The Table 6 interface the figures compare methods through: the bare
/// loop, no budget and no probe.
impl PixelEvaluator for RefineEvaluator<'_> {
    /// εKDV: an estimate `R(q)` with `(1 − ε)·F_P(q) ≤ R(q) ≤ (1 + ε)·F_P(q)`.
    ///
    /// # Panics
    /// Panics if `eps` is not positive and finite, or `q` has the wrong
    /// dimensionality.
    fn eval_eps(&mut self, q: &[f64], eps: f64) -> f64 {
        assert!(eps.is_finite() && eps > 0.0, "ε must be positive");
        let (lb, ub, _) = self.refine(q, Stop::Rule(TileRule::Rel(eps)), None, &mut NoProbe);
        // With ub ≤ (1 + ε)·lb the midpoint's relative error is ≤ ε/2,
        // comfortably within the contract.
        0.5 * (lb + ub)
    }

    /// τKDV: `true` iff `F_P(q) ≥ τ`.
    ///
    /// # Panics
    /// Panics if `tau` is not finite, or `q` has the wrong
    /// dimensionality.
    fn eval_tau(&mut self, q: &[f64], tau: f64) -> bool {
        assert!(tau.is_finite(), "τ must be finite");
        let (lb, ub, _) = self.refine(q, Stop::Rule(TileRule::Tau(tau)), None, &mut NoProbe);
        // Termination gives lb ≥ τ (above) or ub < τ (below); when both
        // hold (lb = ub = τ) the ≥ branch matches exact classification.
        debug_assert!(lb >= tau || ub <= tau);
        lb >= tau
    }
}

/// Exact kernel aggregation over one leaf's contiguous points; shared
/// by the per-pixel evaluator above and the tile-batched one
/// ([`super::tile`]). `d2` is the caller's reusable squared-distance
/// scratch — no allocation once it has grown to the leaf capacity.
pub(super) fn exact_leaf_scan(
    tree: &KdTree,
    kernel: &Kernel,
    id: NodeId,
    q: &[f64],
    d2: &mut Vec<f64>,
) -> (f64, usize) {
    let (start, end) = tree.leaf_range(id);
    let n = end - start;
    d2.clear();
    d2.resize(n, 0.0);
    kdv_geom::simd::dist2_block(tree.columns(), start, end, q, d2);
    let weights = &tree.points().weights()[start..end];
    // The Gaussian profile gets the fused vector primitive (polynomial
    // exp, bit-identical scalar/AVX2); other profiles use their scalar
    // closed forms over the SIMD-computed distances.
    let acc = if matches!(kernel.ty, crate::kernel::KernelType::Gaussian) {
        kdv_geom::simd::gaussian_weighted_sum(weights, d2, kernel.gamma)
    } else {
        let mut acc = 0.0;
        for (&w, &d2) in weights.iter().zip(d2.iter()) {
            acc += w * kernel.eval_dist2(d2);
        }
        acc
    };
    (acc, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::node_bounds;
    use crate::kernel::KernelType;
    use kdv_geom::vecmath::dist2;
    use kdv_geom::PointSet;
    use kdv_index::BuildConfig;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    fn random_points(n: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat: Vec<f64> = (0..n * 2).map(|_| rng.gen_range(-10.0..10.0)).collect();
        PointSet::from_rows(2, &flat)
    }

    /// One query under an unlimited budget.
    fn eval_unlimited<P: Probe>(
        ev: &mut RefineEvaluator<'_>,
        q: &[f64],
        rule: TileRule,
        probe: &mut P,
    ) -> BudgetedEval {
        ev.eval(q, rule, &mut RenderBudget::unlimited(), probe)
            .expect("valid query")
    }

    /// A probe recording the bracket after every refinement step.
    #[derive(Default)]
    struct BracketTrace(Vec<(f64, f64)>);

    impl super::Probe for BracketTrace {
        fn bracket(&mut self, lb: f64, ub: f64) {
            self.0.push((lb, ub));
        }
    }

    fn exact_scan(ps: &PointSet, kernel: &Kernel, q: &[f64]) -> f64 {
        ps.iter()
            .map(|p| p.weight * kernel.eval_dist2(dist2(q, p.coords)))
            .sum()
    }

    #[test]
    fn eps_query_meets_relative_error_contract() {
        let ps = random_points(2000, 35);
        let tree = KdTree::build(
            &ps,
            BuildConfig {
                leaf_capacity: 16,
                ..BuildConfig::default()
            },
        );
        let kernel = Kernel::gaussian(0.05);
        for family in BoundFamily::ALL {
            let mut ev = RefineEvaluator::new(&tree, kernel, family);
            for (i, q) in [[0.0, 0.0], [5.0, -3.0], [20.0, 20.0]].iter().enumerate() {
                let eps = 0.01;
                let r = ev.eval_eps(q, eps);
                let f = exact_scan(&ps, &kernel, q);
                let rel = (r - f).abs() / f.max(1e-300);
                assert!(rel <= eps + 1e-9, "{family:?} query {i}: rel err {rel} > ε");
            }
        }
    }

    #[test]
    fn tau_query_matches_exact_classification() {
        let ps = random_points(1500, 12);
        let tree = KdTree::build(
            &ps,
            BuildConfig {
                leaf_capacity: 16,
                ..BuildConfig::default()
            },
        );
        let kernel = Kernel::gaussian(0.05);
        let f_mid = exact_scan(&ps, &kernel, &[0.0, 0.0]);
        for family in BoundFamily::ALL {
            let mut ev = RefineEvaluator::new(&tree, kernel, family);
            for q in [[0.0, 0.0], [3.0, 3.0], [-8.0, 2.0], [30.0, 0.0]] {
                let f = exact_scan(&ps, &kernel, &q);
                // Thresholds keep a small relative margin from every F(q)
                // — exactly at the boundary the classification depends on
                // floating-point summation order, which no method can
                // promise to reproduce bit-for-bit.
                for tau in [f_mid * 0.5, f_mid * 1.00002, f_mid * 1.5] {
                    if (f - tau).abs() <= 1e-9 * (1.0 + f.abs()) {
                        continue;
                    }
                    assert_eq!(
                        ev.eval_tau(&q, tau),
                        f >= tau,
                        "{family:?}: wrong side of τ = {tau} at {q:?} (F = {f})"
                    );
                }
            }
        }
    }

    #[test]
    fn eval_exact_agrees_with_scan() {
        let ps = random_points(800, 13);
        let tree = KdTree::build_default(&ps);
        for ty in KernelType::ALL {
            let kernel = Kernel::new(ty, 0.3);
            let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
            let q = [1.0, -2.0];
            let f = exact_scan(&ps, &kernel, &q);
            let r = ev.eval_exact(&q);
            assert!(
                (r - f).abs() <= 1e-7 * (1.0 + f.abs()),
                "{ty:?}: exact refinement {r} ≠ scan {f}"
            );
        }
    }

    /// Table 3's running-steps semantics: the trace of global bounds is
    /// monotone (lb never decreases, ub never increases) and converges
    /// onto the exact value; the first iteration holds the root bounds.
    #[test]
    fn table3_running_steps() {
        let ps = random_points(200, 14);
        let tree = KdTree::build(
            &ps,
            BuildConfig {
                leaf_capacity: 4,
                ..BuildConfig::default()
            },
        );
        let kernel = Kernel::gaussian(0.02);
        let q = [0.5, 0.5];
        let f = exact_scan(&ps, &kernel, &q);

        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut probe = BracketTrace::default();
        // ε tiny → refine almost to exactness, producing a long trace.
        let r = eval_unlimited(&mut ev, &q, TileRule::Rel(1e-9), &mut probe).estimate();
        let trace = probe.0;

        assert!(trace.len() >= 2, "expected multiple refinement steps");
        // Step 1 of Table 3: bounds of the root node alone.
        let root = tree.node(tree.root());
        let rb = node_bounds(&kernel, BoundFamily::Quadratic, &root.stats, &root.mbr, &q);
        assert_eq!(trace[0], (rb.lb, rb.ub));

        for win in trace.windows(2) {
            let (lb0, ub0) = win[0];
            let (lb1, ub1) = win[1];
            assert!(lb1 >= lb0 - 1e-9 * (1.0 + lb0.abs()), "lb regressed");
            assert!(ub1 <= ub0 + 1e-9 * (1.0 + ub0.abs()), "ub regressed");
            assert!(lb1 <= f + 1e-6 * (1.0 + f) && f <= ub1 + 1e-6 * (1.0 + f));
        }
        assert!((r - f).abs() <= 1e-6 * (1.0 + f));
    }

    #[test]
    fn quad_refines_in_fewer_iterations_than_interval() {
        let ps = random_points(5000, 15);
        let tree = KdTree::build(
            &ps,
            BuildConfig {
                leaf_capacity: 16,
                ..BuildConfig::default()
            },
        );
        let kernel = Kernel::gaussian(0.02);
        let q = [0.0, 0.0];
        let mut quad = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut interval = RefineEvaluator::new(&tree, kernel, BoundFamily::Interval);
        quad.eval_eps(&q, 0.01);
        interval.eval_eps(&q, 0.01);
        assert!(
            quad.last_stats().iterations <= interval.last_stats().iterations,
            "QUAD {} should not need more iterations than interval {}",
            quad.last_stats().iterations,
            interval.last_stats().iterations
        );
    }

    #[test]
    fn eps_bracket_is_tight_and_correct() {
        let ps = random_points(1200, 18);
        let tree = KdTree::build_default(&ps);
        let kernel = Kernel::gaussian(0.05);
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let q = [1.0, 1.0];
        let eps = 0.02;
        let BudgetedEval { lb, ub, exhausted } =
            eval_unlimited(&mut ev, &q, TileRule::Rel(eps), &mut NoProbe);
        assert!(!exhausted);
        assert!(ub <= (1.0 + eps) * lb, "bracket not ε-tight: [{lb}, {ub}]");
        let f = exact_scan(&ps, &kernel, &q);
        assert!(lb <= f * (1.0 + 1e-9) && f <= ub * (1.0 + 1e-9));
    }

    #[test]
    fn last_stats_reset_between_queries() {
        let ps = random_points(600, 19);
        let tree = KdTree::build_default(&ps);
        let mut ev = RefineEvaluator::new(&tree, Kernel::gaussian(0.05), BoundFamily::Quadratic);
        ev.eval_eps(&[0.0, 0.0], 1e-6); // deep refinement
        let deep = ev.last_stats().iterations;
        ev.eval_eps(&[0.0, 0.0], 0.5); // shallow refinement
        let shallow = ev.last_stats().iterations;
        assert!(shallow < deep, "stats must reflect only the last query");
    }

    /// A probe that mirrors every event into its own counters.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    struct CountingProbe {
        pops: usize,
        bounds: usize,
        leaves: usize,
        points: usize,
        resyncs: usize,
    }

    impl super::Probe for CountingProbe {
        fn heap_pop(&mut self) {
            self.pops += 1;
        }
        fn node_bound(&mut self) {
            self.bounds += 1;
        }
        fn leaf_scan(&mut self, points: usize) {
            self.leaves += 1;
            self.points += points;
        }
        fn resync(&mut self) {
            self.resyncs += 1;
        }
    }

    #[test]
    fn probe_events_match_refine_stats() {
        let ps = random_points(3000, 21);
        let tree = KdTree::build(
            &ps,
            BuildConfig {
                leaf_capacity: 8,
                ..BuildConfig::default()
            },
        );
        let kernel = Kernel::gaussian(0.03);
        for family in BoundFamily::ALL {
            let mut ev = RefineEvaluator::new(&tree, kernel, family);
            let mut probe = CountingProbe::default();
            eval_unlimited(&mut ev, &[0.3, -0.7], TileRule::Rel(1e-4), &mut probe);
            let stats = ev.last_stats();
            assert_eq!(probe.pops, stats.iterations, "{family:?} pops");
            assert_eq!(probe.bounds, stats.node_bounds, "{family:?} bounds");
            assert_eq!(probe.leaves, stats.exact_leaves, "{family:?} leaves");
            assert_eq!(probe.points, stats.point_evals, "{family:?} points");
            assert_eq!(probe.resyncs, stats.resyncs, "{family:?} resyncs");
        }
    }

    #[test]
    fn probed_query_is_bit_identical_to_unprobed() {
        let ps = random_points(2500, 22);
        let tree = KdTree::build_default(&ps);
        let kernel = Kernel::gaussian(0.05);
        let mut plain = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut probed = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut probe = CountingProbe::default();
        for q in [[0.0, 0.0], [4.0, -6.0], [12.0, 12.0]] {
            // The bare Table 6 path and the probed, budgeted one are the
            // same loop: bit-identical answers, identical stats.
            let a = plain.eval_eps(&q, 0.01);
            let b = eval_unlimited(&mut probed, &q, TileRule::Rel(0.01), &mut probe).estimate();
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "probe changed the result at {q:?}"
            );
            assert_eq!(plain.last_stats(), probed.last_stats());
            let t = eval_unlimited(&mut probed, &q, TileRule::Tau(a), &mut probe);
            assert_eq!(
                plain.eval_tau(&q, a),
                t.classify(a).hot,
                "probe changed τ classification at {q:?}"
            );
        }
        assert!(probe.pops > 0, "deep queries must pop nodes");
    }

    #[test]
    fn stats_count_bound_evaluations_and_work() {
        let ps = random_points(1000, 23);
        let tree = KdTree::build(
            &ps,
            BuildConfig {
                leaf_capacity: 8,
                ..BuildConfig::default()
            },
        );
        let mut ev = RefineEvaluator::new(&tree, Kernel::gaussian(0.05), BoundFamily::Quadratic);
        ev.eval_eps(&[0.0, 0.0], 1e-6);
        let s = ev.last_stats();
        // Every pop of an internal node evaluates two child bounds, plus
        // one evaluation for the root before the loop.
        assert_eq!(
            s.node_bounds,
            1 + 2 * (s.iterations - s.exact_leaves),
            "node-bound count must be 1 + 2·internal pops: {s:?}"
        );
        assert!(s.point_evals > 0, "deep refinement scans leaf points");
        assert_eq!(
            s.total_work(),
            s.iterations + s.node_bounds + s.point_evals + s.resyncs
        );
        // A shallow query must reset *all* counters, not just pops.
        ev.eval_eps(&[100.0, 100.0], 0.9);
        assert!(ev.last_stats().total_work() < s.total_work());
    }

    #[test]
    fn eval_rejects_bad_input_without_panicking() {
        let ps = random_points(50, 31);
        let tree = KdTree::build_default(&ps);
        let mut ev = RefineEvaluator::new(&tree, Kernel::gaussian(1.0), BoundFamily::Quadratic);
        let mut budget = RenderBudget::unlimited();
        let mut eval = |q: &[f64], rule| ev.eval(q, rule, &mut budget, &mut NoProbe);
        assert!(matches!(
            eval(&[0.0, 0.0], TileRule::Rel(0.0)),
            Err(KdvError::InvalidParameter { name: "eps", .. })
        ));
        assert!(matches!(
            eval(&[0.0, 0.0], TileRule::Rel(f64::NAN)),
            Err(KdvError::InvalidParameter { name: "eps", .. })
        ));
        assert!(matches!(
            eval(&[0.0], TileRule::Rel(0.01)),
            Err(KdvError::DimensionMismatch {
                got: 1,
                expected: 2
            })
        ));
        assert!(matches!(
            eval(&[f64::NAN, 0.0], TileRule::Rel(0.01)),
            Err(KdvError::NonFiniteData { .. })
        ));
        assert!(matches!(
            eval(&[0.0, 0.0], TileRule::Tau(-1.0)),
            Err(KdvError::InvalidParameter { name: "tau", .. })
        ));
        assert!(matches!(
            eval(&[0.0, 0.0], TileRule::Tau(f64::INFINITY)),
            Err(KdvError::InvalidParameter { name: "tau", .. })
        ));
        assert!(eval(&[0.0, 0.0], TileRule::Abs(0.0)).is_err());
        assert!(eval(&[0.0, 0.0], TileRule::Abs(f64::NAN)).is_err());
        // Valid input still works and matches the panicking Table 6 path.
        let q = [0.3, 0.3];
        let e = eval(&q, TileRule::Rel(0.01)).unwrap();
        let t = eval(&q, TileRule::Tau(0.5)).unwrap();
        assert_eq!(e.estimate(), ev.eval_eps(&q, 0.01));
        assert_eq!(t.classify(0.5).hot, ev.eval_tau(&q, 0.5));
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted_eval() {
        let ps = random_points(1500, 32);
        let tree = KdTree::build_default(&ps);
        let kernel = Kernel::gaussian(0.05);
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut budget = RenderBudget::unlimited();
        // A cap no query reaches: charged per iteration, not per query.
        let mut capped = RenderBudget::unlimited().with_max_work(u64::MAX);
        for q in [[0.0, 0.0], [5.0, -3.0]] {
            let e = ev
                .eval(&q, TileRule::Rel(0.01), &mut budget, &mut NoProbe)
                .unwrap();
            assert!(!e.exhausted);
            assert_eq!(e.estimate().to_bits(), ev.eval_eps(&q, 0.01).to_bits());
            assert!(budget.work_done() > 0, "work must be accounted");
            let c = ev
                .eval(&q, TileRule::Rel(0.01), &mut capped, &mut NoProbe)
                .unwrap();
            assert_eq!(c, e, "a limited budget must not change the answer");
            assert_eq!(
                capped.work_done(),
                budget.work_done(),
                "per-query and per-iteration charging must account the same work"
            );
        }
    }

    #[test]
    fn exhausted_budget_still_brackets_truth() {
        let ps = random_points(3000, 33);
        let tree = KdTree::build(
            &ps,
            BuildConfig {
                leaf_capacity: 8,
                ..BuildConfig::default()
            },
        );
        let kernel = Kernel::gaussian(0.02);
        let q = [0.0, 0.0];
        let f = exact_scan(&ps, &kernel, &q);
        for cap in [1, 10, 100, 1000] {
            let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
            let mut budget = RenderBudget::unlimited().with_max_work(cap);
            let e = ev
                .eval(&q, TileRule::Rel(1e-9), &mut budget, &mut NoProbe)
                .unwrap();
            assert!(e.exhausted, "cap {cap} far below the work a 1e-9 ε needs");
            assert!(
                e.lb <= f * (1.0 + 1e-9) && f <= e.ub * (1.0 + 1e-9),
                "cap {cap}: bracket [{}, {}] must contain F = {f}",
                e.lb,
                e.ub
            );
            assert!(
                (e.estimate() - f).abs() <= e.half_gap() + 1e-12 * (1.0 + f.abs()),
                "cap {cap}: half-gap must certify the estimate's error"
            );
            // The loop may overshoot by at most one iteration's units
            // (bounded by leaf capacity), never run away.
            assert!(budget.work_done() <= cap + 16, "cap {cap} overshot");
        }
    }

    #[test]
    fn abs_tolerance_certifies_absolute_error() {
        let ps = random_points(2000, 36);
        let tree = KdTree::build_default(&ps);
        let kernel = Kernel::gaussian(0.05);
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let w: f64 = ps.iter().map(|p| p.weight).sum();
        for q in [[0.0, 0.0], [5.0, -3.0], [25.0, 25.0]] {
            let f = exact_scan(&ps, &kernel, &q);
            for tol in [1e-2 * w, 1e-5 * w] {
                let e = eval_unlimited(&mut ev, &q, TileRule::Abs(tol), &mut NoProbe);
                assert!(!e.exhausted);
                assert!(e.ub - e.lb <= 2.0 * tol + 1e-12 * (1.0 + f.abs()));
                assert!(
                    (e.estimate() - f).abs() <= tol + 1e-12 * (1.0 + f.abs()),
                    "abs tol {tol} violated at {q:?}: {} vs {f}",
                    e.estimate()
                );
            }
        }
    }

    #[test]
    fn budgeted_tau_degrades_to_midpoint_guess() {
        let ps = random_points(3000, 34);
        let tree = KdTree::build(
            &ps,
            BuildConfig {
                leaf_capacity: 8,
                ..BuildConfig::default()
            },
        );
        let kernel = Kernel::gaussian(0.02);
        let q = [0.0, 0.0];
        let f = exact_scan(&ps, &kernel, &q);
        // τ right at F forces deep refinement; a tiny budget cannot decide.
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut tiny = RenderBudget::unlimited().with_max_work(3);
        let e = ev
            .eval(&q, TileRule::Tau(f), &mut tiny, &mut NoProbe)
            .unwrap();
        let t = e.classify(f);
        assert!(!t.decided, "3 work units cannot decide τ = F exactly");
        assert_eq!(
            t.hot,
            e.estimate() >= f,
            "undecided falls back to the midpoint"
        );
        // An unlimited budget decides, and agrees with the exact answer.
        let t2 =
            eval_unlimited(&mut ev, &q, TileRule::Tau(f * 0.5), &mut NoProbe).classify(f * 0.5);
        assert!(t2.decided && t2.hot);
    }

    /// A probe recording only the depth stream of popped nodes.
    #[derive(Default)]
    struct DepthRecorder {
        depths: Vec<u32>,
    }

    impl super::Probe for DepthRecorder {
        fn node_visit(&mut self, depth: u32) {
            self.depths.push(depth);
        }
    }

    #[test]
    fn node_visit_attributes_every_pop_to_a_depth() {
        let ps = random_points(3000, 41);
        let tree = KdTree::build(
            &ps,
            BuildConfig {
                leaf_capacity: 8,
                ..BuildConfig::default()
            },
        );
        let mut ev = RefineEvaluator::new(&tree, Kernel::gaussian(0.03), BoundFamily::Quadratic);
        let mut probe = DepthRecorder::default();
        eval_unlimited(&mut ev, &[0.3, -0.7], TileRule::Rel(1e-4), &mut probe);
        let stats = ev.last_stats();
        assert_eq!(
            probe.depths.len(),
            stats.iterations,
            "one depth per heap pop"
        );
        assert_eq!(probe.depths[0], 0, "the first pop is always the root");
        // Best-first order can jump around, but a popped node is only
        // ever one level below something already popped.
        let mut deepest = 0u32;
        for &d in &probe.depths {
            assert!(d <= deepest + 1, "depth {d} popped before its parent");
            deepest = deepest.max(d);
        }
        let max_depth = *probe.depths.iter().max().expect("non-empty");
        assert!(max_depth > 2, "a deep ε must descend several levels");
        // Depths are dense: every level up to the max was visited.
        for d in 0..=max_depth {
            assert!(
                probe.depths.contains(&d),
                "depth {d} skipped on the way to {max_depth}"
            );
        }
    }

    /// A probe whose only job is to force a resync every iteration.
    /// Resyncs replace the incremental sums with freshly computed ones
    /// inside the tracked error envelope, so forcing them on every
    /// iteration may perturb rounding at machine precision but can
    /// never move a result beyond the ε contract.
    #[derive(Default)]
    struct ResyncStorm {
        forced: usize,
    }

    impl super::Probe for ResyncStorm {
        fn force_resync(&mut self) -> bool {
            self.forced += 1;
            true
        }
    }

    #[test]
    fn forced_resyncs_never_change_results() {
        let ps = random_points(2000, 35);
        let tree = KdTree::build_default(&ps);
        let kernel = Kernel::gaussian(0.05);
        let mut plain = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut stormy = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut probe = ResyncStorm::default();
        for q in [[0.0, 0.0], [4.0, -6.0], [12.0, 12.0]] {
            let a = plain.eval_eps(&q, 0.01);
            let b = eval_unlimited(&mut stormy, &q, TileRule::Rel(0.01), &mut probe).estimate();
            // Resync timing changes *when* sums are recomputed, so the
            // two trajectories may differ by rounding noise — but only
            // at machine precision, orders below the ε = 0.01 contract.
            let rel = (a - b).abs() / a.abs().max(f64::MIN_POSITIVE);
            assert!(rel < 1e-12, "forced resync moved {q:?}: {a} vs {b}");
            let f = exact_scan(&ps, &kernel, &q);
            assert!(
                (b - f).abs() <= 0.01 * f + 1e-9 * (1.0 + f.abs()),
                "stormy result violates the ε contract at {q:?}: {b} vs {f}"
            );
        }
        assert!(probe.forced > 0);
        assert!(stormy.last_stats().resyncs > plain.last_stats().resyncs);
    }

    #[test]
    #[should_panic(expected = "ε must be positive")]
    fn zero_eps_panics() {
        let ps = random_points(10, 16);
        let tree = KdTree::build_default(&ps);
        let mut ev = RefineEvaluator::new(&tree, Kernel::gaussian(1.0), BoundFamily::Quadratic);
        ev.eval_eps(&[0.0, 0.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_query_dim_panics() {
        let ps = random_points(10, 17);
        let tree = KdTree::build_default(&ps);
        let mut ev = RefineEvaluator::new(&tree, Kernel::gaussian(1.0), BoundFamily::Quadratic);
        ev.eval_eps(&[0.0, 0.0, 0.0], 0.01);
    }
}
