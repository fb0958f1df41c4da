//! Zero-cost observation hooks for the refinement loop.
//!
//! The §3.2 loop is the workspace's hot path: a full 1280×960 render
//! issues over a million queries, each popping hundreds of nodes. Any
//! telemetry must therefore cost *nothing* when unused. [`Probe`] makes
//! that a type-system guarantee: `refine_loop` is generic over the
//! probe, every hook defaults to an empty body, and the [`NoProbe`]
//! instantiation monomorphizes to exactly the un-instrumented loop —
//! there is no branch, no function pointer, and nothing for the
//! optimizer to keep alive.
//!
//! Aggregating observers (the `kdv-telemetry` crate's `EventCounters`
//! and `RenderMetrics`) implement [`Probe`] and receive one callback
//! per refinement event:
//!
//! * [`Probe::heap_pop`] — a frontier node left the priority queue,
//! * [`Probe::node_bound`] — one node's lower/upper bounds were
//!   evaluated ([`crate::bounds::node_bounds_pre`]),
//! * [`Probe::leaf_scan`] — a leaf was refined to its exact sum,
//!   with the number of point-kernel evaluations it cost,
//! * [`Probe::resync`] — the incremental global sums were recomputed
//!   from the heap because tracked rounding error grew too large,
//! * [`Probe::bracket`] — the per-pixel loop's certified bracket after
//!   each step (the convergence traces of Fig 18 and Table 3).

/// Observer of refinement-loop events (see the module docs).
///
/// All hooks default to no-ops so implementors only override what they
/// record. The loop is monomorphized per probe type; [`NoProbe`]
/// compiles to the bare loop.
pub trait Probe {
    /// A node was popped from the refinement priority queue.
    #[inline]
    fn heap_pop(&mut self) {}

    /// Fires together with [`Probe::heap_pop`], carrying the popped
    /// node's depth in the kd-tree (root = 0). Split out from
    /// `heap_pop` so counters that don't care about tree position
    /// (the common case) pay nothing for it.
    #[inline]
    fn node_visit(&mut self, depth: u32) {
        let _ = depth;
    }

    /// Lower/upper bounds were evaluated for one index node.
    #[inline]
    fn node_bound(&mut self) {}

    /// A leaf was evaluated exactly, costing `points` kernel
    /// evaluations.
    #[inline]
    fn leaf_scan(&mut self, points: usize) {
        let _ = points;
    }

    /// The incremental bound sums were recomputed from the heap (float
    /// rounding-error resync).
    #[inline]
    fn resync(&mut self) {}

    /// The per-pixel query's certified bracket `[lb, ub]` after each
    /// refinement step, starting with the root bounds. Successive
    /// brackets nest (the loop reports the monotone envelope), which is
    /// what the paper's Fig 18 and Table 3 plot.
    #[inline]
    fn bracket(&mut self, lb: f64, ub: f64) {
        let _ = (lb, ub);
    }

    /// Consulted once per refinement iteration: return `true` to force
    /// an immediate resync pass even though the tracked rounding error
    /// is still negligible.
    ///
    /// A resync is semantically idempotent — it recomputes the exact
    /// same sums from the heap — so forcing one must never change a
    /// query's result. That makes this the cheapest fault-injection
    /// point in the engine: `kdv-telemetry`'s `FaultProbe` uses it to
    /// prove the claim under chaos testing. [`NoProbe`] returns `false`
    /// and the branch folds away.
    #[inline]
    fn force_resync(&mut self) -> bool {
        false
    }
}

/// The default probe: every hook is a no-op and the instrumented loop
/// compiles to the un-instrumented one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {}

/// Forwarding impl so callers can pass `&mut probe` without giving up
/// ownership (e.g. one accumulator across a million pixel queries).
impl<P: Probe + ?Sized> Probe for &mut P {
    #[inline]
    fn heap_pop(&mut self) {
        (**self).heap_pop();
    }

    #[inline]
    fn node_visit(&mut self, depth: u32) {
        (**self).node_visit(depth);
    }

    #[inline]
    fn node_bound(&mut self) {
        (**self).node_bound();
    }

    #[inline]
    fn leaf_scan(&mut self, points: usize) {
        (**self).leaf_scan(points);
    }

    #[inline]
    fn resync(&mut self) {
        (**self).resync();
    }

    #[inline]
    fn bracket(&mut self, lb: f64, ub: f64) {
        (**self).bracket(lb, ub);
    }

    #[inline]
    fn force_resync(&mut self) -> bool {
        (**self).force_resync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        pops: usize,
        bounds: usize,
        points: usize,
        resyncs: usize,
        depth_sum: u32,
        brackets: usize,
    }

    impl Probe for Recorder {
        fn heap_pop(&mut self) {
            self.pops += 1;
        }
        fn node_visit(&mut self, depth: u32) {
            self.depth_sum += depth;
        }
        fn node_bound(&mut self) {
            self.bounds += 1;
        }
        fn leaf_scan(&mut self, points: usize) {
            self.points += points;
        }
        fn resync(&mut self) {
            self.resyncs += 1;
        }
        fn bracket(&mut self, _lb: f64, _ub: f64) {
            self.brackets += 1;
        }
    }

    #[test]
    fn forwarding_impl_reaches_the_underlying_probe() {
        // Drive through a generic monomorphized over `&mut Recorder`,
        // the shape the engine actually uses.
        fn drive<P: Probe>(mut p: P) {
            p.heap_pop();
            p.node_visit(5);
            p.node_bound();
            p.leaf_scan(7);
            p.resync();
            p.bracket(0.0, 1.0);
            assert!(!p.force_resync(), "default hook never forces");
        }
        let mut r = Recorder::default();
        drive(&mut r);
        assert_eq!(
            (
                r.pops,
                r.bounds,
                r.points,
                r.resyncs,
                r.depth_sum,
                r.brackets
            ),
            (1, 1, 7, 1, 5, 1),
            "forwarded events must land in the wrapped probe"
        );
    }

    #[test]
    fn no_probe_is_inert() {
        // Compile-time shape check more than behavior: NoProbe accepts
        // every hook and carries no state.
        let mut p = NoProbe;
        p.heap_pop();
        p.node_visit(9);
        p.node_bound();
        p.leaf_scan(123);
        p.resync();
        p.bracket(0.0, 1.0);
        assert_eq!(p, NoProbe);
    }
}
