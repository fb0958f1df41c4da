//! Raw refinement-event counters.

use kdv_core::engine::{Probe, RefineStats};

/// Monotone counters over the five refinement events, accumulated
/// across any number of queries.
///
/// Implements [`Probe`], so an `EventCounters` can be handed directly
/// to `RefineEvaluator::eval` or `TileEvaluator::eval_tile_with`
/// (typically as `&mut metrics.events`, reused across a whole render).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounters {
    /// Nodes popped from the refinement priority queue.
    pub heap_pops: u64,
    /// Node lower/upper bound evaluations.
    pub node_bounds: u64,
    /// Leaves refined to their exact sums.
    pub leaf_scans: u64,
    /// Point-kernel evaluations inside exact leaf scans.
    pub point_evals: u64,
    /// Float rounding-error resync passes.
    pub resyncs: u64,
}

impl Probe for EventCounters {
    #[inline]
    fn heap_pop(&mut self) {
        self.heap_pops += 1;
    }

    #[inline]
    fn node_bound(&mut self) {
        self.node_bounds += 1;
    }

    #[inline]
    fn leaf_scan(&mut self, points: usize) {
        self.leaf_scans += 1;
        self.point_evals += points as u64;
    }

    #[inline]
    fn resync(&mut self) {
        self.resyncs += 1;
    }
}

impl EventCounters {
    /// Adds one query's [`RefineStats`] — the counter-level equivalent
    /// of having probed that query.
    pub fn add_stats(&mut self, s: &RefineStats) {
        self.heap_pops += s.iterations as u64;
        self.node_bounds += s.node_bounds as u64;
        self.leaf_scans += s.exact_leaves as u64;
        self.point_evals += s.point_evals as u64;
        self.resyncs += s.resyncs as u64;
    }

    /// Adds another accumulator's counts (per-thread merge).
    pub fn merge(&mut self, other: &EventCounters) {
        self.heap_pops += other.heap_pops;
        self.node_bounds += other.node_bounds;
        self.leaf_scans += other.leaf_scans;
        self.point_evals += other.point_evals;
        self.resyncs += other.resyncs;
    }

    /// Total counted operations (the render-level analogue of
    /// [`RefineStats::total_work`]).
    pub fn total_work(&self) -> u64 {
        self.heap_pops + self.node_bounds + self.point_evals + self.resyncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_hooks_accumulate() {
        let mut c = EventCounters::default();
        c.heap_pop();
        c.heap_pop();
        c.node_bound();
        c.leaf_scan(10);
        c.leaf_scan(3);
        c.resync();
        assert_eq!(c.heap_pops, 2);
        assert_eq!(c.node_bounds, 1);
        assert_eq!(c.leaf_scans, 2);
        assert_eq!(c.point_evals, 13);
        assert_eq!(c.resyncs, 1);
        assert_eq!(c.total_work(), 2 + 1 + 13 + 1);
    }

    #[test]
    fn add_stats_matches_probing_the_same_events() {
        let stats = RefineStats {
            iterations: 5,
            exact_leaves: 2,
            node_bounds: 7,
            point_evals: 20,
            resyncs: 1,
            ..RefineStats::default()
        };
        let mut via_stats = EventCounters::default();
        via_stats.add_stats(&stats);
        let mut via_probe = EventCounters::default();
        for _ in 0..5 {
            via_probe.heap_pop();
        }
        for _ in 0..7 {
            via_probe.node_bound();
        }
        via_probe.leaf_scan(12);
        via_probe.leaf_scan(8);
        via_probe.resync();
        assert_eq!(via_stats, via_probe);
    }

    #[test]
    fn merge_is_componentwise_addition() {
        let a = EventCounters {
            heap_pops: 1,
            node_bounds: 2,
            leaf_scans: 3,
            point_evals: 4,
            resyncs: 5,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(
            b,
            EventCounters {
                heap_pops: 2,
                node_bounds: 4,
                leaf_scans: 6,
                point_evals: 8,
                resyncs: 10,
            }
        );
    }
}
