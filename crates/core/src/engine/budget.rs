//! Work and deadline budgets for graceful degradation.
//!
//! The refinement loop converges to any requested ε, but a production
//! service cannot let one adversarial pixel (huge n, tiny γ, extreme
//! ε) hold a render thread hostage. [`RenderBudget`] caps a render by
//! *work units* (the same unit as [`super::RefineStats::total_work`]:
//! one heap pop, node-bound evaluation, point-kernel evaluation, or
//! resync pass each cost 1) and/or by a wall-clock deadline. When the
//! budget runs out mid-refinement the engine stops and reports its
//! current bracket `[lb, ub]` instead of panicking or spinning: the
//! midpoint is the best-effort answer and the half-gap is a certified
//! upper bound on its absolute error, which renderers surface as a
//! per-pixel achieved-error map (see `kdv-viz`'s `render`).

use std::time::{Duration, Instant};

/// How often (in work units) the deadline clock is polled; work-unit
/// exhaustion itself is checked continuously. 256 units is on the
/// order of microseconds of work, far finer than any meaningful
/// deadline.
const DEADLINE_POLL_MASK: u64 = 0xFF;

/// A render-wide cap on refinement work and/or wall time.
///
/// One budget is threaded through every pixel of a render (or one band
/// of a parallel render); [`RenderBudget::charge`] accumulates the work
/// spent so the cap applies to the whole raster, not per pixel.
#[derive(Debug, Clone)]
pub struct RenderBudget {
    /// Absolute deadline, if any.
    deadline: Option<Instant>,
    /// Total work-unit cap, if any.
    max_work: Option<u64>,
    /// Work units charged so far.
    work_done: u64,
    /// Set once either limit trips (sticky — a budget never un-exhausts,
    /// so every later pixel degrades instantly instead of re-polling).
    exhausted: bool,
}

impl RenderBudget {
    /// A budget with no limits: rendering runs to full precision.
    pub fn unlimited() -> Self {
        Self {
            deadline: None,
            max_work: None,
            work_done: 0,
            exhausted: false,
        }
    }

    /// Caps total refinement work at `units` (see
    /// [`super::RefineStats::total_work`] for the unit).
    pub fn with_max_work(self, units: u64) -> Self {
        Self {
            max_work: Some(units),
            ..self
        }
    }

    /// Caps wall time at `limit` from now.
    pub fn with_deadline(self, limit: Duration) -> Self {
        Self {
            deadline: Some(Instant::now() + limit),
            ..self
        }
    }

    /// Work units charged so far.
    #[inline]
    pub fn work_done(&self) -> u64 {
        self.work_done
    }

    /// Whether either limit has tripped.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Whether this budget can ever trip (false for
    /// [`RenderBudget::unlimited`]).
    #[inline]
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.max_work.is_some()
    }

    /// Charges `units` of work and re-evaluates the limits. Returns
    /// `true` while the budget still has headroom.
    #[inline]
    pub fn charge(&mut self, units: u64) -> bool {
        let before = self.work_done;
        self.work_done += units;
        if self.exhausted {
            return false;
        }
        if let Some(cap) = self.max_work {
            if self.work_done >= cap {
                self.exhausted = true;
                return false;
            }
        }
        if let Some(deadline) = self.deadline {
            // Poll the clock only every few hundred units — `Instant::now`
            // costs more than the work being metered.
            if before & !DEADLINE_POLL_MASK != self.work_done & !DEADLINE_POLL_MASK
                && Instant::now() >= deadline
            {
                self.exhausted = true;
                return false;
            }
        }
        true
    }

    /// A sub-budget owning `share` of the remaining work cap (for one
    /// band of a parallel render; the deadline is shared as-is).
    /// `share` is clamped to `[0, 1]`.
    pub fn split(&self, share: f64) -> Self {
        let share = share.clamp(0.0, 1.0);
        Self {
            deadline: self.deadline,
            max_work: self.max_work.map(|cap| {
                let remaining = cap.saturating_sub(self.work_done);
                (remaining as f64 * share).ceil() as u64
            }),
            work_done: 0,
            exhausted: self.exhausted,
        }
    }

    /// Folds a finished sub-budget's spending back into this one.
    pub fn absorb(&mut self, child: &RenderBudget) {
        self.work_done += child.work_done;
        self.exhausted |= child.exhausted;
    }
}

impl Default for RenderBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// A reusable budget *recipe* for long-running services.
///
/// A [`RenderBudget`] is single-use: its deadline is an absolute
/// instant fixed at construction, so a server cannot build one budget
/// at startup and hand it to every request — the deadline would have
/// lapsed long ago. A `BudgetPolicy` stores the *relative* limits
/// (work cap, time allowance) and [`issue`](BudgetPolicy::issue)s a
/// fresh `RenderBudget` per request whose clock starts at issue time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetPolicy {
    max_work: Option<u64>,
    deadline: Option<Duration>,
}

impl BudgetPolicy {
    /// A policy issuing unlimited budgets.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps each issued budget at `units` of refinement work.
    pub fn with_max_work(self, units: u64) -> Self {
        Self {
            max_work: Some(units),
            ..self
        }
    }

    /// Gives each issued budget `limit` of wall time from its issue.
    pub fn with_deadline(self, limit: Duration) -> Self {
        Self {
            deadline: Some(limit),
            ..self
        }
    }

    /// Whether issued budgets can ever trip.
    pub fn is_limited(&self) -> bool {
        self.max_work.is_some() || self.deadline.is_some()
    }

    /// Issues a fresh budget; a deadline starts counting now.
    pub fn issue(&self) -> RenderBudget {
        let mut b = RenderBudget::unlimited();
        if let Some(units) = self.max_work {
            b = b.with_max_work(units);
        }
        if let Some(limit) = self.deadline {
            b = b.with_deadline(limit);
        }
        b
    }
}

/// Outcome of one budgeted per-pixel evaluation: the final bound
/// bracket plus whether refinement was cut short.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetedEval {
    /// Certified lower bound on `F(q)` at termination.
    pub lb: f64,
    /// Certified upper bound on `F(q)` at termination.
    pub ub: f64,
    /// Whether the budget ran out before the query's own stop rule.
    pub exhausted: bool,
}

impl BudgetedEval {
    /// Best-effort point estimate: the bracket midpoint. Its absolute
    /// error is at most [`BudgetedEval::half_gap`].
    #[inline]
    pub fn estimate(&self) -> f64 {
        0.5 * (self.lb + self.ub)
    }

    /// Certified upper bound on `|estimate − F(q)|`.
    #[inline]
    pub fn half_gap(&self) -> f64 {
        0.5 * (self.ub - self.lb)
    }

    /// The τ classification of a bracket refined toward τ: certain
    /// (`lb ≥ τ` or `ub < τ`) unless `exhausted`, when it falls back to
    /// the midpoint guess.
    #[inline]
    pub fn classify(&self, tau: f64) -> BudgetedTau {
        BudgetedTau {
            hot: if self.exhausted {
                self.estimate() >= tau
            } else {
                self.lb >= tau
            },
            decided: !self.exhausted,
        }
    }
}

/// Outcome of one budgeted τKDV classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetedTau {
    /// The classification: certain when `decided`, otherwise the
    /// best-effort midpoint guess.
    pub hot: bool,
    /// Whether the bracket cleared τ before the budget ran out.
    pub decided: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let mut b = RenderBudget::unlimited();
        assert!(!b.is_limited());
        for _ in 0..1000 {
            assert!(b.charge(1_000_000));
        }
        assert!(!b.is_exhausted());
        assert_eq!(b.work_done(), 1_000_000_000);
    }

    #[test]
    fn work_cap_trips_and_sticks() {
        let mut b = RenderBudget::unlimited().with_max_work(100);
        assert!(b.is_limited());
        assert!(b.charge(50));
        assert!(!b.charge(50)); // hits the cap exactly
        assert!(b.is_exhausted());
        assert!(!b.charge(1), "exhaustion is sticky");
        assert_eq!(b.work_done(), 101, "work is still accounted");
    }

    #[test]
    fn elapsed_deadline_trips() {
        let mut b = RenderBudget::unlimited().with_deadline(Duration::ZERO);
        // The clock is polled on coarse boundaries; a large charge
        // always crosses one.
        assert!(!b.charge(10_000));
        assert!(b.is_exhausted());
    }

    #[test]
    fn far_deadline_does_not_trip() {
        let mut b = RenderBudget::unlimited().with_deadline(Duration::from_secs(3600));
        assert!(b.charge(10_000));
        assert!(!b.is_exhausted());
    }

    #[test]
    fn split_shares_remaining_work_and_absorb_accounts() {
        let mut parent = RenderBudget::unlimited().with_max_work(1000);
        parent.charge(200);
        let mut child = parent.split(0.5);
        assert!(!child.is_exhausted());
        // Child owns half the remaining 800 → 400 units.
        assert!(child.charge(399));
        assert!(!child.charge(1));
        parent.absorb(&child);
        assert_eq!(parent.work_done(), 600);
        assert!(parent.is_exhausted(), "child exhaustion propagates");
    }

    #[test]
    fn policy_issues_independent_fresh_budgets() {
        let policy = BudgetPolicy::unlimited().with_max_work(10);
        assert!(policy.is_limited());
        let mut a = policy.issue();
        let mut b = policy.issue();
        assert!(!a.charge(10));
        assert!(a.is_exhausted());
        // Exhausting one issued budget must not age the policy or any
        // sibling budget.
        assert!(b.charge(5), "each request gets the full allowance");
        assert!(!b.is_exhausted());

        assert!(!BudgetPolicy::unlimited().is_limited());
        assert!(!BudgetPolicy::default().issue().is_limited());

        // A deadline policy starts each budget's clock at issue time:
        // a generous allowance issued "long after startup" still has
        // headroom.
        let timed = BudgetPolicy::unlimited().with_deadline(Duration::from_secs(3600));
        let mut c = timed.issue();
        assert!(c.charge(10_000));
        assert!(!c.is_exhausted());
    }

    #[test]
    fn budgeted_eval_midpoint_and_half_gap() {
        let e = BudgetedEval {
            lb: 2.0,
            ub: 6.0,
            exhausted: true,
        };
        assert_eq!(e.estimate(), 4.0);
        assert_eq!(e.half_gap(), 2.0);
    }
}
