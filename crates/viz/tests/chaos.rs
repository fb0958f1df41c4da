//! Chaos suite: the engine under injected faults (robustness
//! tentpole).
//!
//! Every test drives [`kdv_telemetry::FaultProbe`] or a poisoned
//! evaluator against the real refinement engine and renderers, and
//! asserts the contract of the robustness work: the pipeline
//! **terminates with correct-or-flagged output** under every injected
//! fault — forced bound resyncs change nothing, slow nodes degrade a
//! deadline-bounded render instead of hanging it, and a poisoned bound
//! evaluation costs one band retry, never the render.

use kdv_core::bandwidth::scott_gamma;
use kdv_core::bounds::BoundFamily;
use kdv_core::engine::{BudgetedEval, Probe, RefineEvaluator, RefineStats, RenderBudget, TileRule};
use kdv_core::error::KdvError;
use kdv_core::kernel::Kernel;
use kdv_core::method::ExactScan;
use kdv_core::raster::RasterSpec;
use kdv_data::Dataset;
use kdv_geom::PointSet;
use kdv_index::KdTree;
use kdv_telemetry::fault::POISON_MSG;
use kdv_telemetry::{FaultPlan, FaultProbe, RenderMetrics};
use kdv_viz::render::{render, render_eps, BandEvaluator, RenderOpts};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Duration;

struct Fixture {
    points: PointSet,
    kernel: Kernel,
    raster: RasterSpec,
}

/// One query under `budget` with `probe` observing.
fn eval(
    ev: &mut RefineEvaluator<'_>,
    q: &[f64],
    rule: TileRule,
    budget: &mut RenderBudget,
    probe: &mut FaultProbe,
) -> BudgetedEval {
    ev.eval(q, rule, budget, probe).expect("valid query")
}

fn fixture(n: usize, seed: u64) -> Fixture {
    let points = Dataset::Crime.generate(n, seed);
    let kernel = Kernel::gaussian(scott_gamma(&points).gamma);
    let raster = RasterSpec::try_covering(&points, 14, 10, 0.05).expect("finite input");
    Fixture {
        points,
        kernel,
        raster,
    }
}

/// Forced resyncs are semantically idempotent: a resync swaps the
/// incrementally-tracked bound sums for freshly recomputed ones, which
/// may shift a result by a few ulps of accumulated rounding — but the
/// faulted render must stay inside the ε contract, stay within the
/// engine's own rounding envelope of the unfaulted render, and be
/// bit-for-bit deterministic for a given fault schedule.
#[test]
fn forced_resyncs_preserve_guarantees_and_determinism() {
    let fx = fixture(2500, 11);
    let tree = KdTree::try_build_default(&fx.points).expect("finite input");
    let mut clean_ev = RefineEvaluator::new(&tree, fx.kernel, BoundFamily::Quadratic);
    let clean = render_eps(&mut clean_ev, &fx.raster, 0.01);
    let exact = ExactScan::new(&fx.points, fx.kernel);

    for seed in [0u64, 1, 99] {
        let run = || {
            let mut probe = FaultProbe::new(FaultPlan {
                seed,
                resync_every: Some(2),
                ..FaultPlan::default()
            });
            let mut ev = RefineEvaluator::new(&tree, fx.kernel, BoundFamily::Quadratic);
            let mut budget = RenderBudget::unlimited();
            let mut out = Vec::new();
            for row in 0..fx.raster.height() {
                for col in 0..fx.raster.width() {
                    let q = fx.raster.pixel_center(col, row);
                    let e = eval(&mut ev, &q, TileRule::Rel(0.01), &mut budget, &mut probe);
                    out.push(e.estimate());
                }
            }
            (out, probe.forced_resyncs)
        };
        let (a, fired) = run();
        let (b, _) = run();
        assert!(fired > 0, "fault never fired: proves nothing");
        for (i, (&va, &vb)) in a.iter().zip(&b).enumerate() {
            let (col, row) = (i as u32 % fx.raster.width(), i as u32 / fx.raster.width());
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "seed {seed}: same schedule, different output at ({col},{row})"
            );
            let f = exact.density(&fx.raster.pixel_center(col, row));
            assert!(
                (va - f).abs() <= 0.5 * 0.01 * f.abs() + 1e-12,
                "seed {seed}: resync broke the ε contract at ({col},{row}): {va} vs {f}"
            );
            let c = clean.get(col, row);
            assert!(
                (va - c).abs() <= 1e-9 * (1.0 + c.abs()),
                "seed {seed}: drift beyond rounding at ({col},{row}): {va} vs clean {c}"
            );
        }
    }
}

/// Slow nodes + a deadline: the render terminates promptly, flags
/// exhaustion, and its best-effort brackets still contain the truth.
#[test]
fn slow_nodes_degrade_deadline_renders_instead_of_hanging() {
    let fx = fixture(4000, 23);
    let tree = KdTree::try_build_default(&fx.points).expect("finite input");
    let exact = ExactScan::new(&fx.points, fx.kernel);
    let mut probe = FaultProbe::new(FaultPlan {
        seed: 5,
        slow_pop_every: Some(1),
        slow_pop_sleep_us: 100,
        ..FaultPlan::default()
    });
    let mut ev = RefineEvaluator::new(&tree, fx.kernel, BoundFamily::Quadratic);
    // A deadline far below what the injected sleeps allow, and an ε
    // far below what the deadline allows: exhaustion is certain.
    let mut budget = RenderBudget::unlimited().with_deadline(Duration::from_millis(20));
    let mut exhausted_pixels = 0u64;
    for row in 0..fx.raster.height() {
        for col in 0..fx.raster.width() {
            let q = fx.raster.pixel_center(col, row);
            let e = eval(&mut ev, &q, TileRule::Rel(1e-12), &mut budget, &mut probe);
            let f = exact.density(&q);
            let tol = 1e-9 * (1.0 + f.abs());
            assert!(
                e.lb <= f + tol && f <= e.ub + tol,
                "bracket [{}, {}] misses F = {f} at ({col},{row})",
                e.lb,
                e.ub
            );
            assert!(
                (e.estimate() - f).abs() <= e.half_gap() + tol,
                "error map does not cover the estimate's true error"
            );
            if e.exhausted {
                exhausted_pixels += 1;
            }
        }
    }
    assert!(budget.is_exhausted(), "deadline must trip");
    assert!(exhausted_pixels > 0, "no pixel was flagged degraded");
    assert!(
        probe.injected_sleeps > 0,
        "fault never fired: proves nothing"
    );
}

/// Forwards every refinement event to the render's probe and to a
/// fault probe.
struct Tee<'a, P>(&'a mut P, &'a mut FaultProbe);

impl<P: Probe> Probe for Tee<'_, P> {
    fn heap_pop(&mut self) {
        self.0.heap_pop();
        self.1.heap_pop();
    }
    fn node_visit(&mut self, depth: u32) {
        self.0.node_visit(depth);
        self.1.node_visit(depth);
    }
    fn node_bound(&mut self) {
        self.0.node_bound();
        self.1.node_bound();
    }
    fn leaf_scan(&mut self, points: usize) {
        self.0.leaf_scan(points);
        self.1.leaf_scan(points);
    }
    fn resync(&mut self) {
        self.0.resync();
        self.1.resync();
    }
    fn force_resync(&mut self) -> bool {
        let a = self.0.force_resync();
        self.1.force_resync() || a
    }
}

/// A real evaluator whose queries also run a fault probe, which panics
/// after `poison_bound_after` node-bound evaluations. Every panic
/// message is recorded before the panic continues, so a test can tell
/// the injected fault from a real bug.
struct PoisonedEvaluator<'a> {
    inner: RefineEvaluator<'a>,
    probe: FaultProbe,
    panics: &'a Mutex<Vec<String>>,
}

impl BandEvaluator for PoisonedEvaluator<'_> {
    fn eval<P: Probe>(
        &mut self,
        q: &[f64],
        rule: TileRule,
        budget: &mut RenderBudget,
        probe: &mut P,
    ) -> Result<BudgetedEval, KdvError> {
        let (inner, fault) = (&mut self.inner, &mut self.probe);
        catch_unwind(AssertUnwindSafe(|| {
            inner.eval(q, rule, budget, &mut Tee(probe, fault))
        }))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            self.panics.lock().expect("unpoisoned").push(msg);
            resume_unwind(payload)
        })
    }
    fn last_stats(&self) -> RefineStats {
        self.inner.last_stats()
    }
}

/// Renders `fx` at ε = 0.01 with evaluators whose `poison(i)`-th
/// construction is poisoned.
fn poisoned_render(
    fx: &Fixture,
    tree: &KdTree,
    threads: usize,
    metrics: Option<&mut RenderMetrics>,
    poison: impl Fn(usize) -> Option<u64>,
    panics: &Mutex<Vec<String>>,
) -> Result<kdv_viz::Rendered, KdvError> {
    let mut made = 0usize;
    let make_ev = || {
        made += 1;
        PoisonedEvaluator {
            inner: RefineEvaluator::new(tree, fx.kernel, BoundFamily::Quadratic),
            probe: FaultProbe::new(FaultPlan {
                seed: 3,
                poison_bound_after: poison(made),
                ..FaultPlan::default()
            }),
            panics,
        }
    };
    let opts = RenderOpts {
        threads,
        metrics,
        ..RenderOpts::default()
    };
    let mut budget = RenderBudget::unlimited();
    render(make_ev, &fx.raster, TileRule::Rel(0.01), &mut budget, opts)
}

/// A poisoned bound evaluation in one band: `render` retries the band
/// sequentially and the output — and, when metered, every
/// deterministic metric — is exactly the unfaulted render's. Runs with
/// metrics on and off, on one band and on three.
#[test]
fn poisoned_bound_evaluation_costs_one_band_retry() {
    let fx = fixture(2000, 31);
    let tree = KdTree::try_build_default(&fx.points).expect("finite input");
    let mut seq_ev = RefineEvaluator::new(&tree, fx.kernel, BoundFamily::Quadratic);
    let seq = render_eps(&mut seq_ev, &fx.raster, 0.01);

    for threads in [1usize, 3] {
        let panics = Mutex::new(Vec::new());
        let mut clean = RenderMetrics::with_cost_map(fx.raster.width(), fx.raster.height());
        poisoned_render(&fx, &tree, threads, Some(&mut clean), |_| None, &panics)
            .expect("clean render");
        for metered in [false, true] {
            let mut metrics = RenderMetrics::with_cost_map(fx.raster.width(), fx.raster.height());
            // Only the first-constructed evaluator is poisoned; the
            // retry (and the other bands) run clean.
            let poison = |i| (i == 1).then_some(7);
            let m = metered.then_some(&mut metrics);
            let out = poisoned_render(&fx, &tree, threads, m, poison, &panics)
                .expect("retry must recover the poisoned band");
            let mode = format!("{threads} threads, metered {metered}");
            assert_eq!(
                out.grid(),
                seq,
                "{mode}: retried render must match the clean one"
            );
            if metered {
                assert_eq!(metrics.band_retries, 1, "{mode}");
                assert_eq!(metrics.events, clean.events, "{mode}");
                assert_eq!(metrics.pixels, clean.pixels, "{mode}");
                assert_eq!(metrics.cost_map(), clean.cost_map(), "{mode}");
            }
        }
        let panics = panics.into_inner().expect("unpoisoned");
        assert_eq!(
            panics.len(),
            2,
            "{threads} threads: one injected panic per render"
        );
    }
}

/// A *deterministically* poisoned evaluator (every instance fails) is
/// reported as a structured error, and the panic was the injected
/// fault — never swallowed, never an abort, never a masked real bug.
#[test]
fn deterministic_poison_is_flagged_with_the_injected_message() {
    let fx = fixture(800, 37);
    let tree = KdTree::try_build_default(&fx.points).expect("finite input");
    for threads in [1usize, 2] {
        for metered in [false, true] {
            let panics = Mutex::new(Vec::new());
            let mut metrics = RenderMetrics::new();
            let m = metered.then_some(&mut metrics);
            let err = poisoned_render(&fx, &tree, threads, m, |_| Some(0), &panics)
                .expect_err("all-instances-poisoned cannot succeed");
            assert!(matches!(err, KdvError::WorkerPanicked { .. }));
            let panics = panics.into_inner().expect("unpoisoned");
            assert!(!panics.is_empty());
            for msg in panics {
                assert!(
                    msg.starts_with(POISON_MSG),
                    "payload is the injected fault, not a masked real bug: {msg:?}"
                );
            }
        }
    }
}

/// The headline chaos sweep: under *every* fault plan in a seeded
/// grid — forced resyncs, slow pops, tiny work caps, and their
/// combinations — every query terminates with output that is either
/// correct (unexhausted, within ε) or flagged (exhausted, bracket
/// still containing the truth).
#[test]
fn every_injected_fault_terminates_correct_or_flagged() {
    let fx = fixture(1500, 41);
    let tree = KdTree::try_build_default(&fx.points).expect("finite input");
    let exact = ExactScan::new(&fx.points, fx.kernel);
    let eps = 0.01;

    let mut plans = Vec::new();
    for seed in [1u64, 2, 3] {
        for resync_every in [None, Some(2), Some(7)] {
            for slow_pop_every in [None, Some(3)] {
                plans.push(FaultPlan {
                    seed,
                    resync_every,
                    slow_pop_every,
                    slow_pop_sleep_us: 0, // schedule only: keep the sweep fast
                    ..FaultPlan::default()
                });
            }
        }
    }
    let caps = [Some(40u64), Some(4000), None];

    let mut flagged = 0u64;
    let mut correct = 0u64;
    for plan in plans {
        for cap in caps {
            let mut probe = FaultProbe::new(plan);
            let mut ev = RefineEvaluator::new(&tree, fx.kernel, BoundFamily::Quadratic);
            let mut budget = match cap {
                Some(units) => RenderBudget::unlimited().with_max_work(units),
                None => RenderBudget::unlimited(),
            };
            for (col, row) in [(0u32, 0u32), (7, 5), (13, 9)] {
                let q = fx.raster.pixel_center(col, row);
                let e = eval(&mut ev, &q, TileRule::Rel(eps), &mut budget, &mut probe);
                let f = exact.density(&q);
                let tol = 1e-9 * (1.0 + f.abs());
                assert!(
                    e.lb <= f + tol && f <= e.ub + tol,
                    "{plan:?} cap {cap:?}: bracket [{}, {}] misses F = {f}",
                    e.lb,
                    e.ub
                );
                if e.exhausted {
                    flagged += 1; // flagged: budget ran out, bracket valid
                } else {
                    correct += 1; // correct: the ε contract held
                    assert!(
                        (e.estimate() - f).abs() <= 0.5 * eps * f.abs() + tol,
                        "{plan:?} cap {cap:?}: unflagged result misses ε contract"
                    );
                }
            }
        }
    }
    assert!(flagged > 0, "the tiny cap never tripped: proves nothing");
    assert!(correct > 0, "no plan completed cleanly: proves nothing");
}
