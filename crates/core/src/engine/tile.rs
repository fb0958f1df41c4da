//! Tile-batched refinement: one shared node frontier per pixel block.
//!
//! The per-pixel evaluator ([`super::RefineEvaluator`]) restarts every
//! query at the kd-tree root, so neighboring pixels of a tile re-pop
//! and re-bound the same top-of-tree nodes thousands of times. This
//! module amortizes that work across a whole tile:
//!
//! 1. **Shared frontier.** A pixel block's centers span an axis-aligned
//!    query box. [`crate::bounds::box_bounds`] brackets a node's
//!    contribution for *every* query in that box at once, so the block
//!    maintains one frontier of nodes with box-valid intervals and
//!    refines it best-first — each split is paid once per block instead
//!    of once per pixel.
//! 2. **Wholesale decisions.** When the frontier's summed box interval
//!    already meets the [`TileRule`] (`ub ≤ (1+ε)·lb`, `ub − lb ≤ 2·tol`,
//!    or τ cleared on either side), every pixel of the block is decided
//!    in O(1).
//! 3. **Quadrant recursion.** Otherwise the block splits into four
//!    quadrants; each child re-brackets the inherited frontier against
//!    its smaller box (bounds only tighten) and recurses.
//! 4. **Node-major per-pixel finish.** At small blocks
//!    ([`MIN_PIXELS`]) the block keeps *one* flat frontier and refines
//!    it best-first, but each refinement step is evaluated for **all
//!    still-undecided pixels in one pass**: the node's moment
//!    statistics stay hot in registers while the pixel queries stream
//!    through a contiguous loop — no per-pixel heap, no per-pixel
//!    descent, and `translate_query` runs once per pixel per block
//!    instead of once per bound evaluation. Frontier nodes start with
//!    their *box* interval (valid for every pixel, already paid for by
//!    the block, zero marginal cost); a node is first *re-bounded
//!    per-query* when the scheduler picks it (one bound evaluation per
//!    undecided pixel, no split), and only split — or exact-scanned,
//!    for leaves — on a later pick. Nodes still box-bounded when a
//!    pixel decides are counted in [`RefineStats::frontier_reuse`].
//!    For the served pair (Gaussian kernel, QUAD bounds) the pass is
//!    laid out structure-of-arrays: per-pixel exponent arguments are
//!    gathered into flat scratch, evaluated by one polynomial-`exp`
//!    sweep ([`kdv_geom::simd::exp_neg_map`], four f64 lanes under
//!    AVX2, bit-identical scalar fallback), and assembled into
//!    certified intervals by the vectorized
//!    [`kdv_geom::simd::gauss_quad_assemble`]. Every other (kernel,
//!    family) pair takes the per-pixel reference [`node_bounds_pre`].
//!
//! Each bounding job has one code path. Box bounds — the root, split
//! children and inherited frontiers alike — go through one batched
//! pass whose Gaussian arm is [`crate::bounds::box_bounds`]' polynomial
//! interval, so the Gaussian QUAD engine calls no libm `exp`: its
//! decisions and work counts are the same on every host and with SIMD
//! on or off.
//!
//! ## The guarantees are unchanged
//!
//! Every interval this module reports — box sums, per-pixel brackets —
//! is a certified bracket of `F(q)` for its pixel, so εKDV answers
//! keep the `(1±ε)` contract and τKDV masks are exact. Box bounds are
//! sound for every query in the block, per-query re-bounding only
//! tightens, and the decision rules are evaluated on the same monotone
//! envelope as the per-pixel path. [`RenderBudget`] exhaustion
//! degrades exactly as in the per-pixel path: remaining pixels report
//! the block's current box interval — a valid bracket — flagged
//! `exhausted`/undecided.
//!
//! A caller may add a known per-pixel offset δ(q) to the density — a
//! tile server's exact memtable delta. Decisions then test the rule on
//! `[lb + δ_min, ub + δ_max]` over the pixels they decide, which
//! implies the rule on each pixel's own `[lb + δ(q), ub + δ(q)]`, so
//! the contract holds for `F(q) + δ(q)`.
//!
//! Shared (block-level) work is charged to the budget and reported to
//! the [`Probe`] as it happens; per-pixel [`RefineStats`] cover only
//! each pixel's own finishing work plus the new
//! [`RefineStats::frontier_reuse`] counter, which tallies the bound
//! evaluations the pixel *skipped* thanks to the shared frontier.

use super::budget::{BudgetedEval, BudgetedTau, RenderBudget};
use super::probe::Probe;
use super::refine::{exact_leaf_scan, EPS_MACH, RESYNC_REL};
use super::RefineStats;
use crate::bounds::{box_bounds, gaussian_interval_from_exps, node_bounds_pre, BoundFamily};
use crate::error::KdvError;
use crate::kernel::{Kernel, KernelType};
use crate::query::{validate_eps, validate_tau};
use crate::raster::RasterSpec;
use kdv_geom::Mbr;
use kdv_index::{KdTree, Node, NodeId, NodeKind};
use std::collections::BinaryHeap;

/// Blocks at or below this many pixels stop recursing and finish
/// per-pixel (an 8×8 quadrant of a 128-px tile).
const MIN_PIXELS: u32 = 64;

/// Hard cap on the shared frontier length. Beyond this, seeding a
/// per-pixel finish would cost more than it saves.
const FRONTIER_CAP: usize = 512;

/// Shared frontier splits allowed per *tight-box* block visit;
/// children inherit the refined frontier, so deep work is paid once.
const SHARED_SPLITS_PER_BLOCK: usize = 192;

/// Frontier cap and per-visit split budget for *loose-box* blocks.
/// When the block box is wide at the kernel's scale (low zoom: the
/// whole dataset in view), box bounds barely tighten under splitting —
/// a deep shared frontier just burns box evaluations and bloats the
/// finish seeding — so the shared phase stays shallow and leaves the
/// work to the per-query finish.
const FRONTIER_CAP_LOOSE: usize = 192;
const SHARED_SPLITS_LOOSE: usize = 48;

/// Box-tightness threshold separating the two budgets: the kernel-
/// scaled squared diagonal of a *finish-size* (8×8) block's query box
/// (`γ·diag²` for the Gaussian's `x = γ·d²` argument, `γ²·diag²` for
/// distance kernels' `x = γ·d`). Below it, a node's box interval over
/// a finish block is close to its per-query interval anywhere in the
/// block, so deep shared splits — paid once near the tile root,
/// inherited by every descendant block — substitute for per-pixel
/// ones. Above it even the finish blocks cannot use the depth, so the
/// whole tile stays shallow. Measured on the 20k crime dataset, 8×8
/// blocks sit at ~2.0 for z=0, ~0.5 at z=1 and ≤0.13 from z=2 in —
/// the threshold splits exactly there. The choice is evaluated once
/// per tile (not per block): a tight finish level must inherit the
/// deep frontier from the loose upper levels, not rebuild it 256
/// times.
const TIGHT_BOX_SCALE: f64 = 0.3;

/// Subtrees at or below this many points are exact-scanned instead of
/// split when the finish scheduler picks them: a split costs two
/// exp-heavy bound evaluations per undecided pixel *and* usually
/// cascades, while the vectorized scan retires the node outright at
/// ~4 points per lane-exp.
const SCAN_CUTOFF: usize = 48;

/// One frontier node with its interval over the *block's* query box.
#[derive(Debug, Clone, Copy)]
struct BlockNode {
    node: NodeId,
    depth: u32,
    lb: f64,
    ub: f64,
}

impl BlockNode {
    #[inline]
    fn gap(&self) -> f64 {
        self.ub - self.lb
    }
}

/// A frontier node of the node-major finish. Its per-pixel interval
/// lives either in the `lb`/`ub` constants (state [`BOXED`]: the
/// block-box interval, identical for every pixel) or in an arena row
/// of per-query intervals (state [`BOUNDED`]).
#[derive(Debug, Clone, Copy)]
struct FNode {
    node: NodeId,
    depth: u32,
    /// [`BOXED`] → [`BOUNDED`] → [`RETIRED`]; candidates carry the
    /// state they were enqueued at, so stale heap entries self-skip.
    state: u8,
    /// Block-box interval (the per-pixel seed while `state == BOXED`).
    lb: f64,
    ub: f64,
    /// Arena row slot (valid while `state == BOUNDED`).
    row: u32,
}

const BOXED: u8 = 0;
const BOUNDED: u8 = 1;
const RETIRED: u8 = 2;

/// Scheduler candidate: largest score refined first. The score is the
/// box gap for a boxed node and the largest per-query gap over the
/// undecided pixels after re-bounding — both upper-bound how much any
/// single pixel can gain from refining this node next.
#[derive(Debug, Clone, Copy)]
struct Cand {
    score: f64,
    idx: u32,
    state: u8,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score
    }
}
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score.total_cmp(&other.score)
    }
}

/// All scratch of the node-major finish, pooled across blocks and
/// tiles (cleared, never shrunk).
#[derive(Debug, Default)]
struct FinishScratch {
    /// Flat frontier (retired nodes stay; the arena slot is recycled).
    fnodes: Vec<FNode>,
    /// Max-score scheduler over `fnodes`, with lazy invalidation.
    cands: BinaryHeap<Cand>,
    /// Row arena: slot `s` holds `2 * npix` values — per-pixel lower
    /// bounds at `[s*stride ..]`, upper bounds at `[s*stride + npix ..]`.
    rows: Vec<f64>,
    free_rows: Vec<u32>,
    /// Pixel centers (x, y interleaved) and their translated copies.
    qs: Vec<f64>,
    qts: Vec<f64>,
    /// Per-pixel running state: interval sums, incremental rounding
    /// error, exact accumulator, monotone decision envelope.
    lb: Vec<f64>,
    ub: Vec<f64>,
    err: Vec<f64>,
    exact: Vec<f64>,
    best_lb: Vec<f64>,
    best_ub: Vec<f64>,
    stats: Vec<RefineStats>,
    /// Local indices of pixels not yet decided.
    undecided: Vec<u32>,
    /// Subtree-walk scratch for the scan cutoff.
    walk: Vec<NodeId>,
    leaves: Vec<NodeId>,
    /// Batched-bound gather buffers: exp arguments
    /// (`x_min | x_max | t`, one third each), their exps, the
    /// moment contractions (`sx | sx2`, one half each), and the
    /// assembled per-pixel bounds before their scatter into the arena
    /// row.
    bxs: Vec<f64>,
    bes: Vec<f64>,
    bsx: Vec<f64>,
    blb: Vec<f64>,
    bub: Vec<f64>,
}

impl FinishScratch {
    fn alloc_row(&mut self, stride: usize) -> u32 {
        if let Some(s) = self.free_rows.pop() {
            s
        } else {
            let s = (self.rows.len() / stride) as u32;
            self.rows.resize(self.rows.len() + stride, 0.0);
            s
        }
    }

    /// Fills arena row `base` with per-query bounds of `nd` for every
    /// undecided pixel, returning the largest per-query gap (the
    /// node's new scheduler score).
    ///
    /// The served pair (Gaussian, Quadratic) is batched: one gather
    /// pass collects each pixel's three exp arguments (`x_min`,
    /// `x_max`, tangent `t`) and moment contractions, one
    /// [`kdv_geom::simd::exp_neg_map`] call evaluates the exps four
    /// lanes at a time, and [`kdv_geom::simd::gauss_quad_assemble`]
    /// assembles the certified intervals — no libm in the loop. Every
    /// other pair takes the per-pixel reference [`node_bounds_pre`].
    fn bound_row(
        &mut self,
        kernel: &Kernel,
        family: BoundFamily,
        nd: &Node,
        base: usize,
        npix: usize,
    ) -> f64 {
        let (stats, mbr) = (&nd.stats, &nd.mbr);
        let w = stats.weight;
        let n = self.undecided.len();
        let mut score = 0.0f64;
        if w <= 0.0 {
            for &p in &self.undecided {
                let p = p as usize;
                self.rows[base + p] = 0.0;
                self.rows[base + npix + p] = 0.0;
            }
            return score;
        }
        if !matches!(
            (kernel.ty, family),
            (KernelType::Gaussian, BoundFamily::Quadratic)
        ) {
            for &p in &self.undecided {
                let p = p as usize;
                let b = node_bounds_pre(
                    kernel,
                    family,
                    stats,
                    mbr,
                    &self.qs[2 * p..2 * p + 2],
                    &self.qts[2 * p..2 * p + 2],
                );
                self.rows[base + p] = b.lb;
                self.rows[base + npix + p] = b.ub;
                score = score.max(b.gap());
            }
            return score;
        }
        let g = kernel.gamma;
        self.bxs.clear();
        self.bxs.resize(3 * n, 0.0);
        self.bsx.clear();
        self.bsx.resize(2 * n, 0.0);
        // The d-generic MBR distances and moment contractions unrolled
        // for the 2-D tree the engine requires, node moments hoisted
        // into locals so the pixel loop touches no `Vec` indirection.
        // This loop runs once per pixel per bound evaluation — the
        // hottest scalar code on a cold render.
        let (lo0, lo1) = (mbr.lo()[0], mbr.lo()[1]);
        let (hi0, hi1) = (mbr.hi()[0], mbr.hi()[1]);
        let (a0, a1) = (stats.sum[0], stats.sum[1]);
        let (v0, v1) = (stats.sum_norm2_p[0], stats.sum_norm2_p[1]);
        let (c00, c01) = (stats.moment2[0], stats.moment2[1]);
        let (c10, c11) = (stats.moment2[2], stats.moment2[3]);
        let (b2, h4) = (stats.sum_norm2, stats.sum_norm4);
        for (k, &p) in self.undecided.iter().enumerate() {
            let p = p as usize;
            let (q0, q1) = (self.qs[2 * p], self.qs[2 * p + 1]);
            let (t0, t1) = (self.qts[2 * p], self.qts[2 * p + 1]);
            let d0 = if q0 < lo0 {
                lo0 - q0
            } else if q0 > hi0 {
                q0 - hi0
            } else {
                0.0
            };
            let d1 = if q1 < lo1 {
                lo1 - q1
            } else if q1 > hi1 {
                q1 - hi1
            } else {
                0.0
            };
            let x_min = g * (d0 * d0 + d1 * d1);
            let (f0a, f0b) = ((q0 - lo0).abs(), (q0 - hi0).abs());
            let (f1a, f1b) = ((q1 - lo1).abs(), (q1 - hi1).abs());
            let e0 = if f0a > f0b { f0a } else { f0b };
            let e1 = if f1a > f1b { f1a } else { f1b };
            let x_max = g * (e0 * e0 + e1 * e1);
            let qn2 = t0 * t0 + t1 * t1;
            let qa = t0 * a0 + t1 * a1;
            let qv = t0 * v0 + t1 * v1;
            let s2 = (w * qn2 - 2.0 * qa + b2).max(0.0);
            let qcq = t0 * (c00 * t0 + c01 * t1) + t1 * (c10 * t0 + c11 * t1);
            let s4 = (w * qn2 * qn2 - 4.0 * qn2 * qa - 4.0 * qv + 2.0 * qn2 * b2 + h4 + 4.0 * qcq)
                .max(0.0);
            let sx = (g * s2).clamp(w * x_min, w * x_max);
            let sx2 = (g * g * s4).clamp(w * x_min * x_min, w * x_max * x_max);
            self.bxs[k] = x_min;
            self.bxs[n + k] = x_max;
            self.bxs[2 * n + k] = (sx / w).clamp(x_min, x_max);
            self.bsx[k] = sx;
            self.bsx[n + k] = sx2;
        }
        self.bes.clear();
        self.bes.resize(3 * n, 0.0);
        kdv_geom::simd::exp_neg_map(&self.bxs, &mut self.bes);
        self.blb.clear();
        self.blb.resize(n, 0.0);
        self.bub.clear();
        self.bub.resize(n, 0.0);
        kdv_geom::simd::gauss_quad_assemble(
            w,
            &self.bxs[..n],
            &self.bxs[n..2 * n],
            &self.bxs[2 * n..],
            &self.bes[..n],
            &self.bes[n..2 * n],
            &self.bes[2 * n..],
            &self.bsx[..n],
            &self.bsx[n..],
            &crate::bounds::quad_assemble_consts(),
            &mut self.blb,
            &mut self.bub,
        );
        for (k, &p) in self.undecided.iter().enumerate() {
            let p = p as usize;
            let (bl, bu) = (self.blb[k], self.bub[k]);
            self.rows[base + p] = bl;
            self.rows[base + npix + p] = bu;
            score = score.max(bu - bl);
        }
        score
    }
}

/// The stop test a tile is refined toward. The paper's εKDV and τKDV
/// share one branch-and-bound loop and differ only here (§3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TileRule {
    /// Relative εKDV: stop once `ub ≤ (1+ε)·lb`.
    Rel(f64),
    /// Absolute tolerance: stop once `ub − lb ≤ 2·tol`, so the midpoint
    /// is within `tol` of the density (the coreset-pyramid contract).
    Abs(f64),
    /// τKDV: stop once `lb ≥ τ` or `ub < τ`.
    Tau(f64),
}

impl TileRule {
    /// Rejects a parameter the matching per-pixel query would reject.
    pub fn validate(&self) -> Result<(), KdvError> {
        match *self {
            TileRule::Rel(eps) => validate_eps(eps).map(drop),
            TileRule::Tau(tau) => validate_tau(tau).map(drop),
            TileRule::Abs(tol) if tol.is_finite() && tol > 0.0 => Ok(()),
            TileRule::Abs(tol) => Err(KdvError::invalid(
                "abs_tol",
                format!("absolute tolerance must be positive and finite, got {tol}"),
            )),
        }
    }

    /// Whether the bracket `[lb, ub]` decides *every* query it covers.
    #[inline]
    pub(super) fn decides(&self, lb: f64, ub: f64) -> bool {
        match *self {
            TileRule::Rel(eps) => ub <= (1.0 + eps) * lb,
            TileRule::Abs(tol) => ub - lb <= 2.0 * tol,
            // Strict `<` above τ mirrors the per-pixel rule: F = τ is
            // hot, so only `ub < τ` may classify cold.
            TileRule::Tau(tau) => lb >= tau || ub < tau,
        }
    }
}

/// One tile request: the raster, its stop rule, the per-pixel
/// additive offset (row-major; empty means zero everywhere), and the
/// SIMD lane width reported in every pixel's stats.
#[derive(Clone, Copy)]
struct Job<'r> {
    raster: &'r RasterSpec,
    rule: TileRule,
    offset: &'r [f64],
    lanes: usize,
}

impl Job<'_> {
    /// The offset of raster pixel `idx`.
    #[inline]
    fn offset_at(&self, idx: usize) -> f64 {
        self.offset.get(idx).copied().unwrap_or(0.0)
    }

    /// `(min, max)` offset over a pixel block.
    fn offset_range(&self, (col0, row0, w, h): (u32, u32, u32, u32)) -> (f64, f64) {
        if self.offset.is_empty() {
            return (0.0, 0.0);
        }
        let width = self.raster.width();
        let mut range = (f64::INFINITY, f64::NEG_INFINITY);
        for row in row0..row0 + h {
            let start = (row * width + col0) as usize;
            for &d in &self.offset[start..start + w as usize] {
                range = (range.0.min(d), range.1.max(d));
            }
        }
        range
    }
}

/// One tile evaluated by the batched path: per-pixel certified
/// brackets and per-pixel finishing stats, both row-major over the
/// tile raster. Named for εKDV, its main use; every [`TileRule`]
/// yields one.
#[derive(Debug, Clone)]
pub struct TileEps {
    /// Certified `[lb, ub]` bracket (and exhaustion flag) per pixel.
    pub evals: Vec<BudgetedEval>,
    /// Per-pixel finishing stats (see the module docs for what shared
    /// work is and is not attributed here).
    pub stats: Vec<RefineStats>,
}

impl TileEps {
    /// The τ mask of a tile evaluated under [`TileRule::Tau`]`(tau)`.
    pub fn classify(self, tau: f64) -> TileTau {
        TileTau {
            taus: self.evals.iter().map(|e| e.classify(tau)).collect(),
            stats: self.stats,
        }
    }
}

/// One τKDV tile evaluated by the batched path (row-major).
#[derive(Debug, Clone)]
pub struct TileTau {
    /// Classification per pixel.
    pub taus: Vec<BudgetedTau>,
    /// Per-pixel finishing stats.
    pub stats: Vec<RefineStats>,
}

/// Batched branch-and-bound evaluator for whole pixel tiles.
///
/// Owns all scratch (frontier stacks, node-major finish buffers, SoA
/// exponent/bound arrays) and reuses it across tiles, so rendering
/// allocates only the per-tile output vectors — the steady-state hot
/// path is allocation-free (pinned by `tests/alloc.rs`).
#[derive(Debug)]
pub struct TileEvaluator<'a> {
    tree: &'a KdTree,
    kernel: Kernel,
    family: BoundFamily,
    /// Frontier stack: one `Vec` per active recursion level, pooled.
    frontier_pool: Vec<Vec<BlockNode>>,
    /// Node-major finish scratch, pooled across blocks.
    finish: FinishScratch,
    /// Squared-distance scratch for SoA leaf scans.
    d2: Vec<f64>,
    /// Per-tile choice (see [`TIGHT_BOX_SCALE`]): whether the current
    /// tile's finish blocks are tight enough for the deep shared
    /// budget.
    deep_shared: bool,
}

impl<'a> TileEvaluator<'a> {
    /// Creates a tile evaluator using the given kernel and bound
    /// family.
    pub fn new(tree: &'a KdTree, kernel: Kernel, family: BoundFamily) -> Self {
        Self {
            tree,
            kernel,
            family,
            frontier_pool: Vec::new(),
            finish: FinishScratch::default(),
            d2: Vec::new(),
            deep_shared: false,
        }
    }

    /// The bound family driving refinement.
    pub fn family(&self) -> BoundFamily {
        self.family
    }

    /// Evaluates a whole εKDV tile under `budget`, reporting every
    /// shared and per-pixel refinement event to `probe`.
    ///
    /// Per pixel this upholds exactly the per-pixel budgeted contract:
    /// a certified bracket of `F(q)`, with `ub ≤ (1+ε)·lb` whenever
    /// `exhausted` is false.
    ///
    /// # Panics
    /// Panics if `eps` is invalid or the tree is not 2-D.
    pub fn eval_tile_eps_with<P: Probe>(
        &mut self,
        raster: &RasterSpec,
        eps: f64,
        budget: &mut RenderBudget,
        probe: &mut P,
    ) -> TileEps {
        self.eval_tile_with(raster, TileRule::Rel(eps), &[], budget, probe)
    }

    /// Evaluates a whole τKDV tile under `budget`, reporting events to
    /// `probe`. With an unlimited budget every pixel is `decided` and
    /// the mask is bit-identical to the per-pixel path's (both are
    /// exact classifications).
    ///
    /// # Panics
    /// Panics if `tau` is invalid or the tree is not 2-D.
    pub fn eval_tile_tau_with<P: Probe>(
        &mut self,
        raster: &RasterSpec,
        tau: f64,
        budget: &mut RenderBudget,
        probe: &mut P,
    ) -> TileTau {
        self.eval_tile_with(raster, TileRule::Tau(tau), &[], budget, probe)
            .classify(tau)
    }

    /// Evaluates a whole tile toward `rule` under `budget`, for the
    /// density `F(q) + offset(q)`: the tree's density plus a per-pixel
    /// additive offset (row-major over `raster`; empty means zero). A
    /// server passes the exact memtable delta here, so the stop rule
    /// holds for the logical (base + memtable) density.
    ///
    /// Every decision — wholesale for a block, or per pixel — tests the
    /// rule on `[lb + δ_min, ub + δ_max]` over the pixels it decides,
    /// and every reported bracket is the pixel's own `[lb + δ, ub + δ]`.
    ///
    /// # Panics
    /// Panics if `rule` is invalid, `offset` is neither empty nor one
    /// value per pixel, or the tree is not 2-D.
    pub fn eval_tile_with<P: Probe>(
        &mut self,
        raster: &RasterSpec,
        rule: TileRule,
        offset: &[f64],
        budget: &mut RenderBudget,
        probe: &mut P,
    ) -> TileEps {
        rule.validate().expect("invalid tile rule");
        let n = raster.num_pixels();
        assert!(
            offset.is_empty() || offset.len() == n,
            "offset must be empty or one value per pixel"
        );
        assert_eq!(
            self.tree.points().dim(),
            2,
            "tile evaluation requires a 2-D tree (rasters are 2-D)"
        );
        let mut out = vec![
            (
                BudgetedEval {
                    lb: 0.0,
                    ub: 0.0,
                    exhausted: false
                },
                RefineStats::default()
            );
            n
        ];
        let job = Job {
            raster,
            rule,
            offset,
            lanes: kdv_geom::simd::simd_lanes(),
        };
        let block = (0u32, 0u32, raster.width(), raster.height());
        let qbox = block_box(raster, block);
        // Size the shared-phase budget off the finish-block (8×8)
        // tightness — see [`TIGHT_BOX_SCALE`].
        let side = (MIN_PIXELS as f64).sqrt();
        let fin_diag2: f64 = qbox
            .lo()
            .iter()
            .zip(qbox.hi())
            .zip([raster.width(), raster.height()])
            .map(|((&l, &h), px)| {
                let e = (h - l) * side / px as f64;
                e * e
            })
            .sum();
        let scale = match self.kernel.ty {
            KernelType::Gaussian => self.kernel.gamma * fin_diag2,
            _ => self.kernel.gamma * self.kernel.gamma * fin_diag2,
        };
        self.deep_shared = scale <= TIGHT_BOX_SCALE;
        let mut frontier = self.frontier_pool.pop().unwrap_or_default();
        frontier.clear();
        let root = [(self.tree.root(), 0)];
        self.box_bound(root.into_iter(), &qbox, &mut frontier, budget, probe);
        self.solve_block(&job, block, frontier, budget, probe, &mut out);
        let (evals, stats) = out.into_iter().unzip();
        TileEps { evals, stats }
    }

    /// Box-bounds `nodes` (id, depth) against a block box and appends
    /// them to `dst`, with full accounting: the engine's one box-bound
    /// path, for the root, split children and inherited frontiers
    /// alike. The Gaussian kernel's box distances are gathered and
    /// their exps evaluated in one vectorized
    /// [`kdv_geom::simd::exp_neg_map`] pass, then assembled by
    /// [`gaussian_interval_from_exps`] — bit-identical to
    /// [`box_bounds`], which the other kernels call per node.
    fn box_bound<P: Probe>(
        &mut self,
        nodes: impl ExactSizeIterator<Item = (NodeId, u32)> + Clone,
        qbox: &Mbr,
        dst: &mut Vec<BlockNode>,
        budget: &mut RenderBudget,
        probe: &mut P,
    ) {
        let n = nodes.len();
        let gaussian = matches!(self.kernel.ty, KernelType::Gaussian);
        if gaussian {
            let g = self.kernel.gamma;
            let s = &mut self.finish;
            s.bxs.clear();
            s.bxs.resize(2 * n, 0.0);
            for (k, (id, _)) in nodes.clone().enumerate() {
                let mbr = &self.tree.node(id).mbr;
                s.bxs[k] = g * qbox.min_dist2_box(mbr);
                s.bxs[n + k] = g * qbox.max_dist2_box(mbr);
            }
            s.bes.clear();
            s.bes.resize(2 * n, 0.0);
            kdv_geom::simd::exp_neg_map(&s.bxs, &mut s.bes);
        }
        for (k, (id, depth)) in nodes.enumerate() {
            let node = self.tree.node(id);
            let b = if gaussian {
                let s = &self.finish;
                gaussian_interval_from_exps(node.stats.weight, s.bxs[k], s.bes[k], s.bes[n + k])
            } else {
                box_bounds(&self.kernel, &node.stats, &node.mbr, qbox)
            };
            dst.push(BlockNode {
                node: id,
                depth,
                lb: b.lb,
                ub: b.ub,
            });
            probe.node_bound();
        }
        budget.charge(n as u64);
    }

    /// Recursively solves one pixel block. `frontier` is already
    /// bounded against this block's box and is returned to the pool.
    fn solve_block<P: Probe>(
        &mut self,
        job: &Job<'_>,
        block: (u32, u32, u32, u32),
        mut frontier: Vec<BlockNode>,
        budget: &mut RenderBudget,
        probe: &mut P,
        out: &mut [(BudgetedEval, RefineStats)],
    ) {
        let (_, _, w, h) = block;
        let qbox = block_box(job.raster, block);
        let (dmin, dmax) = job.offset_range(block);
        let (max_splits, cap) = if self.deep_shared {
            (SHARED_SPLITS_PER_BLOCK, FRONTIER_CAP)
        } else {
            (SHARED_SPLITS_LOOSE, FRONTIER_CAP_LOOSE)
        };

        // Shared refinement: split the widest-gap internal frontier
        // node, re-bracketing its children against the block box.
        let mut splits = 0usize;
        let decided = loop {
            let (lb, ub) = frontier_interval(&frontier);
            if job.rule.decides(lb + dmin, ub + dmax) {
                break Some((lb, ub, false));
            }
            if budget.is_exhausted() {
                break Some((lb, ub, true));
            }
            if splits >= max_splits || frontier.len() + 1 >= cap {
                break None;
            }
            // Widest-gap *internal* node; leaves cannot tighten at box
            // granularity.
            let Some(best) = frontier
                .iter()
                .enumerate()
                .filter(|(_, e)| !self.tree.node(e.node).is_leaf())
                .max_by(|a, b| a.1.gap().total_cmp(&b.1.gap()))
                .map(|(i, _)| i)
            else {
                break None;
            };
            let entry = frontier.swap_remove(best);
            probe.heap_pop();
            probe.node_visit(entry.depth);
            budget.charge(1);
            let NodeKind::Internal { left, right } = self.tree.node(entry.node).kind else {
                unreachable!("filtered to internal nodes");
            };
            let children = [(left, entry.depth + 1), (right, entry.depth + 1)];
            self.box_bound(children.into_iter(), &qbox, &mut frontier, budget, probe);
            splits += 1;
        };

        match decided {
            Some((lb, ub, exhausted)) => {
                // Wholesale fill: every pixel inherits the block's
                // certified interval (shifted by its own offset); its
                // per-pixel cost is zero and the whole frontier's bound
                // work was reused.
                let reuse = frontier.len();
                fill_block(job.raster, block, out, |idx| {
                    let d = job.offset_at(idx);
                    (
                        BudgetedEval {
                            lb: lb + d,
                            ub: ub + d,
                            exhausted,
                        },
                        RefineStats {
                            frontier_reuse: reuse,
                            simd_lanes: job.lanes,
                            ..RefineStats::default()
                        },
                    )
                });
            }
            None if (w * h) <= MIN_PIXELS => {
                self.finish_pixels(job, block, &frontier, budget, probe, out);
            }
            None => {
                // Quadrant recursion: children re-bracket the
                // inherited frontier against their smaller boxes.
                let (col0, row0, w, h) = block;
                let (wl, ht) = (w.div_ceil(2), h.div_ceil(2));
                let children = [
                    (col0, row0, wl, ht),
                    (col0 + wl, row0, w - wl, ht),
                    (col0, row0 + ht, wl, h - ht),
                    (col0 + wl, row0 + ht, w - wl, h - ht),
                ];
                for child in children {
                    if child.2 == 0 || child.3 == 0 {
                        continue;
                    }
                    let cbox = block_box(job.raster, child);
                    let mut cf = self.frontier_pool.pop().unwrap_or_default();
                    cf.clear();
                    let inherited = frontier.iter().map(|e| (e.node, e.depth));
                    self.box_bound(inherited, &cbox, &mut cf, budget, probe);
                    self.solve_block(job, child, cf, budget, probe, out);
                }
            }
        }
        frontier.clear();
        self.frontier_pool.push(frontier);
    }

    /// Per-pixel finish of a small undecided block, node-major: one
    /// flat frontier for the whole block, refined best-first, with
    /// each refinement step evaluated for every still-undecided pixel
    /// in a single contiguous pass. A node starts from its free box
    /// interval, is *re-bounded per-query* on its first pick, and only
    /// split (or exact-scanned, for leaves) on a later pick — so the
    /// priority order each pixel sees matches the per-pixel
    /// evaluator's, while the node's statistics are loaded once per
    /// step instead of once per pixel.
    fn finish_pixels<P: Probe>(
        &mut self,
        job: &Job<'_>,
        block: (u32, u32, u32, u32),
        frontier: &[BlockNode],
        budget: &mut RenderBudget,
        probe: &mut P,
        out: &mut [(BudgetedEval, RefineStats)],
    ) {
        let (col0, row0, w, h) = block;
        let npix = (w * h) as usize;
        let stride = 2 * npix;
        let raster = job.raster;
        let width_px = raster.width();
        let mut s = std::mem::take(&mut self.finish);

        // Pixel centers and translated copies: one `translate_query`
        // per pixel per block, not one per bound evaluation.
        s.qs.clear();
        s.qts.clear();
        s.qs.resize(stride, 0.0);
        s.qts.resize(stride, 0.0);
        let root_stats = &self.tree.node(self.tree.root()).stats;
        for p in 0..npix {
            let (col, row) = (col0 + p as u32 % w, row0 + p as u32 / w);
            let q = raster.pixel_center(col, row);
            s.qs[2 * p] = q[0];
            s.qs[2 * p + 1] = q[1];
            root_stats.translate_query(&q, &mut s.qts[2 * p..2 * p + 2]);
        }

        // Seed: every pixel starts from the frontier's box sums
        // (already paid for by the block — zero marginal cost).
        s.fnodes.clear();
        s.cands.clear();
        s.rows.clear();
        s.free_rows.clear();
        let mut lb0 = 0.0;
        let mut ub0 = 0.0;
        for e in frontier {
            lb0 += e.lb;
            ub0 += e.ub;
            s.cands.push(Cand {
                score: e.gap(),
                idx: s.fnodes.len() as u32,
                state: BOXED,
            });
            s.fnodes.push(FNode {
                node: e.node,
                depth: e.depth,
                state: BOXED,
                lb: e.lb,
                ub: e.ub,
                row: u32::MAX,
            });
        }
        let err0 = EPS_MACH * frontier.len() as f64 * (lb0.abs() + ub0.abs());
        let mut boxed_alive = frontier.len();

        s.lb.clear();
        s.lb.resize(npix, lb0);
        s.ub.clear();
        s.ub.resize(npix, ub0);
        s.err.clear();
        s.err.resize(npix, err0);
        s.exact.clear();
        s.exact.resize(npix, 0.0);
        s.best_lb.clear();
        s.best_lb.resize(npix, lb0 - err0);
        s.best_ub.clear();
        s.best_ub.resize(npix, ub0 + err0);
        s.stats.clear();
        s.stats.resize(
            npix,
            RefineStats {
                simd_lanes: job.lanes,
                ..RefineStats::default()
            },
        );
        s.undecided.clear();
        s.undecided.extend(0..npix as u32);

        let global = |p: usize| -> usize {
            let (col, row) = (col0 + p as u32 % w, row0 + p as u32 / w);
            (row * width_px + col) as usize
        };

        while !s.undecided.is_empty() {
            if budget.is_exhausted() {
                // Degraded fill: the envelope is a valid bracket of
                // F(q) at whatever tightness the budget bought.
                for &p in &s.undecided {
                    let p = p as usize;
                    let d = job.offset_at(global(p));
                    let mut st = s.stats[p];
                    st.frontier_reuse = boxed_alive;
                    out[global(p)] = (
                        BudgetedEval {
                            lb: s.best_lb[p] + d,
                            ub: s.best_ub[p] + d,
                            exhausted: true,
                        },
                        st,
                    );
                }
                break;
            }

            // Highest-score live candidate (stale entries self-skip).
            let mut next = None;
            while let Some(c) = s.cands.pop() {
                if s.fnodes[c.idx as usize].state == c.state {
                    next = Some(c);
                    break;
                }
            }
            let Some(c) = next else {
                // Frontier exhausted: every contribution is exact.
                for &p in &s.undecided {
                    let p = p as usize;
                    let e = s.exact[p] + job.offset_at(global(p));
                    let mut st = s.stats[p];
                    st.frontier_reuse = 0;
                    out[global(p)] = (
                        BudgetedEval {
                            lb: e,
                            ub: e,
                            exhausted: false,
                        },
                        st,
                    );
                }
                break;
            };
            let fi = c.idx as usize;
            let f = s.fnodes[fi];
            probe.heap_pop();
            probe.node_visit(f.depth);
            let nu = s.undecided.len() as u64;
            let scan_now = {
                let nd = self.tree.node(f.node);
                nd.is_leaf() || nd.point_count() <= SCAN_CUTOFF
            };

            if f.state == BOXED {
                // First pick: tighten the box interval to each query.
                // The box gap is query-independent and loose, so
                // splitting (or scanning) on it directly would wreck
                // the best-first order — one bound evaluation per
                // pixel restores the per-query priority.
                boxed_alive -= 1;
                let slot = s.alloc_row(stride);
                let base = slot as usize * stride;
                let nd = self.tree.node(f.node);
                let score = s.bound_row(&self.kernel, self.family, nd, base, npix);
                for &p in &s.undecided {
                    let p = p as usize;
                    let (bl, bu) = (s.rows[base + p], s.rows[base + npix + p]);
                    s.lb[p] += bl - f.lb;
                    s.ub[p] += bu - f.ub;
                    s.err[p] += EPS_MACH
                        * (s.lb[p].abs() + s.ub[p].abs() + f.lb.abs() + f.ub.abs() + bu.abs());
                    let st = &mut s.stats[p];
                    st.node_bounds += 1;
                    st.iterations += 1;
                    probe.node_bound();
                }
                budget.charge(nu + 1);
                s.fnodes[fi].state = BOUNDED;
                s.fnodes[fi].row = slot;
                s.cands.push(Cand {
                    score,
                    idx: c.idx,
                    state: BOUNDED,
                });
            } else if scan_now {
                // Retire the node exactly: scan its subtree's points
                // for every undecided pixel. Below [`SCAN_CUTOFF`] the
                // vectorized scan is cheaper than the cascade of
                // exp-heavy bound evaluations a split would trigger.
                s.leaves.clear();
                s.walk.clear();
                s.walk.push(f.node);
                while let Some(id) = s.walk.pop() {
                    match self.tree.node(id).kind {
                        NodeKind::Leaf { .. } => s.leaves.push(id),
                        NodeKind::Internal { left, right } => {
                            s.walk.push(left);
                            s.walk.push(right);
                        }
                    }
                }
                let leaves = std::mem::take(&mut s.leaves);
                let base = f.row as usize * stride;
                let mut units = 1u64;
                for &p in &s.undecided {
                    let p = p as usize;
                    let q = &s.qs[2 * p..2 * p + 2];
                    let mut exact = 0.0;
                    let mut points = 0usize;
                    for &lid in &leaves {
                        let (e, pts) =
                            exact_leaf_scan(self.tree, &self.kernel, lid, q, &mut self.d2);
                        exact += e;
                        points += pts;
                    }
                    s.exact[p] += exact;
                    let (rl, ru) = (s.rows[base + p], s.rows[base + npix + p]);
                    s.lb[p] -= rl;
                    s.ub[p] -= ru;
                    s.err[p] += EPS_MACH
                        * (s.lb[p].abs() + s.ub[p].abs() + rl.abs() + ru.abs() + s.exact[p]);
                    let st = &mut s.stats[p];
                    st.exact_leaves += leaves.len();
                    st.point_evals += points;
                    st.iterations += 1;
                    probe.leaf_scan(points);
                    units += points as u64;
                }
                s.leaves = leaves;
                budget.charge(units);
                s.free_rows.push(f.row);
                s.fnodes[fi].state = RETIRED;
            } else {
                let NodeKind::Internal { left, right } = self.tree.node(f.node).kind else {
                    unreachable!("leaf case handled above");
                };
                let ls = s.alloc_row(stride);
                let rs = s.alloc_row(stride);
                let (lbase, rbase) = (ls as usize * stride, rs as usize * stride);
                let pbase = f.row as usize * stride;
                let lscore =
                    s.bound_row(&self.kernel, self.family, self.tree.node(left), lbase, npix);
                let rscore = s.bound_row(
                    &self.kernel,
                    self.family,
                    self.tree.node(right),
                    rbase,
                    npix,
                );
                for &p in &s.undecided {
                    let p = p as usize;
                    let (bll, blu) = (s.rows[lbase + p], s.rows[lbase + npix + p]);
                    let (brl, bru) = (s.rows[rbase + p], s.rows[rbase + npix + p]);
                    let (pl, pu) = (s.rows[pbase + p], s.rows[pbase + npix + p]);
                    s.lb[p] += bll + brl - pl;
                    s.ub[p] += blu + bru - pu;
                    s.err[p] += EPS_MACH
                        * (s.lb[p].abs() + s.ub[p].abs() + pl.abs() + pu.abs() + blu + bru);
                    let st = &mut s.stats[p];
                    st.node_bounds += 2;
                    st.iterations += 1;
                    probe.node_bound();
                    probe.node_bound();
                }
                budget.charge(2 * nu + 1);
                s.free_rows.push(f.row);
                s.fnodes[fi].state = RETIRED;
                s.cands.push(Cand {
                    score: lscore,
                    idx: s.fnodes.len() as u32,
                    state: BOUNDED,
                });
                s.fnodes.push(FNode {
                    node: left,
                    depth: f.depth + 1,
                    state: BOUNDED,
                    lb: 0.0,
                    ub: 0.0,
                    row: ls,
                });
                s.cands.push(Cand {
                    score: rscore,
                    idx: s.fnodes.len() as u32,
                    state: BOUNDED,
                });
                s.fnodes.push(FNode {
                    node: right,
                    depth: f.depth + 1,
                    state: BOUNDED,
                    lb: 0.0,
                    ub: 0.0,
                    row: rs,
                });
            }

            // Decision sweep: every touched pixel re-tests the rule on
            // its monotone envelope (same resync discipline as the
            // per-pixel evaluator).
            let mut i = 0;
            while i < s.undecided.len() {
                let p = s.undecided[i] as usize;
                if probe.force_resync() || s.err[p] > RESYNC_REL * (s.lb[p].abs() + s.ub[p].abs()) {
                    let mut l = 0.0;
                    let mut u = 0.0;
                    let mut n = 0usize;
                    for fx in &s.fnodes {
                        match fx.state {
                            BOXED => {
                                l += fx.lb;
                                u += fx.ub;
                                n += 1;
                            }
                            BOUNDED => {
                                let b = fx.row as usize * stride;
                                l += s.rows[b + p];
                                u += s.rows[b + npix + p];
                                n += 1;
                            }
                            _ => {}
                        }
                    }
                    s.lb[p] = l;
                    s.ub[p] = u;
                    s.err[p] = EPS_MACH * n as f64 * (l.abs() + u.abs());
                    s.stats[p].resyncs += 1;
                    probe.resync();
                    budget.charge(1);
                }
                s.best_lb[p] = s.best_lb[p].max(s.exact[p] + s.lb[p] - s.err[p]);
                s.best_ub[p] = s.best_ub[p].min(s.exact[p] + s.ub[p] + s.err[p]);
                let d = job.offset_at(global(p));
                let (lb, ub) = (s.best_lb[p] + d, s.best_ub[p] + d);
                if job.rule.decides(lb, ub) {
                    let mut st = s.stats[p];
                    st.frontier_reuse = boxed_alive;
                    out[global(p)] = (
                        BudgetedEval {
                            lb,
                            ub,
                            exhausted: false,
                        },
                        st,
                    );
                    s.undecided.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
        self.finish = s;
    }
}

/// Writes `value(idx)` to every raster pixel `idx` of a block.
fn fill_block(
    raster: &RasterSpec,
    block: (u32, u32, u32, u32),
    out: &mut [(BudgetedEval, RefineStats)],
    mut value: impl FnMut(usize) -> (BudgetedEval, RefineStats),
) {
    let (col0, row0, w, h) = block;
    for row in row0..row0 + h {
        for col in col0..col0 + w {
            let idx = (row * raster.width() + col) as usize;
            out[idx] = value(idx);
        }
    }
}

/// Summed frontier interval, widened by the fresh-summation rounding
/// error (the box intervals are all non-negative-width; the sums are
/// recomputed from scratch, so the resync error formula applies).
fn frontier_interval(frontier: &[BlockNode]) -> (f64, f64) {
    let lb: f64 = frontier.iter().map(|e| e.lb).sum();
    let ub: f64 = frontier.iter().map(|e| e.ub).sum();
    let err = EPS_MACH * frontier.len() as f64 * (lb.abs() + ub.abs());
    (lb - err, ub + err)
}

/// The data-space box spanned by a pixel block's centers.
fn block_box(raster: &RasterSpec, block: (u32, u32, u32, u32)) -> Mbr {
    let (col0, row0, w, h) = block;
    debug_assert!(w > 0 && h > 0);
    let a = raster.pixel_center(col0, row0);
    let b = raster.pixel_center(col0 + w - 1, row0 + h - 1);
    let lo = vec![a[0].min(b[0]), a[1].min(b[1])];
    let hi = vec![a[0].max(b[0]), a[1].max(b[1])];
    Mbr::new(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::scott_gamma;
    use crate::engine::{NoProbe, RefineEvaluator};
    use crate::method::PixelEvaluator;
    use kdv_geom::PointSet;
    use kdv_index::{BuildConfig, KdTree};
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    fn random_points(n: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat: Vec<f64> = (0..n * 2).map(|_| rng.gen_range(-10.0..10.0)).collect();
        PointSet::from_rows(2, &flat)
    }

    fn setup(n: usize, seed: u64) -> (PointSet, Kernel) {
        let ps = random_points(n, seed);
        let kernel = Kernel::gaussian(scott_gamma(&ps).gamma);
        (ps, kernel)
    }

    fn raster_over(ps: &PointSet, px: u32) -> RasterSpec {
        RasterSpec::covering(ps, px, px, 0.05)
    }

    /// Counts node-bound events.
    struct BoundCount(usize);

    impl Probe for BoundCount {
        fn node_bound(&mut self) {
            self.0 += 1;
        }
    }

    #[test]
    fn batched_eps_brackets_are_certified_against_exact() {
        let (ps, kernel) = setup(1500, 9);
        let tree = KdTree::build_default(&ps);
        let raster = raster_over(&ps, 24);
        let eps = 0.05;
        let mut tev = TileEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut budget = RenderBudget::unlimited();
        let tile = tev.eval_tile_eps_with(&raster, eps, &mut budget, &mut NoProbe);
        assert_eq!(tile.evals.len(), raster.num_pixels());
        let mut pev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        for row in 0..raster.height() {
            for col in 0..raster.width() {
                let idx = (row * raster.width() + col) as usize;
                let e = tile.evals[idx];
                assert!(!e.exhausted, "unlimited budget never exhausts");
                assert!(
                    e.ub <= (1.0 + eps) * e.lb + 1e-300,
                    "pixel ({col},{row}) missed its eps contract: {e:?}"
                );
                let exact = pev.eval_exact(&raster.pixel_center(col, row));
                assert!(
                    e.lb <= exact * (1.0 + 1e-12) && exact <= e.ub * (1.0 + 1e-12) + 1e-300,
                    "pixel ({col},{row}): bracket [{}, {}] misses exact {exact}",
                    e.lb,
                    e.ub
                );
            }
        }
    }

    #[test]
    fn batched_tau_mask_matches_per_pixel_path() {
        let (ps, kernel) = setup(1200, 21);
        let tree = KdTree::build(
            &ps,
            BuildConfig {
                leaf_capacity: 16,
                ..BuildConfig::default()
            },
        );
        let raster = raster_over(&ps, 20);
        // Pick τ strictly between observed densities (no knife edge).
        let mut pev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let center = raster.pixel_center(raster.width() / 2, raster.height() / 2);
        let tau = 0.37 * pev.eval_exact(&center);

        let mut tev = TileEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut budget = RenderBudget::unlimited();
        let tile = tev.eval_tile_tau_with(&raster, tau, &mut budget, &mut NoProbe);
        for row in 0..raster.height() {
            for col in 0..raster.width() {
                let idx = (row * raster.width() + col) as usize;
                let t = tile.taus[idx];
                assert!(t.decided, "unlimited budget decides every pixel");
                let want = pev.eval_tau(&raster.pixel_center(col, row), tau);
                assert_eq!(
                    t.hot, want,
                    "pixel ({col},{row}) classification diverged at tau {tau}"
                );
            }
        }
    }

    #[test]
    fn batched_path_reports_frontier_reuse() {
        let (ps, kernel) = setup(2000, 5);
        let tree = KdTree::build_default(&ps);
        let raster = raster_over(&ps, 32);
        let mut tev = TileEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut budget = RenderBudget::unlimited();
        let mut bounds = BoundCount(0);
        let tile = tev.eval_tile_eps_with(&raster, 0.1, &mut budget, &mut bounds);
        let reuse: usize = tile.stats.iter().map(|s| s.frontier_reuse).sum();
        assert!(reuse > 0, "a 32x32 tile must share some frontier work");
        assert!(tile.stats.iter().all(|s| s.simd_lanes >= 1));
        // The probe sees shared box bounds on top of the pixels' own.
        let own: usize = tile.stats.iter().map(|s| s.node_bounds).sum();
        assert!(
            bounds.0 > own,
            "{} probe bounds vs {own} per-pixel",
            bounds.0
        );
    }

    #[test]
    fn batched_budget_exhaustion_degrades_with_valid_brackets() {
        let (ps, kernel) = setup(2000, 13);
        let tree = KdTree::build_default(&ps);
        let raster = raster_over(&ps, 16);
        let mut tev = TileEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut tiny = RenderBudget::unlimited().with_max_work(64);
        let tile = tev.eval_tile_eps_with(&raster, 1e-6, &mut tiny, &mut NoProbe);
        assert!(tiny.is_exhausted());
        let degraded = tile.evals.iter().filter(|e| e.exhausted).count();
        assert!(degraded > 0, "a 64-unit budget cannot finish 256 pixels");
        let mut pev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        for row in 0..raster.height() {
            for col in 0..raster.width() {
                let idx = (row * raster.width() + col) as usize;
                let e = tile.evals[idx];
                assert!(e.lb <= e.ub);
                let exact = pev.eval_exact(&raster.pixel_center(col, row));
                assert!(
                    e.lb <= exact * (1.0 + 1e-9) + 1e-300 && exact <= e.ub * (1.0 + 1e-9) + 1e-300,
                    "degraded bracket must still contain exact"
                );
            }
        }
    }

    #[test]
    fn all_duplicate_points_decide_without_recursion_blowup() {
        // Degenerate geometry: every point identical → the root is a
        // forced leaf with a zero-extent MBR.
        let flat = [1.5f64, -2.5].repeat(300);
        let ps = PointSet::from_rows(2, &flat);
        let kernel = Kernel::gaussian(0.7);
        let tree = KdTree::build_default(&ps);
        let raster = RasterSpec::new(16, 16, (0.0, 3.0), (-4.0, 0.0));
        for family in [
            BoundFamily::Interval,
            BoundFamily::Linear,
            BoundFamily::Quadratic,
        ] {
            let mut tev = TileEvaluator::new(&tree, kernel, family);
            let mut budget = RenderBudget::unlimited();
            let tile = tev.eval_tile_eps_with(&raster, 0.01, &mut budget, &mut NoProbe);
            let mut pev = RefineEvaluator::new(&tree, kernel, family);
            for row in 0..raster.height() {
                for col in 0..raster.width() {
                    let idx = (row * raster.width() + col) as usize;
                    let e = tile.evals[idx];
                    let exact = pev.eval_exact(&raster.pixel_center(col, row));
                    assert!(e.lb <= exact * (1.0 + 1e-12) + 1e-300);
                    assert!(exact <= e.ub * (1.0 + 1e-12) + 1e-300);
                }
            }
        }
    }

    #[test]
    fn odd_sized_tiles_cover_every_pixel() {
        let (ps, kernel) = setup(600, 3);
        let tree = KdTree::build_default(&ps);
        // 13x7 exercises uneven quadrant splits down to 1-pixel rows.
        let raster = RasterSpec::covering(&ps, 13, 7, 0.05);
        let mut tev = TileEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut budget = RenderBudget::unlimited();
        let tile = tev.eval_tile_eps_with(&raster, 0.05, &mut budget, &mut NoProbe);
        assert_eq!(tile.evals.len(), 13 * 7);
        for (i, e) in tile.evals.iter().enumerate() {
            assert!(
                e.ub.is_finite() && e.lb >= 0.0,
                "pixel {i} was never written: {e:?}"
            );
        }
    }

    #[test]
    fn offsets_enter_the_stop_test_for_every_rule() {
        // The offset is a tombstone-like negative delta: it removes
        // 90% of the tree's own density at every pixel, so a stop test
        // on the base bracket alone would certify far too loose an
        // answer for the remaining 10%.
        let (ps, kernel) = setup(1500, 17);
        let tree = KdTree::build_default(&ps);
        let raster = raster_over(&ps, 24);
        let mut pev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let exact: Vec<f64> = (0..raster.num_pixels() as u32)
            .map(|i| pev.eval_exact(&raster.pixel_center(i % 24, i / 24)))
            .collect();
        let offset: Vec<f64> = exact.iter().map(|f| -0.9 * f).collect();
        let logical: Vec<f64> = exact.iter().map(|f| 0.1 * f).collect();
        let mut sorted = logical.clone();
        sorted.sort_by(f64::total_cmp);
        let tau = 0.5 * (sorted[300] + sorted[301]);
        let w = ps.total_weight();
        let mut tev = TileEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        for rule in [
            TileRule::Rel(0.05),
            TileRule::Abs(1e-4 * w),
            TileRule::Tau(tau),
        ] {
            let mut budget = RenderBudget::unlimited();
            let tile = tev.eval_tile_with(&raster, rule, &offset, &mut budget, &mut NoProbe);
            for (i, (e, &f)) in tile.evals.iter().zip(&logical).enumerate() {
                let slack = 1e-9 * exact[i];
                assert!(!e.exhausted);
                assert!(
                    e.lb <= f + slack && f <= e.ub + slack,
                    "{rule:?} pixel {i}: [{}, {}] misses {f}",
                    e.lb,
                    e.ub
                );
                match rule {
                    TileRule::Rel(eps) => assert!(e.ub <= (1.0 + eps) * e.lb + slack),
                    TileRule::Abs(tol) => assert!(e.ub - e.lb <= 2.0 * tol),
                    TileRule::Tau(tau) => assert_eq!(e.classify(tau).hot, f >= tau),
                }
            }
        }
        // An empty offset is the plain tile.
        let mut budget = RenderBudget::unlimited();
        let plain = tev.eval_tile_eps_with(&raster, 0.05, &mut budget, &mut NoProbe);
        let mut budget = RenderBudget::unlimited();
        let zero = tev.eval_tile_with(
            &raster,
            TileRule::Rel(0.05),
            &vec![0.0; raster.num_pixels()],
            &mut budget,
            &mut NoProbe,
        );
        assert_eq!(plain.evals, zero.evals);
    }

    /// Exact `Σ wᵢ·K(q, pᵢ)` over the points under node `id`.
    fn node_exact(tree: &KdTree, kernel: &Kernel, id: NodeId, q: &[f64]) -> f64 {
        match tree.node(id).kind {
            NodeKind::Leaf { .. } => tree
                .leaf_points(id)
                .map(|(p, w)| w * kernel.eval_dist2(kdv_geom::vecmath::dist2(q, p)))
                .sum(),
            NodeKind::Internal { left, right } => {
                node_exact(tree, kernel, left, q) + node_exact(tree, kernel, right, q)
            }
        }
    }

    proptest::proptest! {
        /// The one box primitive: for every node of a random tree and a
        /// random query box, the Gaussian [`box_bounds`] brackets EXACT
        /// at queries inside the box, and the engine's batched box pass
        /// over all nodes at once returns it bit for bit.
        #[test]
        fn box_bounds_bracket_exact_and_equal_the_batched_pass(
            flat in proptest::collection::vec(-10.0..10.0f64, 4..160),
            gamma in 0.01..2.0f64,
            corner in proptest::collection::vec(-12.0..12.0f64, 2),
            extent in proptest::collection::vec(0.0..6.0f64, 2),
            fracs in proptest::collection::vec(0.0..1.0f64, 8),
        ) {
            let n = flat.len() / 2 * 2;
            let ps = PointSet::from_rows(2, &flat[..n]);
            let config = BuildConfig { leaf_capacity: 4, ..BuildConfig::default() };
            let tree = KdTree::build(&ps, config);
            let kernel = Kernel::gaussian(gamma);
            let hi = vec![corner[0] + extent[0], corner[1] + extent[1]];
            let qbox = Mbr::new(corner.clone(), hi);
            let ids: Vec<(NodeId, u32)> =
                (0..tree.num_nodes()).map(|i| (NodeId(i as u32), 0)).collect();
            let mut tev = TileEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
            let mut batched = Vec::new();
            let mut budget = RenderBudget::unlimited();
            let nodes = ids.iter().copied();
            tev.box_bound(nodes, &qbox, &mut batched, &mut budget, &mut NoProbe);
            proptest::prop_assert_eq!(batched.len(), ids.len());
            for (&(id, _), e) in ids.iter().zip(&batched) {
                let node = tree.node(id);
                let b = box_bounds(&kernel, &node.stats, &node.mbr, &qbox);
                proptest::prop_assert_eq!(
                    (b.lb.to_bits(), b.ub.to_bits()),
                    (e.lb.to_bits(), e.ub.to_bits())
                );
                for f in fracs.chunks(2) {
                    let q = [corner[0] + f[0] * extent[0], corner[1] + f[1] * extent[1]];
                    let exact = node_exact(&tree, &kernel, id, &q);
                    proptest::prop_assert!(
                        b.lb <= exact * (1.0 + 1e-12) && exact <= b.ub * (1.0 + 1e-12) + 1e-300,
                        "node {id:?} at {q:?}: [{}, {}] misses exact {exact}", b.lb, b.ub
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_rules_are_rejected() {
        assert!(TileRule::Rel(0.0).validate().is_err());
        assert!(TileRule::Abs(f64::NAN).validate().is_err());
        assert!(TileRule::Abs(-1.0).validate().is_err());
        assert!(TileRule::Tau(-1.0).validate().is_err());
        assert!(TileRule::Abs(1e-3).validate().is_ok());
    }
}
