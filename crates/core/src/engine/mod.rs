//! The best-first branch-and-bound refinement framework (paper §3.2).
//!
//! One [`RefineEvaluator`] answers εKDV and τKDV queries for single
//! pixels by maintaining a max-priority queue of index nodes ordered by
//! bound gap `UB_R(q) − LB_R(q)`, exactly as the paper's Table 3
//! illustrates: pop the widest node, replace its bound contribution with
//! its children's bounds (or its exact sum, for leaves), stop as soon as
//! the incremental global bounds satisfy the query's termination test.
//! That test is a [`TileRule`] — relative ε, absolute tolerance, or τ —
//! shared with the tile-batched [`TileEvaluator`], so both engines have
//! one query each: [`RefineEvaluator::eval`] and
//! [`TileEvaluator::eval_tile_with`].

//!
//! Instrumentation: the loop is generic over a [`Probe`] receiving one
//! callback per refinement event (heap pop, node-bound evaluation,
//! leaf scan, float resync). The default [`NoProbe`] monomorphizes to
//! the bare loop, so observation is free unless requested — the
//! `kdv-telemetry` crate builds render-wide metrics on top of this.

//!
//! Robustness: [`RefineEvaluator::eval`] rejects bad input with
//! [`crate::error::KdvError`] and degrades gracefully under a
//! [`RenderBudget`] (work/deadline cap) instead of refining forever —
//! see the [`budget`] module. The panicking `eval_eps` / `eval_tau` of
//! its [`crate::method::PixelEvaluator`] impl are the paper's Table 6
//! interface, shared with the non-bound baselines.

pub mod budget;
mod probe;
mod refine;
mod tile;

pub use budget::{BudgetPolicy, BudgetedEval, BudgetedTau, RenderBudget};
pub use probe::{NoProbe, Probe};
pub use refine::{RefineEvaluator, RefineStats};
pub use tile::{TileEps, TileEvaluator, TileRule, TileTau};
