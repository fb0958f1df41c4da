//! Render-wide observability for the QUAD engine.
//!
//! The paper's entire evaluation (§7, Figs 14–24) argues about *where
//! the work goes* — heap pops, bound evaluations, exact leaf scans per
//! pixel. This crate turns the per-query [`kdv_core::engine::Probe`]
//! hooks and [`kdv_core::engine::RefineStats`] diagnostics into
//! render-scale artifacts:
//!
//! * [`EventCounters`] — a [`kdv_core::engine::Probe`] implementation
//!   accumulating raw event counts across any number of queries,
//! * [`LogHistogram`] — power-of-two-bucketed distributions of
//!   per-pixel iteration counts and latencies,
//! * [`RenderMetrics`] — the full per-render aggregate: counters,
//!   histograms, wall time, time-to-quality checkpoints, and an
//!   optional per-pixel **cost map** ([`kdv_core::raster::DensityGrid`]
//!   of refinement work — a renderable "where is the time going"
//!   raster alongside the density raster),
//! * [`json`] — a dependency-free JSON writer/parser pair so metrics
//!   export as a stable machine-readable document
//!   (`kdv render --metrics out.json`) and tests can round-trip it,
//! * [`fault`] — a deterministic fault-injecting probe (forced
//!   resyncs, slow nodes, poisoned bound evaluations) driving the
//!   workspace's chaos-test suite,
//! * [`registry`] — the one declaration of every serving metric: each
//!   row carries its JSON key, Prometheus family, kind and unit, and
//!   the same rows drive the `/metrics` JSON, the Prometheus text
//!   ([`prom`]), the router's fleet rollup and the README metrics
//!   table,
//! * [`serve`], [`store`], [`ingest`], [`pyramid`], [`cluster`] — the
//!   lock-free counter blocks of the tile server (cache and HTTP
//!   traffic, snapshot catalog, the streaming-ingest ledger, coreset
//!   level picks) and of the cluster router, each with its table,
//! * [`trace`] — end-to-end request tracing: named spans against one
//!   monotonic origin, bounded rings of recent and slow traces, and a
//!   per-depth refinement work profile teed off the same probe hooks.
//!
//! Everything here is pay-as-you-go: the engine's refinement loop is
//! monomorphized over the probe, so un-instrumented renders (the
//! default `NoProbe`) compile to exactly the code they had before this
//! crate existed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod counters;
pub mod fault;
pub mod hist;
pub mod ingest;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod pyramid;
pub mod registry;
pub mod serve;
pub mod store;
pub mod trace;

pub use cluster::{RouterCounters, RouterSnapshot, ROUTER};
pub use counters::EventCounters;
pub use fault::{FaultPlan, FaultProbe};
pub use hist::LogHistogram;
pub use ingest::{IngestCounters, IngestSnapshot, INGEST};
pub use metrics::{Checkpoint, RenderMetrics, RenderStatus, RENDER, RENDER_SHAPE};
pub use prom::PromWriter;
pub use pyramid::{PyramidCounters, PyramidSnapshot, MAX_TRACKED_LEVELS, PYRAMID};
pub use registry::{Declared, Family, Kind, Metric, Reading, Summary, Table, Unit};
pub use serve::{CacheCounters, CacheSnapshot, HttpCounters, HttpSnapshot, CACHE, HTTP};
pub use store::{StoreCounters, StoreSnapshot, STORE};
pub use trace::{
    DepthProfile, Span, TagValue, Trace, TraceBuilder, TraceId, TraceMeta, TraceRing, TracingProbe,
    TRACE_RING,
};
