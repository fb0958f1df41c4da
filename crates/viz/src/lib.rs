//! Color-map rendering and the progressive visualization framework.
//!
//! This crate turns the per-pixel query engine of [`kdv_core`] into the
//! artifacts the QUAD paper actually shows:
//!
//! * [`render`](mod@render) — full-raster εKDV density grids and τKDV
//!   masks. [`render()`] is the one renderer over the refinement engine:
//!   any stop rule, a [`kdv_core::engine::RenderBudget`] that degrades
//!   gracefully (best-effort midpoints plus a per-pixel achieved-error
//!   map) instead of overrunning a deadline or work cap, row bands on
//!   worker threads with per-band panic isolation (a crashed band is
//!   retried sequentially and reported, never aborting the render), the
//!   row-major or progressive order, and optional [`kdv_telemetry`]
//!   metrics (event counters, per-pixel histograms, cost maps,
//!   time-to-quality checkpoints). Threads are the paper's "future
//!   work" (§8) and stay off in every paper reproduction,
//! * [`progressive`] — the coarse-to-fine quad-tree pixel ordering of
//!   the paper's §6 / Fig 13, generalized to arbitrary resolutions,
//! * [`colormap`] — the continuous color ramp of Figs 1–2 and the
//!   two-color τKDV map; [`contour`] — marching-squares iso-density
//!   outlines (the hotspot boundaries of Fig 1),
//! * [`image`] — dependency-free binary PPM/PGM writers,
//! * [`tile_render`] — the z/x/y slippy tile pyramid over a data
//!   window (budgeted, fixed-scale colormapped tiles for
//!   `kdv-server`), and the painters for tile-batched engine output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod colormap;
pub mod contour;
pub mod image;
pub mod png;
pub mod progressive;
pub mod render;
pub mod tile_render;

pub use colormap::ColorMap;
pub use image::RgbImage;
pub use progressive::{progressive_order, ProgressiveStep};
pub use render::{
    render, render_eps, render_eps_progressive, render_tau, BandEvaluator, BinaryGrid, PixelOrder,
    RenderOpts, Rendered,
};
pub use tile_render::{pyramid_raster, render_tile_eps, render_tile_tau, TileImage};
