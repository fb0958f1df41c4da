//! # kdv — QUAD: Quadratic-Bound-based Kernel Density Visualization
//!
//! A from-scratch Rust reproduction of *QUAD* (Chan, Cheng, Yiu —
//! SIGMOD 2020): fast approximate (εKDV) and thresholded (τKDV) kernel
//! density visualization via quadratic bound functions, together with
//! every baseline the paper compares against (EXACT, Scikit-style DFS,
//! Z-order coreset sampling, aKDE, tKDC, KARL) and the progressive
//! visualization framework.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`geom`] — point sets, bounding rectangles, vector math,
//! * [`index`] — kd-tree with augmented moment statistics,
//! * [`core`] — kernels, bound families, the refinement engine,
//!   methods, bandwidth selection, rasters, thresholds,
//! * [`sampling`] — Morton-curve coreset sampling,
//! * [`pca`] — PCA for dimensionality sweeps,
//! * [`data`] — synthetic dataset generators and CSV I/O,
//! * [`telemetry`] — render metrics: refinement-event counters,
//!   per-pixel histograms, cost maps, JSON export,
//! * [`viz`] — color maps, image output, progressive rendering,
//! * [`server`] — HTTP tile server: cached z/x/y pyramid, admission
//!   control, live `/metrics`.
//!
//! ## Quick start
//!
//! ```
//! use kdv::prelude::*;
//!
//! // 1. Data: a small synthetic hotspot map (use your own via kdv::data::csv).
//! let points = kdv::data::Dataset::Crime.generate(2_000, 42);
//!
//! // 2. Parameters: Scott's rule picks γ; weights default to 1.
//! let kernel = Kernel::gaussian(scott_gamma(&points).gamma);
//!
//! // 3. Index once, query many pixels.
//! let tree = KdTree::build_default(&points);
//! let mut quad = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
//!
//! // 4. Render an εKDV density map with a 1% deterministic guarantee.
//! let raster = RasterSpec::covering(&points, 64, 48, 0.05);
//! let grid = render_eps(&mut quad, &raster, 0.01);
//! assert_eq!(grid.values().len(), 64 * 48);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kdv_core as core;
pub use kdv_data as data;
pub use kdv_geom as geom;
pub use kdv_index as index;
pub use kdv_pca as pca;
pub use kdv_sampling as sampling;
pub use kdv_server as server;
pub use kdv_store as store;
pub use kdv_telemetry as telemetry;
pub use kdv_viz as viz;

/// One-stop imports for typical use.
pub mod prelude {
    pub use kdv_core::bandwidth::{scott_gamma, scott_gamma_for};
    pub use kdv_core::bounds::BoundFamily;
    pub use kdv_core::engine::{RefineEvaluator, RenderBudget, TileRule};
    pub use kdv_core::kernel::{Kernel, KernelType};
    pub use kdv_core::method::{
        make_evaluator, ExactScan, MethodKind, MethodParams, PixelEvaluator, ScikitDfs, ZOrderScan,
    };
    pub use kdv_core::raster::{DensityGrid, RasterSpec};
    pub use kdv_core::threshold::{estimate_levels, TauLevels};
    pub use kdv_geom::{Mbr, PointSet};
    pub use kdv_index::{BuildConfig, KdTree};
    pub use kdv_telemetry::{EventCounters, LogHistogram, RenderMetrics};
    pub use kdv_viz::colormap::ColorMap;
    pub use kdv_viz::render::{
        render, render_eps, render_eps_progressive, render_tau, BinaryGrid, PixelOrder, RenderOpts,
    };
}
