//! `kdv-server`: an HTTP tile server over the QUAD engine.
//!
//! The paper renders one raster per invocation; an interactive map
//! wants the same density field as a *service*: a z/x/y pyramid of
//! PNG tiles behind `GET /tiles/{kind}/{z}/{x}/{y}.png`, where `kind`
//! is `eps` (colormapped εKDV) or `tau` (two-color hotspot
//! classification). This crate is that service, built entirely on
//! `std::net` — no async runtime, no HTTP library, no dependencies:
//!
//! * [`tile`] — the rigid tile-address grammar (addresses are cache
//!   keys; nothing non-canonical parses),
//! * [`cache`] — a sharded LRU of encoded tiles with a byte-capacity
//!   bound and lock-free hit/miss telemetry,
//! * [`catalog`] — the multi-dataset catalog behind `kdv serve
//!   --store`: lazy single-flight snapshot loads, CSV fallbacks, and
//!   byte-budget eviction of idle datasets,
//! * [`http`] — a minimal, hard-capped HTTP/1.1 reader/writer,
//! * [`server`] — the accept thread, bounded admission queue, worker
//!   pool, routing, `/metrics`, and graceful degradation under
//!   per-request render budgets.
//!
//! See the workspace `DESIGN.md` §9 for the serving contract
//! (pyramid geometry, cache keys, degradation semantics) and §10 for
//! the KDVS snapshot format the catalog loads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod http;
mod ingest;
mod render;
pub mod server;
pub mod tile;

pub use cache::{TileCache, TileKey};
pub use catalog::{Catalog, DatasetEntry, DatasetSource};
pub use server::{ServeError, ServerConfig, StartupReport, TileServer, STAGES};
pub use tile::{parse_tile_path, valid_dataset_name, TileAddr, TileKind};
