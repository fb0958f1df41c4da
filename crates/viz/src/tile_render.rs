//! Tile-window rendering: the z/x/y slippy pyramid over a data window.
//!
//! A web map consumes a density field as a pyramid of fixed-size
//! square tiles: level `z` divides the base window into `2^z × 2^z`
//! tiles of `tile_size²` pixels each, addressed `(z, x, y)` with
//! `y = 0` at the **top** (matching both slippy-map convention and
//! [`RasterSpec`]'s row-0-on-top orientation). [`pyramid_raster`] maps
//! an address to the raster of exactly that window — via
//! [`RasterSpec::sub_window`]. The `render_tile_*` functions produce
//! colormapped tile images under a per-request [`RenderBudget`],
//! degrading to certified midpoints instead of overrunning: per-pixel
//! ([`RefineEvaluator`] through [`render`], the reference) or
//! tile-batched ([`TileEvaluator`]). A server that drives the batched
//! engine itself paints its output with [`paint_eps_tile`] /
//! [`paint_tau_tile`].

use crate::colormap::ColorMap;
use crate::image::RgbImage;
use crate::render::{render, BinaryGrid, RenderOpts, Rendered};
use kdv_core::engine::{
    RefineEvaluator, RefineStats, RenderBudget, TileEps, TileEvaluator, TileRule, TileTau,
};
use kdv_core::error::KdvError;
use kdv_core::query::{validate_eps, validate_tau};
use kdv_core::raster::{DensityGrid, RasterSpec};
use kdv_telemetry::RenderMetrics;
use std::time::Instant;

/// Deepest zoom level a pyramid address may name. `tile_size << z`
/// must fit a `u32` raster dimension; 20 levels over a 256-px tile is
/// a 268-million-pixel-wide virtual raster — far beyond any realistic
/// deployment, while keeping every shift well-defined.
pub const MAX_PYRAMID_Z: u8 = 20;

/// The raster of tile `(z, x, y)` in the pyramid over `base`.
///
/// `base` is the level-0 window: one `tile_size × tile_size` raster
/// covering the whole dataset (its data window is typically
/// [`RasterSpec::try_covering`]'s). Level `z` is the virtual
/// `(tile_size·2^z)²` raster over the same window; tile `(x, y)` is
/// its `sub_window` at pixel offset `(x·tile_size, y·tile_size)`.
///
/// Rejects `z > MAX_PYRAMID_Z`, `x`/`y` outside `[0, 2^z)`, and a
/// non-square or zero-sized `base` with a structured [`KdvError`].
pub fn pyramid_raster(base: &RasterSpec, z: u8, x: u32, y: u32) -> Result<RasterSpec, KdvError> {
    let tile_size = base.width();
    if tile_size == 0 || base.height() != tile_size {
        return Err(KdvError::DegenerateRaster {
            message: format!(
                "pyramid base must be a square tile, got {}x{}",
                base.width(),
                base.height()
            ),
        });
    }
    if z > MAX_PYRAMID_Z {
        return Err(KdvError::invalid(
            "z",
            format!("zoom {z} exceeds the maximum pyramid depth {MAX_PYRAMID_Z}"),
        ));
    }
    let tiles_per_side = 1u32 << z;
    if x >= tiles_per_side || y >= tiles_per_side {
        return Err(KdvError::invalid(
            "tile",
            format!(
                "tile ({x}, {y}) outside the {tiles_per_side}x{tiles_per_side} grid of zoom {z}"
            ),
        ));
    }
    if tile_size.checked_shl(z as u32).is_none() || (tile_size as u64) << z > u32::MAX as u64 {
        return Err(KdvError::invalid(
            "tile_size",
            format!("tile size {tile_size} at zoom {z} overflows the virtual raster"),
        ));
    }
    base.with_resolution(tile_size << z, tile_size << z)
        .sub_window(x * tile_size, y * tile_size, tile_size, tile_size)
}

/// A rendered tile: the image plus how much of it is best-effort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileImage {
    /// The colormapped tile.
    pub image: RgbImage,
    /// Pixels whose refinement was cut short by the budget (εKDV) or
    /// whose classification had not cleared τ (τKDV). Zero means the
    /// tile is exact to its quality contract.
    pub degraded_pixels: u64,
}

impl TileImage {
    /// Whether every pixel met its quality contract.
    pub fn is_complete(&self) -> bool {
        self.degraded_pixels == 0
    }
}

/// Renders one εKDV tile under `budget` on the per-pixel engine,
/// colormapped against the map-wide density range `(lo, hi)` (see
/// [`ColorMap::render_scaled`] for why tiles must not self-normalize).
/// Refinement telemetry accumulates into `metrics`. This is the
/// reference the batched [`render_tile_eps_batched`] is tested against.
pub fn render_tile_eps(
    ev: &mut RefineEvaluator<'_>,
    raster: &RasterSpec,
    eps: f64,
    budget: &mut RenderBudget,
    cm: &ColorMap,
    scale: (f64, f64),
    metrics: &mut RenderMetrics,
) -> Result<TileImage, KdvError> {
    let out = render_one(ev, raster, TileRule::Rel(eps), budget, metrics)?;
    Ok(TileImage {
        image: cm.render_scaled(&out.grid(), scale.0, scale.1, true),
        degraded_pixels: out.degraded(),
    })
}

/// Renders one τKDV tile under `budget` on the per-pixel engine with
/// the paper's two-color convention; undecided pixels count as
/// degraded. Telemetry accumulates into `metrics` as in
/// [`render_tile_eps`].
pub fn render_tile_tau(
    ev: &mut RefineEvaluator<'_>,
    raster: &RasterSpec,
    tau: f64,
    budget: &mut RenderBudget,
    metrics: &mut RenderMetrics,
) -> Result<TileImage, KdvError> {
    let out = render_one(ev, raster, TileRule::Tau(tau), budget, metrics)?;
    Ok(TileImage {
        image: crate::colormap::render_binary(&out.classify(tau).0),
        degraded_pixels: out.degraded(),
    })
}

/// One metered, single-band [`render`] with the caller's evaluator.
fn render_one(
    ev: &mut RefineEvaluator<'_>,
    raster: &RasterSpec,
    rule: TileRule,
    budget: &mut RenderBudget,
    metrics: &mut RenderMetrics,
) -> Result<Rendered, KdvError> {
    let mut ev = Some(ev);
    let opts = RenderOpts {
        metrics: Some(metrics),
        ..RenderOpts::default()
    };
    // A single band asks for its evaluator once; only a panic retry
    // would ask again, and there is no second one to give.
    let make_ev = || ev.take().expect("a panicked tile has no fresh evaluator");
    render(make_ev, raster, rule, budget, opts)
}

/// [`render_tile_eps`] on the tile-batched refinement path: one shared
/// node frontier per pixel block instead of a fresh root-to-leaf
/// refinement per pixel (see [`TileEvaluator`]). Same per-pixel ε
/// contract, same budget accounting, same colormap pipeline.
pub fn render_tile_eps_batched(
    tev: &mut TileEvaluator<'_>,
    raster: &RasterSpec,
    eps: f64,
    budget: &mut RenderBudget,
    cm: &ColorMap,
    scale: (f64, f64),
    metrics: &mut RenderMetrics,
) -> Result<TileImage, KdvError> {
    validate_eps(eps)?;
    let start = Instant::now();
    let tile = tev.eval_tile_eps_with(raster, eps, budget, &mut metrics.events);
    let image = paint_eps_tile(raster, &tile, cm, scale, metrics);
    metrics.set_wall_ns(start.elapsed().as_nanos() as u64);
    Ok(image)
}

/// [`render_tile_tau`] on the tile-batched refinement path; with an
/// unlimited budget the mask is bit-identical to the per-pixel path's.
pub fn render_tile_tau_batched(
    tev: &mut TileEvaluator<'_>,
    raster: &RasterSpec,
    tau: f64,
    budget: &mut RenderBudget,
    metrics: &mut RenderMetrics,
) -> Result<TileImage, KdvError> {
    validate_tau(tau)?;
    let start = Instant::now();
    let tile = tev.eval_tile_tau_with(raster, tau, budget, &mut metrics.events);
    let image = paint_tau_tile(raster, &tile, metrics);
    metrics.set_wall_ns(start.elapsed().as_nanos() as u64);
    Ok(image)
}

/// Colormaps a batched εKDV tile's per-pixel estimates against the
/// map-wide `scale` and meters every pixel into `metrics`.
///
/// Per-pixel latency is not individually attributable on the batched
/// path (block-level work is shared), so the latency histogram
/// receives zeros; the caller times the tile and the probe feeds every
/// event counter.
pub fn paint_eps_tile(
    raster: &RasterSpec,
    tile: &TileEps,
    cm: &ColorMap,
    scale: (f64, f64),
    metrics: &mut RenderMetrics,
) -> TileImage {
    let degraded_pixels = meter_pixels(raster, &tile.stats, |i| tile.evals[i].exhausted, metrics);
    let values = tile.evals.iter().map(|e| e.estimate()).collect();
    let grid = DensityGrid::from_values(raster.width(), raster.height(), values);
    TileImage {
        image: cm.render_scaled(&grid, scale.0, scale.1, true),
        degraded_pixels,
    }
}

/// Paints a batched τKDV tile's mask and meters every pixel, as
/// [`paint_eps_tile`]; undecided pixels count as degraded.
pub fn paint_tau_tile(
    raster: &RasterSpec,
    tile: &TileTau,
    metrics: &mut RenderMetrics,
) -> TileImage {
    let degraded_pixels = meter_pixels(raster, &tile.stats, |i| !tile.taus[i].decided, metrics);
    let mut mask = BinaryGrid::falses(raster.width(), raster.height());
    for (i, t) in tile.taus.iter().enumerate() {
        let i = i as u32;
        mask.set(i % raster.width(), i / raster.width(), t.hot);
    }
    TileImage {
        image: crate::colormap::render_binary(&mask),
        degraded_pixels,
    }
}

/// Records each pixel's finishing stats (row-major) and counts the
/// degraded ones.
fn meter_pixels(
    raster: &RasterSpec,
    stats: &[RefineStats],
    degraded: impl Fn(usize) -> bool,
    metrics: &mut RenderMetrics,
) -> u64 {
    let mut count = 0u64;
    for (i, st) in stats.iter().enumerate() {
        let i32 = i as u32;
        metrics.record_pixel(i32 % raster.width(), i32 / raster.width(), st, 0);
        if degraded(i) {
            count += 1;
            metrics.mark_degraded_pixel();
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_core::bandwidth::scott_gamma;
    use kdv_core::bounds::BoundFamily;
    use kdv_core::kernel::Kernel;
    use kdv_data::Dataset;
    use kdv_index::KdTree;
    use kdv_telemetry::EventCounters;

    fn setup() -> (kdv_geom::PointSet, Kernel, RasterSpec) {
        let ps = Dataset::Crime.generate(2000, 11);
        let kernel = Kernel::gaussian(scott_gamma(&ps).gamma);
        let base = RasterSpec::covering(&ps, 16, 16, 0.05);
        (ps, kernel, base)
    }

    #[test]
    fn pyramid_tiles_partition_each_level() {
        let (_, _, base) = setup();
        // Level 0 is the base itself.
        assert_eq!(pyramid_raster(&base, 0, 0, 0).expect("root"), base);
        // Level 2: 16 tiles tiling the base window exactly.
        let ((bx0, bx1), (by0, by1)) = base.window();
        let mut x_edges = Vec::new();
        for x in 0..4 {
            let t = pyramid_raster(&base, 2, x, 0).expect("tile");
            assert_eq!((t.width(), t.height()), (16, 16));
            x_edges.push(t.window().0);
        }
        assert!((x_edges[0].0 - bx0).abs() < 1e-12);
        assert!((x_edges[3].1 - bx1).abs() < 1e-12);
        for w in x_edges.windows(2) {
            assert!(
                (w[0].1 - w[1].0).abs() < 1e-12,
                "adjacent tiles must share an edge: {w:?}"
            );
        }
        // y = 0 is the top of the map (maximum data-space y).
        let top = pyramid_raster(&base, 1, 0, 0).expect("top");
        let bottom = pyramid_raster(&base, 1, 0, 1).expect("bottom");
        assert!((top.window().1 .1 - by1).abs() < 1e-12);
        assert!((bottom.window().1 .0 - by0).abs() < 1e-12);
        assert!(top.window().1 .0 > bottom.window().1 .0);
    }

    #[test]
    fn pyramid_rejects_bad_addresses() {
        let (_, _, base) = setup();
        assert!(pyramid_raster(&base, 1, 2, 0).is_err(), "x out of range");
        assert!(pyramid_raster(&base, 1, 0, 2).is_err(), "y out of range");
        assert!(pyramid_raster(&base, 0, 1, 0).is_err(), "root has one tile");
        assert!(
            pyramid_raster(&base, MAX_PYRAMID_Z + 1, 0, 0).is_err(),
            "zoom too deep"
        );
        let rect = RasterSpec::new(16, 8, (0.0, 1.0), (0.0, 1.0));
        assert!(pyramid_raster(&rect, 0, 0, 0).is_err(), "non-square base");
    }

    #[test]
    fn tile_renders_match_full_raster_windows() {
        let (ps, kernel, base) = setup();
        let tree = KdTree::build_default(&ps);
        // Render the whole level-1 raster in one pass…
        let full_raster = base.with_resolution(32, 32);
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let full = crate::render::render_eps(&mut ev, &full_raster, 0.01);
        let (lo, hi) = full.min_max().expect("non-empty");
        let cm = ColorMap::heat();
        let reference = cm.render_scaled(&full, lo, hi, true);
        // …then tile by tile; the mosaic must match pixel-for-pixel.
        for ty in 0..2u32 {
            for tx in 0..2u32 {
                let raster = pyramid_raster(&base, 1, tx, ty).expect("tile");
                let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
                let mut budget = RenderBudget::unlimited();
                let mut metrics = RenderMetrics::new();
                let tile = render_tile_eps(
                    &mut ev,
                    &raster,
                    0.01,
                    &mut budget,
                    &cm,
                    (lo, hi),
                    &mut metrics,
                )
                .expect("tile render");
                assert!(tile.is_complete());
                assert_eq!(metrics.pixels, 16 * 16, "every tile pixel is metered");
                for row in 0..16 {
                    for col in 0..16 {
                        assert_eq!(
                            tile.image.get(col, row),
                            reference.get(tx * 16 + col, ty * 16 + row),
                            "tile ({tx},{ty}) pixel ({col},{row})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_tau_tile_image_matches_per_pixel_path() {
        let (ps, kernel, base) = setup();
        let tree = KdTree::build_default(&ps);
        let raster = pyramid_raster(&base, 0, 0, 0).expect("root");
        // A τ from a quick ε render, safely between observed values.
        let mut probe_ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let grid = crate::render::render_eps(&mut probe_ev, &raster, 0.05);
        let (lo, hi) = grid.min_max().expect("non-empty");
        let tau = lo + 0.35 * (hi - lo);

        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut b1 = RenderBudget::unlimited();
        let mut m1 = RenderMetrics::new();
        let per_pixel = render_tile_tau(&mut ev, &raster, tau, &mut b1, &mut m1).expect("tau");

        let mut tev = TileEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut b2 = RenderBudget::unlimited();
        let mut m2 = RenderMetrics::new();
        let batched =
            render_tile_tau_batched(&mut tev, &raster, tau, &mut b2, &mut m2).expect("tau");

        assert_eq!(per_pixel.image, batched.image, "τ masks must be identical");
        assert_eq!(batched.degraded_pixels, 0);
        assert!(
            m2.frontier_reuse > 0,
            "batched tile must report shared-frontier reuse"
        );
        assert!(m2.simd_lanes >= 1);
    }

    #[test]
    fn batched_eps_tile_is_complete_and_meters_pixels() {
        let (ps, kernel, base) = setup();
        let tree = KdTree::build_default(&ps);
        let raster = pyramid_raster(&base, 1, 1, 0).expect("tile");
        let cm = ColorMap::heat();
        let mut tev = TileEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut budget = RenderBudget::unlimited();
        let mut metrics = RenderMetrics::new();
        let tile = render_tile_eps_batched(
            &mut tev,
            &raster,
            0.05,
            &mut budget,
            &cm,
            (0.0, 1.0),
            &mut metrics,
        )
        .expect("tile render");
        assert!(tile.is_complete());
        assert_eq!(metrics.pixels, 16 * 16, "every tile pixel is metered");
        assert!(render_tile_eps_batched(
            &mut tev,
            &raster,
            -1.0,
            &mut budget,
            &cm,
            (0.0, 1.0),
            &mut metrics,
        )
        .is_err());
    }

    #[test]
    fn budget_exhaustion_degrades_instead_of_failing() {
        let (ps, kernel, base) = setup();
        let tree = KdTree::build_default(&ps);
        let raster = pyramid_raster(&base, 0, 0, 0).expect("root");
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut tiny = RenderBudget::unlimited().with_max_work(3 * raster.num_pixels() as u64);
        let mut metrics = RenderMetrics::new();
        let tile = render_tile_eps(
            &mut ev,
            &raster,
            1e-7,
            &mut tiny,
            &ColorMap::heat(),
            (0.0, 1.0),
            &mut metrics,
        )
        .expect("degrades, not errors");
        assert!(tile.degraded_pixels > 0);
        assert!(!tile.is_complete());
        assert_eq!(metrics.degraded_pixels, tile.degraded_pixels);

        let mut ev2 = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut tiny2 = RenderBudget::unlimited().with_max_work(raster.num_pixels() as u64);
        let mut metrics2 = RenderMetrics::new();
        let tau_tile = render_tile_tau(&mut ev2, &raster, 1e-3, &mut tiny2, &mut metrics2)
            .expect("tau degrades");
        assert!(tau_tile.degraded_pixels > 0);
    }

    /// A whole raster as one τ tile, painted like `kdv hotspot`.
    fn whole_raster_tau(
        tree: &KdTree,
        kernel: Kernel,
        raster: &RasterSpec,
        tau: f64,
    ) -> (TileTau, EventCounters) {
        let mut tev = TileEvaluator::new(tree, kernel, BoundFamily::Quadratic);
        let mut budget = RenderBudget::unlimited();
        let mut events = EventCounters::default();
        let tile = tev.eval_tile_with(raster, TileRule::Tau(tau), &[], &mut budget, &mut events);
        (tile.classify(tau), events)
    }

    #[test]
    fn whole_raster_tau_matches_per_pixel_on_degenerate_rasters() {
        let raw = Dataset::Hep.generate(500, 3);
        let bw = scott_gamma(&raw);
        let mut points = raw;
        points.scale_weights(bw.weight);
        let kernel = Kernel::gaussian(bw.gamma);
        let tree = KdTree::build_default(&points);
        for (w, h) in [(1u32, 1u32), (1, 7), (9, 1), (5, 3), (1, 37), (37, 1)] {
            let raster = RasterSpec::covering(&points, w, h, 0.02);
            let (tile, _) = whole_raster_tau(&tree, kernel, &raster, 1e-3);
            let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
            let reference = crate::render::render_tau(&mut ev, &raster, 1e-3);
            let mut metrics = RenderMetrics::new();
            let image = paint_tau_tile(&raster, &tile, &mut metrics);
            assert_eq!(
                image.image,
                crate::colormap::render_binary(&reference),
                "{w}x{h}"
            );
            assert!(image.is_complete(), "{w}x{h}");
        }
    }

    #[test]
    fn extreme_taus_decide_at_the_root_block() {
        let raw = Dataset::Home.generate(2000, 5);
        let bw = scott_gamma(&raw);
        let mut points = raw;
        points.scale_weights(bw.weight);
        let kernel = Kernel::gaussian(bw.gamma);
        let tree = KdTree::build_default(&points);
        let raster = RasterSpec::covering(&points, 32, 32, 0.02);
        // τ far above any density: everything cold, decided by the
        // root bracket — no pixel refines on its own.
        let (tile, events) = whole_raster_tau(&tree, kernel, &raster, 1e9);
        assert!(tile.taus.iter().all(|t| t.decided && !t.hot));
        assert!(tile.stats.iter().all(|s| s.iterations == 0));
        assert!(events.heap_pops <= 1, "{events:?}");
        // τ = 0 ≤ F everywhere: everything hot. (Quadratic lower bounds
        // may dip below zero, so this one refines before it decides.)
        let (tile, _) = whole_raster_tau(&tree, kernel, &raster, 0.0);
        assert!(tile.taus.iter().all(|t| t.decided && t.hot));
    }
}
