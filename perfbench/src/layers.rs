//! In-process replay of a seeded tile sample through the public layer
//! functions, with the benchmark's own span around each call — the
//! program itself gets no new spans. Also runs the engine ablation grid
//! and checks the ε contract of the engine's brackets against EXACT.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use kdv_core::bounds::BoundFamily;
use kdv_core::engine::{RefineEvaluator, RenderBudget, TileEvaluator};
use kdv_core::raster::DensityGrid;
use kdv_geom::simd::set_simd_enabled;
use kdv_server::catalog::RenderSettings;
use kdv_server::{parse_tile_path, Catalog, DatasetEntry, TileCache, TileKey, TileKind};
use kdv_telemetry::{EventCounters, RenderMetrics};
use kdv_viz::colormap::render_binary;
use kdv_viz::render::BinaryGrid;
use kdv_viz::tile_render::{
    pyramid_raster, render_tile_eps, render_tile_eps_batched, render_tile_tau,
    render_tile_tau_batched,
};
use kdv_viz::{png, ColorMap};

use crate::exact::{eps_ok, Checked, Exact};
use crate::fixture::{Fixture, DATASET, EPS, MARGIN, MAX_Z, TILE};
use crate::requests::{Kind, Rng, Tile};
use crate::stats::{mean, quantile};

/// ε-contract pixels checked per sampled ε tile.
const EPS_CHECK_PIXELS: usize = 32;

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Times `Snapshot::open` and a catalog materialization of the mapped
/// dataset in `store`; returns its catalog slot and entry.
pub fn open(store: &Path, m: &mut Metrics) -> Result<(u32, Arc<DatasetEntry>), String> {
    let t = Instant::now();
    let snap = kdv_store::Snapshot::open(store.join(format!("{DATASET}.kdvs")))
        .map_err(|e| e.to_string())?;
    m.insert("store.snapshot_open_ms".into(), us(t) / 1e3);
    drop(snap);

    let settings = RenderSettings {
        tile_size: TILE,
        margin_frac: MARGIN,
        eps: EPS,
    };
    let t = Instant::now();
    let catalog = Catalog::open(store, 0, settings)?;
    let idx = catalog
        .lookup(DATASET)
        .ok_or("dataset missing from the catalog")?;
    let entry = catalog.get(idx)?;
    m.insert("catalog.load_ms".into(), us(t) / 1e3);
    Ok((idx as u32, entry))
}

/// Replays `sample` (full-index tiles) in-process through the layer
/// functions, recording per-layer timings and engine work counts into
/// `m`; returns the ε-contract check of the engine's brackets.
pub fn replay(
    fx: &Fixture,
    (idx, entry): (u32, &DatasetEntry),
    sample: &[Tile],
    exact: &Exact,
    seed: u64,
    m: &mut Metrics,
) -> Result<Checked, String> {
    let cm = ColorMap::heat();
    let cache = TileCache::new(64 << 20, 8);
    let mut rng = Rng::new(seed, 9);
    let mut spans: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut counts = EventCounters::default();
    let mut reuse = 0u64;
    let mut checked = Checked::default();
    for tile in sample {
        let path = tile.path(DATASET);
        let t = Instant::now();
        let (_, addr) = parse_tile_path(&path, MAX_Z, true).map_err(|e| e.to_string())?;
        spans.entry("parse").or_default().push(us(t));

        let key = TileKey {
            dataset: idx,
            addr,
            param_bits: match addr.kind {
                TileKind::Eps => EPS.to_bits(),
                TileKind::Tau => fx.tau.to_bits(),
            },
            gamma_bits: entry.kernel.gamma.to_bits(),
            level: u8::MAX,
        };
        let t = Instant::now();
        let hit = cache.get(&key);
        spans.entry("cache_get").or_default().push(us(t));
        if hit.is_some() {
            return Err(format!("{path}: in-process cache hit on a cold sample"));
        }

        let t = Instant::now();
        let raster =
            pyramid_raster(&entry.base, tile.z, tile.x, tile.y).map_err(|e| e.to_string())?;
        spans.entry("raster").or_default().push(us(t));

        let mut budget = RenderBudget::unlimited();
        let (w, h) = (raster.width(), raster.height());
        let image = match tile.kind {
            Kind::Eps => {
                let t = Instant::now();
                let mut tev = TileEvaluator::new(&entry.tree, entry.kernel, BoundFamily::Quadratic);
                let out = tev.eval_tile_eps_with(&raster, EPS, &mut budget, &mut counts);
                spans.entry("engine").or_default().push(us(t));
                reuse += out
                    .stats
                    .iter()
                    .map(|s| s.frontier_reuse as u64)
                    .sum::<u64>();
                for _ in 0..EPS_CHECK_PIXELS {
                    let (col, row) = (rng.below(w as usize) as u32, rng.below(h as usize) as u32);
                    let e = out.evals[(row * w + col) as usize];
                    let f = exact.density(raster.pixel_center(col, row));
                    checked.pixels += 1;
                    if e.exhausted || !eps_ok(f, e.lb, e.ub, e.estimate(), EPS) {
                        checked.violations += 1;
                    }
                }
                let t = Instant::now();
                let values = out.evals.iter().map(|e| e.estimate()).collect();
                let grid = DensityGrid::from_values(w, h, values);
                let img = cm.render_scaled(&grid, entry.scale.0, entry.scale.1, true);
                spans.entry("colormap").or_default().push(us(t));
                img
            }
            Kind::Tau => {
                let t = Instant::now();
                let mut tev = TileEvaluator::new(&entry.tree, entry.kernel, BoundFamily::Quadratic);
                let out = tev.eval_tile_tau_with(&raster, fx.tau, &mut budget, &mut counts);
                spans.entry("engine").or_default().push(us(t));
                reuse += out
                    .stats
                    .iter()
                    .map(|s| s.frontier_reuse as u64)
                    .sum::<u64>();
                let t = Instant::now();
                let mut mask = BinaryGrid::falses(w, h);
                for row in 0..h {
                    for col in 0..w {
                        mask.set(col, row, out.taus[(row * w + col) as usize].hot);
                    }
                }
                let img = render_binary(&mask);
                spans.entry("colormap").or_default().push(us(t));
                img
            }
        };
        let t = Instant::now();
        let bytes = png::encode(&image);
        spans.entry("encode").or_default().push(us(t));

        let t = Instant::now();
        cache.insert(key, Arc::new(bytes));
        spans.entry("cache_insert").or_default().push(us(t));
    }
    let span = |name: &str| spans.get(name).cloned().unwrap_or_default();
    let engine_ms: Vec<f64> = span("engine").iter().map(|v| v / 1e3).collect();
    m.insert("tile.parse_us_p50".into(), quantile(&span("parse"), 0.5));
    m.insert("cache.get_us_p50".into(), quantile(&span("cache_get"), 0.5));
    m.insert(
        "cache.insert_us_p50".into(),
        quantile(&span("cache_insert"), 0.5),
    );
    m.insert("viz.raster_us_p50".into(), quantile(&span("raster"), 0.5));
    m.insert(
        "viz.colormap_us_p50".into(),
        quantile(&span("colormap"), 0.5),
    );
    m.insert("viz.encode_us_p50".into(), quantile(&span("encode"), 0.5));
    m.insert("engine.tile_ms_p50".into(), quantile(&engine_ms, 0.5));
    m.insert("engine.tile_ms_p99".into(), quantile(&engine_ms, 0.99));
    let per_tile = |v: u64| v as f64 / sample.len().max(1) as f64;
    m.insert("engine.heap_pops".into(), per_tile(counts.heap_pops));
    m.insert("engine.node_bounds".into(), per_tile(counts.node_bounds));
    m.insert("engine.point_evals".into(), per_tile(counts.point_evals));
    m.insert("engine.frontier_reuse".into(), per_tile(reuse));
    Ok(checked)
}

/// The engine ablation grid {SIMD on, SIMD off} × {batched, per-pixel}
/// over `sample`, through the two public tile renderers. Modes are
/// interleaved per tile so drift on a shared host hits all four alike.
pub fn ablation(
    fx: &Fixture,
    entry: &DatasetEntry,
    sample: &[Tile],
    m: &mut Metrics,
) -> Result<(), String> {
    let cm = ColorMap::heat();
    const MODES: [(&str, bool, bool); 4] = [
        ("scalar_perpixel", false, false),
        ("scalar_batched", false, true),
        ("simd_perpixel", true, false),
        ("simd_batched", true, true),
    ];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); MODES.len()];
    for tile in sample {
        let raster =
            pyramid_raster(&entry.base, tile.z, tile.x, tile.y).map_err(|e| e.to_string())?;
        for (slot, &(_, simd, batched)) in MODES.iter().enumerate() {
            set_simd_enabled(simd);
            let mut budget = RenderBudget::unlimited();
            let mut metrics = RenderMetrics::new();
            let t = Instant::now();
            let rendered = match (tile.kind, batched) {
                (Kind::Eps, true) => {
                    let mut tev =
                        TileEvaluator::new(&entry.tree, entry.kernel, BoundFamily::Quadratic);
                    render_tile_eps_batched(
                        &mut tev,
                        &raster,
                        EPS,
                        &mut budget,
                        &cm,
                        entry.scale,
                        &mut metrics,
                    )
                }
                (Kind::Eps, false) => {
                    let mut ev =
                        RefineEvaluator::new(&entry.tree, entry.kernel, BoundFamily::Quadratic);
                    render_tile_eps(
                        &mut ev,
                        &raster,
                        EPS,
                        &mut budget,
                        &cm,
                        entry.scale,
                        &mut metrics,
                    )
                }
                (Kind::Tau, true) => {
                    let mut tev =
                        TileEvaluator::new(&entry.tree, entry.kernel, BoundFamily::Quadratic);
                    render_tile_tau_batched(&mut tev, &raster, fx.tau, &mut budget, &mut metrics)
                }
                (Kind::Tau, false) => {
                    let mut ev =
                        RefineEvaluator::new(&entry.tree, entry.kernel, BoundFamily::Quadratic);
                    render_tile_tau(&mut ev, &raster, fx.tau, &mut budget, &mut metrics)
                }
            };
            times[slot].push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(rendered.map_err(|e| e.to_string())?);
        }
    }
    set_simd_enabled(true);
    for (slot, (name, _, _)) in MODES.iter().enumerate() {
        m.insert(format!("engine.ablation.{name}_ms"), mean(&times[slot]));
    }
    let speedup = mean(&times[1]) / mean(&times[3]).max(f64::MIN_POSITIVE);
    m.insert("engine.ablation.simd_speedup_batched".into(), speedup);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use crate::requests::tile_set;

    #[test]
    fn engine_counts_repeat_exactly_and_brackets_hold() {
        let dir = std::env::temp_dir().join(format!("perfbench-layers-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fx = fixture::build(&dir, 6_000, false).expect("fixture");
        let exact = Exact::new(&fx.points, fx.kernel.gamma);
        let sample = tile_set(5, 2, &fx.base, &fx.points, 0..=4, 6);
        let counts = || {
            let mut m = Metrics::new();
            let (idx, entry) = open(&fx.store, &mut m).expect("open");
            let checked = replay(&fx, (idx, &entry), &sample, &exact, 5, &mut m).expect("replay");
            assert_eq!(checked.violations, 0, "ε contract against EXACT");
            [
                "engine.heap_pops",
                "engine.node_bounds",
                "engine.point_evals",
                "engine.frontier_reuse",
            ]
            .map(|k| m[k])
        };
        let first = counts();
        assert!(first[0] > 0.0, "the sample does engine work");
        assert_eq!(first, counts());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
