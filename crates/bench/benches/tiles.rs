//! Per-pixel vs whole-raster τKDV: what `kdv hotspot` runs. The tile
//! engine refines one shared frontier for the whole raster, decides
//! blocks whose bracket clears τ wholesale and finishes the τ boundary
//! per pixel; both produce the exact classification (DESIGN.md).

use criterion::{criterion_group, criterion_main, Criterion};
use kdv_bench::workload::Workload;
use kdv_core::bounds::BoundFamily;
use kdv_core::engine::{NoProbe, RefineEvaluator, RenderBudget, TileEvaluator, TileRule};
use kdv_core::kernel::KernelType;
use kdv_core::threshold::estimate_levels;
use kdv_data::Dataset;
use kdv_viz::render::render_tau;
use std::hint::black_box;

fn bench_hotspot_tau(c: &mut Criterion) {
    for (width, height) in [(320, 240), (640, 480)] {
        let w = Workload::build_with_n(
            Dataset::Crime,
            KernelType::Gaussian,
            50_000,
            (width, height),
            9,
        );
        let levels = estimate_levels(&w.tree, w.kernel, &w.raster, 16, 12);
        let tau = levels.tau(0.1);
        let mut group = c.benchmark_group(format!("tau_crime50k_{width}x{height}"));
        group.sample_size(10);
        group.bench_function("per_pixel_quad", |b| {
            b.iter(|| {
                let mut ev = RefineEvaluator::new(&w.tree, w.kernel, BoundFamily::Quadratic);
                black_box(render_tau(&mut ev, &w.raster, tau))
            })
        });
        group.bench_function("whole_raster_tile_engine", |b| {
            b.iter(|| {
                let mut tev = TileEvaluator::new(&w.tree, w.kernel, BoundFamily::Quadratic);
                let rule = TileRule::Tau(tau);
                let mut budget = RenderBudget::unlimited();
                let tile = tev.eval_tile_with(&w.raster, rule, &[], &mut budget, &mut NoProbe);
                black_box(tile.classify(tau))
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_hotspot_tau);
criterion_main!(benches);
