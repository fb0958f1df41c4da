//! kd-tree construction cost and the leaf-capacity ablation called out
//! in DESIGN.md §5.4 (smaller leaves = more bound evaluations, larger
//! leaves = more exact scanning).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kdv_core::bounds::BoundFamily;
use kdv_core::engine::RefineEvaluator;
use kdv_core::kernel::Kernel;
use kdv_core::method::PixelEvaluator;
use kdv_data::Dataset;
use kdv_index::{BuildConfig, KdTree};
use std::hint::black_box;

fn bench_build(c: &mut Criterion) {
    let ps = Dataset::Crime.generate(50_000, 1);
    let mut group = c.benchmark_group("kdtree_build_50k");
    group.sample_size(10);
    for leaf in [8usize, 32, 128, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(leaf), &leaf, |b, &leaf| {
            b.iter(|| {
                black_box(KdTree::build(
                    black_box(&ps),
                    BuildConfig {
                        leaf_capacity: leaf,
                        ..BuildConfig::default()
                    },
                ))
            })
        });
    }
    group.finish();
}

fn bench_query_vs_leaf_capacity(c: &mut Criterion) {
    // The ablation proper: per-pixel QUAD query time as leaf size varies.
    let ps = Dataset::Crime.generate(50_000, 1);
    let kernel = Kernel::gaussian(kdv_core::bandwidth::scott_gamma(&ps).gamma);
    let mut group = c.benchmark_group("quad_query_by_leaf_capacity");
    for leaf in [8usize, 32, 128, 256] {
        let tree = KdTree::build(
            &ps,
            BuildConfig {
                leaf_capacity: leaf,
                ..BuildConfig::default()
            },
        );
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let q = [
            (kdv_geom::Mbr::of_set(&ps).expect("non-empty").lo()[0]
                + kdv_geom::Mbr::of_set(&ps).expect("non-empty").hi()[0])
                / 2.0,
            33.75,
        ];
        group.bench_with_input(BenchmarkId::from_parameter(leaf), &leaf, |b, _| {
            b.iter(|| black_box(ev.eval_eps(black_box(&q), 0.01)))
        });
    }
    group.finish();
}

fn bench_query_vs_split_rule(c: &mut Criterion) {
    // Split-rule ablation (DESIGN.md §5): midpoint splits give cube-ish
    // MBRs (tighter intervals), medians give balance.
    use kdv_index::SplitRule;
    let ps = Dataset::Crime.generate(50_000, 1);
    let kernel = Kernel::gaussian(kdv_core::bandwidth::scott_gamma(&ps).gamma);
    let mbr = kdv_geom::Mbr::of_set(&ps).expect("non-empty");
    let q = [
        (mbr.lo()[0] + mbr.hi()[0]) / 2.0,
        (mbr.lo()[1] + mbr.hi()[1]) / 2.0,
    ];
    let mut group = c.benchmark_group("quad_query_by_split_rule");
    for split in SplitRule::ALL {
        let tree = KdTree::build(
            &ps,
            BuildConfig {
                leaf_capacity: 32,
                split,
            },
        );
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        group.bench_function(format!("{split:?}"), |b| {
            b.iter(|| black_box(ev.eval_eps(black_box(&q), 0.01)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_query_vs_leaf_capacity,
    bench_query_vs_split_rule
);
criterion_main!(benches);
