//! Steady-state per-pixel refinement must not touch the heap.
//!
//! `RefineEvaluator` owns reusable scratch buffers (priority queue,
//! translated query, leaf distance block); after a warm-up pass has
//! grown them to their working capacity, answering further queries is
//! allocation-free. A counting `#[global_allocator]` pins that — any
//! future per-query `Vec::new()` / `Box` regression fails this test
//! with an exact allocation count.
//!
//! One test per file: the counter is process-global, and sibling tests
//! running on other threads would pollute the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kdv_core::bounds::BoundFamily;
use kdv_core::engine::RefineEvaluator;
use kdv_core::kernel::{Kernel, KernelType};
use kdv_core::method::PixelEvaluator;
use kdv_geom::PointSet;
use kdv_index::KdTree;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn dataset(n: usize) -> PointSet {
    // Deterministic LCG scatter — no RNG crates on the measured path.
    let mut ps = PointSet::new(2);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..n {
        let x = next() * 10.0 - 5.0;
        let y = next() * 10.0 - 5.0;
        let w = 0.5 + next();
        ps.push_weighted(&[x, y], w);
    }
    ps
}

#[test]
fn steady_state_queries_do_not_allocate() {
    let ps = dataset(600);
    let tree = KdTree::build_default(&ps);
    let kernel = Kernel::new(KernelType::Epanechnikov, 1.2);
    let queries: Vec<[f64; 2]> = (0..64)
        .map(|i| {
            let t = i as f64 / 63.0;
            [t * 9.0 - 4.5, (1.0 - t) * 9.0 - 4.5]
        })
        .collect();

    for family in [
        BoundFamily::Interval,
        BoundFamily::Linear,
        BoundFamily::Quadratic,
    ] {
        let mut ev = RefineEvaluator::new(&tree, kernel, family);
        // Warm-up: grow every scratch buffer (heap, query translate,
        // leaf distance block) to the capacity this query set needs.
        let mut warm = 0.0f64;
        for q in &queries {
            warm += ev.eval_eps(q, 0.05);
            ev.eval_tau(q, warm.max(1e-6) * 0.25);
        }

        let before = ALLOCS.load(Ordering::SeqCst);
        let mut acc = 0.0f64;
        for q in &queries {
            acc += ev.eval_eps(q, 0.05);
            ev.eval_tau(q, acc.max(1e-6) * 0.25);
        }
        let after = ALLOCS.load(Ordering::SeqCst);
        assert!(acc.is_finite());
        assert_eq!(
            after - before,
            0,
            "steady-state refinement allocated {} times ({family:?})",
            after - before
        );
    }
}
