//! Snapshot-store telemetry: catalog loads, builds, and failures.
//!
//! The serving catalog materializes datasets two ways — loading a KDVS
//! snapshot or rebuilding from CSV — and the entire value of the store
//! is the gap between those two paths. `StoreCounters` makes that gap
//! observable in production: monotone lock-free counters for the event
//! counts (same design as [`crate::serve`]) plus mutex-guarded
//! [`LogHistogram`]s for the load/build latencies. Loads and builds
//! happen per *dataset*, not per request, so a mutex on the histograms
//! costs nothing measurable while keeping the bucket updates exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hist::LogHistogram;
use crate::registry::{counter_block, Family, Summary, Unit};

counter_block! {
    /// Telemetry for a snapshot-backed dataset catalog.
    pub struct StoreCounters;
    /// One reading of [`StoreCounters`], histograms included; fields are
    /// the rows of [`STORE`].
    pub struct StoreSnapshot;
    /// The `store` block (the serving catalog appends its status).
    /// `load_failures` counts every failed materialization, the
    /// checksum failures included.
    pub static STORE = "store" {
        loads: AtomicU64 =
            Family::counter("kdv_store_loads_total", "Datasets materialized from snapshots."),
        builds: AtomicU64 =
            Family::counter("kdv_store_builds_total", "Datasets built from raw data."),
        load_failures: AtomicU64 = Family::counter("kdv_store_load_failures_total",
            "Failed dataset materializations."),
        checksum_failures: AtomicU64 = Family::counter("kdv_store_checksum_failures_total",
            "Snapshot loads rejected for CRC mismatches."),
        evictions: AtomicU64 = Family::counter("kdv_store_evictions_total",
            "Datasets evicted under the byte budget."),
        evicted_bytes: AtomicU64 = Family::counter("kdv_store_evicted_bytes_total",
            "Estimated bytes released by dataset evictions.").unit(Unit::Bytes),
        load_ns: Mutex<LogHistogram> = Family::histogram("kdv_store_load_seconds",
            "Wall time per snapshot load.", Summary::Brief, Unit::Ns),
        build_ns: Mutex<LogHistogram> = Family::histogram("kdv_store_build_seconds",
            "Wall time per from-source dataset build.", Summary::Brief, Unit::Ns),
    }
}

impl StoreCounters {
    /// Records a successful snapshot load taking `ns` nanoseconds.
    pub fn load(&self, ns: u64) {
        self.loads.fetch_add(1, Ordering::Relaxed);
        self.load_ns.lock().expect("histogram lock").record(ns);
    }

    /// Records a successful from-source build taking `ns` nanoseconds.
    pub fn build(&self, ns: u64) {
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.build_ns.lock().expect("histogram lock").record(ns);
    }

    /// Records a failed materialization; `checksum` marks CRC
    /// mismatches (counted in both failure columns).
    pub fn load_failure(&self, checksum: bool) {
        self.load_failures.fetch_add(1, Ordering::Relaxed);
        if checksum {
            self.checksum_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records the eviction of an idle dataset holding ~`bytes`.
    pub fn evict(&self, bytes: u64) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        self.evicted_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate_and_histograms_separate_load_from_build() {
        let c = StoreCounters::default();
        c.load(1_000);
        c.load(2_000);
        c.build(1_000_000);
        c.load_failure(true);
        c.load_failure(false);
        c.evict(4096);
        let s = c.snapshot();
        assert_eq!(s.loads, 2);
        assert_eq!(s.builds, 1);
        assert_eq!(s.load_failures, 2);
        assert_eq!(s.checksum_failures, 1);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.evicted_bytes, 4096);
        assert_eq!(s.load_ns.count(), 2);
        assert_eq!(s.build_ns.count(), 1);
        assert!(s.build_ns.mean() > s.load_ns.mean());
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let c = StoreCounters::default();
        c.load(500);
        c.build(10_000);
        c.load_failure(true);
        let doc = STORE.json(&c.snapshot());
        let back = crate::json::parse(&doc.render()).expect("parses");
        assert_eq!(back.get("loads").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            back.get("checksum_failures").and_then(Value::as_f64),
            Some(1.0)
        );
        assert!(back
            .get("load_ns")
            .and_then(|h| h.get("count"))
            .and_then(Value::as_f64)
            .is_some());
    }

    #[test]
    fn concurrent_hammering_loses_nothing() {
        let c = Arc::new(StoreCounters::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000 {
                    c.load(i + 1);
                    c.evict(2);
                }
            }));
        }
        for h in handles {
            h.join().expect("no panics");
        }
        let s = c.snapshot();
        assert_eq!(s.loads, 8_000);
        assert_eq!(s.load_ns.count(), 8_000);
        assert_eq!(s.evicted_bytes, 16_000);
    }
}
