//! Streaming-ingest telemetry: WAL appends, acks, backpressure,
//! compaction, and recovery.
//!
//! The durability contract (DESIGN.md §12) is only auditable if every
//! step of it is counted: a point is *acked* exactly once its WAL
//! record reaches the configured durability device, so `acks` versus
//! `rejected_*` is the ingest success ledger, `wal_bytes` tracks how
//! much history a crash would replay, and `replayed_records` after a
//! boot says the recovery path actually ran. Same construction as the
//! other serving counters ([`crate::serve`]): lock-free monotone
//! atomics for the hot path, mutex-guarded [`LogHistogram`]s for the
//! per-request ack latency and the rarer compaction/replay wall times.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hist::LogHistogram;
use crate::registry::{counter_block, Family, Summary, Unit};

/// `op=` members: durable WAL records by operation.
const RECORDS: Family = Family::counter(
    "kdv_ingest_records_total",
    "Durable WAL records written, by operation.",
)
.label("op");

/// `op=` members: points carried by those records.
const POINTS: Family = Family::counter(
    "kdv_ingest_points_total",
    "Points carried by durable WAL records, by operation.",
)
.label("op");

/// `reason=` members: requests refused before any WAL write (`413`
/// over the body cap, `429` memtable backpressure).
const REJECTIONS: Family = Family::counter(
    "kdv_ingest_rejections_total",
    "Ingest requests refused before any WAL write.",
)
.label("reason");

counter_block! {
    /// Telemetry for the WAL + memtable ingest pipeline.
    pub struct IngestCounters;
    /// One reading of [`IngestCounters`], histograms included; fields
    /// are the rows of [`INGEST`].
    pub struct IngestSnapshot;
    /// The `ingest` block.
    pub static INGEST = "ingest" {
        appends: AtomicU64 = RECORDS.member("append"),
        append_points: AtomicU64 = POINTS.member("append"),
        tombstones: AtomicU64 = RECORDS.member("tombstone"),
        tombstone_points: AtomicU64 = POINTS.member("tombstone"),
        acks: AtomicU64 = Family::counter("kdv_ingest_acks_total",
            "Writes acknowledged after reaching the durability point."),
        rejected_too_large: AtomicU64 = REJECTIONS.member("too_large"),
        rejected_backpressure: AtomicU64 = REJECTIONS.member("backpressure"),
        wal_bytes: AtomicU64 =
            Family::counter("kdv_ingest_wal_bytes_total", "WAL record bytes appended.")
                .unit(Unit::Bytes),
        fsyncs: AtomicU64 = Family::counter("kdv_ingest_fsyncs_total", "WAL fsync calls issued."),
        compactions: AtomicU64 = Family::counter("kdv_ingest_compactions_total",
            "Memtable-to-snapshot compactions completed."),
        compaction_failures: AtomicU64 = Family::counter("kdv_ingest_compaction_failures_total",
            "Compactions that failed and left the WAL intact."),
        replays: AtomicU64 = Family::counter("kdv_ingest_replays_total", "Boot-time WAL replays."),
        replayed_records: AtomicU64 = Family::counter("kdv_ingest_replayed_records_total",
            "Records recovered by WAL replays."),
        torn_tails: AtomicU64 = Family::counter("kdv_ingest_torn_tails_total",
            "Replays that truncated a torn WAL tail."),
        invalidated_tiles: AtomicU64 = Family::counter("kdv_ingest_invalidated_tiles_total",
            "Cached tiles dropped because a write could alter them."),
        ack_ns: Mutex<LogHistogram> = Family::histogram("kdv_ingest_ack_seconds",
            "Wall time from WAL append to durable ack.", Summary::Brief, Unit::Ns),
        compact_ns: Mutex<LogHistogram> = Family::histogram("kdv_ingest_compaction_seconds",
            "Wall time per compaction.", Summary::Brief, Unit::Ns),
        replay_ns: Mutex<LogHistogram> = Family::histogram("kdv_ingest_replay_seconds",
            "Wall time per boot-time WAL replay.", Summary::Brief, Unit::Ns),
    }
}

impl IngestCounters {
    /// Records one durably-acked append of `points` points whose ack
    /// took `ns` nanoseconds end to end.
    pub fn append(&self, points: u64, ns: u64) {
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.append_points.fetch_add(points, Ordering::Relaxed);
        self.ack(ns);
    }

    /// Records one durably-acked tombstone of `points` coordinates.
    pub fn tombstone(&self, points: u64, ns: u64) {
        self.tombstones.fetch_add(1, Ordering::Relaxed);
        self.tombstone_points.fetch_add(points, Ordering::Relaxed);
        self.ack(ns);
    }

    fn ack(&self, ns: u64) {
        self.acks.fetch_add(1, Ordering::Relaxed);
        self.ack_ns.lock().expect("histogram lock").record(ns);
    }

    /// Records a `413` (body too large).
    pub fn reject_too_large(&self) {
        self.rejected_too_large.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `429` (memtable backpressure).
    pub fn reject_backpressure(&self) {
        self.rejected_backpressure.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `bytes` of WAL record payload written.
    pub fn wal_written(&self, bytes: u64) {
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one fsync of the WAL file.
    pub fn fsync(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a completed compaction taking `ns` nanoseconds.
    pub fn compaction(&self, ns: u64) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.compact_ns.lock().expect("histogram lock").record(ns);
    }

    /// Records a failed compaction (WAL left intact).
    pub fn compaction_failure(&self) {
        self.compaction_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one boot-time replay that recovered `records` records,
    /// found (or not) a torn tail, and took `ns` nanoseconds.
    pub fn replay(&self, records: u64, torn: bool, ns: u64) {
        self.replays.fetch_add(1, Ordering::Relaxed);
        self.replayed_records.fetch_add(records, Ordering::Relaxed);
        if torn {
            self.torn_tails.fetch_add(1, Ordering::Relaxed);
        }
        self.replay_ns.lock().expect("histogram lock").record(ns);
    }

    /// Adds `tiles` cache entries invalidated by an ingest batch.
    pub fn invalidated(&self, tiles: u64) {
        self.invalidated_tiles.fetch_add(tiles, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = IngestCounters::default();
        c.append(3, 1_000);
        c.append(2, 2_000);
        c.tombstone(1, 500);
        c.reject_too_large();
        c.reject_backpressure();
        c.reject_backpressure();
        c.wal_written(128);
        c.fsync();
        c.compaction(5_000_000);
        c.compaction_failure();
        c.replay(7, true, 40_000);
        c.invalidated(12);
        let s = c.snapshot();
        assert_eq!(s.appends, 2);
        assert_eq!(s.append_points, 5);
        assert_eq!(s.tombstones, 1);
        assert_eq!(s.tombstone_points, 1);
        assert_eq!(s.acks, 3);
        assert_eq!(s.rejected_too_large, 1);
        assert_eq!(s.rejected_backpressure, 2);
        assert_eq!(s.wal_bytes, 128);
        assert_eq!(s.fsyncs, 1);
        assert_eq!(s.compactions, 1);
        assert_eq!(s.compaction_failures, 1);
        assert_eq!(s.replays, 1);
        assert_eq!(s.replayed_records, 7);
        assert_eq!(s.torn_tails, 1);
        assert_eq!(s.invalidated_tiles, 12);
        assert_eq!(s.ack_ns.count(), 3);
        assert_eq!(s.compact_ns.count(), 1);
        assert_eq!(s.replay_ns.count(), 1);
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let c = IngestCounters::default();
        c.append(4, 900);
        c.replay(2, false, 100);
        let doc = INGEST.json(&c.snapshot());
        let back = crate::json::parse(&doc.render()).expect("parses");
        assert_eq!(back.get("appends").and_then(Value::as_f64), Some(1.0));
        assert_eq!(back.get("append_points").and_then(Value::as_f64), Some(4.0));
        assert_eq!(back.get("torn_tails").and_then(Value::as_f64), Some(0.0));
        assert!(back
            .get("ack_ns")
            .and_then(|h| h.get("p99_le"))
            .and_then(Value::as_f64)
            .is_some());
    }

    #[test]
    fn concurrent_hammering_loses_nothing() {
        let c = Arc::new(IngestCounters::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000 {
                    c.append(2, i + 1);
                    c.wal_written(10);
                }
            }));
        }
        for h in handles {
            h.join().expect("no panics");
        }
        let s = c.snapshot();
        assert_eq!(s.appends, 8_000);
        assert_eq!(s.append_points, 16_000);
        assert_eq!(s.wal_bytes, 80_000);
        assert_eq!(s.ack_ns.count(), 8_000);
    }
}
