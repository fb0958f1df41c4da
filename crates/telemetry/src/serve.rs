//! Serving-side counters: tile-cache and HTTP traffic telemetry.
//!
//! The render-side aggregates in [`crate::metrics`] are single-writer
//! by design (one render thread, or per-thread siblings merged in band
//! order). A long-running tile server is different: many worker
//! threads bump the same counters concurrently and a scrape
//! (`GET /metrics`) must read them without stopping the world. Both
//! counter blocks here are plain `AtomicU64` bundles — lock-free,
//! monotone, and `snapshot()`-able into ordinary structs whose
//! [`crate::registry`] tables feed both `/metrics` formats.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::registry::{counter_block, ratio, Family, Kind, Reading, Unit};

counter_block! {
    /// Lock-free tile-cache counters (hits, misses, insertions,
    /// evictions).
    ///
    /// Byte-level *occupancy* lives in the cache itself (it needs the
    /// eviction lock anyway); everything monotone lives here so the hot
    /// read path never takes a lock just to count.
    pub struct CacheCounters;
    /// One consistent-enough reading of [`CacheCounters`] (each field is
    /// atomically read; the set is not a single atomic snapshot, which is
    /// fine for monotone counters). Fields are the rows of [`CACHE`].
    pub struct CacheSnapshot;
    /// The `cache` block's counters (the serving cache appends its
    /// occupancy gauges).
    pub static CACHE = "cache" {
        hits: AtomicU64 = Family::counter("kdv_cache_hits_total", "Tile-cache hits."),
        misses: AtomicU64 = Family::counter("kdv_cache_misses_total", "Tile-cache misses."),
        hit_rate = Family::json_only(Kind::Ratio { num: "hits", rest: "misses" })
            => |s| Reading::F(s.hit_rate()),
        insertions: AtomicU64 =
            Family::counter("kdv_cache_insertions_total", "Tiles inserted into the cache."),
        evictions: AtomicU64 =
            Family::counter("kdv_cache_evictions_total", "Tiles evicted to make room."),
        evicted_bytes: AtomicU64 =
            Family::counter("kdv_cache_evicted_bytes_total", "Payload bytes evicted.")
                .unit(Unit::Bytes),
    }
}

impl CacheCounters {
    /// Records a cache hit.
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cache miss.
    pub fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an insertion.
    pub fn insert(&self) {
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one eviction of a `bytes`-sized payload.
    pub fn evict(&self, bytes: u64) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        self.evicted_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

impl CacheSnapshot {
    /// Hit fraction over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits as f64, self.misses as f64)
    }
}

/// `class=` members of the HTTP response family.
const RESPONSES: Family =
    Family::counter("kdv_http_responses_total", "Responses by outcome class.").label("class");

counter_block! {
    /// Lock-free HTTP traffic counters, bumped by every worker thread.
    pub struct HttpCounters;
    /// One reading of [`HttpCounters`]; fields are the rows of [`HTTP`].
    pub struct HttpSnapshot;
    /// The `http` block. `ok` counts every `200`, degraded ones
    /// included; `degraded` counts the `200`s whose tile holds
    /// budget-cut certified-midpoint pixels.
    pub static HTTP = "http" {
        requests: AtomicU64 =
            Family::counter("kdv_http_requests_total", "Requests that reached routing."),
        ok: AtomicU64 = RESPONSES.member("ok"),
        degraded: AtomicU64 = Family::counter("kdv_http_degraded_responses_total",
            "200 responses that carried the degraded marker."),
        bad_request: AtomicU64 = RESPONSES.member("bad_request"),
        not_found: AtomicU64 = RESPONSES.member("not_found"),
        rejected: AtomicU64 = RESPONSES.member("rejected"),
        internal_error: AtomicU64 = RESPONSES.member("internal_error"),
        bytes_sent: AtomicU64 =
            Family::counter("kdv_http_response_bytes_total", "Response body bytes written.")
                .unit(Unit::Bytes),
    }
}

impl HttpCounters {
    /// Records a routed request.
    pub fn request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `200`; `degraded` marks a budget-degraded tile.
    pub fn ok(&self, degraded: bool) {
        self.ok.fetch_add(1, Ordering::Relaxed);
        if degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a `400`.
    pub fn bad_request(&self) {
        self.bad_request.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `404`.
    pub fn not_found(&self) {
        self.not_found.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `429` admission rejection.
    pub fn rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `500`.
    pub fn internal_error(&self) {
        self.internal_error.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds response body bytes.
    pub fn sent(&self, bytes: u64) {
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use std::sync::Arc;

    #[test]
    fn cache_counters_accumulate_and_snapshot() {
        let c = CacheCounters::default();
        c.hit();
        c.hit();
        c.miss();
        c.insert();
        c.evict(100);
        c.evict(50);
        let s = c.snapshot();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.insertions, 1);
        assert_eq!(s.evictions, 2);
        assert_eq!(s.evicted_bytes, 150);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(CacheSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn http_counters_accumulate_and_export_json() {
        let c = HttpCounters::default();
        c.request();
        c.request();
        c.ok(false);
        c.ok(true);
        c.bad_request();
        c.rejected();
        c.sent(1024);
        let s = c.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.ok, 2);
        assert_eq!(s.degraded, 1);
        assert_eq!(s.bad_request, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.bytes_sent, 1024);

        let doc = HTTP.json(&s);
        let back = crate::json::parse(&doc.render()).expect("parses");
        assert_eq!(back.get("ok").and_then(Value::as_f64), Some(2.0));
        assert_eq!(back.get("degraded").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn counters_survive_concurrent_hammering() {
        let c = Arc::new(CacheCounters::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.hit();
                    c.miss();
                    c.evict(3);
                }
            }));
        }
        for h in handles {
            h.join().expect("no panics");
        }
        let s = c.snapshot();
        assert_eq!(s.hits, 40_000);
        assert_eq!(s.misses, 40_000);
        assert_eq!(s.evicted_bytes, 120_000);
    }
}
