//! Cluster-tier telemetry: the router's own traffic counters.
//!
//! The cluster router fronts N shard processes, each already exporting
//! a `kdv-serve-metrics` JSON document; the fleet view merges those
//! with [`crate::registry::rollup`]. [`RouterCounters`] adds what only
//! the router sees — admission sheds, failovers, upstream errors — in
//! the same `AtomicU64`-bundle shape as [`crate::serve::HttpCounters`]
//! so the scrape path never takes a lock.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::registry::{counter_block, Family, Unit};

counter_block! {
    /// Lock-free router traffic counters, bumped by every proxy worker.
    pub struct RouterCounters;
    /// One reading of [`RouterCounters`]; fields are the rows of
    /// [`ROUTER`].
    pub struct RouterSnapshot;
    /// The `router` block. `proxied` counts every upstream attempt,
    /// retries and failovers included, so it can exceed `requests`;
    /// `retries` are same-shard retries after a stale pooled connection
    /// died under a request, while `failovers` are requests the fallback
    /// shard answered after the owner failed (`X-Kdv-Failover`).
    pub static ROUTER = "router" {
        requests: AtomicU64 = Family::counter("kdv_router_requests_total",
            "Client requests accepted by the router."),
        proxied: AtomicU64 =
            Family::counter("kdv_router_proxied_total", "Upstream exchange attempts."),
        retries: AtomicU64 =
            Family::counter("kdv_router_retries_total", "Stale pooled-connection retries."),
        failovers: AtomicU64 = Family::counter("kdv_router_failovers_total",
            "Requests answered by a non-owner shard."),
        shed: AtomicU64 = Family::counter("kdv_router_shed_total",
            "Requests shed with 429 (queue or in-flight cap)."),
        upstream_errors: AtomicU64 =
            Family::counter("kdv_router_upstream_errors_total", "Failed upstream exchanges."),
        no_upstream: AtomicU64 = Family::counter("kdv_router_no_upstream_total",
            "Requests that exhausted every candidate shard."),
        bytes_sent: AtomicU64 = Family::counter("kdv_router_sent_bytes_total",
            "Response body bytes returned to clients.").unit(Unit::Bytes),
    }
}

impl RouterCounters {
    /// Records a routed client request.
    pub fn request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one upstream attempt.
    pub fn proxied(&self) {
        self.proxied.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a same-shard stale-connection retry.
    pub fn retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request answered by the fallback shard.
    pub fn failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `429` admission shed.
    pub fn shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a failed upstream attempt.
    pub fn upstream_error(&self) {
        self.upstream_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request no shard could answer.
    pub fn no_upstream(&self) {
        self.no_upstream.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds response body bytes.
    pub fn sent(&self, bytes: u64) {
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::sync::Arc;

    #[test]
    fn router_counters_accumulate_and_export_json() {
        let c = RouterCounters::default();
        c.request();
        c.request();
        c.proxied();
        c.proxied();
        c.proxied();
        c.retry();
        c.failover();
        c.shed();
        c.upstream_error();
        c.no_upstream();
        c.sent(512);
        let s = c.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.proxied, 3);
        assert_eq!(s.retries, 1);
        assert_eq!(s.failovers, 1);
        assert_eq!(s.shed, 1);
        assert_eq!(s.upstream_errors, 1);
        assert_eq!(s.no_upstream, 1);
        assert_eq!(s.bytes_sent, 512);

        let doc = ROUTER.json(&s);
        let back = json::parse(&doc.render()).expect("parses");
        assert_eq!(back.get("proxied").and_then(Value::as_f64), Some(3.0));
        assert_eq!(back.get("failovers").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn router_counters_survive_concurrent_hammering() {
        let c = Arc::new(RouterCounters::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.request();
                    c.proxied();
                    c.sent(2);
                }
            }));
        }
        for h in handles {
            h.join().expect("no panics");
        }
        let s = c.snapshot();
        assert_eq!(s.requests, 40_000);
        assert_eq!(s.proxied, 40_000);
        assert_eq!(s.bytes_sent, 80_000);
    }
}
