//! Aggregated observability: the router's own `/metrics` endpoint.
//!
//! Two formats, mirroring the shard server, both walks over the
//! [`kdv_telemetry::registry`] tables listed in [`metric_tables`]:
//!
//! * **JSON** (default) — schema `kdv-cluster-metrics/1`: router
//!   counters, one entry per shard (health + that shard's full
//!   `/metrics` document, fetched live), and a `rollup` section merging
//!   the fleet's `http`, `cache`, and `ingest` blocks so a dashboard
//!   needs one scrape, not N.
//! * **Prometheus** (`?format=prometheus`) — router counters plus
//!   per-shard up/in-flight gauges labelled `shard="N"`.
//!
//! The rollup merges by declared kind ([`registry::rollup`]): counters
//! and gauges sum, the cache `hit_rate` is recomputed from the summed
//! hits and misses (a mean of per-shard ratios would weight an idle
//! shard the same as a busy one), and histogram summaries take summed
//! counts, count-weighted means and the max of the quantile bounds.

use std::sync::Arc;
use std::time::Instant;

use kdv_server::cache::OCCUPANCY;
use kdv_server::http::Response;
use kdv_telemetry::json::{self, Value};
use kdv_telemetry::registry::{self, CLUSTER_SCHEMA};
use kdv_telemetry::{Declared, Family, PromWriter, Reading, Unit, CACHE, HTTP, INGEST, ROUTER};

use crate::health::ShardSlot;
use crate::proxy::{fetch, RouterInner};

kdv_telemetry::metric_table! {
    /// Top-level `uptime_ms`.
    static UPTIME: Instant = "" {
        "uptime_ms": Family::gauge("kdv_router_uptime_seconds", "Router uptime.").unit(Unit::Ms)
            => |t| Reading::U(t.elapsed().as_millis() as u64),
    }
}

kdv_telemetry::metric_table! {
    /// Health and load of each entry in `shards`.
    static SHARD: ShardSlot = "shards[]" {
        "up": Family::gauge("kdv_router_shard_up", "Shard liveness (1 = up).").label("shard")
            => |s| Reading::Flag(s.is_up()),
        "inflight": Family::gauge("kdv_router_shard_inflight",
            "In-flight proxied requests per shard.").label("shard")
            => |s| Reading::U(s.inflight() as u64),
    }
}

/// Every table of the router's own `/metrics` rows, in document order
/// (the rollup reuses the shard tables).
pub fn metric_tables() -> [&'static dyn Declared; 3] {
    [&UPTIME, &ROUTER, &SHARD]
}

/// Serves `GET /metrics` (and `?format=prometheus`) on the router.
pub(crate) fn respond(inner: &Arc<RouterInner>, query: Option<&str>) -> Response {
    if query == Some("format=prometheus") {
        Response::new(200, "OK").body(
            "text/plain; version=0.0.4; charset=utf-8",
            prometheus(inner).into_bytes(),
        )
    } else {
        Response::new(200, "OK").body(
            "application/json",
            metrics_json(inner).render().into_bytes(),
        )
    }
}

/// Pulls one shard's `/metrics` JSON, bypassing admission control —
/// observability must work on a saturated fleet.
fn shard_metrics(inner: &RouterInner, index: usize) -> Value {
    let slot = &inner.shards[index];
    let bytes = b"GET /metrics HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
    match fetch(inner, slot, bytes, true) {
        Some(upstream) if upstream.status == 200 => std::str::from_utf8(&upstream.body)
            .ok()
            .and_then(|text| json::parse(text).ok())
            .unwrap_or(Value::Null),
        _ => Value::Null,
    }
}

/// The merged document (schema `kdv-cluster-metrics/1`).
pub(crate) fn metrics_json(inner: &Arc<RouterInner>) -> Value {
    let docs: Vec<Value> = (0..inner.shards.len())
        .map(|i| shard_metrics(inner, i))
        .collect();
    let shards: Vec<Value> = inner
        .shards
        .iter()
        .zip(&docs)
        .map(|(slot, doc)| {
            let mut fields = vec![
                ("id".to_string(), json::num_u(slot.index as u64)),
                ("addr".to_string(), Value::Str(slot.addr())),
            ];
            fields.extend(SHARD.json_fields(slot));
            fields.push(("metrics".to_string(), doc.clone()));
            Value::Obj(fields)
        })
        .collect();
    let mut doc = vec![("schema".to_string(), Value::Str(CLUSTER_SCHEMA.to_string()))];
    doc.extend(UPTIME.json_fields(&inner.started));
    doc.push((
        "router".to_string(),
        ROUTER.json(&inner.counters.snapshot()),
    ));
    doc.push(("shards".to_string(), Value::Arr(shards)));
    doc.push(("rollup".to_string(), rollup(&docs)));
    Value::Obj(doc)
}

/// Merges the reachable shards' `http` / `cache` / `ingest` blocks.
fn rollup(docs: &[Value]) -> Value {
    let section = |tables: &[&dyn Declared]| {
        let parts: Vec<&Value> = docs
            .iter()
            .filter_map(|d| d.get(tables[0].block()))
            .collect();
        registry::rollup(tables, &parts)
    };
    let reporting = docs.iter().filter(|d| !matches!(d, Value::Null)).count();
    Value::obj(vec![
        ("shards_reporting", json::num_u(reporting as u64)),
        ("http", section(&[&HTTP])),
        ("cache", section(&[&CACHE, &OCCUPANCY])),
        ("ingest", section(&[&INGEST])),
    ])
}

/// Router counters and shard gauges in text exposition 0.0.4.
fn prometheus(inner: &Arc<RouterInner>) -> String {
    let mut w = PromWriter::new();
    w.add(&UPTIME, &inner.started);
    w.add(&ROUTER, &inner.counters.snapshot());
    for slot in &inner.shards {
        w.add_instance(&SHARD, slot, &slot.index.to_string());
    }
    w.finish()
}
