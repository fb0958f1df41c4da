//! Observability end-to-end: request traces with the full span
//! taxonomy, slow-trace retention, the JSON-lines access log, the
//! pinned `/metrics` schema, and Prometheus exposition — all through a
//! real server on a real socket.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use kdv_core::bandwidth::scott_gamma;
use kdv_core::kernel::Kernel;
use kdv_data::Dataset;
use kdv_geom::PointSet;
use kdv_server::{ServerConfig, TileServer, STAGES};
use kdv_telemetry::json::{self, Value};

/// One blocking GET; returns (status, headers, body).
fn get(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: kdv\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head");
    let head = std::str::from_utf8(&raw[..split]).expect("head is UTF-8");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .expect("status line")
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers = lines
        .map(|l| {
            let (name, value) = l.split_once(':').expect("header");
            (name.trim().to_ascii_lowercase(), value.trim().to_string())
        })
        .collect();
    (status, headers, raw[split + 4..].to_vec())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == &name.to_ascii_lowercase())
        .map(|(_, v)| v.as_str())
}

fn fixture() -> (PointSet, Kernel) {
    let mut points = Dataset::Crime.generate(1500, 7);
    points.scale_weights(1.0 / points.len() as f64);
    let kernel = Kernel::gaussian(scott_gamma(&points).gamma);
    (points, kernel)
}

fn config() -> ServerConfig {
    ServerConfig {
        tile_size: 32,
        max_z: 3,
        eps: 0.2,
        tau: 1e-3,
        workers: 2,
        queue: 32,
        allow_shutdown: true,
        ..ServerConfig::default()
    }
}

fn json_body(body: &[u8]) -> Value {
    json::parse(std::str::from_utf8(body).expect("utf8")).expect("valid JSON")
}

/// Polls `/debug/traces` until a trace with `id` appears (the worker
/// pushes the trace just after writing the response, so an immediate
/// read can race it).
fn find_trace(addr: SocketAddr, id: &str) -> Value {
    for _ in 0..50 {
        let (status, _, body) = get(addr, "/debug/traces");
        assert_eq!(status, 200);
        let doc = json_body(&body);
        let traces = doc.get("traces").and_then(Value::as_arr).expect("traces");
        if let Some(t) = traces
            .iter()
            .find(|t| t.get("id").and_then(Value::as_str) == Some(id))
        {
            return t.clone();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("trace {id} never appeared in /debug/traces");
}

fn span_names(trace: &Value) -> Vec<String> {
    trace
        .get("spans")
        .and_then(Value::as_arr)
        .expect("spans")
        .iter()
        .map(|s| {
            s.get("name")
                .and_then(Value::as_str)
                .expect("span name")
                .to_string()
        })
        .collect()
}

fn span<'a>(trace: &'a Value, name: &str) -> Option<&'a Value> {
    trace
        .get("spans")
        .and_then(Value::as_arr)
        .expect("spans")
        .iter()
        .find(|s| s.get("name").and_then(Value::as_str) == Some(name))
}

#[test]
fn cold_tile_trace_covers_the_whole_pipeline_with_work_attribution() {
    let (points, kernel) = fixture();
    let server = TileServer::start(config(), &points, kernel).expect("start");
    let addr = server.local_addr();

    let (status, headers, _) = get(addr, "/tiles/eps/1/0/1.png");
    assert_eq!(status, 200);
    let id = header(&headers, "X-Kdv-Trace-Id")
        .expect("trace header on tile response")
        .to_string();
    assert_eq!(id.len(), 16, "16-hex trace ID, got {id:?}");

    let trace = find_trace(addr, &id);
    assert_eq!(trace.get("method").and_then(Value::as_str), Some("GET"));
    assert_eq!(
        trace.get("path").and_then(Value::as_str),
        Some("/tiles/eps/1/0/1.png")
    );
    assert_eq!(trace.get("status").and_then(Value::as_f64), Some(200.0));
    assert_eq!(trace.get("cache").and_then(Value::as_str), Some("miss"));
    assert!(trace.get("bytes").and_then(Value::as_f64).expect("bytes") > 0.0);

    // The cold path shows every pipeline stage as a named span.
    let names = span_names(&trace);
    for expected in [
        "queue", "parse", "catalog", "cache", "render", "encode", "write",
    ] {
        assert!(
            names.contains(&expected.to_string()),
            "missing span {expected} in {names:?}"
        );
        assert!(
            STAGES.contains(&expected),
            "span {expected} outside the taxonomy"
        );
    }
    assert!(
        names.len() >= 6,
        "cold tile should have ≥6 spans: {names:?}"
    );

    // The render span attributes the refinement work.
    let render = span(&trace, "render").expect("render span");
    let tags = render.get("tags").expect("render tags");
    assert!(
        tags.get("heap_pops")
            .and_then(Value::as_f64)
            .expect("heap_pops")
            > 0.0,
        "a cold ε tile visits nodes"
    );
    assert!(
        tags.get("node_bounds")
            .and_then(Value::as_f64)
            .expect("node_bounds")
            > 0.0
    );
    assert!(tags.get("point_evals").and_then(Value::as_f64).is_some());
    assert!(tags.get("resyncs").and_then(Value::as_f64).is_some());
    let depth = tags
        .get("depth_pops")
        .and_then(Value::as_arr)
        .expect("depth profile pairs");
    assert!(!depth.is_empty(), "pops attributed to kd-tree depths");
    let pops_by_depth: f64 = depth
        .iter()
        .map(|pair| pair.as_arr().expect("pair")[1].as_f64().expect("count"))
        .sum();
    assert_eq!(
        Some(pops_by_depth),
        tags.get("heap_pops").and_then(Value::as_f64),
        "depth profile accounts for every heap pop"
    );

    // The encode and write spans carry byte annotations.
    let encode = span(&trace, "encode").expect("encode span");
    assert!(
        encode
            .get("tags")
            .and_then(|t| t.get("bytes"))
            .and_then(Value::as_f64)
            .expect("encode bytes")
            > 0.0
    );

    // A repeat fetch is a hit: cache disposition flips, no render span.
    let (_, headers, _) = get(addr, "/tiles/eps/1/0/1.png");
    let hit_id = header(&headers, "X-Kdv-Trace-Id")
        .expect("hit trace id")
        .to_string();
    let hit = find_trace(addr, &hit_id);
    assert_eq!(hit.get("cache").and_then(Value::as_str), Some("hit"));
    let hit_names = span_names(&hit);
    assert!(!hit_names.contains(&"render".to_string()), "{hit_names:?}");
    assert!(!hit_names.contains(&"encode".to_string()), "{hit_names:?}");

    // Every response carries the trace header, tile or not.
    for path in ["/healthz", "/definitely/not/here", "/metrics"] {
        let (_, headers, _) = get(addr, path);
        assert!(
            header(&headers, "X-Kdv-Trace-Id").is_some(),
            "no trace header on {path}"
        );
    }

    server.stop();
}

#[test]
fn slow_traces_are_retained_preferentially() {
    let (points, kernel) = fixture();
    let mut cfg = config();
    cfg.slow_ms = 0; // every request crosses the threshold
    cfg.trace_ring = 4;
    let server = TileServer::start(cfg, &points, kernel).expect("start");
    let addr = server.local_addr();

    let (_, headers, _) = get(addr, "/tiles/eps/0/0/0.png");
    let id = header(&headers, "X-Kdv-Trace-Id").expect("id").to_string();
    find_trace(addr, &id);

    let (status, _, body) = get(addr, "/debug/slow");
    assert_eq!(status, 200);
    let doc = json_body(&body);
    assert_eq!(
        doc.get("slow_threshold_ms").and_then(Value::as_f64),
        Some(0.0)
    );
    let slow = doc.get("traces").and_then(Value::as_arr).expect("traces");
    assert!(
        slow.iter()
            .any(|t| t.get("id").and_then(Value::as_str) == Some(id.as_str())),
        "tile trace retained in the slow ring"
    );
    assert!(doc.get("slow_seen").and_then(Value::as_f64).expect("seen") >= 1.0);
    server.stop();
}

#[test]
fn no_trace_disables_the_whole_surface() {
    let (points, kernel) = fixture();
    let mut cfg = config();
    cfg.trace = false;
    let server = TileServer::start(cfg, &points, kernel).expect("start");
    let addr = server.local_addr();

    let (status, headers, _) = get(addr, "/tiles/eps/0/0/0.png");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Kdv-Trace-Id"), None);
    assert_eq!(get(addr, "/debug/traces").0, 404);
    assert_eq!(get(addr, "/debug/slow").0, 404);

    let (_, _, body) = get(addr, "/metrics");
    let trace = json_body(&body).get("trace").expect("trace block").clone();
    assert_eq!(trace.get("enabled"), Some(&Value::Bool(false)));
    server.stop();
}

#[test]
fn access_log_writes_one_json_line_per_request() {
    let (points, kernel) = fixture();
    let log_path = std::env::temp_dir().join(format!("kdv-access-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let mut cfg = config();
    cfg.access_log = Some(log_path.display().to_string());
    let server = TileServer::start(cfg, &points, kernel).expect("start");
    let addr = server.local_addr();

    let (_, headers, _) = get(addr, "/tiles/eps/0/0/0.png");
    let id = header(&headers, "X-Kdv-Trace-Id").expect("id").to_string();
    find_trace(addr, &id); // the log line is written before the ring push
    let (_, _, _) = get(addr, "/healthz");

    let mut lines = Vec::new();
    for _ in 0..50 {
        let text = std::fs::read_to_string(&log_path).unwrap_or_default();
        lines = text.lines().map(str::to_string).collect();
        if lines.len() >= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        lines.len() >= 2,
        "expected ≥2 access-log lines, got {lines:?}"
    );

    let tile_line = lines
        .iter()
        .map(|l| json::parse(l).expect("access-log line parses as JSON"))
        .find(|doc| doc.get("trace_id").and_then(Value::as_str) == Some(id.as_str()))
        .expect("tile request logged with its trace ID");
    assert_eq!(tile_line.get("method").and_then(Value::as_str), Some("GET"));
    assert_eq!(
        tile_line.get("path").and_then(Value::as_str),
        Some("/tiles/eps/0/0/0.png")
    );
    assert_eq!(tile_line.get("status").and_then(Value::as_f64), Some(200.0));
    assert_eq!(tile_line.get("cache").and_then(Value::as_str), Some("miss"));
    assert!(tile_line.get("ts_ms").and_then(Value::as_f64).expect("ts") > 0.0);
    assert!(tile_line.get("total_us").and_then(Value::as_f64).is_some());
    let stages = tile_line.get("stages_us").expect("per-stage micros");
    for stage in ["queue", "render", "encode", "write"] {
        assert!(
            stages.get(stage).and_then(Value::as_f64).is_some(),
            "stage {stage} missing from {stages:?}"
        );
    }

    server.stop();
    std::fs::remove_file(&log_path).ok();
}

/// Every object key path in `v` (dotted, depth-first, document order);
/// arrays are leaves.
fn key_tree(v: &Value) -> Vec<String> {
    fn walk(v: &Value, prefix: &str, out: &mut Vec<String>) {
        if let Value::Obj(fields) = v {
            for (k, child) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                out.push(path.clone());
                walk(child, &path, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(v, "", &mut out);
    out
}

/// The `/metrics` key tree for a traced single-dataset server after
/// one cold tile, one key path per line.
const METRICS_KEY_TREE: &str = "\
schema
uptime_ms
startup
startup.total_ms
startup.data_load_ms
startup.index_ms
startup.warm_ms
startup.source
http
http.requests
http.ok
http.degraded
http.bad_request
http.not_found
http.rejected
http.internal_error
http.bytes_sent
cache
cache.hits
cache.misses
cache.hit_rate
cache.insertions
cache.evictions
cache.evicted_bytes
cache.bytes_used
cache.entries
render
render.schema
render.query
render.pixels
render.wall_ms
render.threads
render.status
render.degraded_pixels
render.band_retries
render.counters
render.counters.heap_pops
render.counters.node_bounds
render.counters.leaf_scans
render.counters.point_evals
render.counters.resyncs
render.counters.total_work
render.counters.frontier_reuse
render.counters.simd_lanes
render.iterations
render.iterations.count
render.iterations.sum
render.iterations.max
render.iterations.mean
render.iterations.p50_le
render.iterations.p99_le
render.iterations.buckets
render.latency_ns
render.latency_ns.count
render.latency_ns.sum
render.latency_ns.max
render.latency_ns.mean
render.latency_ns.p50_le
render.latency_ns.p99_le
render.latency_ns.buckets
render.checkpoints
render.cost_map
store
store.loads
store.builds
store.load_failures
store.checksum_failures
store.evictions
store.evicted_bytes
store.load_ns
store.load_ns.count
store.load_ns.mean
store.load_ns.p50_le
store.load_ns.p99_le
store.load_ns.max
store.build_ns
store.build_ns.count
store.build_ns.mean
store.build_ns.p50_le
store.build_ns.p99_le
store.build_ns.max
store.catalog
ingest
ingest.appends
ingest.append_points
ingest.tombstones
ingest.tombstone_points
ingest.acks
ingest.rejected_too_large
ingest.rejected_backpressure
ingest.wal_bytes
ingest.fsyncs
ingest.compactions
ingest.compaction_failures
ingest.replays
ingest.replayed_records
ingest.torn_tails
ingest.invalidated_tiles
ingest.ack_ns
ingest.ack_ns.count
ingest.ack_ns.mean
ingest.ack_ns.p50_le
ingest.ack_ns.p99_le
ingest.ack_ns.max
ingest.compact_ns
ingest.compact_ns.count
ingest.compact_ns.mean
ingest.compact_ns.p50_le
ingest.compact_ns.p99_le
ingest.compact_ns.max
ingest.replay_ns
ingest.replay_ns.count
ingest.replay_ns.mean
ingest.replay_ns.p50_le
ingest.replay_ns.p99_le
ingest.replay_ns.max
pyramid
pyramid.level_renders
pyramid.pyramid_renders
pyramid.full_renders
trace
trace.enabled
trace.slow_threshold_ms
trace.completed
trace.slow_seen
trace.stages
trace.stages.queue
trace.stages.queue.count
trace.stages.queue.mean_us
trace.stages.queue.p50_le_us
trace.stages.queue.p99_le_us
trace.stages.queue.max_us
trace.stages.parse
trace.stages.parse.count
trace.stages.parse.mean_us
trace.stages.parse.p50_le_us
trace.stages.parse.p99_le_us
trace.stages.parse.max_us
trace.stages.cache
trace.stages.cache.count
trace.stages.cache.mean_us
trace.stages.cache.p50_le_us
trace.stages.cache.p99_le_us
trace.stages.cache.max_us
trace.stages.catalog
trace.stages.catalog.count
trace.stages.catalog.mean_us
trace.stages.catalog.p50_le_us
trace.stages.catalog.p99_le_us
trace.stages.catalog.max_us
trace.stages.ingest
trace.stages.ingest.count
trace.stages.ingest.mean_us
trace.stages.ingest.p50_le_us
trace.stages.ingest.p99_le_us
trace.stages.ingest.max_us
trace.stages.render
trace.stages.render.count
trace.stages.render.mean_us
trace.stages.render.p50_le_us
trace.stages.render.p99_le_us
trace.stages.render.max_us
trace.stages.encode
trace.stages.encode.count
trace.stages.encode.mean_us
trace.stages.encode.p50_le_us
trace.stages.encode.p99_le_us
trace.stages.encode.max_us
trace.stages.write
trace.stages.write.count
trace.stages.write.mean_us
trace.stages.write.p50_le_us
trace.stages.write.p99_le_us
trace.stages.write.max_us
trace.stages.total
trace.stages.total.count
trace.stages.total.mean_us
trace.stages.total.p50_le_us
trace.stages.total.p99_le_us
trace.stages.total.max_us";

/// Golden schema test: the exact key tree of the JSON `/metrics`
/// document, nested blocks and histogram summaries included. Adding a
/// key is a conscious schema bump; losing or reordering one is a
/// regression dashboards would discover the hard way.
#[test]
fn metrics_json_key_set_is_pinned() {
    let (points, kernel) = fixture();
    let server = TileServer::start(config(), &points, kernel).expect("start");
    let addr = server.local_addr();
    let (_, _, _) = get(addr, "/tiles/eps/0/0/0.png");
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let doc = json_body(&body);
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("kdv-serve-metrics/7")
    );
    let tree = key_tree(&doc).join("\n");
    assert!(
        tree == METRICS_KEY_TREE,
        "/metrics key tree changed; the whole tree is now:\n{tree}"
    );
    // The stage summaries follow the server's stage list.
    let stages = doc
        .get("trace")
        .and_then(|t| t.get("stages"))
        .expect("stages");
    let mut expected_stages: Vec<String> = STAGES.iter().map(|s| s.to_string()).collect();
    expected_stages.push("total".to_string());
    match stages {
        Value::Obj(fields) => assert_eq!(
            fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            expected_stages
        ),
        other => panic!("expected object, got {other:?}"),
    }
    server.stop();
}

/// Minimal Prometheus exposition lint, shared shape with the CI
/// obs-smoke job: `# TYPE` precedes its samples, no family twice,
/// every sample parses, histogram `le` edges are sorted cumulative.
fn prom_lint(text: &str) {
    let mut typed: Vec<String> = Vec::new();
    let mut last_bucket: Option<(String, f64, f64)> = None; // (metric+labels, le, cum)
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().expect("type name").to_string();
            assert!(!typed.contains(&name), "duplicate metric family {name}");
            typed.push(name);
        } else if !line.starts_with('#') && !line.is_empty() {
            let name_part = line.split([' ', '{']).next().expect("name").to_string();
            let known = typed.iter().any(|t| {
                name_part == *t
                    || name_part == format!("{t}_bucket")
                    || name_part == format!("{t}_sum")
                    || name_part == format!("{t}_count")
            });
            assert!(known, "sample {name_part} appears before its # TYPE header");
            let value: f64 = line
                .rsplit(' ')
                .next()
                .expect("value")
                .parse()
                .expect("numeric sample value");
            if name_part.ends_with("_bucket") {
                let series = line
                    .split("le=\"")
                    .next()
                    .expect("series prefix")
                    .to_string();
                let le_raw = line
                    .split("le=\"")
                    .nth(1)
                    .and_then(|r| r.split('"').next())
                    .expect("le edge");
                let le = if le_raw == "+Inf" {
                    f64::INFINITY
                } else {
                    le_raw.parse().expect("numeric le")
                };
                if let Some((prev_series, prev_le, prev_cum)) = &last_bucket {
                    if *prev_series == series {
                        assert!(le > *prev_le, "le edges not increasing in {line}");
                        assert!(value >= *prev_cum, "bucket counts not cumulative in {line}");
                    }
                }
                last_bucket = Some((series, le, value));
            } else {
                last_bucket = None;
            }
        }
    }
    assert!(!typed.is_empty(), "no metric families emitted");
}

#[test]
fn prometheus_exposition_is_lint_clean_and_unit_scaled() {
    let (points, kernel) = fixture();
    let server = TileServer::start(config(), &points, kernel).expect("start");
    let addr = server.local_addr();
    let (_, _, _) = get(addr, "/tiles/eps/0/0/0.png");
    let (_, _, _) = get(addr, "/tiles/eps/0/0/0.png"); // one hit

    let (status, headers, body) = get(addr, "/metrics?format=prometheus");
    assert_eq!(status, 200);
    assert!(header(&headers, "Content-Type")
        .expect("content type")
        .starts_with("text/plain"));
    let text = std::str::from_utf8(&body).expect("utf8");
    prom_lint(text);

    for family in [
        "kdv_uptime_seconds",
        "kdv_http_requests_total",
        "kdv_http_responses_total",
        "kdv_http_response_bytes_total",
        "kdv_cache_hits_total",
        "kdv_cache_misses_total",
        "kdv_cache_bytes_used",
        "kdv_store_loads_total",
        "kdv_render_pixels_total",
        "kdv_render_heap_pops_total",
        "kdv_render_pixel_seconds",
        "kdv_stage_duration_seconds",
        "kdv_request_duration_seconds",
        "kdv_traces_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "family {family} missing from exposition"
        );
    }
    assert!(text.contains("kdv_http_responses_total{class=\"ok\"}"));
    assert!(text.contains("kdv_stage_duration_seconds_bucket{stage=\"render\","));
    assert!(text.contains("kdv_cache_hits_total 1"));

    // The JSON document and the exposition agree on a counter.
    let (_, _, body) = get(addr, "/metrics");
    let requests = json_body(&body)
        .get("http")
        .and_then(|h| h.get("requests"))
        .and_then(Value::as_f64)
        .expect("requests");
    let sample: f64 = text
        .lines()
        .find(|l| l.starts_with("kdv_http_requests_total "))
        .expect("requests sample")
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    // The JSON scrape itself is one more routed request than the
    // Prometheus scrape observed.
    assert!(
        requests >= sample,
        "JSON ({requests}) behind text ({sample})"
    );

    server.stop();
}

/// One line per exposition family — `name TYPE {label keys} HELP` —
/// sorted by name, so the golden pins every series' identity but not
/// the order families are written in.
fn prom_families(text: &str) -> String {
    let mut families: Vec<(String, String, Vec<String>, String)> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("help text");
            families.push((name.into(), String::new(), Vec::new(), help.into()));
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (_, kind) = rest.split_once(' ').expect("type");
            families.last_mut().expect("HELP before TYPE").1 = kind.into();
        } else if let Some((_, labels)) = line.split_once('{') {
            let labels = labels.split('}').next().expect("label set");
            let family = families.last_mut().expect("samples after headers");
            for pair in labels.split(',') {
                let key = pair.split('=').next().expect("label key").to_string();
                if key != "le" && !family.2.contains(&key) {
                    family.2.push(key);
                }
            }
        }
    }
    families.sort();
    families
        .iter()
        .map(|(name, kind, labels, help)| format!("{name} {kind} {{{}}} {help}", labels.join(",")))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every family a traced shard exposes after one cold tile.
const SHARD_FAMILIES: &str = "\
kdv_cache_bytes_used gauge {} Payload bytes resident in the tile cache.
kdv_cache_entries gauge {} Tiles resident in the cache.
kdv_cache_evicted_bytes_total counter {} Payload bytes evicted.
kdv_cache_evictions_total counter {} Tiles evicted to make room.
kdv_cache_hits_total counter {} Tile-cache hits.
kdv_cache_insertions_total counter {} Tiles inserted into the cache.
kdv_cache_misses_total counter {} Tile-cache misses.
kdv_http_degraded_responses_total counter {} 200 responses that carried the degraded marker.
kdv_http_requests_total counter {} Requests that reached routing.
kdv_http_response_bytes_total counter {} Response body bytes written.
kdv_http_responses_total counter {class} Responses by outcome class.
kdv_ingest_ack_seconds histogram {} Wall time from WAL append to durable ack.
kdv_ingest_acks_total counter {} Writes acknowledged after reaching the durability point.
kdv_ingest_compaction_failures_total counter {} Compactions that failed and left the WAL intact.
kdv_ingest_compaction_seconds histogram {} Wall time per compaction.
kdv_ingest_compactions_total counter {} Memtable-to-snapshot compactions completed.
kdv_ingest_fsyncs_total counter {} WAL fsync calls issued.
kdv_ingest_invalidated_tiles_total counter {} Cached tiles dropped because a write could alter them.
kdv_ingest_points_total counter {op} Points carried by durable WAL records, by operation.
kdv_ingest_records_total counter {op} Durable WAL records written, by operation.
kdv_ingest_rejections_total counter {reason} Ingest requests refused before any WAL write.
kdv_ingest_replay_seconds histogram {} Wall time per boot-time WAL replay.
kdv_ingest_replayed_records_total counter {} Records recovered by WAL replays.
kdv_ingest_replays_total counter {} Boot-time WAL replays.
kdv_ingest_torn_tails_total counter {} Replays that truncated a torn WAL tail.
kdv_ingest_wal_bytes_total counter {} WAL record bytes appended.
kdv_pyramid_renders_total counter {level} Tile renders by the coreset level that served them.
kdv_render_band_retries_total counter {} Parallel bands retried sequentially after a worker panic.
kdv_render_degraded_pixels_total counter {} Pixels cut short by a render budget.
kdv_render_frontier_reuse_total counter {} Node-bound evaluations avoided via shared tile frontiers.
kdv_render_heap_pops_total counter {} Refinement heap pops across all tiles.
kdv_render_iterations histogram {} Refinement iterations per pixel.
kdv_render_leaf_scans_total counter {} Leaves refined to their exact sums.
kdv_render_node_bounds_total counter {} Quadratic bound evaluations.
kdv_render_pixel_seconds histogram {} Per-pixel refinement latency.
kdv_render_pixels_total counter {} Tile pixels rendered.
kdv_render_point_evals_total counter {} Exact kernel evaluations at leaves.
kdv_render_resyncs_total counter {} Kahan-resync passes over the refinement heap.
kdv_render_simd_lanes gauge {} f64 lanes per distance evaluation (4 on the AVX2 path, 1 scalar).
kdv_request_duration_seconds histogram {} End-to-end request latency (accept to response written).
kdv_slow_traces_total counter {} Traces at or over the slow threshold.
kdv_stage_duration_seconds histogram {stage} Per-stage request latency, from traces.
kdv_store_build_seconds histogram {} Wall time per from-source dataset build.
kdv_store_builds_total counter {} Datasets built from raw data.
kdv_store_checksum_failures_total counter {} Snapshot loads rejected for CRC mismatches.
kdv_store_evicted_bytes_total counter {} Estimated bytes released by dataset evictions.
kdv_store_evictions_total counter {} Datasets evicted under the byte budget.
kdv_store_load_failures_total counter {} Failed dataset materializations.
kdv_store_load_seconds histogram {} Wall time per snapshot load.
kdv_store_loads_total counter {} Datasets materialized from snapshots.
kdv_traces_total counter {} Requests traced end to end.
kdv_uptime_seconds gauge {} Seconds since the server started.";

#[test]
fn prometheus_families_are_pinned() {
    let (points, kernel) = fixture();
    let server = TileServer::start(config(), &points, kernel).expect("start");
    let addr = server.local_addr();
    let (_, _, _) = get(addr, "/tiles/eps/0/0/0.png");
    let (_, _, body) = get(addr, "/metrics?format=prometheus");
    let families = prom_families(std::str::from_utf8(&body).expect("utf8"));
    assert!(
        families == SHARD_FAMILIES,
        "exposition families changed; they are now:\n{families}"
    );
    server.stop();
}

#[test]
fn healthz_and_readyz_answer_from_a_plain_socket() {
    let (points, kernel) = fixture();
    let server = TileServer::start(config(), &points, kernel).expect("start");
    let addr = server.local_addr();
    let (status, _, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_slice()), (200, b"ok".as_slice()));
    // Single-dataset serving preloads at boot: ready as soon as bound.
    let (status, _, body) = get(addr, "/readyz");
    assert_eq!((status, body.as_slice()), (200, b"ready".as_slice()));
    server.stop();
}
