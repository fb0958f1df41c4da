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

/// Golden schema test: the exact key set of the JSON `/metrics`
/// document. Adding a key is a conscious schema bump; losing one is a
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

    let keys = |v: &Value| -> Vec<String> {
        match v {
            Value::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("expected object, got {other:?}"),
        }
    };
    assert_eq!(
        keys(&doc),
        [
            "schema",
            "uptime_ms",
            "startup",
            "http",
            "cache",
            "render",
            "store",
            "ingest",
            "pyramid",
            "trace"
        ]
    );
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("kdv-serve-metrics/7")
    );
    assert_eq!(
        keys(doc.get("http").expect("http")),
        [
            "requests",
            "ok",
            "degraded",
            "bad_request",
            "not_found",
            "rejected",
            "internal_error",
            "bytes_sent"
        ]
    );
    assert_eq!(
        keys(doc.get("cache").expect("cache")),
        [
            "hits",
            "misses",
            "hit_rate",
            "insertions",
            "evictions",
            "evicted_bytes",
            "bytes_used",
            "entries"
        ]
    );
    assert_eq!(
        keys(doc.get("pyramid").expect("pyramid")),
        ["level_renders", "pyramid_renders", "full_renders"]
    );
    let trace = doc.get("trace").expect("trace");
    assert_eq!(
        keys(trace),
        [
            "enabled",
            "slow_threshold_ms",
            "completed",
            "slow_seen",
            "stages"
        ]
    );
    let mut expected_stages: Vec<String> = STAGES.iter().map(|s| s.to_string()).collect();
    expected_stages.push("total".to_string());
    assert_eq!(keys(trace.get("stages").expect("stages")), expected_stages);
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
