//! The committed `BENCH_serve.json` against the documents that quote it.
//!
//! The file has two producers: `serve_bench` writes the in-process
//! sections and `.github/perfbench-record.py` writes `perfbench`. Every
//! section a document names as `` `BENCH_serve.json`'s `X` `` (or
//! `` `serve_bench`'s `X` ``) must exist in the committed file, so a
//! deleted section cannot stay quoted.

use std::path::{Path, PathBuf};

use kdv_telemetry::json::{self, Value};

/// The documents that quote benchmark numbers.
const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "ROADMAP.md",
    ".claude/skills/verify/SKILL.md",
];

/// The file's top-level keys, in order: `serve_bench`'s, then
/// perfbench's.
const SECTIONS: [&str; 8] = [
    "schema",
    "host",
    "cold_path",
    "cold_start",
    "ingest",
    "cluster",
    "pyramid",
    "perfbench",
];

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn load(name: &str) -> Value {
    let path = repo().join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"))
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    }
}

/// Follows a dotted path. Some keys hold dots themselves (perfbench's
/// metric names), so at each step the longest matching key is tried
/// first.
fn resolve<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    if path.is_empty() {
        return Some(v);
    }
    (1..=path.len())
        .rev()
        .find_map(|take| resolve(v.get(&path[..take].join("."))?, &path[take..]))
}

/// Every `X` in `` `BENCH_serve.json`'s `X` ``, `` `BENCH_serve.json` `X` ``
/// or `` `serve_bench`'s `X` `` in `text`, line breaks folded.
fn quoted_sections(text: &str) -> Vec<String> {
    let flat = text.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut found = Vec::new();
    for mark in ["`BENCH_serve.json`", "`serve_bench`"] {
        for (at, _) in flat.match_indices(mark) {
            let rest = &flat[at + mark.len()..];
            let rest = rest.strip_prefix("'s").unwrap_or(rest);
            if let Some(name) = rest.strip_prefix(" `").and_then(|r| r.split('`').next()) {
                found.push(name.to_string());
            }
        }
    }
    found
}

#[test]
fn every_quoted_section_is_in_the_record() {
    let record = load("BENCH_serve.json");
    let mut missing = Vec::new();
    let mut quoted = 0;
    for doc in DOCS {
        let text =
            std::fs::read_to_string(repo().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for name in quoted_sections(&text) {
            quoted += 1;
            if resolve(&record, &name.split('.').collect::<Vec<_>>()).is_none() {
                missing.push(format!("{doc}: `{name}`"));
            }
        }
    }
    assert!(
        quoted >= 10,
        "only {quoted} quotes found: is the scan broken?"
    );
    assert!(
        missing.is_empty(),
        "documents quote sections BENCH_serve.json does not have:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn the_record_holds_each_producers_sections() {
    let record = load("BENCH_serve.json");
    assert_eq!(keys(&record), SECTIONS);
    assert_eq!(
        record.get("schema").and_then(Value::as_str),
        Some("kdv-bench-serve/8")
    );
    let host = record.get("host").expect("host block");
    assert_eq!(keys(host), ["cores", "simd_lanes", "single_core"]);
    for path in ["ingest.modes", "cluster.cache_pressure"] {
        assert!(
            resolve(&record, &path.split('.').collect::<Vec<_>>()).is_some(),
            "no {path}"
        );
    }
}

#[test]
fn perfbench_section_has_both_workloads_and_its_host() {
    let record = load("BENCH_serve.json");
    let declared = load("BENCHMARK.json");
    let perfbench = record.get("perfbench").expect("perfbench section");
    let host = perfbench.get("host").expect("perfbench host block");
    assert_eq!(keys(host), ["nproc", "simd", "single_core"]);
    for field in ["seeds", "seconds", "trace_seed"] {
        assert!(perfbench.get(field).is_some(), "perfbench.{field}");
    }
    let workloads = perfbench.get("workloads").expect("perfbench.workloads");
    let names = |list: &str| -> Vec<String> {
        declared
            .get(list)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json {list}"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    for w in declared
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json workloads")
    {
        let w = w
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        let section = workloads
            .get(w)
            .unwrap_or_else(|| panic!("no perfbench run of {w}"));
        for list in ["end_to_end", "per_layer"] {
            let got = section.get(list).unwrap_or_else(|| panic!("{w}.{list}"));
            for metric in names(list) {
                assert!(
                    got.get(&metric).and_then(Value::as_f64).is_some(),
                    "{w}.{list} lacks {metric}"
                );
            }
        }
        assert!(
            section.get("host_steal_pct").is_some(),
            "{w}.host_steal_pct"
        );
    }
}
