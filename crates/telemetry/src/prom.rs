//! Prometheus text exposition (format 0.0.4), dependency-free.
//!
//! The JSON `/metrics` document is the workspace's own artifact; this
//! writer renders the same [`crate::registry`] rows in the line
//! protocol every standard scraper understands: `# HELP`/`# TYPE`
//! headers before samples, cumulative `le` histogram buckets ending in
//! `+Inf`, `_sum`/`_count` companions, and base units (seconds, bytes)
//! per the Prometheus naming conventions. Rows that share a family
//! name — the labelled members of one family — are written under one
//! header, wherever they sit in their tables; that no two unrelated
//! rows share a name is a test over the declarations, not a runtime
//! check.

use std::fmt::Write as _;

use crate::hist::LogHistogram;
use crate::registry::{Family, Reading, Table};

/// Incremental builder of one exposition document.
#[derive(Debug, Default)]
pub struct PromWriter {
    /// `(family name, header and samples)` in order of first appearance.
    families: Vec<(&'static str, String)>,
}

impl PromWriter {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every exposed row of `table`, read off `source`.
    pub fn add<S>(&mut self, table: &Table<S>, source: &S) {
        self.add_rows(table, source, None);
    }

    /// Like [`add`](Self::add) for one instance of a repeated block:
    /// `instance` is the label value of every sample (the router's
    /// per-shard gauges carry `shard="N"` this way).
    pub fn add_instance<S>(&mut self, table: &Table<S>, source: &S, instance: &str) {
        self.add_rows(table, source, Some(instance));
    }

    fn add_rows<S>(&mut self, table: &Table<S>, source: &S, instance: Option<&str>) {
        for m in table.metrics.iter().filter(|m| !m.family.name.is_empty()) {
            let f = &m.family;
            let at = match self.families.iter().position(|(n, _)| *n == f.name) {
                Some(at) => at,
                None => {
                    let header = format!(
                        "# HELP {0} {1}\n# TYPE {0} {2}\n",
                        f.name,
                        f.help,
                        f.type_name()
                    );
                    self.families.push((f.name, header));
                    self.families.len() - 1
                }
            };
            let out = &mut self.families[at].1;
            let member = instance.unwrap_or(f.member);
            let scale = f.unit.to_base();
            match (m.read)(source) {
                Reading::U(v) => sample(out, f, member, v as f64 * scale),
                Reading::F(v) => sample(out, f, member, v * scale),
                Reading::Flag(v) => sample(out, f, member, if v { 1.0 } else { 0.0 }),
                Reading::Slots(slots) => {
                    for (i, &v) in slots.iter().enumerate() {
                        sample(out, f, &i.to_string(), v as f64 * scale);
                    }
                }
                Reading::Hist(h) => histogram(out, f, member, h),
                Reading::Hists(hists) => {
                    for (name, h) in hists {
                        histogram(out, f, name, h);
                    }
                }
            }
        }
    }

    /// The finished exposition document.
    pub fn finish(self) -> String {
        self.families.into_iter().map(|(_, text)| text).collect()
    }
}

/// `key="value"` for a labelled family, empty otherwise.
fn label(f: &Family, value: &str) -> String {
    if f.label.is_empty() {
        String::new()
    } else {
        format!("{}=\"{value}\"", f.label)
    }
}

/// `{label}`, or nothing for an empty label.
fn braced(label: &str) -> String {
    if label.is_empty() {
        String::new()
    } else {
        format!("{{{label}}}")
    }
}

fn sample(out: &mut String, f: &Family, member: &str, value: f64) {
    let _ = writeln!(
        out,
        "{}{} {}",
        f.name,
        braced(&label(f, member)),
        num(value)
    );
}

/// One histogram series; recorded values are scaled to the base unit.
/// Only non-empty buckets are emitted — `le` edges are cumulative and
/// end at `+Inf`, so sparse emission stays valid.
fn histogram(out: &mut String, f: &Family, member: &str, hist: &LogHistogram) {
    let (name, scale, label) = (f.name, f.unit.to_base(), label(f, member));
    let sep = if label.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    let edges = hist
        .nonzero_buckets()
        .map(|(edge, n)| (num(edge as f64 * scale), n));
    for (le, count) in edges.chain([("+Inf".to_string(), 0)]) {
        cumulative += count;
        let _ = writeln!(out, "{name}_bucket{{{label}{sep}le=\"{le}\"}} {cumulative}");
    }
    let label = braced(&label);
    let _ = writeln!(out, "{name}_sum{label} {}", num(hist.sum() as f64 * scale));
    let _ = writeln!(out, "{name}_count{label} {}", hist.count());
}

/// Sample-value formatting: integers without a fraction, everything
/// else through Rust's shortest-roundtrip float rendering.
fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Kind, Metric, Summary, Unit};

    /// Minimal exposition-format lint: `# TYPE` precedes samples of
    /// its metric, no metric family appears twice, every sample line
    /// is `name{labels} value`.
    fn lint(text: &str) {
        let mut typed: Vec<String> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().expect("type name").to_string();
                assert!(!typed.contains(&name), "duplicate family {name}");
                typed.push(name);
            } else if !line.starts_with('#') && !line.is_empty() {
                let name_part = line
                    .split([' ', '{'])
                    .next()
                    .expect("sample name")
                    .to_string();
                let family = typed.iter().any(|t| {
                    name_part == *t
                        || name_part == format!("{t}_bucket")
                        || name_part == format!("{t}_sum")
                        || name_part == format!("{t}_count")
                });
                assert!(family, "sample {name_part} before its # TYPE");
                let value = line.rsplit(' ').next().expect("value");
                assert!(
                    value.parse::<f64>().is_ok(),
                    "unparseable sample value {value:?} in {line:?}"
                );
            }
        }
    }

    struct Src {
        requests: u64,
        ok: u64,
        not_found: u64,
        bytes_used: f64,
        up: bool,
        latency: LogHistogram,
        stages: [LogHistogram; 2],
    }

    const RESPONSES: Family =
        Family::counter("kdv_http_responses_total", "Responses by class.").label("class");

    static TABLE: Table<Src> = Table {
        block: "t",
        metrics: &[
            Metric {
                key: "requests",
                family: Family::counter("kdv_http_requests_total", "Requests routed."),
                read: |s| Reading::U(s.requests),
            },
            Metric {
                key: "ok",
                family: RESPONSES.member("ok"),
                read: |s| Reading::U(s.ok),
            },
            Metric {
                key: "hit_rate",
                family: Family::json_only(Kind::Gauge),
                read: |_| Reading::F(0.5),
            },
            Metric {
                key: "bytes_used",
                family: Family::gauge("kdv_cache_bytes_used", "Bytes resident."),
                read: |s| Reading::F(s.bytes_used),
            },
            Metric {
                key: "not_found",
                family: RESPONSES.member("not_found"),
                read: |s| Reading::U(s.not_found),
            },
            Metric {
                key: "latency_ns",
                family: Family::histogram(
                    "kdv_render_pixel_seconds",
                    "Per-pixel latency.",
                    Summary::Full,
                    Unit::Ns,
                ),
                read: |s| Reading::Hist(&s.latency),
            },
            Metric {
                key: "stages",
                family: Family::histogram(
                    "kdv_stage_duration_seconds",
                    "Per-stage latency.",
                    Summary::BriefUs,
                    Unit::Us,
                )
                .label("stage"),
                read: |s| Reading::Hists(vec![("render", &s.stages[0]), ("encode", &s.stages[1])]),
            },
        ],
    };

    static SHARD: Table<Src> = Table {
        block: "shards[]",
        metrics: &[Metric {
            key: "up",
            family: Family::gauge("kdv_router_shard_up", "Shard health.").label("shard"),
            read: |s| Reading::Flag(s.up),
        }],
    };

    fn src() -> Src {
        let mut latency = LogHistogram::new();
        for v in [100u64, 200, 200, 3_000_000] {
            latency.record(v);
        }
        let mut stages = [LogHistogram::new(), LogHistogram::new()];
        stages[0].record(50);
        stages[1].record(7_000);
        Src {
            requests: 42,
            ok: 40,
            not_found: 2,
            bytes_used: 1.5e6,
            up: true,
            latency,
            stages,
        }
    }

    fn exposition() -> String {
        let mut w = PromWriter::new();
        w.add(&TABLE, &src());
        let mut down = src();
        down.up = false;
        w.add_instance(&SHARD, &src(), "0");
        w.add_instance(&SHARD, &down, "1");
        let text = w.finish();
        lint(&text);
        text
    }

    #[test]
    fn counters_and_gauges_have_headers_before_samples() {
        let text = exposition();
        assert!(text.contains("# TYPE kdv_http_requests_total counter"));
        assert!(text.contains("kdv_http_requests_total 42"));
        assert!(text.contains("# TYPE kdv_cache_bytes_used gauge"));
        assert!(text.contains("kdv_cache_bytes_used 1500000"));
        // JSON-only rows never reach the exposition.
        assert!(!text.contains("hit_rate"));
    }

    #[test]
    fn labelled_members_share_one_family_header() {
        let text = exposition();
        assert_eq!(text.matches("# TYPE kdv_http_responses_total").count(), 1);
        assert!(text.contains("kdv_http_responses_total{class=\"ok\"} 40"));
        assert!(text.contains("kdv_http_responses_total{class=\"not_found\"} 2"));
        // Both members follow their header, before the next family.
        let header = text.find("# TYPE kdv_http_responses_total").unwrap();
        let second = text.find("class=\"not_found\"").unwrap();
        let next = text.find("# HELP kdv_cache_bytes_used").unwrap();
        assert!(header < second && second < next, "{text}");
    }

    #[test]
    fn instances_emit_one_sample_per_label() {
        let text = exposition();
        assert!(text.contains("# TYPE kdv_router_shard_up gauge"));
        assert!(text.contains("kdv_router_shard_up{shard=\"0\"} 1"));
        assert!(text.contains("kdv_router_shard_up{shard=\"1\"} 0"));
    }

    #[test]
    fn histograms_emit_cumulative_buckets_and_inf() {
        let text = exposition();
        assert!(text.contains("# TYPE kdv_render_pixel_seconds histogram"));
        assert!(text.contains("kdv_render_pixel_seconds_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("kdv_render_pixel_seconds_count 4"));
        // Buckets are cumulative: the one holding the two 200s reads 3.
        let two_hundreds = text
            .lines()
            .find(|l| l.starts_with("kdv_render_pixel_seconds_bucket") && l.ends_with(" 3"))
            .expect("cumulative bucket of 3");
        let le: f64 = two_hundreds
            .split("le=\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .expect("le edge")
            .parse()
            .expect("numeric le");
        // 200 ns scaled to seconds, inside the ≤6.25%-wide bucket.
        assert!(
            (200e-9..220e-9).contains(&le),
            "got {two_hundreds} (le = {le})"
        );
        // The sum is in seconds.
        let sum_line = text
            .lines()
            .find(|l| l.starts_with("kdv_render_pixel_seconds_sum"))
            .expect("sum line");
        let sum: f64 = sum_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!((sum - 3_000_500e-9).abs() < 1e-12, "sum {sum}");
    }

    #[test]
    fn histogram_families_carry_labels_on_every_sample() {
        let text = exposition();
        assert!(text.contains("kdv_stage_duration_seconds_bucket{stage=\"render\",le=\"+Inf\"} 1"));
        assert!(text.contains("kdv_stage_duration_seconds_count{stage=\"encode\"} 1"));
        assert_eq!(text.matches("# TYPE kdv_stage_duration_seconds").count(), 1);
    }
}
