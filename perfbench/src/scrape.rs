//! Reading the servers' `/metrics?format=prometheus` exposition, and
//! differencing two scrapes so a traced window is measured on its own.

use std::net::SocketAddr;

use crate::client;
use crate::stats::bucket_quantile;

/// One scrape of one server: `(metric name, label clause, value)`.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    series: Vec<(String, String, f64)>,
}

impl Scrape {
    /// Parses Prometheus text exposition 0.0.4.
    pub fn parse(text: &str) -> Self {
        let mut series = Vec::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let (name, labels) = match key.split_once('{') {
                Some((n, rest)) => (n, rest.trim_end_matches('}')),
                None => (key, ""),
            };
            series.push((name.to_string(), labels.to_string(), value));
        }
        Self { series }
    }

    /// Sum of every series named `name` whose labels contain `label`.
    pub fn sum(&self, name: &str, label: &str) -> f64 {
        self.series
            .iter()
            .filter(|(n, l, _)| n == name && l.contains(label))
            .map(|s| s.2)
            .sum()
    }

    /// Cumulative `(le, count)` buckets of histogram `name` for the
    /// series whose labels contain `label`, ascending by edge.
    fn cumulative(&self, name: &str, label: &str) -> Vec<(f64, f64)> {
        let bucket = format!("{name}_bucket");
        let mut out: Vec<(f64, f64)> = self
            .series
            .iter()
            .filter(|(n, l, _)| *n == bucket && l.contains(label))
            .filter_map(|(_, l, v)| {
                let le = l.split("le=\"").nth(1)?.split('"').next()?;
                let edge = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((edge, *v))
            })
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }
}

/// Scrapes every server in `addrs`.
pub fn scrape(addrs: &[SocketAddr]) -> Result<Vec<Scrape>, String> {
    addrs
        .iter()
        .map(|&a| {
            let resp = client::get_once(a, "/metrics?format=prometheus")
                .map_err(|e| format!("scrape {a}: {e}"))?;
            if resp.status != 200 {
                return Err(format!("scrape {a}: status {}", resp.status));
            }
            Ok(Scrape::parse(&resp.text()))
        })
        .collect()
}

/// `Σ after − Σ before` of a counter across servers.
pub fn delta(before: &[Scrape], after: &[Scrape], name: &str, label: &str) -> f64 {
    let total = |s: &[Scrape]| s.iter().map(|x| x.sum(name, label)).sum::<f64>();
    total(after) - total(before)
}

/// Per-bucket counts of histogram `name` (series matching `label`)
/// recorded between the two scrapes, summed across servers, as
/// `(upper edge, count)` ascending.
pub fn hist_delta(before: &[Scrape], after: &[Scrape], name: &str, label: &str) -> Vec<(f64, f64)> {
    let mut edges: Vec<f64> = after
        .iter()
        .chain(before)
        .flat_map(|s| s.cumulative(name, label))
        .map(|b| b.0)
        .collect();
    edges.sort_by(f64::total_cmp);
    edges.dedup();
    // A cumulative histogram lists only non-empty buckets: its count at
    // any edge is the count at the largest listed edge not above it.
    let at = |cum: &[(f64, f64)], e: f64| {
        cum.iter()
            .take_while(|b| b.0 <= e)
            .last()
            .map_or(0.0, |b| b.1)
    };
    let mut prev = 0.0;
    edges
        .iter()
        .map(|&e| {
            let mut c = 0.0;
            for s in after {
                c += at(&s.cumulative(name, label), e);
            }
            for s in before {
                c -= at(&s.cumulative(name, label), e);
            }
            let count = (c - prev).max(0.0);
            prev = c;
            (e, count)
        })
        .collect()
}

/// The `q`-quantile of the histogram delta, in the exposition's unit.
pub fn quantile_delta(before: &[Scrape], after: &[Scrape], name: &str, label: &str, q: f64) -> f64 {
    bucket_quantile(&hist_delta(before, after, name, label), q)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# TYPE h histogram\n\
        h_bucket{stage=\"queue\",le=\"0.001\"} 2\n\
        h_bucket{stage=\"queue\",le=\"+Inf\"} 2\n\
        h_sum{stage=\"queue\"} 0.001\n\
        h_count{stage=\"queue\"} 2\n\
        c_total{class=\"ok\"} 5\n";
    const AFTER: &str = "h_bucket{stage=\"queue\",le=\"0.001\"} 3\n\
        h_bucket{stage=\"queue\",le=\"0.002\"} 7\n\
        h_bucket{stage=\"queue\",le=\"+Inf\"} 7\n\
        h_sum{stage=\"queue\"} 0.01\n\
        h_count{stage=\"queue\"} 7\n\
        c_total{class=\"ok\"} 9\n";

    #[test]
    fn deltas_isolate_the_window() {
        let (b, a) = ([Scrape::parse(BEFORE)], [Scrape::parse(AFTER)]);
        assert_eq!(delta(&b, &a, "c_total", "class=\"ok\""), 4.0);
        assert!((delta(&b, &a, "h_sum", "queue") - 0.009).abs() < 1e-12);
        let h = hist_delta(&b, &a, "h", "stage=\"queue\"");
        assert_eq!(h, vec![(0.001, 1.0), (0.002, 4.0), (f64::INFINITY, 0.0)]);
        let p50 = quantile_delta(&b, &a, "h", "stage=\"queue\"", 0.5);
        assert!(p50 > 0.001 && p50 < 0.002, "{p50}");
    }
}
