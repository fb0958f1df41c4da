//! `perfbench`: the serving benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <cold_sweep|ingest_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--workload calibrate` instead prints the capacities the workloads'
//! offered rates are derived from.
//!
//! Builds a seeded fixture store, starts real `kdv serve` / `kdv
//! cluster` processes, drives them over sockets, checks their answers
//! against EXACT, and prints the metrics declared in `BENCHMARK.json`
//! (end-to-end ones with `--trace 0`, per-layer ones with `--trace 1`)
//! as the last line of stdout. See `perfbench/README.md`.

mod client;
mod drive;
mod exact;
mod fixture;
mod host;
mod layers;
mod png;
mod procs;
mod requests;
mod scrape;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use kdv_telemetry::json::{self, Value};

/// The metric declarations: `(name, unit)` for the end-to-end and the
/// per-layer lists of `BENCHMARK.json`.
struct Declared {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn declared(path: &Path) -> Result<Declared, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).map(str::to_string);
                field("name")
                    .zip(field("unit"))
                    .ok_or_else(|| format!("{key} entry without a name and unit"))
            })
            .collect()
    };
    Ok(Declared {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

struct Args {
    kdv: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in raw.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let mut take = |k: &str| flags.remove(k).ok_or(format!("missing --{k}"));
    let args = Args {
        kdv: PathBuf::from(take("kdv")?),
        workload: take("workload")?,
        seed: take("seed")?
            .parse()
            .map_err(|_| "--seed: not an integer")?,
        seconds: take("seconds")?
            .parse()
            .map_err(|_| "--seconds: not a number")?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    };
    if let Some(k) = flags.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Renders the result line; every declared metric of the run's kind
/// must have been measured, and nothing else may be reported.
fn render(out: &workloads::Outcome, decl: &[(String, String)]) -> Result<String, String> {
    let extra: Vec<&String> = out
        .metrics
        .keys()
        .filter(|k| !decl.iter().any(|(n, _)| n == *k))
        .collect();
    if !extra.is_empty() {
        return Err(format!(
            "measured metrics missing from BENCHMARK.json: {extra:?}"
        ));
    }
    let mut fields = Vec::new();
    for (name, unit) in decl {
        let v = *out.metrics.get(name).ok_or_else(|| {
            format!("BENCHMARK.json declares {name}, which this run did not measure")
        })?;
        if !v.is_finite() {
            return Err(format!("{name} measured as {v}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.violations == 0 && out.wrong == 0,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    ))
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let decl = declared(Path::new("BENCHMARK.json"))?;
    if !args.kdv.is_file() {
        return Err(format!("no kdv binary at {}", args.kdv.display()));
    }
    let work = Path::new(".bench_build").join(format!("perfbench-work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("mkdir {}: {e}", work.display()))?;
    let ctx = workloads::Ctx {
        kdv: args.kdv.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        work: work.clone(),
    };
    if args.workload == "calibrate" {
        let lines = workloads::calibrate(&ctx);
        let _ = std::fs::remove_dir_all(&work);
        return Ok(lines?.join("\n"));
    }
    let cpu_before = cpu_times();
    let result = workloads::run(&ctx, &args.workload);
    let cpu_after = cpu_times();
    let _ = std::fs::remove_dir_all(&work);
    let out = result?;
    for label in &out.labels {
        println!("label {label}");
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (cpu_before, cpu_after) {
        // Time the hypervisor gave these vCPUs to someone else: when it
        // is a few percent, sub-millisecond tails measure the host.
        let pct = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("label host_steal_pct={pct:.2}");
    }
    render(
        &out,
        if args.trace {
            &decl.per_layer
        } else {
            &decl.end_to_end
        },
    )
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Declared {
        declared(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    #[test]
    fn every_declared_name_is_well_formed_and_unique() {
        let d = manifest();
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in d.end_to_end.iter().chain(&d.per_layer) {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
                    && name.as_bytes()[0].is_ascii_alphanumeric(),
                "bad metric name {name:?}"
            );
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {unit:?} for {name}"
            );
            assert!(seen.insert(name.clone()), "{name} declared twice");
        }
    }

    #[test]
    fn render_refuses_undeclared_or_missing_metrics() {
        let decl = vec![("a".to_string(), "ms".to_string())];
        let mut out = workloads::Outcome::default();
        out.metrics.insert("a".into(), 1.5);
        let line = render(&out, &decl).expect("renders");
        assert!(json::parse(&line).is_ok(), "{line}");
        out.metrics.insert("b".into(), 2.0);
        assert!(render(&out, &decl).is_err(), "undeclared metric");
        assert!(
            render(&workloads::Outcome::default(), &decl).is_err(),
            "missing metric"
        );
    }
}
