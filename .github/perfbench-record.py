#!/usr/bin/env python3
"""Record perfbench's results as the `perfbench` section of BENCH_serve.json.

For each workload this runs `bash perfbench/run.sh` untraced once per seed
and keeps the median of each end-to-end metric, then runs it traced once
and keeps that run's per-layer metrics as measured. perfbench's host lines
(nproc, SIMD, single_core, host_steal_pct) are kept alongside. Every other
section of the file is left as it is; `serve_bench` carries this one over
unchanged when it rewrites the file, so each section has one producer.

Run from the repository root (about 15 minutes on 2 vCPUs):

    python3 .github/perfbench-record.py [BENCH_serve.json]
"""

import json
import statistics
import subprocess
import sys

WORKLOADS = ["cold_sweep", "ingest_churn"]
SEEDS = [1, 2, 3, 4, 5]
TRACE_SEED = 1
SECONDS = 40
HOST_LABELS = ["nproc", "simd", "single_core"]


def run(workload, seed, trace):
    """One perfbench run: its `label key=value` lines and its JSON result."""
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    print("+", " ".join(cmd), file=sys.stderr, flush=True)
    lines = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()
    labels = {}
    for line in lines[:-1]:
        key, sep, value = line.removeprefix("label ").partition("=")
        if line.startswith("label ") and sep and " " not in key:
            labels[key] = value
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return labels, result, metrics


def record(workload):
    host, steal, attempted, failed, runs = None, [], 0, 0, []
    for seed in SEEDS:
        labels, result, metrics = run(workload, seed, 0)
        host = host or {k: labels[k] for k in HOST_LABELS}
        steal.append(float(labels["host_steal_pct"]))
        attempted += result["attempted"]
        failed += result["failed"]
        runs.append(metrics)
    labels, _, traced = run(workload, TRACE_SEED, 1)
    end_to_end = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    section = {
        "attempted": attempted,
        "failed": failed,
        "host_steal_pct": steal,
        "end_to_end": end_to_end,
        "traced_host_steal_pct": float(labels["host_steal_pct"]),
        "per_layer": traced,
    }
    return host, section


def main():
    out = sys.argv[1] if len(sys.argv) > 1 else "BENCH_serve.json"
    host, workloads = None, {}
    for workload in WORKLOADS:
        host, workloads[workload] = record(workload)
    section = {
        "command": "bash perfbench/run.sh --workload <w> --seed <s> --seconds "
                   f"{SECONDS} --trace <0|1>",
        "seconds": SECONDS,
        "seeds": SEEDS,
        "trace_seed": TRACE_SEED,
        "host": {
            "nproc": int(host["nproc"]),
            "simd": host["simd"],
            "single_core": host["single_core"] == "yes",
        },
        "workloads": workloads,
    }
    try:
        with open(out, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        doc = {}
    doc["perfbench"] = section
    with open(out, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, indent=2, ensure_ascii=False) + "\n")
    print(f"wrote the perfbench section of {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
