#!/usr/bin/env bash
# Checks that the benchmark's exact counts repeat exactly across two runs
# with the same seed: bytes_per_tile (untraced), the engine.* work counts
# and ingest.compactions (traced). Run from the repository root:
#
#   bash perfbench/check_repeat.sh [seconds]
#
# Takes a few minutes; prints the compared values and exits non-zero on
# a mismatch.
set -euo pipefail
secs="${1:-5}"
run() { bash perfbench/run.sh --workload "$1" --seed 7 --seconds "$secs" --trace "$2" 2>/dev/null | tail -1; }
compare() {
    python3 -c '
import json, sys
a, b = (json.loads(x)["metrics"] for x in sys.argv[2:4])
bad = [k for k in sys.argv[1].split(",") if a[k]["value"] != b[k]["value"]]
for k in sys.argv[1].split(","):
    print(k + ":", a[k]["value"], "/", b[k]["value"])
sys.exit(1 if bad else 0)
' "$1" "$2" "$3"
}
compare bytes_per_tile "$(run cold_sweep 0)" "$(run cold_sweep 0)"
engine=engine.heap_pops,engine.node_bounds,engine.point_evals,engine.frontier_reuse
compare "$engine" "$(run cold_sweep 1)" "$(run cold_sweep 1)"
compare "$engine,ingest.compactions" "$(run ingest_churn 1)" "$(run ingest_churn 1)"
echo "exact counts repeat"
