#!/usr/bin/env bash
# Minimal Prometheus text-exposition lint: every sample's family has a
# `# TYPE` header above it, and no family is typed twice.
#
# usage: .github/prom-lint.sh <exposition.txt>
set -euo pipefail
awk '
  /^# TYPE / {
    if ($3 in seen) { print "FAIL: duplicate # TYPE " $3; exit 1 }
    seen[$3] = 1; next
  }
  /^#/ || /^$/ { next }
  {
    name = $1; sub(/\{.*/, "", name)
    base = name; sub(/_(bucket|sum|count)$/, "", base)
    if (!(name in seen) && !(base in seen)) {
      print "FAIL: sample " name " before its # TYPE"; exit 1
    }
  }
' "$1"
