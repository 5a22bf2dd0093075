#!/usr/bin/env bash
# Execution regression gate: run cmd/benchexec on the fixed
# high-cardinality chain workload and diff against the checked-in
# BENCH_exec.json. Peak resident rows are deterministic for the fixed
# workload and must match exactly; allocs/op may drift up to 10%;
# wall-clock is informational only, so the gate is usable on loaded CI
# machines. The run also self-gates the ratios the streaming executor
# exists for: materialized blowup ≥100×, streaming peak ≥5× below
# materialized.
#
# Usage: scripts/bench_exec.sh [-update]
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "-update" ]; then
    go run ./cmd/benchexec
    echo "bench_exec: baseline BENCH_exec.json updated"
    exit 0
fi

go run ./cmd/benchexec -check
echo "bench_exec: OK"
