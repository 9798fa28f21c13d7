#!/usr/bin/env bash
# Runs the partition-policy benchmark and writes BENCH_partition.json
# (cross-chunk message fraction and round throughput for the contiguous
# vs locality-aware chunk partition policies, on geometric/planted/
# f-partite instances at 2/4/8 threads, with the machine's nproc and the
# points above it marked oversubscribed; every configuration is asserted
# bit-identical to the sequential solver before timing, and the record
# asserts the locality policy strictly lowers every family's cut at every
# thread count) at the repository root. Usage: scripts/bench_partition.sh [out.json]
# Smoke mode (seconds instead of minutes, for CI bitrot checks):
#   BENCH_PARTITION_SMOKE=1 scripts/bench_partition.sh /tmp/BENCH_partition_smoke.json
set -euo pipefail
cd "$(dirname "$0")/.."
OUT="${1:-BENCH_partition.json}"
case "$OUT" in
  /*) ABS="$OUT" ;;
  *) ABS="$(pwd)/$OUT" ;;
esac
BENCH_PARTITION_JSON="$ABS" cargo bench -p dcover-bench --bench partition
echo "--- $OUT ---"
cat "$ABS"
