#!/usr/bin/env bash
# Collects one result set: every workload of BENCHMARK.json (or those
# named after the seeds) run once per seed, each run's output saved as
# OUT/<workload>/seed-<n>.json for compare.exe. Run from the repository
# root:
#   bash bench/perf/collect.sh OUT SEEDS TRACE [WORKLOAD...]
# e.g. bash bench/perf/collect.sh results/a "1 2 3 4 5 6 7 8 9 10" 0
set -euo pipefail

if [ $# -lt 3 ]; then
  echo "usage: collect.sh OUT SEEDS TRACE [WORKLOAD...]" >&2
  exit 2
fi
out=$1
seeds=$2
trace=$3
shift 3

if [ $# -gt 0 ]; then
  workloads="$*"
else
  workloads=$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
if [ -z "$workloads" ] || [ -z "$seconds" ]; then
  echo "collect.sh: no workloads or run_seconds found in BENCHMARK.json" >&2
  exit 2
fi

for w in $workloads; do
  mkdir -p "$out/$w"
  for s in $seeds; do
    bash bench/perf/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace "$trace" \
      > "$out/$w/seed-$s.json"
    echo "$w seed $s: $(tail -n 1 "$out/$w/seed-$s.json" | cut -c1-160)" >&2
  done
done
