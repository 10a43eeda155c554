#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to
# perf.exe. Run from the repository root:
#   bash bench/perf/run.sh --workload compile --seed 1 --seconds 10 --trace 0
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/perf/dune ]; then
  echo "run.sh: run from the repository root (dune-project, lib/ or bench/perf/dune missing)" >&2
  exit 2
fi

# Build output goes to stderr: the result must be the last line of stdout.
dune build --root . ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
