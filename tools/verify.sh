#!/bin/sh
# Tier-1 verification: build + tests, plus a formatting check when the
# toolchain provides ocamlformat (skipped otherwise so CI images without
# it still pass).
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest (HTVM_JOBS=1) =="
HTVM_JOBS=1 dune runtest

# Same suite again with the engine's domain pool on: results must not
# depend on the job count. --force because the test binary is unchanged.
echo "== dune runtest (HTVM_JOBS=4) =="
HTVM_JOBS=4 dune runtest --force

echo "== bench smoke: parallel engine on one small model =="
dune exec bench/main.exe -- parallel-smoke

echo "== bench smoke: resilience (faulty run bit-exact, exact retry cost) =="
dune exec bench/main.exe -- resilience-smoke

echo "== bench smoke: serve (fleet throughput, tally invariance) =="
dune exec bench/main.exe -- serve-smoke

echo "== bench smoke: metrics (instrument cost, cycles-track determinism) =="
dune exec bench/main.exe -- metrics-smoke

echo "== bench smoke: mtserve (multi-tenant tally invariance, trace replay) =="
dune exec bench/main.exe -- mtserve-smoke

# The compiled-plan fast path: output digests and simulated cycles must
# be byte-identical to the slow oracle, and the memoize hit path must
# leave the serve tally untouched. Exits nonzero on any divergence.
echo "== bench smoke: simfast (plan fast path byte-identical to the oracle) =="
dune exec bench/main.exe -- simfast-smoke

# Serving smoke: the per-request tally of `htvmc serve` is a pure
# function of the seed — byte-identical at any fleet size and any host
# job count. Diff a 1-worker and a 4-worker run of the same stream.
echo "== htvmc serve smoke (workers 1 vs 4) =="
dune exec bin/htvmc.exe -- export resnet8 --policy mixed -o _build/serve-smoke.htvm
dune exec bin/htvmc.exe -- serve _build/serve-smoke.htvm --config both \
  --workers 1 --requests 16 --batch 4 --tally _build/serve-tally-w1.txt
dune exec bin/htvmc.exe -- serve _build/serve-smoke.htvm --config both \
  --workers 4 -j 4 --requests 16 --batch 4 --tally _build/serve-tally-w4.txt
if ! diff _build/serve-tally-w1.txt _build/serve-tally-w4.txt; then
  echo "verify: serve tallies differ between workers 1 and 4" >&2
  exit 1
fi

# The compiled execution plan is a pure fast path: disabling it
# (--no-plan forces the slow interpretive oracle) must leave the
# per-request tally byte-identical.
echo "== htvmc serve smoke (plan on vs --no-plan) =="
dune exec bin/htvmc.exe -- serve _build/serve-smoke.htvm --config both \
  --workers 1 --requests 16 --batch 4 --no-plan --tally _build/serve-tally-noplan.txt
if ! diff _build/serve-tally-w1.txt _build/serve-tally-noplan.txt; then
  echo "verify: serve tallies differ between plan on and --no-plan" >&2
  exit 1
fi

# The same under fault injection: the plan serves faulted requests
# (transfer flips, silent compute flips, L2 rot that forces the per-step
# oracle fallback) and must match the oracle's tally byte for byte.
echo "== htvmc serve smoke (faulted, plan on vs --no-plan) =="
INJECT='seed=3,dma_in@p=0.05:flip,compute@p=0.02:flip,l2@p=0.01:flip'
dune exec bin/htvmc.exe -- serve _build/serve-smoke.htvm --config both \
  --workers 1 --requests 16 --batch 4 --inject "$INJECT" \
  --tally _build/serve-faulted-plan.txt
dune exec bin/htvmc.exe -- serve _build/serve-smoke.htvm --config both \
  --workers 1 --requests 16 --batch 4 --inject "$INJECT" --no-plan \
  --tally _build/serve-faulted-noplan.txt
if ! diff _build/serve-faulted-plan.txt _build/serve-faulted-noplan.txt; then
  echo "verify: faulted serve tallies differ between plan on and --no-plan" >&2
  exit 1
fi

# Telemetry smoke: the cycles track of a serve metrics dump — admission
# counters, service and predicted-sojourn histograms, per-window series,
# SLO violation accounting, summed simulator counters — is byte-identical
# at any fleet size and job count. Only the sched track (scheduling
# metrics) and the wall track (host compile timings) may move, and they
# render after the `# track sched` marker, so stripping from that marker
# leaves the deterministic section.
echo "== htvmc serve metrics smoke (workers 1 vs 4, SLO accounting) =="
dune exec bin/htvmc.exe -- serve _build/serve-smoke.htvm --config both \
  --workers 1 -j 1 --requests 16 --batch 4 --arrival poisson --queue-depth 4 \
  --slo-sojourn 2000000 --metrics _build/serve-metrics-w1.prom
dune exec bin/htvmc.exe -- serve _build/serve-smoke.htvm --config both \
  --workers 4 -j 4 --requests 16 --batch 4 --arrival poisson --queue-depth 4 \
  --slo-sojourn 2000000 --metrics _build/serve-metrics-w4.prom
awk '/^# track sched/{exit} {print}' _build/serve-metrics-w1.prom \
  > _build/serve-metrics-w1.cycles
awk '/^# track sched/{exit} {print}' _build/serve-metrics-w4.prom \
  > _build/serve-metrics-w4.cycles
if ! diff _build/serve-metrics-w1.cycles _build/serve-metrics-w4.cycles; then
  echo "verify: metrics cycles tracks differ between workers 1 and 4" >&2
  exit 1
fi
if ! grep -q '^htvm_serve_slo_pred_violations_total ' _build/serve-metrics-w1.cycles; then
  echo "verify: metrics dump is missing SLO accounting" >&2
  exit 1
fi

# Multi-tenant serve smoke: two models, two SLO classes. The w1/j1 run
# records its arrival trace; the w4/j4 run replays it — so one diff
# enforces both invariants at once: the tally is byte-identical at any
# fleet shape AND a recorded trace reproduces the run that wrote it
# (the config header line legitimately describes replay mode, so the
# comparison starts at line 3). The metrics cycles track — per-class
# admission/outcome/SLO counters, service histograms, the window
# series — must also be byte-identical after stripping at the
# `# track sched` marker.
echo "== htvmc serve multi-tenant smoke (2 models, 2 classes, trace replay) =="
dune exec bin/htvmc.exe -- export ds_cnn --policy mixed -o _build/mtserve-a.htvm
dune exec bin/htvmc.exe -- serve _build/mtserve-a.htvm --config both \
  --model vision=_build/serve-smoke.htvm \
  --class keyword=main:2000000:2 --class vision=vision:0:1 \
  --arrival poisson --requests 16 --workers 1 -j 1 \
  --trace-out _build/mtserve.trace --tally _build/mtserve-tally-w1.txt \
  --metrics _build/mtserve-metrics-w1.prom
dune exec bin/htvmc.exe -- serve _build/mtserve-a.htvm --config both \
  --model vision=_build/serve-smoke.htvm \
  --class keyword=main:2000000:2 --class vision=vision:0:1 \
  --replay _build/mtserve.trace --workers 4 -j 4 \
  --tally _build/mtserve-tally-w4.txt --metrics _build/mtserve-metrics-w4.prom
tail -n +3 _build/mtserve-tally-w1.txt > _build/mtserve-tally-w1.body
tail -n +3 _build/mtserve-tally-w4.txt > _build/mtserve-tally-w4.body
if ! diff _build/mtserve-tally-w1.body _build/mtserve-tally-w4.body; then
  echo "verify: multi-tenant tallies differ between w1 and w4-replay" >&2
  exit 1
fi
awk '/^# track sched/{exit} {print}' _build/mtserve-metrics-w1.prom \
  > _build/mtserve-metrics-w1.cycles
awk '/^# track sched/{exit} {print}' _build/mtserve-metrics-w4.prom \
  > _build/mtserve-metrics-w4.cycles
if ! diff _build/mtserve-metrics-w1.cycles _build/mtserve-metrics-w4.cycles; then
  echo "verify: multi-tenant metrics cycles tracks differ" >&2
  exit 1
fi
if ! grep -q 'htvm_mtserve_class_slo_pred_violations_total{class="keyword"}' \
     _build/mtserve-metrics-w1.cycles; then
  echo "verify: multi-tenant metrics dump is missing per-class SLO accounting" >&2
  exit 1
fi

# The same two-model stream on the slow oracle (--no-plan) must give the
# plan run's tally byte for byte. ds_cnn's 1x1 analog layers take the
# plan's one-run-per-plane conv loop, which the resnet8-only diffs above
# never reach.
echo "== htvmc serve multi-tenant smoke (plan on vs --no-plan) =="
dune exec bin/htvmc.exe -- serve _build/mtserve-a.htvm --config both \
  --model vision=_build/serve-smoke.htvm \
  --class keyword=main:2000000:2 --class vision=vision:0:1 \
  --arrival poisson --requests 16 --workers 1 -j 1 --no-plan \
  --tally _build/mtserve-tally-noplan.txt
if ! diff _build/mtserve-tally-w1.txt _build/mtserve-tally-noplan.txt; then
  echo "verify: multi-tenant tallies differ between plan on and --no-plan" >&2
  exit 1
fi

# Health-lifecycle smoke: a boot-degraded instance under fault injection
# walks probation -> readmission, and the functional tally — including
# the new health header and predicted-plane footer — stays byte-identical
# at any fleet shape / job count. The footer line proves the lifecycle
# actually ran (readmissions/relapses are recorded there).
echo "== htvmc serve health smoke (lifecycle, workers 2 vs 4) =="
dune exec bin/htvmc.exe -- serve _build/serve-smoke.htvm --config both \
  --workers 2 -j 1 --requests 16 --batch 4 --retry-budget 4 \
  --inject "seed=3,dma_in@p=0.3:flip" --health --degraded 0 \
  --tally _build/serve-health-w2.txt
dune exec bin/htvmc.exe -- serve _build/serve-smoke.htvm --config both \
  --workers 4 -j 4 --requests 16 --batch 4 --retry-budget 4 \
  --inject "seed=3,dma_in@p=0.3:flip" --health --degraded 0 \
  --tally _build/serve-health-w4.txt
if ! diff _build/serve-health-w2.txt _build/serve-health-w4.txt; then
  echo "verify: serve health tallies differ between workers 2 and 4" >&2
  exit 1
fi
if ! grep -q '^health pred-state=' _build/serve-health-w2.txt; then
  echo "verify: serve health tally is missing the lifecycle footer" >&2
  exit 1
fi

# Campaign smoke: sweep three fault-rate points under sustained load.
# The campaign tally (the SLO/shed/readmission curve) is built entirely
# from the predicted plane, so the w1/j1 and w4/j4 sweeps must be
# byte-identical; the rate lines carry the curve fields.
echo "== htvmc campaign smoke (3 rate points, w1/j1 vs w4/j4) =="
dune exec bin/htvmc.exe -- campaign _build/serve-smoke.htvm --config both \
  --workers 1 -j 1 --requests 12 --batch 4 --retry-budget 4 \
  --rates 0,0.01,0.2 --tally _build/campaign-tally-w1.txt
dune exec bin/htvmc.exe -- campaign _build/serve-smoke.htvm --config both \
  --workers 4 -j 4 --requests 12 --batch 4 --retry-budget 4 \
  --rates 0,0.01,0.2 --tally _build/campaign-tally-w4.txt
if ! diff _build/campaign-tally-w1.txt _build/campaign-tally-w4.txt; then
  echo "verify: campaign tallies differ between w1/j1 and w4/j4" >&2
  exit 1
fi
if [ "$(grep -c '^rate ' _build/campaign-tally-w1.txt)" != 3 ]; then
  echo "verify: campaign tally does not carry one line per rate point" >&2
  exit 1
fi
if ! grep -q 'readmissions=' _build/campaign-tally-w1.txt; then
  echo "verify: campaign tally is missing the health curve fields" >&2
  exit 1
fi

# Persistent-store smoke: compiling the same model twice into a fresh
# cache directory must (a) produce byte-identical artifact digests,
# (b) report zero hits cold and nonzero hits warm, and (c) leave a
# store that `htvmc cache` can inspect, verify, and gc — the tight
# --max-bytes cap forces the LRU eviction path to run.
echo "== htvmc store smoke (cold vs warm, cache stats/verify/gc) =="
rm -rf _build/store-cache
dune exec bin/htvmc.exe -- compile _build/serve-smoke.htvm --config both \
  --cache-dir _build/store-cache > _build/store-cold.out
dune exec bin/htvmc.exe -- compile _build/serve-smoke.htvm --config both \
  --cache-dir _build/store-cache > _build/store-warm.out
grep '^artifact digest: ' _build/store-cold.out > _build/store-cold.digest
grep '^artifact digest: ' _build/store-warm.out > _build/store-warm.digest
if ! diff _build/store-cold.digest _build/store-warm.digest; then
  echo "verify: warm compile artifact digest differs from cold" >&2
  exit 1
fi
cold_hits=$(sed -n 's/^store: hits=\([0-9]*\).*/\1/p' _build/store-cold.out)
warm_hits=$(sed -n 's/^store: hits=\([0-9]*\).*/\1/p' _build/store-warm.out)
if [ "$cold_hits" != 0 ]; then
  echo "verify: cold compile reported $cold_hits store hits (want 0)" >&2
  exit 1
fi
if [ "$warm_hits" = "" ] || [ "$warm_hits" = 0 ]; then
  echo "verify: warm compile reported no store hits" >&2
  exit 1
fi
dune exec bin/htvmc.exe -- cache stats --cache-dir _build/store-cache
dune exec bin/htvmc.exe -- cache verify --cache-dir _build/store-cache
dune exec bin/htvmc.exe -- cache gc --cache-dir _build/store-cache --max-bytes 2048
dune exec bin/htvmc.exe -- cache stats --cache-dir _build/store-cache

# Differential conformance smoke: compiled artifacts must agree with the
# reference interpreter over a fixed seed range. Any failure prints a
# minimized reproducer and exits nonzero.
echo "== htvmc check smoke (300 seeds) =="
dune exec bin/htvmc.exe -- check --seeds 300 -j 4

# Chaos smoke: the same fuzz under randomized fault-injection campaigns.
# Stock plans are recoverable by construction, so any failure verdict
# (detected_uncorrected, silent_corruption, mismatch, crash) exits
# nonzero with a minimized reproducer. The campaigns are a pure function
# of the seed, so the per-class tallies must be identical at any job
# count — checked by diffing the 1-job and 4-job runs.
echo "== htvmc chaos smoke (300 seeds, jobs 1 vs 4) =="
dune exec bin/htvmc.exe -- chaos --seeds 300 -j 1 > _build/chaos-j1.out
dune exec bin/htvmc.exe -- chaos --seeds 300 -j 4 > _build/chaos-j4.out
grep -E '^  [a-z]' _build/chaos-j1.out > _build/chaos-tally-j1.txt
grep -E '^  [a-z]' _build/chaos-j4.out > _build/chaos-tally-j4.txt
cat _build/chaos-tally-j1.txt
if ! diff _build/chaos-tally-j1.txt _build/chaos-tally-j4.txt; then
  echo "verify: chaos tallies differ between jobs 1 and 4" >&2
  exit 1
fi

# Benchmark self-test: every workload in smoke mode, untraced and
# traced, emits every metric BENCHMARK.json names and a parseable trace.
echo "== bench/perf smoke (every BENCHMARK.json metric emitted) =="
dune build @bench/perf/bench-perf-smoke

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== dune build @fmt == (skipped: ocamlformat not installed)"
fi

echo "verify: OK"
