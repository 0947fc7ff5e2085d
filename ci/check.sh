#!/usr/bin/env bash
# Full local gate: configure + build (warnings as errors), unit tests,
# gclint over src/, clang-tidy (when installed), and the three sanitizer
# smoke suites. Everything a PR must survive, runnable on a laptop:
#
#   ci/check.sh            # default build + tests + lint + tidy
#   ci/check.sh --full     # also tsan/asan/ubsan smoke builds (slow)
#
# Exits non-zero on the first failing stage.
set -euo pipefail

cd "$(dirname "$0")/.."

FULL=0
[[ "${1:-}" == "--full" ]] && FULL=1

step() { printf '\n== %s ==\n' "$*"; }

step "configure + build (default preset, -Werror)"
cmake --preset default
cmake --build --preset default -j "$(nproc)"

step "unit tests"
ctest --preset default --output-on-failure -j "$(nproc)"

step "chaos fault-injection suite (ctest -L chaos + stdout byte-identity)"
ctest --preset default -L chaos --output-on-failure
# The chaos campaigns are the only runs where the SED, LA and peer-MA
# heartbeat beacons and watchdogs all fire at scale, so their whole stdout
# is pinned (sha256 prefix), not just the science digest.
while read -r plan mas want; do
  got=$(./build/examples/zoom_campaign --fault-plan "$plan" --mas "$mas" \
          --digest 2>/dev/null | sha256sum | cut -c1-16)
  if [[ "$got" != "$want" ]]; then
    echo "chaos --fault-plan $plan --mas $mas: stdout $got, pinned $want"
    exit 1
  fi
done <<'PINS'
mixed      1 47c88cb1f75fa939
mixed      2 0c8861f5cdd1f651
crash-only 1 2cde4b73faaff0c1
crash-only 2 c5b6ae7a999a9e09
drop-only  1 59c2eba1bc94c9e6
drop-only  2 032928838a00916e
PINS
echo "6 chaos campaign stdouts byte-identical to their pins"

step "gclint over src/"
./build/tools/gclint/gclint src

step "model-checker smoke (ctest -L mc-smoke + mc_explore sweep)"
# Exhaustive DPOR verification of the bounded scenarios (src/mc): every
# inequivalent schedule of each scenario is executed and the invariant
# layer checked on all of them, plus the seeded-mutation detection proofs.
ctest --preset default -L mc-smoke --output-on-failure
# mc_explore exits 1 on any violation; completeness, exact explored and
# execution counts and sleep-set pruning are pinned per scenario in
# tests/test_mc.cpp (McSmoke.ScenariosExploreCleanWithPinnedCounts).
./build/examples/mc_explore

step "bench-smoke (bench_des --quick: five phold samples, five pingstorm pairs)"
# Not a benchmark run — a regression tripwire; perfbench is the record.
# The floor is set ~10x below what a 4-vCPU host sustains, so only a
# catastrophic DES-kernel slowdown, not machine noise, fails the gate, and
# every phold sample must clear it. The time-series sampler costs under 5%
# on pingstorm; bench_des exits 1 if the median sampled/unsampled ratio of
# its five interleaved pairs is at or below 0.90 (one pair is too noisy to
# gate on).
./build/bench/bench_des --quick --floor 250000

step "network smoke (bench_network --floor + compat digest gate)"
# The contention-aware flow model, end to end. bench_network --floor exits
# 1 unless the congested campaign keeps the volatile vs persistent+mct-data
# makespan separation at or above 20%, MPWide-style striping beats a single
# stream on the lossy WAN by at least 1.05x, the compat row (contention
# off) ran no flows, every congested row ran some, and no row lost calls.
./build/bench/bench_network --floor
# Contention-off digest gate: with the flow model compiled in but
# disabled, the stock 22-sub-sim campaign must still produce the exact
# pre-flow-model science digest.
DN=$(./build/examples/zoom_campaign --subsims 22 --digest | grep 'science digest')
[[ "${DN#*: }" == "f4a58abe6945215d" ]]
echo "contention-off campaign digest pinned (${DN#*: })"
# Whole-stdout pins (sha256 prefix) of three fault-free campaigns: the
# paper's default run, the 22-sub-sim run, and a congested persistent run
# whose pulls stripe over 4 WAN streams (96 flows against 33 with one).
while read -r want args; do
  # shellcheck disable=SC2086  # $args is a flag list, split on purpose
  got=$(./build/examples/zoom_campaign $args 2>/dev/null \
          | sha256sum | cut -c1-16)
  if [[ "$got" != "$want" ]]; then
    echo "zoom_campaign ${args:-(defaults)}: stdout $got, pinned $want"
    exit 1
  fi
done <<'PINS'
183148c006745a35
7ef59114c47c9370 --subsims 22 --digest
4a1e440416735eb4 --subsims 22 --contention --persistence persistent --policy mct-data --replicas 2 --wan-scale 0.02 --wan-streams 4 --wan-per-stream 1e7 --digest
PINS
echo "3 fault-free campaign stdouts byte-identical to their pins"

step "serving smoke (bench_serving --quick + federated digest gate)"
# Same tripwire philosophy as bench-smoke: the quick sweep sustains ~400
# virtual req/s single-MA, so only a serving-path collapse trips the 300
# floor. bench_serving exits 1 on any failed call, on a science digest that
# differs between the 1- and 2-MA sweep points, on a 2-MA run with no peer
# forwards, or if the quick sweep ran fewer than two MA points.
./build/bench/bench_serving --quick --floor 300
# The campaign itself must also be MA-count-invariant: the paper's 22
# sub-simulation experiment split across a 2-MA federation has to land on
# the same science digest as the stock single-MA run.
D1=$(./build/examples/zoom_campaign --subsims 22 --digest | grep 'science digest')
D2=$(./build/examples/zoom_campaign --subsims 22 --mas 2 --digest | grep 'science digest')
[[ -n "$D1" && "${D1#*: }" == "${D2#*: }" ]]
echo "campaign digest single-MA == 2-MA federation (${D1#*: })"

step "gcprof over a 22-sub-sim campaign (schema + determinism)"
# Two campaigns, different tie-break seeds: the journal and time-series
# exports must be byte-identical (virtual-time sampling, trace-id-sorted
# export), and gcprof --strict must give every request a complete
# client->MA->LA->SED path whose phases telescope to the latency.
GCP=build/gcprof_ci
mkdir -p "$GCP"
./build/examples/zoom_campaign --subsims 22 \
  --journal "$GCP/j1.jsonl" --timeseries "$GCP/t1.jsonl" \
  --metrics-interval 120 > /dev/null
./build/examples/zoom_campaign --subsims 22 --tie-seed 97 \
  --journal "$GCP/j2.jsonl" --timeseries "$GCP/t2.jsonl" \
  --metrics-interval 120 > /dev/null
cmp "$GCP/j1.jsonl" "$GCP/j2.jsonl"
cmp "$GCP/t1.jsonl" "$GCP/t2.jsonl"
# Schema spot-checks: journal lines carry the path and phase boundaries,
# series lines carry the sampled registry.
grep -q '"path": {"ma": ' "$GCP/j1.jsonl"
grep -q '"phases": {"submitted": ' "$GCP/j1.jsonl"
grep -q '"counters": {' "$GCP/t1.jsonl"
[[ "$(wc -l < "$GCP/j1.jsonl")" == "23" ]]   # zoom1 + 22 zoom2
./build/tools/gcprof/gcprof --journal "$GCP/j1.jsonl" \
  --timeseries "$GCP/t1.jsonl" --strict --json "$GCP/report1.json" \
  > "$GCP/report1.txt"
./build/tools/gcprof/gcprof --journal "$GCP/j2.jsonl" \
  --timeseries "$GCP/t2.jsonl" --strict --json "$GCP/report2.json" \
  > /dev/null
cmp "$GCP/report1.json" "$GCP/report2.json"
grep -q '"complete_paths": 23' "$GCP/report1.json"
grep -q '"violations": \[\]' "$GCP/report1.json"

step "clang-tidy (src/common + src/des)"
if command -v clang-tidy >/dev/null 2>&1; then
  # Focused pass over the foundational modules; the GC_CLANG_TIDY=ON
  # configure option runs it build-wide instead.
  clang-tidy -p build --quiet \
    src/common/*.cpp src/des/*.cpp
else
  echo "clang-tidy not installed; skipping (config: .clang-tidy)"
fi

if [[ "$FULL" == "1" ]]; then
  for san in tsan asan ubsan; do
    step "${san} smoke"
    cmake --preset "${san}"
    cmake --build --preset "${san}" -j "$(nproc)"
    ctest --preset "${san}-smoke"
  done
else
  echo
  echo "Skipped sanitizer smoke suites (run with --full)."
fi

echo
echo "All checks passed."
