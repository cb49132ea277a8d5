#!/usr/bin/env bash
# Tier-1 verification: plain build + full test suite, then (optionally) the
# same suite under a sanitizer.
#
#   scripts/check.sh                # RelWithDebInfo build + ctest
#   scripts/check.sh thread         # additionally build + ctest with TSan
#   scripts/check.sh address        # additionally build + ctest with ASan
#   scripts/check.sh --sim 500      # simulation suite only (label `sim`),
#                                   # with the given randomized schedule count
#   scripts/check.sh --obs          # observability suite only (label `obs`):
#                                   # end-to-end tracing + flight recorder
#   scripts/check.sh --health       # health-plane suite only (label `health`):
#                                   # time-series metrics, watchdogs, admin
#                                   # endpoint, deterministic stall detection
#   scripts/check.sh --readpath     # read-path suite only (label `readpath`):
#                                   # entry cache, prefetcher, tail memoization,
#                                   # cache-on/off sim verdict identity
#   scripts/check.sh --verify [N]   # verification suite only (label `verify`):
#                                   # linearizability checker units, the N-seed
#                                   # fault-sweep audit (default 24), mutation
#                                   # self-tests, delosctl smoke test
#   scripts/check.sh --workload     # workload-attribution suite only (label
#                                   # `workload`): sketch units, attributor
#                                   # taps, replay byte-identity sim sweep
#   scripts/check.sh --digest       # divergence-detection suite only (label
#                                   # `digest`): digest/divergence units plus
#                                   # the sabotage-conviction + fault-free
#                                   # false-positive sim sweeps
#
# The simulation tests read DELOS_SIM_SCHEDULES for their randomized schedule
# count (default 200). Sanitizer suites run with a reduced count — each
# schedule is several times slower under TSan — unless the caller already set
# one in the environment.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
SANITIZER_SIM_SCHEDULES="${DELOS_SIM_SCHEDULES:-25}"

run_suite() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

if [[ "${1:-}" == "--sim" ]]; then
  SEED_COUNT="${2:-200}"
  if ! [[ "$SEED_COUNT" =~ ^[0-9]+$ && "$SEED_COUNT" -gt 0 ]]; then
    echo "check.sh: --sim expects a positive schedule count, got '${2:-}'" >&2
    exit 2
  fi
  echo "== simulation suite (${SEED_COUNT} randomized schedules) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  DELOS_SIM_SCHEDULES="$SEED_COUNT" \
    ctest --test-dir build -L sim --output-on-failure -j "$JOBS"
  echo "check.sh: simulation suite passed"
  exit 0
fi

# Label suites: build, then run one CTest label (the flag's name). The
# pass message names the suite as its banner does, up to the parenthesis.
case "${1:-}" in
  --obs) SUITE="observability suite (tracing + flight recorder)" ;;
  --health) SUITE="health-plane suite (time-series metrics + watchdogs + admin endpoint)" ;;
  --readpath) SUITE="read-path suite (entry cache + prefetcher + tail memoization)" ;;
  --workload) SUITE="workload-attribution suite (streaming sketches + replay identity)" ;;
  --digest) SUITE="divergence-detection suite (digest beacons + sabotage conviction sweep)" ;;
  *) SUITE="" ;;
esac
if [[ -n "$SUITE" ]]; then
  echo "== ${SUITE} =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  ctest --test-dir build -L "${1#--}" --output-on-failure -j "$JOBS"
  echo "check.sh: ${SUITE%% (*} passed"
  exit 0
fi

if [[ "${1:-}" == "--verify" ]]; then
  SEED_COUNT="${2:-24}"
  if ! [[ "$SEED_COUNT" =~ ^[0-9]+$ && "$SEED_COUNT" -gt 0 ]]; then
    echo "check.sh: --verify expects a positive seed count, got '${2:-}'" >&2
    exit 2
  fi
  echo "== verification suite (linearizability audit, ${SEED_COUNT}-seed fault sweep) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  DELOS_VERIFY_SCHEDULES="$SEED_COUNT" \
    ctest --test-dir build -L verify --output-on-failure -j "$JOBS"
  echo "check.sh: verification suite passed"
  exit 0
fi

SAN="${1:-}"
if [[ -n "$SAN" && "$SAN" != "thread" && "$SAN" != "address" ]]; then
  echo "check.sh: unknown sanitizer '$SAN' (expected 'thread', 'address', '--sim N', '--obs', '--health', '--readpath', '--verify N', '--workload', or '--digest')" >&2
  exit 2
fi

echo "== plain build + ctest =="
run_suite build

if [[ -n "$SAN" ]]; then
  echo "== ${SAN} sanitizer build + ctest =="
  DELOS_SIM_SCHEDULES="$SANITIZER_SIM_SCHEDULES" \
    run_suite "build-${SAN}" "-DDELOS_SANITIZE=${SAN}"
fi

echo "check.sh: all suites passed"
