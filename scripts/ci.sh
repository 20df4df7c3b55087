#!/usr/bin/env bash
# CI entry point: tier-1 verification plus the thread-sanitized smoke
# suite and the address-sanitized simulator, DRAM-model and profile
# I/O tests. The perf-trajectory gate runs last: its baselines may
# come from another host, and a failing gate must not hide the suites.
# Mirrors what a contributor runs locally (see ROADMAP.md):
#
#   scripts/ci.sh            # tier-1 + bench smoke + tsan + asan + gate
#   scripts/ci.sh --quick    # skip the sanitizer builds
#
# Build directories: build/ (tier-1), build-tsan/ (REAPER_SANITIZE=
# thread) and build-asan/ (REAPER_SANITIZE=address). All are
# incremental across runs.
set -euo pipefail

cd "$(dirname "$0")/.."

quick=0
if [[ "${1:-}" == "--quick" ]]; then
    quick=1
fi

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "=== tier-1: configure + build ==="
cmake -B build -S .
cmake --build build -j "$jobs"

echo "=== tier-1: ctest ==="
(cd build && ctest --output-on-failure -j "$jobs")

# How much of src/ the benches, examples and perfbench reach through
# their includes, and which headers only tests reach. A report for
# later changes to quote, not a gate.
echo "=== tier-1: src reach ==="
if command -v python3 > /dev/null; then
    python3 scripts/src_reach.py
else
    echo "python3 not found: skipping src reach report"
fi

echo "=== bench smoke: bench_serve (REAPER_BENCH_QUICK=1) ==="
(cd build && REAPER_BENCH_QUICK=1 ./bench/bench_serve > /dev/null)

# bench_io exits nonzero only when a round trip is not bit-exact;
# performance is gated by check_bench.py at the end. Full mode (not quick)
# so the io metrics compare like-for-like with bench/baselines/.
echo "=== bench smoke: bench_io (full mode, round-trip gate) ==="
(cd build && ./bench/bench_io > /dev/null)

# Lazy-view gate: a cold point lookup against the 1M-cell profile
# must decode at most 2 blocks (profiling.view_block_decodes) — the
# property that keeps serve-side miss latency from scaling with
# profile size. bench_io records the per-lookup decode count in its
# point_lookup rows.
if command -v python3 > /dev/null; then
    python3 - <<'EOF'
import json, sys
doc = json.load(open("build/BENCH_io.json"))
rows = [r for r in doc["point_lookup"] if r["cells"] >= 1000000]
if not rows:
    sys.exit("view laziness gate: no 1M-cell point_lookup row")
bpl = rows[0]["blocks_per_lookup"]
if bpl > 2:
    sys.exit(f"view laziness gate: cold point lookup decoded "
             f"{bpl} blocks (> 2) on {rows[0]['cells']} cells")
print(f"view laziness gate: {bpl} block(s) decoded per cold lookup "
      f"on {rows[0]['cells']} cells")
EOF
fi

# bench_disturb exits nonzero when a repeated rowhammer-profiler run
# is not bit-identical; its resolution=2048 rows/sec figure feeds the
# trajectory gate at the end. Full mode so it compares like-for-like with
# the committed baseline.
echo "=== bench smoke: bench_disturb (full mode, determinism gate) ==="
(cd build && ./bench/bench_disturb > /dev/null)

echo "=== net smoke: daemon + loadgen over loopback ==="
(
    cd build
    rm -rf net_smoke_store net_smoke.port net_smoke.prom \
        net_smoke.trace.json
    REAPER_OBS=counters ./examples/serve_daemon \
        --dir net_smoke_store --listen 127.0.0.1:0 \
        --port-file net_smoke.port --workers 2 \
        --obs-dump net_smoke > net_smoke_daemon.log 2>&1 &
    daemon_pid=$!
    # Wait for the ephemeral port to be published.
    for _ in $(seq 1 100); do
        [[ -s net_smoke.port ]] && break
        kill -0 "$daemon_pid" 2>/dev/null || {
            echo "net smoke: daemon died during startup" >&2
            cat net_smoke_daemon.log >&2
            exit 1
        }
        sleep 0.1
    done
    [[ -s net_smoke.port ]] || {
        echo "net smoke: daemon never wrote --port-file" >&2
        exit 1
    }
    port="$(cat net_smoke.port)"
    # serve_loadgen exits nonzero on any protocol error, connection
    # failure, or unanswered request; assert nonzero QPS on top.
    ./examples/serve_loadgen --connect "127.0.0.1:$port" \
        --connections 2 --pipeline 4 --batch 64 --queries 20000 \
        --json > net_smoke_loadgen.json
    qps="ok"
    if command -v python3 > /dev/null; then
        qps="$(python3 -c \
            "import json;print(int(json.load(open('net_smoke_loadgen.json'))['qps']))")"
        errors="$(python3 -c \
            "import json;print(json.load(open('net_smoke_loadgen.json'))['protocol_errors'])")"
        if [[ "$qps" -le 0 || "$errors" != "0" ]]; then
            echo "net smoke: qps=$qps protocol_errors=$errors" >&2
            exit 1
        fi
    fi
    # Graceful shutdown: SIGTERM must drain and write the obs dump.
    kill -TERM "$daemon_pid"
    wait "$daemon_pid" || {
        echo "net smoke: daemon exited nonzero on SIGTERM" >&2
        cat net_smoke_daemon.log >&2
        exit 1
    }
    [[ -s net_smoke.prom ]] || {
        echo "net smoke: net_smoke.prom missing after shutdown" >&2
        exit 1
    }
    echo "net smoke: qps=$qps over the wire, graceful SIGTERM ok"
)

echo "=== obs smoke: counters-mode run exports Prometheus text ==="
(
    cd build
    rm -f obs_smoke.prom obs_smoke.json obs_smoke.trace.json
    REAPER_BENCH_QUICK=1 REAPER_OBS=counters REAPER_OBS_DUMP=obs_smoke \
        ./bench/bench_serve > /dev/null
    [[ -s obs_smoke.prom ]] || {
        echo "obs smoke: obs_smoke.prom missing or empty" >&2
        exit 1
    }
    # The serving path and the campaign store must both have recorded.
    for metric in reaper_serve_requests_total \
                  reaper_campaign_store_commits_total; do
        value="$(awk -v m="$metric" '$1 == m { print $2 }' \
            obs_smoke.prom)"
        if [[ -z "$value" || "$value" == "0" ]]; then
            echo "obs smoke: $metric missing or zero" >&2
            exit 1
        fi
    done
    echo "obs smoke: obs_smoke.prom ok"
)

# Off-mode observability must not tax the DRAM read path. Compare the
# hot read benches with REAPER_OBS=off vs =counters on this machine;
# tolerance is env-tunable (REAPER_OBS_PERF_TOL, ratio) because shared
# CI runners are noisy — locally 1.02 is realistic. One sample per
# mode can trip the guard on noise alone, so each run takes the median
# of 5 repetitions, the two modes alternate over 3 runs each, and the
# guard compares the median of each mode's run medians.
echo "=== obs perf guard: REAPER_OBS=off read path ==="
obs_tol="${REAPER_OBS_PERF_TOL:-1.10}"
if command -v python3 > /dev/null; then
    (
        cd build
        filter='BM_DeviceReadAndCompare|BM_ProfilerIteration'
        rm -f obs_perf_off*.json obs_perf_on*.json
        for run in 1 2 3; do
            REAPER_OBS=off ./bench/bench_micro \
                --benchmark_filter="$filter" \
                --benchmark_repetitions=5 \
                --benchmark_report_aggregates_only=true \
                --benchmark_format=json > "obs_perf_off_$run.json"
            REAPER_OBS=counters ./bench/bench_micro \
                --benchmark_filter="$filter" \
                --benchmark_repetitions=5 \
                --benchmark_report_aggregates_only=true \
                --benchmark_format=json > "obs_perf_on_$run.json"
        done
        python3 - "$obs_tol" <<'EOF'
import glob, json, statistics, sys

tol = float(sys.argv[1])
def times(pattern):
    """Per benchmark, the median over runs of each run's _median."""
    runs = {}
    for path in sorted(glob.glob(pattern)):
        with open(path) as f:
            data = json.load(f)
        for b in data["benchmarks"]:
            if b.get("aggregate_name") == "median":
                runs.setdefault(b["run_name"], []).append(b["real_time"])
    return {name: statistics.median(t) for name, t in runs.items()}

off, on = times("obs_perf_off_*.json"), times("obs_perf_on_*.json")
if not off:
    sys.exit("obs perf guard: no _median rows in the off-mode runs")
failed = False
for name in sorted(off):
    if name not in on:
        sys.exit(f"obs perf guard: {name} missing from counters run")
    # off must not be slower than counters by more than the tolerance
    # (counters-mode is the baseline that actually does work).
    slowdown = off[name] / on[name]
    print(f"  {name}: off/counters = {slowdown:.3f} (tol {tol})")
    if slowdown > tol:
        failed = True
if failed:
    sys.exit("obs perf guard: off-mode slower than tolerance")
print("obs perf guard: ok")
EOF
    )
else
    echo "python3 not found: skipping obs perf guard"
fi

if [[ "$quick" == "1" ]]; then
    echo "=== quick mode: skipping sanitizer suite ==="
else
    echo "=== sanitize: configure + build (REAPER_SANITIZE=thread) ==="
    cmake -B build-tsan -S . -DREAPER_SANITIZE=thread
    cmake --build build-tsan -j "$jobs" \
        --target test_fleet test_campaign test_serve \
                 test_profile_store_concurrent test_obs test_simd \
                 test_net_server test_disturb

    echo "=== sanitize: ctest -L sanitize ==="
    (cd build-tsan && ctest -L sanitize --output-on-failure -j "$jobs")

    echo "=== sanitize: configure + build (REAPER_SANITIZE=address) ==="
    cmake -B build-asan -S . -DREAPER_SANITIZE=address
    cmake --build build-asan -j "$jobs" \
        --target test_cache test_core test_memctrl test_memctrl_modes \
                 test_system test_properties_sim test_endtoend

    echo "=== sanitize: ctest -L sim (simulator under ASan) ==="
    (cd build-asan && ctest -L sim --output-on-failure -j "$jobs")

    cmake --build build-asan -j "$jobs" \
        --target test_device test_device_dynamics test_module \
                 test_retention_model test_math_util test_reach \
                 test_brute_force

    echo "=== sanitize: ctest -L dram (DRAM chip model under ASan) ==="
    (cd build-asan && ctest -L dram --output-on-failure -j "$jobs")

    cmake --build build-asan -j "$jobs" \
        --target test_profile_view test_profile_binary test_profile_delta \
                 test_serve

    echo "=== sanitize: ctest -L io (profile views and cache under ASan) ==="
    (cd build-asan && ctest -L io --output-on-failure -j "$jobs")
fi

# Perf-trajectory gate: diff the fresh bench JSON against the
# committed baselines (REAPER_BENCH_TOL, default 15%). Benches that
# did not run in this job, ran quick-mode, or ran in a different
# REAPER_SIMD mode than their baseline are skipped as advisories —
# here that means the io gate is strict and the quick serve run is
# annotated, not gated.
echo "=== perf trajectory: check_bench.py vs bench/baselines ==="
if command -v python3 > /dev/null; then
    python3 scripts/check_bench.py --current-dir build \
        --report build/bench_report.md
else
    echo "python3 not found: skipping bench trajectory gate"
fi

echo "=== ci.sh: all suites passed ==="
