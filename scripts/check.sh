#!/usr/bin/env bash
# Sanitizer-hardened verification gate.
#
# Builds the tree four ways — plain Release, AddressSanitizer,
# UndefinedBehaviorSanitizer and ThreadSanitizer (sanitizers at
# RelWithDebInfo so the test suite stays fast) — with warnings-as-errors
# everywhere, runs the full ctest suite under each, then re-runs the
# Release suite under both POWERGEAR_JOBS=1 and POWERGEAR_JOBS=4 to prove
# the thread-pool runtime is deterministic and safe at either extreme.
# Finishes with a `powergear lint --all` sweep over every built-in kernel
# (paper + extended; must report zero diagnostics, exit 0), a serve-daemon
# load-generator leg (warm path must hold >= 20x over the cold process
# path), an install-tree consumer build (the facade header + exported
# CMake target must be the whole external surface), and the bench gate.
#
# Each flavor is built by scripts/build_one.sh — the same entry point
# .github/workflows/ci.yml uses, so local and CI builds cannot drift apart.
#
#   scripts/check.sh            # all four builds + jobs matrix + lint
#   JOBS=4 scripts/check.sh     # cap build/test parallelism
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
export JOBS

# --- preflight: fail fast with a clear message, not 40 lines of cmake spew --
if ! command -v cmake >/dev/null 2>&1; then
    echo "check.sh: error: cmake not found on PATH." >&2
    echo "  install cmake >= 3.16 (e.g. 'apt-get install cmake')" >&2
    exit 1
fi
if ! command -v c++ >/dev/null 2>&1 && ! command -v g++ >/dev/null 2>&1 &&
   ! command -v clang++ >/dev/null 2>&1; then
    echo "check.sh: error: no C++ compiler (c++/g++/clang++) on PATH." >&2
    exit 1
fi
# The sanitizer builds need compiler+runtime support; probe with a 1-line TU
# so a missing libasan fails here with one readable message.
probe_dir=$(mktemp -d)
trap 'rm -rf "$probe_dir"' EXIT
echo 'int main(){return 0;}' > "$probe_dir/probe.cpp"
for flag in address undefined thread; do
    if ! c++ -fsanitize=$flag "$probe_dir/probe.cpp" -o "$probe_dir/probe" \
            >/dev/null 2>&1; then
        echo "check.sh: error: compiler cannot link -fsanitize=$flag." >&2
        echo "  install the sanitizer runtimes (gcc: libasan/libubsan/libtsan," >&2
        echo "  clang: compiler-rt) or use a toolchain that ships them" >&2
        exit 1
    fi
done

scripts/build_one.sh release -DCMAKE_BUILD_TYPE=Release
scripts/build_one.sh asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPOWERGEAR_ASAN=ON
scripts/build_one.sh ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPOWERGEAR_UBSAN=ON
scripts/build_one.sh tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPOWERGEAR_TSAN=ON

# Thread-pool job matrix: the full suite must pass fully serial and with a
# forced 4-worker pool (the determinism tests additionally assert that both
# settings produce bit-identical weights, estimates and dataset labels).
for n in 1 4; do
    echo "=== [jobs=$n] ctest (POWERGEAR_JOBS=$n) ==="
    (cd build-check-release &&
        POWERGEAR_JOBS=$n ctest --output-on-failure -j "$JOBS")
done

echo "=== lint: every built-in kernel must be diagnostic-free ==="
# --all sweeps the paper's nine kernels plus the extended set through the
# full checker stack (IR, dataflow DF001-004, schedule, graph, tensor);
# any Error-severity diagnostic makes the CLI exit nonzero — same leg CI runs.
./build-check-release/tools/powergear lint --all

echo "=== serve leg: warm-daemon load generator + speedup floor ==="
# 1/4/16-connection closed-loop load plus the pipelined coalescing path;
# the warm daemon must hold the documented >= 20x over the cold
# `powergear estimate` process path (EXPERIMENTS.md "Serving").
./build-check-release/bench/bench_serve --requests 200 --out SERVE_check.json
python3 - <<'EOF'
import json
rep = json.load(open("SERVE_check.json"))
speedup = rep["speedup_vs_cold_process"]
assert speedup >= 20.0, f"warm daemon only {speedup:.1f}x vs cold process path"
print(f"serve leg ok: {speedup:.1f}x vs cold, "
      f"p95@16conns {rep['connections']['16']['p95_ms']:.2f} ms")
EOF

echo "=== install-tree API consumer: facade header + exported target only ==="
# Install into a scratch prefix and build examples/api_consumer.cpp as an
# out-of-tree project: find_package(powergear CONFIG) + the one facade
# header must be the entire surface an external client needs.
stage=$(mktemp -d)
consumer=$(mktemp -d)
cmake --install build-check-release --prefix "$stage" > /dev/null
cp examples/api_consumer.cpp "$consumer/main.cpp"
cat > "$consumer/CMakeLists.txt" <<'EOT'
cmake_minimum_required(VERSION 3.16)
project(pg_consumer CXX)
set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)
find_package(powergear CONFIG REQUIRED)
add_executable(consumer main.cpp)
target_link_libraries(consumer PRIVATE powergear::powergear)
EOT
cmake -B "$consumer/build" -S "$consumer" \
    -DCMAKE_BUILD_TYPE=Release -DCMAKE_PREFIX_PATH="$stage" > /dev/null
cmake --build "$consumer/build" -j "$JOBS" > /dev/null
"$consumer/build/consumer"
rm -rf "$stage" "$consumer"

echo "=== bench gate: no perf regression vs bench/baseline.json ==="
python3 scripts/bench_gate.py --baseline bench/baseline.json \
    --run build-check-release/bench/bench_regression --reps 3 \
    --out BENCH_check.json

echo "check.sh: release + asan + ubsan + tsan + jobs matrix + lint + serve + consumer + bench gate all green"
