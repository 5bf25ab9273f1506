#!/usr/bin/env bash
# ctest integration test for scripts/bench_gate.py's exit-code contract:
# 0 ok, 1 a benchmark regressed or went missing, 2 usage or I/O error.
# Small fake "bench binaries" that write fixed powergear-bench-v1 JSON stand
# in for either side, so the verdicts are exact; one real run checks the
# plumbing end to end. Registered by bench/CMakeLists.txt with the built
# bench_regression as $1.
set -euo pipefail

BENCH=$(realpath "${1:?usage: bench_gate_test.sh <path-to-bench_regression>}")
GATE="$(cd "$(dirname "$0")/.." && pwd)/scripts/bench_gate.py"
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
export TMPDIR=$workdir
cd "$workdir"

# fake <name> <body>: a bench binary whose run writes <body> to its --out.
fake() {
    cat > "$1" <<EOF
#!/usr/bin/env bash
while [ \$# -gt 0 ]; do
    [ "\$1" = --out ] && out=\$2
    shift
done
printf '%s' '$2' > "\$out"
EOF
    chmod +x "$1"
}
doc() { echo "{\"schema\": \"powergear-bench-v1\", \"benchmarks\": {$1}}"; }

fake base "$(doc '"a": {"best_ms": 1.0}, "b": {"best_ms": 2.0}')"
fake slow "$(doc '"a": {"best_ms": 1.5}, "b": {"best_ms": 2.0}')"
fake missing "$(doc '"b": {"best_ms": 2.0}')"
fake extra "$(doc '"a": {"best_ms": 1.0}, "b": {"best_ms": 2.0}, "c": {"best_ms": 9.0}')"
fake malformed '{"schema": "powergear-bench-v1", "benchmarks": {'
fake wrong_schema '{"schema": "other", "benchmarks": {}}'
printf '#!/bin/sh\nexit 0\n' > silent
printf '#!/bin/sh\nexit 3\n' > crashes
printf '#!/bin/sh\nexec "%s" --filter schedule_bind "$@"\n' "$BENCH" > real
chmod +x silent crashes real

# expect <status> <args...>: the gate exits with exactly <status>.
expect() {
    local want=$1
    shift
    local status=0
    python3 "$GATE" "$@" >out.txt 2>err.txt || status=$?
    [ "$status" -eq "$want" ] ||
        { echo "FAIL: bench_gate.py $* exited $status, want $want"; cat out.txt err.txt; exit 1; }
}

echo "--- the real bench_regression against itself passes"
# Wide bound: ctest runs this beside other tests, so a 10% bound would test
# the host's load, not the plumbing.
expect 0 --bound 1.0 real real
grep -q "^schedule_bind " out.txt ||
    { echo "FAIL: no schedule_bind verdict"; cat out.txt; exit 1; }

echo "--- identical fakes pass; a benchmark only head has is new"
expect 0 base base
expect 0 base extra
grep -q "^c .* new$" out.txt || { echo "FAIL: c not reported new"; cat out.txt; exit 1; }

echo "--- a 1.5x slower head fails; so does a missing benchmark"
expect 1 base slow
grep -q "^a .* regression$" out.txt || { echo "FAIL: a not a regression"; cat out.txt; exit 1; }
expect 1 base missing
grep -q "^a .* missing$" out.txt || { echo "FAIL: a not missing"; cat out.txt; exit 1; }
expect 0 --bound 0.6 base slow
expect 0 slow base

echo "--- unreadable or malformed results and failed runs are I/O errors"
expect 2 base silent
expect 2 malformed base
expect 2 base wrong_schema
expect 2 crashes base
expect 2 base no_such_binary

echo "--- bad options are usage errors"
expect 2 --bogus base base
expect 2 base
expect 2 --bound 0 base base
expect 2 --bound x base base

echo "bench_gate_test: all exit codes hold"
