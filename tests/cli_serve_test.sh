#!/usr/bin/env bash
# ctest integration test for the serve daemon CLI surface: train a tiny
# model, run `powergear serve`, exercise ping/reload/SIGHUP/stop against it,
# check the drain metrics, the live-daemon bind refusal, a flat fd count
# under connection churn, and the usage-error contract of the declarative
# option layer (exit 2 + did-you-mean).
# Registered by tools/CMakeLists.txt with the built CLI as $1.
set -euo pipefail

CLI=${1:?usage: cli_serve_test.sh <path-to-powergear-cli>}
workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT
cd "$workdir"
# Keep the socket path short: sun_path holds ~107 bytes and mktemp -d can
# sit under a deep TMPDIR.
sock="/tmp/pgcli_$$.sock"

echo "--- train a tiny model"
"$CLI" train --kernels atax --samples 6 --size 8 \
    --epochs 2 --folds 2 --seeds 1 --hidden 8 --out model.pgm > /dev/null

echo "--- daemon starts and answers ping"
"$CLI" serve --model model.pgm --socket "$sock" \
    --metrics serve.json 2> daemon.log &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.05
done
[ -S "$sock" ] || { echo "FAIL: daemon never bound $sock"; cat daemon.log; exit 1; }
"$CLI" serve --socket "$sock" --ping | grep -q 'generation 1' ||
    { echo "FAIL: ping did not report generation 1"; exit 1; }

echo "--- --reload hot-swaps (generation bumps)"
"$CLI" serve --socket "$sock" --reload | grep -q 'generation 2' ||
    { echo "FAIL: reload did not report generation 2"; exit 1; }

echo "--- SIGHUP hot-swaps too"
kill -HUP "$daemon_pid"
for _ in $(seq 1 100); do
    "$CLI" serve --socket "$sock" --ping | grep -q 'generation 3' && break
    sleep 0.05
done
"$CLI" serve --socket "$sock" --ping | grep -q 'generation 3' ||
    { echo "FAIL: SIGHUP did not reload"; exit 1; }

echo "--- a second daemon refuses a live socket"
if "$CLI" serve --model model.pgm --socket "$sock" 2> second.log; then
    echo "FAIL: second daemon bound over a live one"; exit 1
fi
grep -q 'already serving' second.log ||
    { echo "FAIL: unhelpful live-socket error"; cat second.log; exit 1; }

echo "--- POWERGEAR_SOCKET env fallback"
POWERGEAR_SOCKET="$sock" "$CLI" serve --ping | grep -q 'generation 3' ||
    { echo "FAIL: POWERGEAR_SOCKET ignored"; exit 1; }

echo "--- --stop drains cleanly and writes serve metrics"
"$CLI" serve --socket "$sock" --stop > /dev/null
wait "$daemon_pid" || { echo "FAIL: daemon exited nonzero"; cat daemon.log; exit 1; }
daemon_pid=""
[ -S "$sock" ] && { echo "FAIL: drained daemon left its socket"; exit 1; }
grep -q 'drained' daemon.log ||
    { echo "FAIL: no drain summary"; cat daemon.log; exit 1; }
python3 - <<'EOF'
import json
rep = json.load(open("serve.json"))
serve = rep["phases"].get("serve", {})
assert serve.get("counters", {}).get("reloads", 0) >= 2, \
    f"serve metrics missed the reloads: {serve}"
EOF

echo "--- connection churn leaves the daemon's fd count flat"
# 100 one-shot clients against a daemon limited to 48 fds: a daemon that
# kept one fd per finished connection would run out and stop answering.
(ulimit -n 48 && exec "$CLI" serve --model model.pgm --socket "$sock") \
    2> churn.log &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.05
done
timeout 10 "$CLI" serve --socket "$sock" --ping > /dev/null ||
    { echo "FAIL: churn daemon never answered"; cat churn.log; exit 1; }
fds_before=$(ls "/proc/$daemon_pid/fd" | wc -l)
for i in $(seq 1 100); do
    timeout 10 "$CLI" serve --socket "$sock" --ping > /dev/null ||
        { echo "FAIL: ping $i of 100 failed"; cat churn.log; exit 1; }
done
for _ in $(seq 1 20); do
    fds_after=$(ls "/proc/$daemon_pid/fd" | wc -l)
    [ "$fds_after" -le "$fds_before" ] && break
    sleep 0.05
done
[ "$fds_after" -le "$fds_before" ] ||
    { echo "FAIL: daemon fds grew $fds_before -> $fds_after"; exit 1; }
"$CLI" serve --socket "$sock" --stop > /dev/null
wait "$daemon_pid" || { echo "FAIL: churn daemon exited nonzero"; cat churn.log; exit 1; }
daemon_pid=""

echo "--- usage errors exit 2 with suggestions"
rc=0; "$CLI" serve --sokcet "$sock" 2> err.txt || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: unknown flag exit $rc, want 2"; exit 1; }
grep -q 'did you mean --socket' err.txt ||
    { echo "FAIL: no suggestion for --sokcet"; cat err.txt; exit 1; }
rc=0; "$CLI" gen --socket "$sock" 2> err.txt || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: misapplied flag exit $rc, want 2"; exit 1; }
grep -q 'does not apply' err.txt ||
    { echo "FAIL: no applicability error"; cat err.txt; exit 1; }
rc=0; "$CLI" serve --max-batch lots 2> err.txt || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: bad int exit $rc, want 2"; exit 1; }
grep -q 'expects an integer' err.txt ||
    { echo "FAIL: no type diagnostic"; cat err.txt; exit 1; }
rc=0; "$CLI" sevre 2> err.txt || rc=$?
[ "$rc" -eq 1 ] || { echo "FAIL: unknown command exit $rc, want 1"; exit 1; }
grep -q "did you mean 'serve'" err.txt ||
    { echo "FAIL: no command suggestion"; cat err.txt; exit 1; }

echo "cli_serve_test: ok"
