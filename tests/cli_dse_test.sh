#!/usr/bin/env bash
# ctest integration test for the sharded streaming-DSE CLI surface: two
# concurrent `powergear dse --shard i/2` workers must divide one design
# space through the work-stealing manifest, the merged 2-shard frontier
# must be byte-identical to an unsharded 1/1 sweep of the same space, the
# unsharded warm run must hit the sample cache the shards populated, and a
# resumed/repeated shard run must be a no-op (every chunk already Done).
# Registered by tools/CMakeLists.txt with the built CLI as $1.
set -euo pipefail

CLI=${1:?usage: cli_dse_test.sh <path-to-powergear-cli>}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

space="--kernel atax --size 8 --chunk 8 --limit 48"

echo "--- two shard workers sweep the space concurrently"
"$CLI" dse $space --shard 1/2 --cache-dir cache > shard1.txt &
pid1=$!
"$CLI" dse $space --shard 2/2 --cache-dir cache > shard2.txt &
pid2=$!
wait "$pid1" || { echo "FAIL: shard 1/2 exited nonzero"; cat shard1.txt; exit 1; }
wait "$pid2" || { echo "FAIL: shard 2/2 exited nonzero"; cat shard2.txt; exit 1; }
grep -q 'chunk(s) claimed' shard1.txt || { echo "FAIL: shard 1 claimed nothing"; cat shard1.txt; exit 1; }
grep -q 'chunk(s) claimed' shard2.txt || { echo "FAIL: shard 2 claimed nothing"; cat shard2.txt; exit 1; }
find cache/dse -name '*.mf' | grep -q . || { echo "FAIL: no manifest written"; exit 1; }

echo "--- together the workers cover all 6 chunks exactly once"
python3 - shard1.txt shard2.txt <<'EOF'
import re, sys
claimed = 0
for path in sys.argv[1:]:
    m = re.search(r"(\d+) chunk\(s\) claimed", open(path).read())
    assert m, f"{path}: no claim count"
    claimed += int(m.group(1))
assert claimed == 6, f"expected 6 chunks claimed in total, got {claimed}"
EOF

echo "--- merged frontier"
"$CLI" dse $space --merge 2 --cache-dir cache > merged.txt
grep -q 'frontier' merged.txt || { echo "FAIL: merge printed no frontier"; cat merged.txt; exit 1; }

echo "--- unsharded 1/1 sweep reuses the shards' sample cache"
"$CLI" dse $space --shard 1/1 --cache-dir cache --metrics uns.json > uns_run.txt
"$CLI" dse $space --merge 1 --cache-dir cache > unsharded.txt
python3 - <<'EOF'
import json
rep = json.load(open("uns.json"))
counters = rep["phases"]["cache"]["counters"]
assert counters.get("hits", 0) > 0, f"no cache hits: {counters}"
EOF

echo "--- 2-shard merged frontier is byte-identical to unsharded"
cmp <(tail -n +2 merged.txt) <(tail -n +2 unsharded.txt) ||
    { echo "FAIL: sharded and unsharded frontiers differ"
      diff merged.txt unsharded.txt || true; exit 1; }

echo "--- re-running a shard is a no-op (manifest says all chunks Done)"
"$CLI" dse $space --shard 1/2 --cache-dir cache > rerun.txt
grep -q '0 chunk(s) claimed' rerun.txt ||
    { echo "FAIL: rerun re-claimed completed chunks"; cat rerun.txt; exit 1; }

echo "--- streaming mode on an evaluated pool reports ADRS"
"$CLI" dse --kernel atax --size 6 --samples 8 --stream --chunk 8 > stream.txt ||
    { echo "FAIL: --stream exited nonzero"; cat stream.txt; exit 1; }
grep -q 'ADRS' stream.txt || { echo "FAIL: no ADRS in stream output"; cat stream.txt; exit 1; }
grep -q 'frontier' stream.txt || { echo "FAIL: no frontier in stream output"; exit 1; }

echo "--- malformed --shard specs and dse option values keep the exit-2 usage contract"
for bad in 0/2 3/2 2 a/b 1/2/3; do
    status=0
    "$CLI" dse $space --shard "$bad" --cache-dir cache >/dev/null 2>err.txt ||
        status=$?
    [ "$status" -eq 2 ] || { echo "FAIL: --shard $bad exited $status, want 2"; exit 1; }
done
# The explorer modes point at a fresh cache: rejected values must exit
# before any dataset generation, which would populate it.
for mode in "--shard 1/1 --cache-dir cache" "--merge 1 --cache-dir cache" \
            "--stream --cache-dir nogen" "--cache-dir nogen"; do
    for bad in "--chunk -1" "--chunk 0" "--limit -1" \
               "--epsilon 0.1" "--max-archive 8" \
               "--spread-gate -1" "--spread-gate nan" \
               "--budget 0" "--budget nan"; do
        status=0
        # shellcheck disable=SC2086 # word-split the option lists on purpose
        "$CLI" dse --kernel atax --size 6 $mode $bad >/dev/null 2>err.txt ||
            status=$?
        [ "$status" -eq 2 ] ||
            { echo "FAIL: dse $mode $bad exited $status, want 2"; cat err.txt; exit 1; }
    done
done
[ ! -e nogen ] ||
    { echo "FAIL: a rejected dse run generated data before validating"; exit 1; }

echo "--- sharding without a cache directory fails with guidance"
if "$CLI" dse $space --shard 1/2 2>err.txt; then
    echo "FAIL: shard without cache dir should fail"; exit 1
fi
grep -qi 'cache' err.txt || { echo "FAIL: unhelpful error"; cat err.txt; exit 1; }

echo "cli_dse_test: ok"
