#!/usr/bin/env bash
# ctest integration test for the CLI's exit-2 usage contract on option
# values: a misspelled --kind, a non-positive --samples or --points, a
# --size below 2 and training options PowerGear::Options::validate()
# rejects must all exit 2 with a usage message before any dataset is
# generated (the --cache-dir they point at must stay absent) or any model
# is loaded. Registered by tools/CMakeLists.txt with the built CLI as $1.
set -euo pipefail

CLI=${1:?usage: cli_usage_test.sh <path-to-powergear-cli>}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

# expect_usage <stderr-substring> <args...>: exit 2, the substring on
# stderr, nothing generated, trained or saved.
expect_usage() {
    local want=$1
    shift
    local status=0
    "$CLI" "$@" >out.txt 2>err.txt || status=$?
    [ "$status" -eq 2 ] ||
        { echo "FAIL: powergear $* exited $status, want 2"; cat out.txt err.txt; exit 1; }
    grep -qF -- "$want" err.txt ||
        { echo "FAIL: powergear $*: stderr lacks '$want'"; cat err.txt; exit 1; }
    if grep -q 'generating\|design point(s)\|samples, avg' out.txt; then
        echo "FAIL: powergear $* did work before rejecting"; cat out.txt; exit 1
    fi
    [ ! -e nogen ] && [ ! -e model.pgm ] ||
        { echo "FAIL: powergear $* wrote data before validating"; exit 1; }
}

train="train --kernels atax --samples 2 --size 6 --out model.pgm --cache-dir nogen"

echo "--- --kind accepts only total|dynamic"
expect_usage "--kind must be" $train --kind dynamc
expect_usage "--kind must be" estimate --model missing.pgm --kernel atax \
    --kind Total --cache-dir nogen

echo "--- --samples, --points and --size ranges"
expect_usage "--samples must be" gen --kernel atax --samples -1 --cache-dir nogen
expect_usage "--samples must be" gen --kernel atax --samples 0 --cache-dir nogen
expect_usage "--samples must be" dse --kernel atax --samples 0 --cache-dir nogen
expect_usage "--points must be" lint atax --points -3
expect_usage "--points must be" lint atax --points 0
expect_usage "--size must be" gen --kernel atax --size 1 --cache-dir nogen
expect_usage "--size must be" lint atax --size 0
expect_usage "--size must be" $train --size 1

echo "--- training options are validated before dataset generation"
expect_usage "API001" $train --epochs 0
expect_usage "API006" $train --hidden -2
expect_usage "API002" $train --folds 0 --seeds 0

echo "--- control: in-range values still run"
"$CLI" gen --kernel atax --samples 1 --size 4 > gen.txt
grep -q 'samples, avg' gen.txt || { echo "FAIL: gen control"; cat gen.txt; exit 1; }
"$CLI" lint atax --points 1 --size 4 > lint.txt
grep -q '1 design point(s)' lint.txt || { echo "FAIL: lint control"; cat lint.txt; exit 1; }

echo "cli_usage_test: ok"
