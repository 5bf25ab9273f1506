#!/usr/bin/env bash
# Build bench_regression of one committed revision: the reference side of
# scripts/bench_gate.py's A/B.
#
#   scripts/build_ref.sh <rev> <dir>   # -> <dir>/build/bench/bench_regression
#
# Exports <rev> with `git archive` into <dir> (no worktree, no checkout of
# the current tree) and builds only bench_regression, Release, with the same
# -Werror setting scripts/build_one.sh uses, through ccache when it is on
# PATH. The build dir sits one level under its source root, like
# build-check-<name>, so with CCACHE_BASEDIR set to a common parent the
# files the two revisions share hit the cache.
#
#   JOBS   build parallelism (default: nproc)
set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: $0 <rev> <dir>" >&2
    exit 2
fi
rev=$1
dir=$(realpath -m "$2")
cd "$(dirname "$0")/.."

mkdir -p "$dir"
git archive "$rev" | tar -x -C "$dir"
launcher=()
if command -v ccache >/dev/null 2>&1; then
    launcher=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi
echo "=== [ref $(git rev-parse --short "$rev")] configure + build ($dir/build) ==="
cmake -B "$dir/build" -S "$dir" -DPOWERGEAR_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Release "${launcher[@]}" >/dev/null
cmake --build "$dir/build" -j "${JOBS:-$(nproc)}" --target bench_regression
