#!/usr/bin/env bash
# reach_scan.sh — list the libpowergear functions no product binary keeps.
#
#   scripts/reach_scan.sh [WORK_DIR]
#
# Builds every product binary from scratch with -ffunction-sections (one
# ELF section per function) and links it with
# -Wl,--gc-sections,--print-gc-sections, so the linker reports each
# libpowergear.a section it drops as unreachable. The product binaries are
# the `powergear` CLI, bench_serve, bench_regression, the six table/figure
# benches, the six examples, and bench_e2e built from its standalone
# bench/e2e CMake project.
#
# Output, one line per candidate, sorted: the archive member and the
# demangled function. A function is listed when some binary dropped its
# section and no binary defines it (`nm --defined-only`). Compiler clone
# suffixes (.cold, .part.N, .isra.N, .constprop.N) are stripped before
# comparing, so a clone does not outlive its kept original.
#
# The list is a set of candidates to check by hand, not a gate. A function
# that is inlined into every caller leaves no symbol behind, so it shows up
# here even though product code runs it: grep for callers before deleting
# anything.
#
# WORK_DIR (default: a temporary directory, removed on exit) holds the two
# scratch builds; it must be empty or absent so every binary is relinked.
# JOBS (default 2) sets the build parallelism.
set -euo pipefail
export LC_ALL=C # sort and join must agree on the collation

root=$(cd "$(dirname "$0")/.." && pwd)
jobs=${JOBS:-2}
if [ $# -ge 1 ]; then
    work=$1
    mkdir -p "$work"
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi
if [ -n "$(ls -A "$work")" ]; then
    echo "reach_scan: $work is not empty" >&2
    exit 2
fi

cxx_flags="-ffunction-sections"
ld_flags="-Wl,--gc-sections,--print-gc-sections"
targets=(powergear_cli bench_serve bench_regression
         table1_accuracy table1_speedup table2_ablation table3_dse
         fig4_pareto ablation_flow
         activity_study api_consumer custom_kernel design_space_exploration
         power_report quickstart)

echo "reach_scan: building ${#targets[@]} product targets + bench_e2e in $work" >&2
cmake -S "$root" -B "$work/main" -G Ninja -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="$cxx_flags" -DCMAKE_EXE_LINKER_FLAGS="$ld_flags" \
    >/dev/null
cmake --build "$work/main" -j "$jobs" --target "${targets[@]}" \
    >"$work/main.log" 2>&1 ||
    { tail -20 "$work/main.log" >&2; exit 1; }
cmake -S "$root/bench/e2e" -B "$work/e2e" -G Ninja \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="$cxx_flags" -DCMAKE_EXE_LINKER_FLAGS="$ld_flags" \
    >/dev/null
cmake --build "$work/e2e" -j "$jobs" --target bench_e2e \
    >"$work/e2e.log" 2>&1 ||
    { tail -20 "$work/e2e.log" >&2; exit 1; }

strip_clones() { sed -E 's/\.(cold|part\.[0-9]+|isra\.[0-9]+|constprop\.[0-9]+)+$//'; }

# "removing unused section '.text.<sym>' in file '.../libpowergear.a(x.o)'"
# -> "x.o <sym>", for function sections only.
cat "$work/main.log" "$work/e2e.log" |
    sed -nE "s/.*removing unused section '\.text\.(unlikely\.|hot\.|startup\.)?([^']+)' in file '[^']*libpowergear\.a\(([^)]+)\)'.*/\3 \2/p" |
    strip_clones | sort -u >"$work/dropped.txt"

binaries=("$work/e2e/bench_e2e")
for t in "${targets[@]}"; do
    name=$t
    [ "$t" = powergear_cli ] && name=powergear
    bin=$(find "$work/main" -type f -name "$name" -perm -u+x | head -n 1)
    [ -n "$bin" ] || { echo "reach_scan: no binary for $t" >&2; exit 1; }
    binaries+=("$bin")
done
for bin in "${binaries[@]}"; do
    nm --defined-only "$bin" | awk 'NF >= 3 { print $3 }'
done | strip_clones | sort -u >"$work/kept.txt"

# Candidates: dropped somewhere, defined nowhere.
sort -k2,2 "$work/dropped.txt" |
    join -1 2 -2 1 -v 1 -o 1.1,1.2 - "$work/kept.txt" |
    c++filt | sort -u
