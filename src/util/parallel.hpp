// Deterministic data-parallel runtime.
//
// A lazily-initialized global thread pool fans independent tasks out over
// worker threads. Sizing: `POWERGEAR_JOBS` (1 = fully serial, unset/0 =
// hardware concurrency), overridable at runtime via set_parallel_jobs (the
// CLI's --jobs flag). Determinism contract: parallel_for(n, fn) invokes
// fn(i) exactly once for every i in [0, n) with no cross-task ordering
// guarantee, so callers must make each task self-contained — writes go to
// the task's own output slot and randomness comes from a per-task Rng
// seeded from the caller's seed and the task index, never from a shared
// generator.
// Under that contract results are bit-identical for every job count,
// which the determinism test suite (tests/test_parallel.cpp) locks in for
// training, estimation and dataset generation.
//
// Nested parallel_for calls (a task that itself fans out) degrade to serial
// execution inside the worker — no deadlock, same results. Exceptions thrown
// by tasks are captured and the one from the lowest task index is rethrown
// after every task has finished, so error reporting is deterministic too.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace powergear::util {

/// Resolved worker count (>= 1). Reads POWERGEAR_JOBS on first use unless
/// set_parallel_jobs overrode it; 1 means every parallel_for runs inline.
int parallel_jobs();

/// Override the job count (0 = re-resolve from POWERGEAR_JOBS / hardware).
/// Tears down and lazily rebuilds the global pool when the size changes;
/// must not be called from inside a parallel_for task.
void set_parallel_jobs(int jobs);

/// Invoke fn(i) for every i in [0, n), fanning out over the global pool.
/// Blocks until all tasks completed. Runs inline when n <= 1, when the
/// resolved job count is 1, or when called from inside another parallel_for.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Map i -> fn(i) into an order-preserving vector (out[i] = fn(i)).
/// T must be default-constructible and move-assignable.
template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t n, Fn&& fn) {
    std::vector<T> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

} // namespace powergear::util
