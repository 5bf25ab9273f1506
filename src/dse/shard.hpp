// Sharded ground-truth sweeps: N worker processes, one cache, no
// coordinator (DESIGN.md §14).
//
// The directive space is cut into fixed-size chunks of the candidate
// stream's global visit order (CandidateStream::chunk_indices — identical
// for every worker). Workers race to claim chunks through an append-only
// io::Manifest living in the cache's dse/ stage directory: each worker
// claims its preferred chunks (chunk id ≡ worker-1 mod N) first, then
// steals whatever is still unclaimed, so a fast worker absorbs a slow
// one's backlog and the sweep finishes when the chunk set is covered —
// whichever worker got there first.
//
// Every sample a worker generates lands in the shared content-addressed
// cache keyed by raw space index (dataset::generate_design_points), so
// duplicated work — a lost claim race, a corrupt manifest record degrading
// to recomputation — costs time, never correctness. Each worker archives
// its points incrementally and publishes its frontier as one "dse" stage
// artifact; merge_shards folds the N artifacts into the final frontier.
// Because ParetoArchive is exact, insertion-order invariant and keeps the
// lowest-index representative of equal points, the merged frontier is
// bit-identical to an unsharded (1-of-1) sweep of the same space.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/generator.hpp"
#include "dse/pareto.hpp"
#include "io/cache.hpp"

namespace powergear::dse {

struct ShardConfig {
    std::uint64_t worker = 1;      ///< 1-based worker id (the i of "i/N")
    std::uint64_t num_workers = 1; ///< the N of "i/N"
    std::size_t chunk = 64;        ///< points per work-stealing unit
    std::uint64_t limit = 0;       ///< cap on swept positions (0 = full space)
};

struct ShardOutcome {
    std::vector<Point> front;         ///< this worker's frontier
    std::uint64_t chunks_claimed = 0; ///< chunks this worker processed
    std::uint64_t chunks_stolen = 0;  ///< claimed outside its preference set
    std::uint64_t points = 0;         ///< design points evaluated
    std::string artifact_path;        ///< published shard frontier artifact
};

/// Identity of one sharded sweep: what the manifest and the shard
/// artifacts are keyed by. Workers (and the merge step) must agree on
/// every argument. num_workers is part of the key, so a 1/1 sweep keeps
/// its own manifest and artifacts next to a 2-worker sweep of the same
/// space — while the per-point *sample* artifacts, keyed by raw space
/// index, stay shared between them (that is what makes the bit-identity
/// check in CI also a cache-reuse check).
std::uint64_t shard_space_key(const ir::Function& fn,
                              const dataset::GeneratorOptions& opts,
                              dataset::PowerKind kind, std::size_t chunk,
                              std::uint64_t limit, std::uint64_t num_workers);

/// Run one worker's share of the sweep. Requires an enabled cache (that is
/// the whole point of sharding); throws std::invalid_argument on a bad
/// worker/num_workers/chunk combination.
ShardOutcome run_shard(const ir::Function& fn,
                       const dataset::GeneratorOptions& opts,
                       dataset::PowerKind kind, const io::Cache& cache,
                       const ShardConfig& cfg);

/// Fold the N shard artifacts of `space_key` into the final frontier.
/// Throws std::runtime_error naming the first missing shard.
std::vector<Point> merge_shards(const io::Cache& cache,
                                std::uint64_t space_key,
                                std::uint64_t num_workers);

} // namespace powergear::dse
