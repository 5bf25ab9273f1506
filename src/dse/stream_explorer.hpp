// Streaming design space exploration in bounded memory (DESIGN.md §14).
//
// Where dse::Explorer materializes every candidate Point up front, the
// StreamingExplorer pulls space indices from a CandidateStream in chunks
// sized to the serve batcher, scores each chunk through a caller-supplied
// batch scorer (typically the fused estimate_batch/GraphBatch path), and
// folds the results into two incremental ParetoArchives: one over the
// model's predicted power (the sampling guide) and one over ground truth.
// Peak live state is one chunk of scored points plus the two exact
// frontiers — O(chunk + |front|) at any stream length, where |front| is at
// most the number of distinct latencies in the space.
//
// Ground truth is the expensive resource (a board measurement per point),
// so it is spent adaptively: a point is *promoted* (truth-evaluated) only
// when it enters the predicted frontier, and — when a spread gate is set —
// only when the ensemble's member_spread says the model is uncertain
// enough to be worth checking (spread >= gate * running mean spread of all
// previously scored points). Gate 0 promotes every frontier entrant.
//
// Determinism: chunk scoring may fan out internally (estimate_batch is
// bit-identical at any POWERGEAR_JOBS), but archive inserts and promotion
// decisions happen serially in stream order, so the result is bit-identical
// at any job count. tests/test_dse.cpp replays the same decisions against
// recompute-from-scratch pareto_front calls and asserts equality.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/powergear.hpp"
#include "core/sample_pool.hpp"
#include "dse/pareto.hpp"
#include "dse/stream.hpp"

namespace powergear::dse {

struct StreamConfig {
    /// Points scored per batch; defaults to the serve batcher's max_batch.
    std::size_t chunk = 64;
    /// Spread gate factor g: promote a frontier entrant only when its
    /// member_spread >= g * mean spread of previously scored points.
    /// 0 disables the gate (every frontier entrant is promoted).
    double spread_gate = 0.0;
    /// Stop after scoring this many points (0 = drain the stream).
    std::uint64_t max_points = 0;
};

/// One scored candidate: exact latency from HLS, predicted power from the
/// model, ensemble member spread as the uncertainty signal.
struct ScoredPoint {
    double latency = 0.0;
    double power = 0.0;
    double spread = 0.0;
};

/// Batch scorer over space indices (one chunk per call, stream order).
using ChunkScorer =
    std::function<std::vector<ScoredPoint>(std::span<const std::uint64_t>)>;

/// Ground-truth power of one promoted point (board measurement / label).
using TruthFn =
    std::function<double(std::uint64_t index, const ScoredPoint& scored)>;

struct StreamStats {
    std::uint64_t scored = 0;   ///< indices pulled from the stream and scored
    std::uint64_t promoted = 0; ///< points promoted, one TruthFn call each
    std::uint64_t archived = 0; ///< accepted into the predicted frontier
};

struct StreamResult {
    std::vector<Point> predicted_front; ///< frontier under model estimates
    std::vector<Point> true_front;      ///< frontier of promoted points, truth
    StreamStats stats;
    /// ADRS of true_front vs the exact frontier; -1 when the caller's exact
    /// frontier is unknown (generic runs — compute it yourself).
    double adrs_value = -1.0;
};

class StreamingExplorer {
public:
    explicit StreamingExplorer(StreamConfig cfg = {});

    /// Stream -> score -> archive -> adaptively promote. The stream is
    /// consumed from its current cursor (resume by seeking first).
    StreamResult run(CandidateStream& stream, const ChunkScorer& score,
                     const TruthFn& truth) const;

    /// Convenience over an evaluated pool: space index i = pool position i,
    /// scorer = PowerGear::estimate_batch per chunk, truth = the stored board
    /// label. Computes the exact frontier (the pool is fully labelled) and
    /// fills adrs_value.
    StreamResult run(const core::SamplePool& pool,
                     const core::PowerGear& estimator,
                     dataset::PowerKind kind = dataset::PowerKind::Dynamic) const;

    const StreamConfig& config() const { return cfg_; }

private:
    StreamConfig cfg_;
};

} // namespace powergear::dse
