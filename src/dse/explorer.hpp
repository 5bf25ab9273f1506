// Iterative prediction-guided design space exploration (paper Sec. IV-C).
//
// Starting from a small random initial sample (2% of the space), each
// iteration computes the Pareto frontier of the *unsampled* points under the
// prediction model's power estimates (latency comes from HLS and is exact)
// and promotes those promising points into the sampled set for further
// evaluation, until the total sampling budget is met. The returned
// approximate Pareto set is the frontier of the sampled points under their
// evaluated (true) objectives; its quality is reported as ADRS against the
// exact frontier of the full space.
//
// Explorer is the batch-first front end: hand it the candidate design points
// (a core::SamplePool) and a trained PowerGear, and it scores every
// candidate with one estimate_batch call before running the (inherently
// sequential) refinement loop. The point-level explore() function is the
// deterministic core, and serves predictors scored elsewhere.
#pragma once

#include <cstdint>
#include <vector>

#include "core/powergear.hpp"
#include "core/sample_pool.hpp"
#include "dse/adrs.hpp"

namespace powergear::dse {

struct ExplorerConfig {
    double initial_budget = 0.02; ///< fraction sampled before prediction kicks in
    double total_budget = 0.40;   ///< total fraction of the space evaluated
    std::uint64_t seed = 5;
};

struct DseResult {
    std::vector<int> sampled;         ///< design indices evaluated
    std::vector<Point> approx_front;  ///< frontier of sampled points (true objectives)
    std::vector<Point> exact_front;   ///< frontier of the full space
    double adrs_value = 0.0;
};

/// `predicted` and `truth` are parallel arrays over the whole design space:
/// identical latency (exact, from HLS), power = model estimate vs board truth.
DseResult explore(const std::vector<Point>& predicted,
                  const std::vector<Point>& truth, const ExplorerConfig& cfg);

class Explorer {
public:
    explicit Explorer(ExplorerConfig cfg = {}) : cfg_(cfg) {}

    /// Score every candidate with one PowerGear::estimate_batch call (the
    /// staged pipeline's inference stage), take exact latency and the
    /// ground-truth label from the samples, then run the refinement loop.
    /// Results are bit-identical at any job count.
    DseResult run(const core::SamplePool& candidates,
                  const core::PowerGear& estimator,
                  dataset::PowerKind kind = dataset::PowerKind::Dynamic) const;

    const ExplorerConfig& config() const { return cfg_; }

private:
    ExplorerConfig cfg_;
};

} // namespace powergear::dse
