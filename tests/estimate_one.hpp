// One design through the batch-only inference API, for tests that score a
// single sample or graph: each helper runs a batch of one (DESIGN.md §13).
#pragma once

#include <span>

#include "core/powergear.hpp"

namespace powergear::test {

inline double estimate_one(const core::PowerGear& pg,
                           const dataset::Sample& sample) {
    const dataset::Sample* one = &sample;
    return pg.estimate_batch(core::SamplePool(core::SamplePool::View(&one, 1)))
        .front()
        .watts;
}

/// Ensemble mean and spread of one graph.
inline gnn::Ensemble::Stats stats_one(const gnn::Ensemble& ens,
                                      const gnn::GraphTensors& g) {
    const gnn::GraphTensors* one = &g;
    return ens
        .predict_stats_batch(std::span<const gnn::GraphTensors* const>(&one, 1))
        .front();
}

/// One model's estimate of one graph, on the caller's tape.
inline float predict_one(gnn::PowerModel& model, const gnn::GraphTensors& g,
                         nn::Tape& t) {
    const gnn::GraphTensors* one = &g;
    const gnn::GraphBatch b = gnn::GraphBatch::assemble(
        std::span<const gnn::GraphTensors* const>(&one, 1));
    return model.predict_batch(b, t).front();
}

} // namespace powergear::test
