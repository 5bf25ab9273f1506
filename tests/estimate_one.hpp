// One design's estimate through the batch API, for tests that score a
// single sample: a one-sample pool, which is bit-identical to scoring that
// graph alone through Ensemble::predict_stats (DESIGN.md §13).
#pragma once

#include "core/powergear.hpp"

namespace powergear::test {

inline double estimate_one(const core::PowerGear& pg,
                           const dataset::Sample& sample) {
    const dataset::Sample* one = &sample;
    return pg.estimate_batch(core::SamplePool(core::SamplePool::View(&one, 1)))
        .front()
        .watts;
}

} // namespace powergear::test
