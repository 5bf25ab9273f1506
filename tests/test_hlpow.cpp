// HL-Pow baseline tests: histogram feature construction and model fit.
#include <gtest/gtest.h>

#include <cmath>

#include "hls/binding.hpp"
#include "hls/scheduler.hpp"
#include "hlpow/features.hpp"
#include "hlpow/hlpow.hpp"
#include "kernels/polybench.hpp"
#include "sim/interpreter.hpp"
#include "sim/stimulus.hpp"
#include "util/stats.hpp"

using namespace powergear;

namespace {

std::vector<float> features_for(const ir::Function& fn,
                                const hls::Directives& dirs) {
    sim::Interpreter interp(fn);
    sim::apply_stimulus(interp, fn, {});
    const sim::Trace trace = interp.run();
    const hls::ElabGraph elab = hls::elaborate(fn, dirs);
    const hls::Schedule sched = hls::schedule(fn, elab);
    const sim::ActivityOracle oracle(fn, elab, trace, sched.total_latency);
    return hlpow::hlpow_features(elab, oracle, std::vector<double>(10, 2.0));
}

} // namespace

TEST(HlPowFeatures, DimAndHistogramMass) {
    const ir::Function fn = kernels::build_polybench("gemm", 8);
    const auto feats = features_for(fn, {});
    ASSERT_EQ(static_cast<int>(feats.size()), hlpow::feature_dim(10));

    // Histogram mass equals the number of non-Ret operator instances.
    const hls::ElabGraph elab = hls::elaborate(fn, {});
    float mass = 0.0f;
    for (int i = 0; i < ir::opcode_count() * hlpow::kBinsPerOpcode; ++i)
        mass += feats[static_cast<std::size_t>(i)];
    EXPECT_FLOAT_EQ(mass, static_cast<float>(elab.num_ops()));
}

TEST(HlPowFeatures, UnrollingShiftsHistograms) {
    const ir::Function fn = kernels::build_polybench("syrk", 8);
    hls::Directives unrolled;
    for (int l : fn.innermost_loops()) unrolled.loops[l] = {4, true};
    const auto base = features_for(fn, {});
    const auto big = features_for(fn, unrolled);
    EXPECT_NE(base, big);
    float base_mass = 0.0f, big_mass = 0.0f;
    for (int i = 0; i < ir::opcode_count() * hlpow::kBinsPerOpcode; ++i) {
        base_mass += base[static_cast<std::size_t>(i)];
        big_mass += big[static_cast<std::size_t>(i)];
    }
    EXPECT_GT(big_mass, base_mass); // more operator instances
}

TEST(HlPowFeatures, MetadataAppendedLogScaled) {
    const ir::Function fn = kernels::build_polybench("atax", 6);
    const auto feats = features_for(fn, {});
    const std::size_t meta_base =
        static_cast<std::size_t>(ir::opcode_count() * hlpow::kBinsPerOpcode);
    for (std::size_t i = meta_base; i < feats.size(); ++i)
        EXPECT_FLOAT_EQ(feats[i], std::log1p(2.0f));
}

TEST(HlPowModel, FitsLinearRelationship) {
    util::Rng rng(9);
    std::vector<std::vector<float>> X;
    std::vector<float> y;
    for (int i = 0; i < 120; ++i) {
        const float a = rng.next_float(0.0f, 4.0f);
        const float b = rng.next_float(0.0f, 1.0f);
        X.push_back({a, b, a * b});
        y.push_back(1.0f + 0.5f * a + 0.2f * a * b);
    }
    hlpow::HlPowModel model;
    model.fit(X, y);
    std::vector<float> pred;
    for (const auto& x : X) pred.push_back(model.predict(x));
    EXPECT_LT(util::mape(pred, y), 5.0);
}

TEST(HlPowModel, PredictBeforeFitThrows) {
    hlpow::HlPowModel model;
    EXPECT_THROW(model.predict({1.0f}), std::logic_error);
}
