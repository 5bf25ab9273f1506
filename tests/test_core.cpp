// Public API (core::PowerGear) tests: end-to-end fit/estimate on generated
// datasets, transferability, option plumbing and error handling.
#include <gtest/gtest.h>

#include <cmath>

#include "core/powergear.hpp"
#include "dataset/generator.hpp"
#include "dataset/splits.hpp"
#include "estimate_one.hpp"

using namespace powergear;
using core::PowerGear;
using test::estimate_one;

namespace {

/// A small cached suite shared by the tests in this file.
const std::vector<dataset::Dataset>& suite() {
    static const std::vector<dataset::Dataset> s = [] {
        dataset::GeneratorOptions o;
        o.samples_per_dataset = 10;
        o.problem_size = 8;
        std::vector<dataset::Dataset> out;
        for (const char* k : {"gemm", "atax", "mvt"})
            out.push_back(dataset::generate_dataset(k, o));
        return out;
    }();
    return s;
}

PowerGear::Options quick_opts(dataset::PowerKind kind) {
    PowerGear::Options o;
    o.kind = kind;
    o.epochs = 60;
    o.folds = 2;
    o.learning_rate = 2e-3;
    return o;
}

} // namespace

TEST(PowerGearApi, LearnsTotalPowerOnUnseenKernel) {
    PowerGear pg(quick_opts(dataset::PowerKind::Total));
    pg.fit(dataset::pool_except(suite(), 2));
    const double err = pg.evaluate_mape(dataset::pool_of(suite()[2]));
    EXPECT_LT(err, 25.0); // unseen kernel, tiny training set: loose bound
    EXPECT_EQ(pg.num_members(), 2);
}

TEST(PowerGearApi, EstimateMatchesEvaluateScale) {
    PowerGear pg(quick_opts(dataset::PowerKind::Dynamic));
    pg.fit(dataset::pool_except(suite(), 0));
    const auto& s = suite()[0].samples.front();
    const double est = estimate_one(pg, s);
    EXPECT_TRUE(std::isfinite(est));
    // A trained dynamic model should predict within an order of magnitude.
    EXPECT_GT(est, s.dynamic_power_w / 10.0);
    EXPECT_LT(est, s.dynamic_power_w * 10.0);
}

TEST(PowerGearApi, BaselineConvKindsWork) {
    for (gnn::ConvKind kind :
         {gnn::ConvKind::Gcn, gnn::ConvKind::Sage, gnn::ConvKind::GraphConv,
          gnn::ConvKind::Gine}) {
        PowerGear::Options o = quick_opts(dataset::PowerKind::Dynamic);
        o.conv = kind;
        o.folds = 1;
        o.epochs = 15;
        PowerGear pg(o);
        pg.fit(dataset::pool_except(suite(), 1));
        const double est = estimate_one(pg, suite()[1].samples.front());
        EXPECT_TRUE(std::isfinite(est)) << gnn::conv_kind_name(kind);
    }
}

TEST(PowerGearApi, FitRejectsEmptyPool) {
    PowerGear pg(quick_opts(dataset::PowerKind::Total));
    EXPECT_THROW(pg.fit(core::SamplePool{}), std::invalid_argument);
}

TEST(PowerGearApi, OptionsFromBenchScale) {
    util::BenchScale s{};
    s.hidden_dim = 24;
    s.layers = 2;
    s.epochs_total = 77;
    s.epochs_dynamic = 154;
    s.folds = 3;
    s.seeds = 2;
    s.learning_rate = 1e-3;
    s.dropout = 0.1;
    s.batch_size = 16;
    const auto total =
        PowerGear::Options::from_bench_scale(s, dataset::PowerKind::Total);
    EXPECT_EQ(total.hidden, 24);
    EXPECT_EQ(total.epochs, 77);
    EXPECT_EQ(total.folds, 3);
    const auto dyn =
        PowerGear::Options::from_bench_scale(s, dataset::PowerKind::Dynamic);
    EXPECT_EQ(dyn.epochs, 154);
    EXPECT_EQ(dyn.kind, dataset::PowerKind::Dynamic);
}

TEST(PowerGearOptions, ValidateAcceptsDefaults) {
    EXPECT_TRUE(PowerGear::Options{}.validate().clean());
    EXPECT_TRUE(quick_opts(dataset::PowerKind::Total).validate().clean());
}

TEST(PowerGearOptions, EveryApiRuleFiresOnASeededViolation) {
    {
        PowerGear::Options o;
        o.epochs = 0;
        EXPECT_TRUE(o.validate().has("API001"));
    }
    {
        PowerGear::Options o;
        o.folds = 0;
        o.seeds = 0;
        EXPECT_TRUE(o.validate().has("API002"));
        o.seeds = 1; // one axis >= 1 trains single-split members: fine again
        EXPECT_TRUE(o.validate().clean());
    }
    {
        PowerGear::Options o;
        o.dropout = -0.1f;
        EXPECT_TRUE(o.validate().has("API003"));
        o.dropout = 1.0f;
        EXPECT_TRUE(o.validate().has("API003"));
    }
    {
        PowerGear::Options o;
        o.learning_rate = 0.0;
        EXPECT_TRUE(o.validate().has("API004"));
    }
    {
        PowerGear::Options o;
        o.batch_size = 0;
        EXPECT_TRUE(o.validate().has("API005"));
    }
    {
        PowerGear::Options o;
        o.hidden = 0;
        EXPECT_TRUE(o.validate().has("API006"));
        o.hidden = 16;
        o.layers = -1;
        EXPECT_TRUE(o.validate().has("API006"));
    }
}

TEST(PowerGearOptions, FitRoutesBadConfigThroughDiagnostics) {
    PowerGear::Options o = quick_opts(dataset::PowerKind::Total);
    o.epochs = 0;
    o.dropout = -1.0f;
    PowerGear pg(o);
    try {
        pg.fit(dataset::pool_of(suite()[0]));
        FAIL() << "fit accepted an invalid configuration";
    } catch (const std::runtime_error& e) {
        // The diagnostic rendering names the offending rules.
        EXPECT_NE(std::string(e.what()).find("API001"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("API003"), std::string::npos);
    }
}

TEST(PowerGearApi, EstimateBatchMatchesSingleSampleEstimates) {
    PowerGear pg(quick_opts(dataset::PowerKind::Dynamic));
    pg.fit(dataset::pool_except(suite(), 1));
    const core::SamplePool test = dataset::pool_of(suite()[1]);
    const std::vector<core::Estimate> ests = pg.estimate_batch(test);
    ASSERT_EQ(ests.size(), test.size());
    // A pool is scored in fused chunks; each sample alone is a one-sample
    // pool. The two agree within the batching envelope (DESIGN.md §13).
    for (std::size_t i = 0; i < test.size(); ++i) {
        EXPECT_DOUBLE_EQ(ests[i].watts, estimate_one(pg, test[i]));
        EXPECT_GE(ests[i].member_spread, 0.0);
        EXPECT_TRUE(std::isfinite(ests[i].member_spread));
    }
}

TEST(PowerGearApi, EstimateBatchBeforeFitThrows) {
    PowerGear pg(quick_opts(dataset::PowerKind::Total));
    EXPECT_THROW(pg.estimate_batch(dataset::pool_of(suite()[0])),
                 std::logic_error);
}

TEST(PowerGearApi, CallerOwnedPointerArraysBorrowExplicitly) {
    // A caller-owned pointer array enters the API through an explicit
    // borrowing View (the implicit vector -> SamplePool conversion is
    // gone): the lifetime contract is visible at the call site.
    PowerGear pg(quick_opts(dataset::PowerKind::Total));
    std::vector<const dataset::Sample*> train;
    for (std::size_t d = 0; d < 2; ++d)
        for (const auto& s : suite()[d].samples) train.push_back(&s);
    pg.fit(core::SamplePool(
        core::SamplePool::View(train.data(), train.size())));
    std::vector<const dataset::Sample*> test;
    for (const auto& s : suite()[2].samples) test.push_back(&s);
    EXPECT_TRUE(std::isfinite(pg.evaluate_mape(
        core::SamplePool(core::SamplePool::View(test.data(), test.size())))));
}

TEST(PowerGearApi, AblationOptionsPropagate) {
    PowerGear::Options o = quick_opts(dataset::PowerKind::Dynamic);
    o.edge_features = false;
    o.metadata = false;
    o.folds = 1;
    o.epochs = 10;
    PowerGear pg(o);
    pg.fit(dataset::pool_except(suite(), 2));
    EXPECT_EQ(pg.num_members(), 1);
    EXPECT_TRUE(std::isfinite(estimate_one(pg, suite()[2].samples.front())));
}
