// Cross-module integration tests: whole-pipeline determinism, persistence
// across "processes" (separate PowerGear instances), the speedup invariant,
// and end-to-end DSE on real generated data.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/powergear.hpp"
#include "dataset/generator.hpp"
#include "dataset/splits.hpp"
#include "dse/explorer.hpp"
#include "estimate_one.hpp"
#include "fpga/vivado_like.hpp"
#include "util/stats.hpp"

using namespace powergear;

namespace {

const std::vector<dataset::Dataset>& shared_suite() {
    static const std::vector<dataset::Dataset> s = [] {
        dataset::GeneratorOptions o;
        o.samples_per_dataset = 12;
        o.problem_size = 8;
        std::vector<dataset::Dataset> out;
        for (const char* k : {"gemm", "bicg", "syrk", "atax"})
            out.push_back(dataset::generate_dataset(k, o));
        return out;
    }();
    return s;
}

} // namespace

TEST(Integration, TrainedModelSurvivesSaveLoadAcrossInstances) {
    core::PowerGear::Options opts;
    opts.kind = dataset::PowerKind::Total;
    opts.epochs = 40;
    opts.folds = 2;
    core::PowerGear trainer(opts);
    trainer.fit(dataset::pool_except(shared_suite(), 3));

    const std::string path = "integration_model.pgm";
    trainer.save(path);

    core::PowerGear fresh(opts);
    fresh.load(path);
    std::remove(path.c_str());

    const core::SamplePool test = dataset::pool_of(shared_suite()[3]);
    const std::vector<core::Estimate> want = trainer.estimate_batch(test);
    const std::vector<core::Estimate> got = fresh.estimate_batch(test);
    for (std::size_t i = 0; i < test.size(); ++i)
        EXPECT_FLOAT_EQ(static_cast<float>(got[i].watts),
                        static_cast<float>(want[i].watts));
}

TEST(Integration, TrainingIsDeterministic) {
    auto run = [] {
        core::PowerGear::Options opts;
        opts.kind = dataset::PowerKind::Dynamic;
        opts.epochs = 20;
        opts.folds = 2;
        opts.seed = 5;
        core::PowerGear pg(opts);
        pg.fit(dataset::pool_except(shared_suite(), 0));
        return test::estimate_one(pg, shared_suite()[0].samples.front());
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Integration, VivadoCalibrationImprovesItsTotalEstimate) {
    const auto& suite = shared_suite();
    std::vector<double> raw_est, truth;
    for (const auto& ds : suite)
        for (const auto& s : ds.samples) {
            raw_est.push_back(s.vivado_total_raw);
            truth.push_back(s.total_power_w);
        }
    fpga::LinearCalibration cal;
    cal.fit(raw_est, truth);
    std::vector<double> calibrated;
    for (double e : raw_est) calibrated.push_back(cal.apply(e));
    EXPECT_LT(util::mape(calibrated, truth), util::mape(raw_est, truth));
}

TEST(Integration, PowerGearFlowIsFasterThanVivadoFlowOnAverage) {
    double viv = 0.0, pg = 0.0;
    for (const auto& ds : shared_suite())
        for (const auto& s : ds.samples) {
            viv += s.vivado_runtime_s;
            pg += s.powergear_runtime_s;
        }
    EXPECT_LT(pg, viv); // the measured Table-I speedup invariant
}

TEST(Integration, DseWithTrainedPredictorBeatsRandomSampling) {
    const auto& suite = shared_suite();
    core::PowerGear::Options opts;
    opts.kind = dataset::PowerKind::Dynamic;
    opts.epochs = 60;
    opts.folds = 2;
    core::PowerGear pg(opts);
    pg.fit(dataset::pool_except(suite, 0));

    const std::vector<core::Estimate> ests =
        pg.estimate_batch(dataset::pool_of(suite[0]));
    std::vector<dse::Point> truth, predicted, anti;
    for (int i = 0; i < suite[0].size(); ++i) {
        const auto& s = suite[0].samples[static_cast<std::size_t>(i)];
        truth.push_back({static_cast<double>(s.latency_cycles),
                         s.dynamic_power_w, i});
        predicted.push_back({static_cast<double>(s.latency_cycles),
                             ests[static_cast<std::size_t>(i)].watts, i});
        // Adversarial predictor: inverted power ranking.
        anti.push_back({static_cast<double>(s.latency_cycles),
                        1.0 / (s.dynamic_power_w + 1e-6), i});
    }
    dse::ExplorerConfig cfg;
    cfg.total_budget = 0.34;
    double model_adrs = 0.0, anti_adrs = 0.0;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        cfg.seed = seed;
        model_adrs += dse::explore(predicted, truth, cfg).adrs_value;
        anti_adrs += dse::explore(anti, truth, cfg).adrs_value;
    }
    EXPECT_LE(model_adrs, anti_adrs);
}

TEST(Integration, GraphSizeTracksDirectiveAggressiveness) {
    // Within one kernel's dataset, the largest-unroll configuration should
    // produce one of the largest graphs.
    const auto& ds = shared_suite()[0]; // gemm
    int max_unroll = 1, nodes_at_max = 0, min_unroll_nodes = 1 << 30;
    for (const auto& s : ds.samples) {
        int u = 1;
        for (const auto& [l, ld] : s.directives.loops) u = std::max(u, ld.unroll);
        if (u > max_unroll) {
            max_unroll = u;
            nodes_at_max = s.graph.num_nodes;
        }
        if (u == 1)
            min_unroll_nodes = std::min(min_unroll_nodes, s.graph.num_nodes);
    }
    if (max_unroll > 1 && min_unroll_nodes < (1 << 30)) {
        EXPECT_GT(nodes_at_max, min_unroll_nodes);
    }
}

TEST(Integration, HlPowAndPowerGearBothLearnTheSuite) {
    // Not a ranking assertion (too small to be stable) — both learned models
    // must land far below the trivially-bad 100% band on unseen data.
    core::PowerGear::Options opts;
    opts.kind = dataset::PowerKind::Total;
    opts.epochs = 120;
    opts.folds = 2;
    core::PowerGear pg(opts);
    pg.fit(dataset::pool_except(shared_suite(), 2));
    // Loose sanity band: 3 tiny training kernels, unseen 4th; the paper-scale
    // accuracy claims are validated by bench/table1_accuracy instead.
    EXPECT_LT(pg.evaluate_mape(dataset::pool_of(shared_suite()[2])), 45.0);
}
