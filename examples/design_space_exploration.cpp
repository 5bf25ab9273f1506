// DSE example (the paper's case study): use PowerGear as the power predictor
// inside an iterative latency/dynamic-power Pareto exploration of a kernel's
// directive space, and compare the resulting ADRS against exhaustive search.
#include <cstdio>

#include "core/powergear.hpp"
#include "dataset/generator.hpp"
#include "dataset/splits.hpp"
#include "dse/explorer.hpp"
#include "util/env.hpp"

using namespace powergear;

int main() {
    dataset::GeneratorOptions gen;
    gen.samples_per_dataset = util::env_int("POWERGEAR_SAMPLES", 40);
    gen.problem_size = 8;

    std::printf("Generating datasets (train: gemm, bicg, syrk; explore: atax)\n");
    std::vector<dataset::Dataset> suite;
    for (const char* k : {"gemm", "bicg", "syrk", "atax"})
        suite.push_back(dataset::generate_dataset(k, gen));
    const std::size_t target = 3;

    core::PowerGear::Options opts;
    opts.kind = dataset::PowerKind::Dynamic;
    opts.epochs = util::env_int("POWERGEAR_EPOCHS", 200);
    opts.learning_rate = 1.5e-3;
    opts.folds = 2;
    core::PowerGear pg(opts);
    pg.fit(dataset::pool_except(suite, target));
    std::printf("Dynamic-power MAPE on atax: %.2f%%\n",
                pg.evaluate_mape(dataset::pool_of(suite[target])));

    // The Explorer scores every candidate with one batched estimate from the
    // trained estimator (exact latency comes from HLS, truth from the board)
    // before running the sequential refinement loop.
    const auto& ds = suite[target];
    const core::SamplePool candidates = dataset::pool_of(ds);

    for (double budget : {0.2, 0.3, 0.4}) {
        dse::ExplorerConfig cfg;
        cfg.total_budget = budget;
        const dse::DseResult res =
            dse::Explorer(cfg).run(candidates, pg);
        std::printf("budget %2.0f%%: sampled %2zu/%d designs, ADRS %.4f, "
                    "frontier %zu points\n",
                    budget * 100, res.sampled.size(), ds.size(), res.adrs_value,
                    res.approx_front.size());
    }

    const dse::DseResult full =
        dse::Explorer({0.02, 1.0, 5}).run(candidates, pg);
    std::printf("(exhaustive sampling reaches ADRS %.4f by construction)\n",
                full.adrs_value);
    return 0;
}
