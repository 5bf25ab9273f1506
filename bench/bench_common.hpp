// Shared helpers for the table/figure reproduction benches.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/powergear.hpp"
#include "dataset/generator.hpp"
#include "kernels/polybench.hpp"
#include "kernels/synthetic.hpp"
#include "dataset/splits.hpp"
#include "dse/explorer.hpp"
#include "fpga/vivado_like.hpp"
#include "hlpow/hlpow.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace powergear::bench {

/// Generate the nine Polybench datasets at the env-controlled scale, plus
/// POWERGEAR_SYNTH synthetic-kernel datasets (train-only augmentation — the
/// paper mentions adding synthetic loop patterns to diversify training).
inline std::vector<dataset::Dataset> make_suite(const util::BenchScale& scale) {
    dataset::GeneratorOptions gen;
    gen.samples_per_dataset = scale.samples_per_dataset;
    util::Timer t;
    auto suite = dataset::generate_polybench_suite(gen);
    const int synth = util::env_int("POWERGEAR_SYNTH", 0);
    util::Rng rng(20260705);
    for (int k = 0; k < synth; ++k) {
        const ir::Function fn =
            kernels::build_synthetic(kernels::SyntheticSpec{}, rng, k);
        suite.push_back(dataset::generate_dataset_for(fn, gen));
    }
    std::printf("[setup] generated %zu datasets x %d samples in %.1fs "
                "(%d job%s)\n",
                suite.size(), scale.samples_per_dataset, t.seconds(),
                util::parallel_jobs(), util::parallel_jobs() == 1 ? "" : "s");
    return suite;
}

/// Leave-one-out evaluation iterates only the real Polybench datasets;
/// synthetic augmentation sets (appended after them) stay train-only.
inline std::size_t eval_count(const std::vector<dataset::Dataset>& suite) {
    return std::min(suite.size(), kernels::polybench_names().size());
}

/// Leave-one-out calibrated Vivado-like MAPE on the held-out dataset.
/// `total` selects total vs dynamic power.
inline double vivado_loo_mape(const std::vector<dataset::Dataset>& suite,
                              std::size_t held_out, bool total) {
    std::vector<double> est, truth;
    for (std::size_t d = 0; d < suite.size(); ++d) {
        if (d == held_out) continue;
        for (const auto& s : suite[d].samples) {
            est.push_back(total ? s.vivado_total_raw : s.vivado_dynamic_raw);
            truth.push_back(total ? s.total_power_w : s.dynamic_power_w);
        }
    }
    fpga::LinearCalibration cal;
    cal.fit(est, truth);
    std::vector<double> pred, meas;
    for (const auto& s : suite[held_out].samples) {
        pred.push_back(cal.apply(total ? s.vivado_total_raw : s.vivado_dynamic_raw));
        meas.push_back(total ? s.total_power_w : s.dynamic_power_w);
    }
    return util::mape(pred, meas);
}

/// Train HL-Pow on the leave-one-out pool; MAPE on the held-out dataset.
inline double hlpow_loo_mape(const std::vector<dataset::Dataset>& suite,
                             std::size_t held_out, dataset::PowerKind kind) {
    std::vector<std::vector<float>> X;
    std::vector<float> y;
    dataset::collect_hlpow(dataset::pool_except(suite, held_out), kind, X, y);
    hlpow::HlPowModel model;
    model.fit(X, y);
    std::vector<std::vector<float>> Xt;
    std::vector<float> yt;
    dataset::collect_hlpow(dataset::pool_of(suite[held_out]), kind, Xt, yt);
    std::vector<float> pred;
    pred.reserve(Xt.size());
    for (const auto& x : Xt) pred.push_back(model.predict(x));
    return util::mape(pred, yt);
}

/// Train a PowerGear/GNN configuration on the pool; MAPE on held-out.
inline double gnn_loo_mape(const std::vector<dataset::Dataset>& suite,
                           std::size_t held_out,
                           const core::PowerGear::Options& opts) {
    core::PowerGear pg(opts);
    pg.fit(dataset::pool_except(suite, held_out));
    return pg.evaluate_mape(dataset::pool_of(suite[held_out]));
}

// --- DSE helpers (Table III / Fig. 4) --------------------------------------

/// Ground-truth objective points (latency from HLS, power from the board).
inline std::vector<dse::Point> truth_points(const dataset::Dataset& ds) {
    std::vector<dse::Point> pts;
    for (int i = 0; i < ds.size(); ++i) {
        const auto& s = ds.samples[static_cast<std::size_t>(i)];
        pts.push_back({static_cast<double>(s.latency_cycles), s.dynamic_power_w, i});
    }
    return pts;
}

/// DSE evaluation pool: the explored design space should be denser than the
/// training datasets (the paper explores each application's full sweep).
/// Separate from the training suite so leave-one-out stays honest.
inline dataset::Dataset dse_pool(const std::string& kernel) {
    dataset::GeneratorOptions gen;
    gen.samples_per_dataset = util::env_int("POWERGEAR_DSE_POINTS", 80);
    return dataset::generate_dataset(kernel, gen);
}

/// Predicted points with the calibrated Vivado-like model as the predictor.
/// Calibration uses every training dataset except `d`; predictions score the
/// dense `eval` pool of the held-out kernel.
inline std::vector<dse::Point> predicted_vivado(
    const std::vector<dataset::Dataset>& suite, std::size_t d,
    const dataset::Dataset& eval) {
    std::vector<double> est, truth;
    for (std::size_t k = 0; k < suite.size(); ++k) {
        if (k == d) continue;
        for (const auto& s : suite[k].samples) {
            est.push_back(s.vivado_dynamic_raw);
            truth.push_back(s.dynamic_power_w);
        }
    }
    fpga::LinearCalibration cal;
    cal.fit(est, truth);
    std::vector<dse::Point> pts = truth_points(eval);
    for (auto& p : pts)
        p.power = cal.apply(
            eval.samples[static_cast<std::size_t>(p.index)].vivado_dynamic_raw);
    return pts;
}

/// Predicted points with HL-Pow as the predictor (trained leave-one-out).
inline std::vector<dse::Point> predicted_hlpow(
    const std::vector<dataset::Dataset>& suite, std::size_t d,
    const dataset::Dataset& eval) {
    std::vector<std::vector<float>> X;
    std::vector<float> y;
    dataset::collect_hlpow(dataset::pool_except(suite, d),
                           dataset::PowerKind::Dynamic, X, y);
    hlpow::HlPowModel model;
    model.fit(X, y);
    std::vector<dse::Point> pts = truth_points(eval);
    for (auto& p : pts)
        p.power = model.predict(
            eval.samples[static_cast<std::size_t>(p.index)].hlpow_feats);
    return pts;
}

/// Predicted points with PowerGear as the predictor (trained leave-one-out),
/// scored by one estimate_batch over the eval pool, as product DSE does.
inline std::vector<dse::Point> predicted_powergear(
    const std::vector<dataset::Dataset>& suite, std::size_t d,
    const dataset::Dataset& eval, const core::PowerGear::Options& opts) {
    core::PowerGear pg(opts);
    pg.fit(dataset::pool_except(suite, d));
    const std::vector<core::Estimate> ests =
        pg.estimate_batch(dataset::pool_of(eval));
    std::vector<dse::Point> pts = truth_points(eval);
    for (auto& p : pts) p.power = ests[static_cast<std::size_t>(p.index)].watts;
    return pts;
}

/// Save a table next to stdout output.
inline void emit(const util::Table& table, const std::string& csv_path) {
    std::printf("%s", table.to_ascii().c_str());
    if (table.save_csv(csv_path))
        std::printf("[saved] %s\n", csv_path.c_str());
}

} // namespace powergear::bench
