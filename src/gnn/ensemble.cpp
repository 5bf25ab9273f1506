#include "gnn/ensemble.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/layers.hpp"
#include "obs/obs.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace powergear::gnn {

namespace {

/// One (fold, seed) member's training recipe, derived serially before the
/// fan-out so partitions and seeds never depend on execution order.
struct MemberSpec {
    std::vector<int> train_idx;
    std::vector<int> val_idx;
    std::uint64_t seed = 0;
};

/// Train one model on (train, val) index sets with best-on-validation
/// snapshot selection. Self-contained: touches only its own model state.
std::unique_ptr<PowerModel> train_member(
    std::span<const GraphTensors* const> graphs,
    std::span<const float> targets, const MemberSpec& spec,
    const EnsembleConfig& cfg) {
    ModelConfig mc = cfg.model;
    mc.seed = spec.seed;
    auto model = std::make_unique<PowerModel>(mc);

    std::vector<const GraphTensors*> train_g, val_g;
    std::vector<float> train_y, val_y;
    for (int i : spec.train_idx) {
        train_g.push_back(graphs[static_cast<std::size_t>(i)]);
        train_y.push_back(targets[static_cast<std::size_t>(i)]);
    }
    for (int i : spec.val_idx) {
        val_g.push_back(graphs[static_cast<std::size_t>(i)]);
        val_y.push_back(targets[static_cast<std::size_t>(i)]);
    }

    if (!train_y.empty()) {
        double mean = 0.0;
        for (float v : train_y) mean += v;
        model->set_output_bias(static_cast<float>(mean / train_y.size()));
    }

    const std::vector<nn::Param*> params = model->params();
    std::vector<nn::Tensor> best = nn::snapshot_params(params);
    double best_val = val_g.empty()
                          ? 0.0
                          : model->evaluate_mape(val_g, val_y);
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        model->train_epoch(train_g, train_y, cfg.batch_size);
        if (!val_g.empty() && (epoch % 5 == 4 || epoch == cfg.epochs - 1)) {
            const double v = model->evaluate_mape(val_g, val_y);
            if (v < best_val) {
                best_val = v;
                best = nn::snapshot_params(params);
            }
        }
    }
    if (!val_g.empty()) nn::restore_params(params, best);
    return model;
}

/// Mean and population stddev of nm member predictions pred(0..nm-1),
/// accumulated in double in ascending member order.
template <typename Pred>
Ensemble::Stats member_stats(std::size_t nm, Pred pred) {
    double mean = 0.0;
    for (std::size_t m = 0; m < nm; ++m) mean += pred(m);
    mean /= static_cast<double>(nm);
    double var = 0.0;
    for (std::size_t m = 0; m < nm; ++m) {
        const double p = pred(m);
        var += (p - mean) * (p - mean);
    }
    var /= static_cast<double>(nm);
    return {static_cast<float>(mean), static_cast<float>(std::sqrt(var))};
}

} // namespace

void Ensemble::fit(std::span<const GraphTensors* const> graphs,
                   std::span<const float> targets,
                   const EnsembleConfig& cfg) {
    if (graphs.size() != targets.size() || graphs.size() < 2)
        throw std::invalid_argument("Ensemble::fit: need >= 2 samples");
    const obs::Scope obs_scope(obs::Phase::EnsembleFit);
    obs::add(obs::Phase::EnsembleFit, "fit_samples", graphs.size());
    members_.clear();

    const int n = static_cast<int>(graphs.size());
    const int seeds = std::max(1, cfg.seeds);
    std::vector<MemberSpec> specs;
    for (int seed = 0; seed < seeds; ++seed) {
        util::Rng rng(cfg.model.seed * 1000003ull +
                      static_cast<std::uint64_t>(seed) * 9176ull + 11ull);
        std::vector<int> order(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
        rng.shuffle(order);

        const int folds = std::max(1, std::min(cfg.folds, n));
        if (folds <= 1) {
            // Single model: 20% validation split.
            const int val_n = std::max(
                1, static_cast<int>(std::lround(cfg.validation_fraction * n)));
            MemberSpec spec;
            spec.val_idx.assign(order.begin(), order.begin() + val_n);
            spec.train_idx.assign(order.begin() + val_n, order.end());
            if (spec.train_idx.empty()) std::swap(spec.train_idx, spec.val_idx);
            spec.seed = cfg.model.seed + 7919ull * seed;
            specs.push_back(std::move(spec));
            continue;
        }
        for (int fold = 0; fold < folds; ++fold) {
            MemberSpec spec;
            for (int i = 0; i < n; ++i) {
                if (i % folds == fold)
                    spec.val_idx.push_back(order[static_cast<std::size_t>(i)]);
                else
                    spec.train_idx.push_back(order[static_cast<std::size_t>(i)]);
            }
            spec.seed = cfg.model.seed + 7919ull * seed + 13ull * fold;
            specs.push_back(std::move(spec));
        }
    }

    // Members are independent; train them concurrently, slotted by index.
    obs::add(obs::Phase::EnsembleFit, "members_trained", specs.size());
    members_ = util::parallel_map<std::unique_ptr<PowerModel>>(
        specs.size(), [&](std::size_t m) {
            return train_member(graphs, targets, specs[m], cfg);
        });
}

std::vector<PowerModel*> Ensemble::members() const {
    std::vector<PowerModel*> out;
    out.reserve(members_.size());
    for (const auto& m : members_) out.push_back(m.get());
    return out;
}

void Ensemble::adopt(std::vector<std::unique_ptr<PowerModel>> members) {
    members_ = std::move(members);
}

std::vector<Ensemble::Stats> Ensemble::predict_stats_batch(
    std::span<const GraphTensors* const> graphs) const {
    if (members_.empty())
        throw std::logic_error("Ensemble::predict_stats_batch before fit");
    if (graphs.empty()) return {};
    const std::size_t nm = members_.size();
    const std::size_t chunk = static_cast<std::size_t>(kBatchChunk);
    const std::size_t nchunks = (graphs.size() + chunk - 1) / chunk;

    // Chunks are assembled serially up front (memcpy-bound) and shared
    // read-only by every member task; boundaries depend only on position.
    std::vector<GraphBatch> batches;
    batches.reserve(nchunks);
    for (std::size_t c = 0; c < nchunks; ++c) {
        const std::size_t base = c * chunk;
        const std::size_t n = std::min(chunk, graphs.size() - base);
        batches.push_back(GraphBatch::assemble(
            std::span<const GraphTensors* const>(graphs.data() + base, n)));
    }

    // One fused forward per (chunk, member) task: chunk-level parallelism
    // carries small ensembles, member-level carries small batches. Tasks are
    // slotted by index and reduced in ascending member order, so the stats
    // are bit-identical at any job count. The tape is thread_local: workers
    // are persistent, so the arena stays at its high-water mark across calls
    // instead of paying megabyte-scale first-touch faults per fused forward
    // (predict_batch resets it on entry; results are copied out before
    // return, so nothing borrows the arena across tasks).
    const std::vector<std::vector<float>> preds =
        util::parallel_map<std::vector<float>>(
            nchunks * nm, [&](std::size_t task) {
                thread_local nn::Tape t;
                return members_[task % nm]->predict_batch(batches[task / nm],
                                                          t);
            });

    std::vector<Stats> out(graphs.size());
    for (std::size_t c = 0; c < nchunks; ++c) {
        const std::size_t base = c * chunk;
        const auto bn = static_cast<std::size_t>(batches[c].num_graphs);
        for (std::size_t i = 0; i < bn; ++i)
            out[base + i] = member_stats(
                nm, [&](std::size_t m) { return preds[c * nm + m][i]; });
    }
    return out;
}

} // namespace powergear::gnn
