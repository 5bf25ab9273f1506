// Ensemble training strategy (paper Sec. III-B, last paragraph): k-fold
// cross-validation crossed with several random seeds generates different
// train/validation partitions; one model is trained per (fold, seed) with
// best-on-validation weight selection, and predictions are averaged.
// folds <= 1 degrades to a single model with a 20% validation split (the
// paper's "sgl." ablation and the baseline-GNN setting).
//
// Members are independent by construction — each owns its weights, optimizer
// state and RNG stream, seeded from the config — so fit() trains them
// concurrently on the util::parallel pool. Every train/validation partition
// is derived serially before the fan-out, which keeps the trained weights
// bit-identical for every POWERGEAR_JOBS value.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "gnn/model.hpp"

namespace powergear::gnn {

struct EnsembleConfig {
    ModelConfig model;    ///< template; per-member seeds derive from it
    int folds = 10;       ///< paper: 10
    int seeds = 3;        ///< paper: 3
    int epochs = 100;     ///< paper: 1200 (total) / 2400 (dynamic)
    int batch_size = 32;  ///< paper: 128
    double validation_fraction = 0.2; ///< used when folds <= 1
};

class Ensemble {
public:
    /// Mean prediction plus the disagreement across ensemble members.
    struct Stats {
        float mean = 0.0f;
        float spread = 0.0f; ///< population stddev of member predictions
    };

    /// Train all members (one per fold x seed, concurrently) on the given
    /// samples. Both spans are borrowed only for the duration of the call.
    void fit(std::span<const GraphTensors* const> graphs,
             std::span<const float> targets, const EnsembleConfig& cfg);

    /// Mean and member spread per sample, in input order: the ensemble's one
    /// inference entry (a single design is a batch of one). Samples are
    /// merged into block-diagonal chunks of at most gnn::kBatchChunk graphs
    /// (assembled once, serially) and each member runs one fused forward
    /// per chunk; tasks fan out over (chunk × member) with a fixed
    /// slot-ordered reduction, so results are bit-identical at any
    /// POWERGEAR_JOBS value (DESIGN.md §13).
    std::vector<Stats> predict_stats_batch(
        std::span<const GraphTensors* const> graphs) const;

    int num_members() const { return static_cast<int>(members_.size()); }

    /// Non-owning member access (persistence, inspection).
    std::vector<PowerModel*> members() const;
    /// Replace the member set (used by io::decode_ensemble when loading).
    void adopt(std::vector<std::unique_ptr<PowerModel>> members);

private:
    mutable std::vector<std::unique_ptr<PowerModel>> members_;
};

} // namespace powergear::gnn
