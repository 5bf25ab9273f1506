// PowerGear public API — the paper's end-to-end estimator.
//
// Train once on datasets of graph samples (with board-measured labels), then
// estimate total or dynamic power for unseen designs straight from their HLS
// artifacts — no implementation flow, no re-training (transferability).
//
// The API is batch-first: pools of samples are passed as core::SamplePool
// views (non-owning, span-based) and estimate_batch fans the ensemble out
// over all samples on the util::parallel pool, returning structured
// Estimate{watts, member_spread} results. Results are bit-identical for
// every POWERGEAR_JOBS value.
//
// Typical use:
//   auto suite = dataset::generate_polybench_suite(opts);
//   PowerGear pg(PowerGear::Options::from_bench_scale(scale, PowerKind::Dynamic));
//   pg.fit(dataset::pool_except(suite, test_idx));
//   auto ests = pg.estimate_batch(dataset::pool_of(suite[test_idx]));
#pragma once

#include "analysis/diagnostic.hpp"
#include "core/sample_pool.hpp"
#include "dataset/sample.hpp"
#include "gnn/ensemble.hpp"
#include "io/cache.hpp"
#include "util/env.hpp"

namespace powergear::core {

/// One structured estimation result.
struct Estimate {
    double watts = 0.0;         ///< ensemble-mean power estimate
    double member_spread = 0.0; ///< stddev across ensemble members (0 for
                                ///< a single-member "sgl." estimator)
};

class PowerGear {
public:
    struct Options {
        dataset::PowerKind kind = dataset::PowerKind::Total;
        gnn::ConvKind conv = gnn::ConvKind::HecGnn;
        int hidden = 16;
        int layers = 3;
        float dropout = 0.2f;
        double learning_rate = 5e-4;
        int epochs = 30;
        int batch_size = 32;
        int folds = 2;   ///< <=1 trains a single model ("sgl." variant)
        int seeds = 1;
        // HEC-GNN ablation switches.
        bool edge_features = true;
        bool directed = true;
        bool heterogeneous = true;
        bool metadata = true;
        bool jumping_knowledge = true;
        std::uint64_t seed = 1;

        /// Resolve model scale from the POWERGEAR_* environment bundle.
        static Options from_bench_scale(const util::BenchScale& s,
                                        dataset::PowerKind kind);

        /// Configuration diagnostics through the src/analysis engine
        /// (API00x rules); fit() refuses configs whose report has errors.
        analysis::Report validate() const;
    };

    explicit PowerGear(Options opts) : opts_(opts) {}

    /// Train the ensemble on a pool of samples (e.g. eight of nine datasets
    /// in the leave-one-application-out protocol). Validates the options
    /// first; (fold x seed) members train concurrently.
    void fit(const SamplePool& train);

    /// fit() through the pipeline cache: the "model" stage key hashes every
    /// training option plus the exact sample contents, so a hit restores the
    /// trained ensemble bit-exactly and a changed option or sample re-trains.
    /// Returns true on a cache hit. With a disabled cache this is plain fit().
    bool fit_cached(const SamplePool& train, const io::Cache& cache);

    /// Batch estimation: one Estimate per pool entry, in pool order, fanned
    /// out over the parallel runtime (bit-identical at any job count). The
    /// one estimation entry point: a single design is a one-sample pool,
    /// e.g. SamplePool(SamplePool::View(&sample_ptr, 1)).
    std::vector<Estimate> estimate_batch(const SamplePool& samples) const;

    /// MAPE (%) against board measurements on a test pool.
    double evaluate_mape(const SamplePool& test) const;

    /// Persist the trained ensemble to a file as a powergear-art-v1 "model"
    /// artifact (bit-exact round trip).
    void save(const std::string& path) const;
    /// Load an ensemble saved by save(); the estimator becomes ready to use.
    /// Throws std::runtime_error on any file that is not a valid model
    /// artifact.
    void load(const std::string& path);

    const Options& options() const { return opts_; }
    int num_members() const { return ensemble_.num_members(); }

private:
    Options opts_;
    gnn::Ensemble ensemble_;
    bool fitted_ = false;
};

} // namespace powergear::core
