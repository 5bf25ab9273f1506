#include "core/powergear.hpp"

#include <stdexcept>

#include "analysis/diagnostic.hpp"
#include "io/serial.hpp"
#include "obs/obs.hpp"
#include "util/stats.hpp"

namespace powergear::core {

PowerGear::Options PowerGear::Options::from_bench_scale(
    const util::BenchScale& s, dataset::PowerKind kind) {
    Options o;
    o.kind = kind;
    o.hidden = s.hidden_dim;
    o.layers = s.layers;
    o.dropout = static_cast<float>(s.dropout);
    o.learning_rate = s.learning_rate;
    o.epochs = kind == dataset::PowerKind::Dynamic ? s.epochs_dynamic
                                                   : s.epochs_total;
    o.batch_size = s.batch_size;
    o.folds = s.folds;
    o.seeds = s.seeds;
    return o;
}

analysis::Report PowerGear::Options::validate() const {
    analysis::Report r;
    if (epochs <= 0)
        r.add("API001", "epochs", epochs,
              "epoch count must be >= 1 (got " + std::to_string(epochs) + ")");
    if (folds < 1 && seeds < 1)
        r.add("API002", "folds/seeds", folds,
              "folds (" + std::to_string(folds) + ") and seeds (" +
                  std::to_string(seeds) +
                  ") both < 1: the ensemble would train no members");
    if (dropout < 0.0f || dropout >= 1.0f)
        r.add("API003", "dropout", -1,
              "dropout must lie in [0, 1) (got " + std::to_string(dropout) +
                  ")");
    if (learning_rate <= 0.0)
        r.add("API004", "learning_rate", -1,
              "learning rate must be positive (got " +
                  std::to_string(learning_rate) + ")");
    if (batch_size <= 0)
        r.add("API005", "batch_size", batch_size,
              "batch size must be >= 1 (got " + std::to_string(batch_size) +
                  ")");
    if (hidden <= 0 || layers <= 0)
        r.add("API006", "hidden/layers", hidden <= 0 ? hidden : layers,
              "hidden width and layer count must be >= 1 (got hidden=" +
                  std::to_string(hidden) + ", layers=" +
                  std::to_string(layers) + ")");
    r.set_context("PowerGear::Options");
    return r;
}

void PowerGear::fit(const SamplePool& train) {
    if (train.empty()) throw std::invalid_argument("PowerGear::fit: empty pool");
    // A bad config misbehaves silently (zero members, NaN weights, ...) far
    // from its origin, so fit() always validates it.
    analysis::require_clean(opts_.validate(), "PowerGear::fit");

    std::vector<const gnn::GraphTensors*> graphs;
    std::vector<float> labels;
    dataset::collect(train, opts_.kind, graphs, labels);

    gnn::EnsembleConfig ec;
    ec.model.kind = opts_.conv;
    ec.model.node_dim = graphs.front()->x.cols();
    ec.model.metadata_dim = graphs.front()->metadata.cols();
    ec.model.hidden = opts_.hidden;
    ec.model.layers = opts_.layers;
    ec.model.dropout = opts_.dropout;
    ec.model.learning_rate = opts_.learning_rate;
    ec.model.edge_features = opts_.edge_features;
    ec.model.directed = opts_.directed;
    ec.model.heterogeneous = opts_.heterogeneous;
    ec.model.metadata = opts_.metadata;
    ec.model.jumping_knowledge = opts_.jumping_knowledge;
    ec.model.seed = opts_.seed;
    ec.folds = opts_.folds;
    ec.seeds = opts_.seeds;
    ec.epochs = opts_.epochs;
    ec.batch_size = opts_.batch_size;

    ensemble_.fit(std::span<const gnn::GraphTensors* const>(graphs),
                  std::span<const float>(labels), ec);
    fitted_ = true;
}

bool PowerGear::fit_cached(const SamplePool& train, const io::Cache& cache) {
    if (!cache.enabled()) {
        fit(train);
        return false;
    }
    const std::uint64_t key =
        io::Hasher()
            .feed(std::string(io::kArtifactFormatName))
            .feed(std::string(io::kStageModel))
            .feed(std::uint64_t{io::kModelPayloadVersion})
            .feed(static_cast<int>(opts_.kind))
            .feed(static_cast<int>(opts_.conv))
            .feed(opts_.hidden)
            .feed(opts_.layers)
            .feed(static_cast<double>(opts_.dropout))
            .feed(opts_.learning_rate)
            .feed(opts_.epochs)
            .feed(opts_.batch_size)
            .feed(opts_.folds)
            .feed(opts_.seeds)
            .feed(opts_.edge_features)
            .feed(opts_.directed)
            .feed(opts_.heterogeneous)
            .feed(opts_.metadata)
            .feed(opts_.jumping_knowledge)
            .feed(opts_.seed)
            .feed(io::hash_samples(train.view()))
            .value();
    if (std::optional<std::vector<std::uint8_t>> payload =
            cache.load(io::kStageModel, key, io::kModelPayloadVersion)) {
        try {
            ensemble_ = io::decode_ensemble(*payload);
            fitted_ = ensemble_.num_members() > 0;
            if (fitted_) return true;
        } catch (const std::runtime_error&) {
            obs::add(obs::Phase::Cache, "corrupt");
        }
    }
    fit(train);
    cache.store(io::kStageModel, key, io::kModelPayloadVersion,
                io::encode_ensemble(ensemble_));
    return false;
}

std::vector<Estimate> PowerGear::estimate_batch(const SamplePool& samples) const {
    if (!fitted_)
        throw std::logic_error("PowerGear::estimate_batch before fit");
    const obs::Scope obs_scope(obs::Phase::EstimateBatch);
    obs::add(obs::Phase::EstimateBatch, "estimates", samples.size());
    // The pool is merged into block-diagonal chunks and each ensemble member
    // runs one batched forward per chunk (see Ensemble::predict_stats_batch
    // for the determinism argument).
    std::vector<const gnn::GraphTensors*> graphs;
    graphs.reserve(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i)
        graphs.push_back(&samples[i].tensors);
    const std::vector<gnn::Ensemble::Stats> stats =
        ensemble_.predict_stats_batch(graphs);
    std::vector<Estimate> out;
    out.reserve(stats.size());
    for (const gnn::Ensemble::Stats& st : stats)
        out.push_back(Estimate{static_cast<double>(st.mean),
                               static_cast<double>(st.spread)});
    return out;
}

void PowerGear::save(const std::string& path) const {
    if (!fitted_) throw std::logic_error("PowerGear::save before fit");
    io::save_ensemble_file(path, ensemble_);
}

void PowerGear::load(const std::string& path) {
    ensemble_ = io::load_ensemble_file(path);
    fitted_ = ensemble_.num_members() > 0;
}

double PowerGear::evaluate_mape(const SamplePool& test) const {
    std::vector<const gnn::GraphTensors*> graphs;
    std::vector<float> labels;
    dataset::collect(test, opts_.kind, graphs, labels);
    const std::vector<gnn::Ensemble::Stats> stats =
        ensemble_.predict_stats_batch(graphs);
    std::vector<float> means;
    means.reserve(stats.size());
    for (const gnn::Ensemble::Stats& st : stats) means.push_back(st.mean);
    return util::mape(means, labels);
}

} // namespace powergear::core
