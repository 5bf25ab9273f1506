#include "hecconv_ref.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/layers.hpp"
#include "util/stats.hpp"

namespace powergear::gnn::ref {

using graphgen::Graph;
using nn::Tape;
using nn::Tensor;

// ---------------------------------------------------------------------------
// HecConv
// ---------------------------------------------------------------------------

HecConv::HecConv(int in, int out, int edge_dim, bool edge_features,
                 bool directed, bool heterogeneous, util::Rng& rng)
    : edge_features_(edge_features), directed_(directed),
      heterogeneous_(heterogeneous), w_v(in, out, rng),
      w_e(Tensor::xavier(edge_features ? edge_dim : in, out, rng)) {
    const int num_rel = heterogeneous ? Graph::kNumRelations : 1;
    w_r.reserve(static_cast<std::size_t>(num_rel));
    for (int r = 0; r < num_rel; ++r)
        w_r.emplace_back(Tensor::xavier(out, out, rng));
}

int HecConv::forward(Tape& t, const GraphTensors& g, int h) {
    int agg = -1;
    const int num_rel = heterogeneous_ ? Graph::kNumRelations : 1;
    for (int rel = 0; rel < num_rel; ++rel) {
        const std::vector<int>& srcs = heterogeneous_
                                           ? g.rel_src[static_cast<std::size_t>(rel)]
                                           : g.src;
        const std::vector<int>& dsts = heterogeneous_
                                           ? g.rel_dst[static_cast<std::size_t>(rel)]
                                           : g.dst;
        if (srcs.empty()) continue;

        int msg;
        if (edge_features_) {
            const Tensor& ef = heterogeneous_
                                   ? g.rel_edge_feat[static_cast<std::size_t>(rel)]
                                   : g.edge_feat;
            msg = t.matmul(t.input_view(ef), t.param(&w_e));
        } else {
            // w/o e.f.: aggregate transformed neighbor embeddings instead,
            // via the fused gather+matmul kernel (no materialized gather).
            msg = t.gather_matmul(h, std::span<const int>(srcs), t.param(&w_e));
        }
        msg = t.matmul(msg, t.param(&w_r[static_cast<std::size_t>(rel)]));

        int scattered =
            t.scatter_add_rows(msg, std::span<const int>(dsts), g.num_nodes);
        if (!directed_) {
            // w/o dir.: edges also deliver their message to the source side.
            scattered = t.add(
                scattered,
                t.scatter_add_rows(msg, std::span<const int>(srcs), g.num_nodes));
        }
        agg = agg < 0 ? scattered : t.add(agg, scattered);
    }

    int self = w_v.forward(t, h);
    return t.relu(agg < 0 ? self : t.add(self, agg));
}

void HecConv::collect(std::vector<nn::Param*>& out) {
    w_v.collect(out);
    out.push_back(&w_e);
    for (nn::Param& p : w_r) out.push_back(&p);
}

// ---------------------------------------------------------------------------
// PowerModel (gnn::PowerModel, HEC-GNN kind)
// ---------------------------------------------------------------------------

PowerModel::PowerModel(const ModelConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
    if (cfg.kind != ConvKind::HecGnn)
        throw std::invalid_argument("ref::PowerModel: HEC-GNN only");
    for (int k = 0; k < cfg.layers; ++k) {
        const int in = k == 0 ? cfg.node_dim : cfg.hidden;
        convs_.push_back(std::make_unique<HecConv>(
            in, cfg.hidden, cfg.edge_dim, cfg.edge_features, cfg.directed,
            cfg.heterogeneous, rng_));
    }
    if (cfg.metadata)
        meta_fc_ = std::make_unique<nn::Linear>(cfg.metadata_dim, cfg.hidden, rng_);
    const int head_in = cfg.metadata ? 2 * cfg.hidden : cfg.hidden;
    head_ = std::make_unique<nn::Mlp2>(head_in, cfg.hidden, 1, rng_);
    adam_ = std::make_unique<nn::Adam>(params(), cfg.learning_rate);
}

void PowerModel::set_output_bias(float value) {
    head_->fc2.bias.w.fill(value);
}

std::vector<nn::Param*> PowerModel::params() {
    std::vector<nn::Param*> out;
    for (auto& c : convs_) c->collect(out);
    if (meta_fc_) meta_fc_->collect(out);
    head_->collect(out);
    return out;
}

int PowerModel::forward(nn::Tape& t, const GraphTensors& g,
                        std::span<const int> graph_id, int num_graphs,
                        bool training) {
    int h = t.input_view(g.x);
    int pooled = -1;
    for (auto& conv : convs_) {
        h = conv->forward(t, g, h);
        if (cfg_.dropout > 0.0f)
            h = t.dropout(h, cfg_.dropout, rng_, training);
        if (cfg_.jumping_knowledge) {
            const int layer_pool = t.segment_sum(h, graph_id, num_graphs);
            pooled = pooled < 0 ? layer_pool : t.add(pooled, layer_pool);
        }
    }
    if (!cfg_.jumping_knowledge) pooled = t.segment_sum(h, graph_id, num_graphs);
    pooled = t.scale(pooled, 1.0f / 32.0f);

    int holistic = pooled;
    if (cfg_.metadata) {
        const int hm = meta_fc_->forward_relu(t, t.input_view(g.metadata));
        holistic = t.concat_cols(pooled, hm);
    }
    return head_->forward(t, holistic);
}

std::vector<float> PowerModel::predict_batch(const GraphBatch& b,
                                             nn::Tape& t) {
    t.reset();
    const int out = forward(t, b.g, b.graph_id, b.num_graphs,
                            /*training=*/false);
    const nn::Tensor& v = t.value(out);
    std::vector<float> preds(static_cast<std::size_t>(b.num_graphs));
    for (int i = 0; i < b.num_graphs; ++i)
        preds[static_cast<std::size_t>(i)] = v.at(i, 0);
    return preds;
}

double PowerModel::train_epoch(const std::vector<const GraphTensors*>& graphs,
                               const std::vector<float>& targets,
                               int batch_size) {
    if (graphs.size() != targets.size() || graphs.empty())
        throw std::invalid_argument("train_epoch: bad inputs");
    std::vector<int> order(graphs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    rng_.shuffle(order);

    double loss_sum = 0.0;
    int batches = 0;
    nn::Tape t;
    for (std::size_t start = 0; start < order.size();
         start += static_cast<std::size_t>(batch_size)) {
        const std::size_t end =
            std::min(order.size(), start + static_cast<std::size_t>(batch_size));
        t.reset();
        std::vector<float> ys;
        ys.reserve(end - start);
        for (std::size_t i = start; i < end; ++i)
            ys.push_back(targets[static_cast<std::size_t>(order[i])]);
        std::vector<const GraphTensors*> members;
        members.reserve(end - start);
        for (std::size_t i = start; i < end; ++i)
            members.push_back(graphs[static_cast<std::size_t>(order[i])]);
        const GraphBatch batch = GraphBatch::assemble(members);
        const int preds =
            forward(t, batch.g, batch.graph_id, batch.num_graphs, true);
        const int loss = t.mape_loss_rows(preds, ys);
        adam_->zero_grad();
        t.backward(loss);
        adam_->step();
        loss_sum += t.value(loss).at(0, 0);
        ++batches;
    }
    return loss_sum / std::max(1, batches);
}

double PowerModel::evaluate_mape(const std::vector<const GraphTensors*>& graphs,
                                 const std::vector<float>& targets) {
    if (graphs.size() != targets.size())
        throw std::invalid_argument("evaluate_mape: size mismatch");
    std::vector<float> preds;
    preds.reserve(graphs.size());
    nn::Tape t;
    const std::size_t chunk = static_cast<std::size_t>(kBatchChunk);
    for (std::size_t start = 0; start < graphs.size(); start += chunk) {
        const std::size_t n = std::min(chunk, graphs.size() - start);
        const GraphBatch b = GraphBatch::assemble(
            std::span<const GraphTensors* const>(graphs.data() + start, n));
        const std::vector<float> chunk_preds = predict_batch(b, t);
        preds.insert(preds.end(), chunk_preds.begin(), chunk_preds.end());
    }
    return util::mape(preds, targets);
}

// ---------------------------------------------------------------------------
// Ensemble::fit member recipe
// ---------------------------------------------------------------------------

namespace {

struct MemberSpec {
    std::vector<int> train_idx;
    std::vector<int> val_idx;
    std::uint64_t seed = 0;
};

std::vector<nn::Tensor> train_member(
    std::span<const GraphTensors* const> graphs,
    std::span<const float> targets, const MemberSpec& spec,
    const EnsembleConfig& cfg) {
    ModelConfig mc = cfg.model;
    mc.seed = spec.seed;
    PowerModel model(mc);

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
        model.set_output_bias(static_cast<float>(mean / train_y.size()));
    }

    const std::vector<nn::Param*> params = model.params();
    std::vector<nn::Tensor> best = nn::snapshot_params(params);
    double best_val = val_g.empty() ? 0.0 : model.evaluate_mape(val_g, val_y);
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        model.train_epoch(train_g, train_y, cfg.batch_size);
        if (!val_g.empty() && (epoch % 5 == 4 || epoch == cfg.epochs - 1)) {
            const double v = model.evaluate_mape(val_g, val_y);
            if (v < best_val) {
                best_val = v;
                best = nn::snapshot_params(params);
            }
        }
    }
    if (!val_g.empty()) nn::restore_params(params, best);
    return nn::snapshot_params(params);
}

} // namespace

std::vector<std::vector<nn::Tensor>> fit_ensemble(
    std::span<const GraphTensors* const> graphs,
    std::span<const float> targets, const EnsembleConfig& cfg) {
    if (graphs.size() != targets.size() || graphs.size() < 2)
        throw std::invalid_argument("ref::fit_ensemble: need >= 2 samples");
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

    std::vector<std::vector<nn::Tensor>> out;
    for (const MemberSpec& spec : specs)
        out.push_back(train_member(graphs, targets, spec, cfg));
    return out;
}

} // namespace powergear::gnn::ref
