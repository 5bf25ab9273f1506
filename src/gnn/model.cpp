#include "gnn/model.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/stats.hpp"

namespace powergear::gnn {

const char* conv_kind_name(ConvKind k) {
    switch (k) {
        case ConvKind::HecGnn: return "HEC-GNN";
        case ConvKind::Gcn: return "GCN";
        case ConvKind::Sage: return "GraphSage";
        case ConvKind::GraphConv: return "GraphConv";
        case ConvKind::Gine: return "GINE";
    }
    return "?";
}

PowerModel::PowerModel(const ModelConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
    if (cfg.node_dim <= 0)
        throw std::invalid_argument("PowerModel: node_dim must be set");
    for (int k = 0; k < cfg.layers; ++k) {
        const int in = k == 0 ? cfg.node_dim : cfg.hidden;
        switch (cfg.kind) {
            case ConvKind::HecGnn:
                convs_.push_back(std::make_unique<HecConv>(
                    in, cfg.hidden, cfg.edge_dim, cfg.edge_features,
                    cfg.directed, cfg.heterogeneous, rng_));
                break;
            case ConvKind::Gcn:
                convs_.push_back(std::make_unique<GcnConv>(in, cfg.hidden, rng_));
                break;
            case ConvKind::Sage:
                convs_.push_back(std::make_unique<SageConv>(in, cfg.hidden, rng_));
                break;
            case ConvKind::GraphConv:
                convs_.push_back(
                    std::make_unique<GraphConvLayer>(in, cfg.hidden, rng_));
                break;
            case ConvKind::Gine:
                convs_.push_back(std::make_unique<GineConv>(in, cfg.hidden,
                                                            cfg.edge_dim, rng_));
                break;
        }
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
    // The conv layers are index-local, so they run on a block-diagonal
    // batch unchanged; only the readout needs the graph_id segmentation.
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
    // Tame the sum-pooled magnitude (graphs have O(100) nodes) so the head
    // starts near the warm-started output bias; the constant keeps the
    // graph-size signal Eq. (6)'s sum pooling carries.
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
    nn::Tape t; // reused across batches: reset() rewinds the arena
    for (std::size_t start = 0; start < order.size();
         start += static_cast<std::size_t>(batch_size)) {
        const std::size_t end =
            std::min(order.size(), start + static_cast<std::size_t>(batch_size));
        t.reset();
        std::vector<float> ys;
        ys.reserve(end - start);
        for (std::size_t i = start; i < end; ++i)
            ys.push_back(targets[static_cast<std::size_t>(order[i])]);
        // The minibatch runs as one block-diagonal forward; the batch must
        // stay alive through backward() (the tape borrows its node features
        // and graph ids).
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

} // namespace powergear::gnn
