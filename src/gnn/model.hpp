// End-to-end power regression model (paper Fig. 3).
//
// Stack: K graph conv layers -> jumping-knowledge sum pooling over all
// layers' node embeddings (Eq. 6) -> concat with the metadata MLP embedding
// -> two-FC head with ReLU (Eq. 7). Trained with the MAPE loss and Adam.
// The conv kind selects HEC-GNN or one of the Table I baselines; boolean
// switches produce the Table II ablation variants.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gnn/batch.hpp"
#include "gnn/convs.hpp"
#include "nn/optimizer.hpp"

namespace powergear::gnn {

enum class ConvKind { HecGnn, Gcn, Sage, GraphConv, Gine };

const char* conv_kind_name(ConvKind k);

struct ModelConfig {
    ConvKind kind = ConvKind::HecGnn;
    int node_dim = 0;     ///< must match the dataset's graphs
    int edge_dim = graphgen::Graph::kEdgeDim;
    int metadata_dim = 10;
    int hidden = 16;      ///< paper: 128
    int layers = 3;       ///< paper: 3
    float dropout = 0.2f;
    double learning_rate = 5e-4;
    // HEC-GNN ablation switches (Table II).
    bool edge_features = true;
    bool directed = true;
    bool heterogeneous = true;
    bool metadata = true;
    bool jumping_knowledge = true;
    std::uint64_t seed = 1;
};

class PowerModel {
public:
    explicit PowerModel(const ModelConfig& cfg);

    /// Inference (no dropout) over a pre-assembled block-diagonal batch: one
    /// forward pass, one estimate in watts per member graph (in batch
    /// order). The model's one inference entry; a single design is a batch
    /// of one. Resets the caller-owned tape first, so repeated calls share
    /// one grown-once arena; the batch must outlive the tape's use up to its
    /// next reset(). Each result agrees with the same graph run as a batch
    /// of one within 1e-5 relative (DESIGN.md §13).
    std::vector<float> predict_batch(const GraphBatch& b, nn::Tape& t);

    /// One epoch of mini-batch training; returns the mean training loss.
    /// Each minibatch runs as one fused block-diagonal forward/backward.
    double train_epoch(const std::vector<const GraphTensors*>& graphs,
                       const std::vector<float>& targets, int batch_size);

    /// util::mape (%) of predictions against targets; the graphs run in
    /// chunks of at most gnn::kBatchChunk through predict_batch.
    double evaluate_mape(const std::vector<const GraphTensors*>& graphs,
                         const std::vector<float>& targets);

    /// Warm-start the regression head's output bias (typically the mean of
    /// the training targets) so MAPE training starts near the right scale.
    void set_output_bias(float value);

    std::vector<nn::Param*> params();
    const ModelConfig& config() const { return cfg_; }

private:
    /// The one forward: conv stack over g's (possibly block-diagonal)
    /// tensors, per-graph sum pooling over graph_id, then the head. Returns
    /// a (num_graphs, 1) node; graph_id is borrowed like g.
    int forward(nn::Tape& t, const GraphTensors& g,
                std::span<const int> graph_id, int num_graphs, bool training);

    ModelConfig cfg_;
    util::Rng rng_;
    std::vector<std::unique_ptr<Conv>> convs_;
    std::unique_ptr<nn::Linear> meta_fc_;
    std::unique_ptr<nn::Mlp2> head_;
    std::unique_ptr<nn::Adam> adam_;
};

} // namespace powergear::gnn
