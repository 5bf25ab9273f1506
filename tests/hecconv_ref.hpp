// Reference HEC-GNN conv and model (test-only).
//
// HecConv as it stood before the fused Tape::aggregate_relu: per relation a
// scatter_add_rows of the messages into sink nodes (plus a second one into
// source nodes for w/o dir.), an add fold over the relations, add(self,
// agg) and a relu — nine-odd passes over (n, hidden) buffers per layer.
// Kept verbatim apart from the namespace so parity tests can demand bit
// equality from the library conv under all 8 switch combinations.
//
// PowerModel (HEC-GNN kind) and Ensemble::fit's member recipe are mirrored
// around it, so a whole ensemble fit through the reference conv can be
// compared with the library's weight for weight, and a model forward's
// arena high-water mark with the library's.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "gnn/batch.hpp"
#include "gnn/convs.hpp"
#include "gnn/ensemble.hpp"
#include "gnn/model.hpp"
#include "nn/optimizer.hpp"

namespace powergear::gnn::ref {

/// HEC-GNN layer with ablation switches: the unfused scatter -> add -> relu
/// chain.
struct HecConv final : Conv {
    HecConv(int in, int out, int edge_dim, bool edge_features, bool directed,
            bool heterogeneous, util::Rng& rng);
    int forward(nn::Tape& t, const GraphTensors& g, int h) override;
    void collect(std::vector<nn::Param*>& out) override;

private:
    bool edge_features_, directed_, heterogeneous_;
    nn::Linear w_v;
    nn::Param w_e;
    std::vector<nn::Param> w_r;
};

/// gnn::PowerModel for ConvKind::HecGnn with ref::HecConv layers: same
/// parameter draws, forward, minibatch training and chunked evaluation.
class PowerModel {
public:
    explicit PowerModel(const ModelConfig& cfg);

    std::vector<float> predict_batch(const GraphBatch& b, nn::Tape& t);
    double train_epoch(const std::vector<const GraphTensors*>& graphs,
                       const std::vector<float>& targets, int batch_size);
    double evaluate_mape(const std::vector<const GraphTensors*>& graphs,
                         const std::vector<float>& targets);
    void set_output_bias(float value);
    std::vector<nn::Param*> params();

private:
    int forward(nn::Tape& t, const GraphTensors& g,
                std::span<const int> graph_id, int num_graphs, bool training);

    ModelConfig cfg_;
    util::Rng rng_;
    std::vector<std::unique_ptr<Conv>> convs_;
    std::unique_ptr<nn::Linear> meta_fc_;
    std::unique_ptr<nn::Mlp2> head_;
    std::unique_ptr<nn::Adam> adam_;
};

/// Ensemble::fit through ref::PowerModel, members trained serially: every
/// member's trained parameter values, in member and params() order.
std::vector<std::vector<nn::Tensor>> fit_ensemble(
    std::span<const GraphTensors* const> graphs,
    std::span<const float> targets, const EnsembleConfig& cfg);

} // namespace powergear::gnn::ref
