// Graph convolution layers.
//
// HecConv implements the paper's heterogeneous edge-centric aggregation
// (Eq. 4/5): node update W_V h_v plus, per relation r, messages
// W_r (W_E e_uvr) summed into sink nodes — one fused Tape::aggregate_relu
// over the in-edge CSR, no per-relation buffer. The global W_E fits the
// V^2 f term and the relation-specific W_r fit the relation-conditioned
// interconnect capacitance C_r — the power-formula-shaped inductive bias.
// Ablation switches degrade it to the paper's w/o e.f. / w/o dir. /
// w/o hetr. variants. GcnConv, SageConv, GraphConvLayer and GineConv are the
// Table I baselines.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "graphgen/graph.hpp"
#include "nn/layers.hpp"

namespace powergear::gnn {

/// A graph sample packaged as tensors plus index lists for aggregation.
struct GraphTensors {
    int num_nodes = 0;
    nn::Tensor x;        ///< (n, node_dim)
    nn::Tensor metadata; ///< (1, metadata_dim)

    // Directed edges split per relation type (HEC-GNN's heterogeneity).
    std::array<std::vector<int>, graphgen::Graph::kNumRelations> rel_src;
    std::array<std::vector<int>, graphgen::Graph::kNumRelations> rel_dst;
    std::array<nn::Tensor, graphgen::Graph::kNumRelations> rel_edge_feat;

    // Flat directed view (relation-agnostic models / w/o hetr.).
    std::vector<int> src, dst;
    nn::Tensor edge_feat; ///< (E, 4)

    // Edge ids grouped by sink node (in-edges) and by source node (the
    // w/o dir. side), per relation and for the flat view: the index
    // HecConv's fused aggregation walks.
    std::array<nn::Csr, graphgen::Graph::kNumRelations> rel_by_dst, rel_by_src;
    nn::Csr by_dst, by_src;

    // Symmetrized + self-loop view with GCN normalization coefficients.
    std::vector<int> gcn_src, gcn_dst;
    std::vector<float> gcn_norm;

    std::vector<float> inv_in_degree; ///< per node, 1/max(1, in-degree)

    static GraphTensors from(const graphgen::Graph& g,
                             const std::vector<double>& metadata);
};

/// Abstract conv layer: maps node embeddings (n, in) -> (n, out).
struct Conv {
    virtual ~Conv() = default;
    virtual int forward(nn::Tape& t, const GraphTensors& g, int h) = 0;
    virtual void collect(std::vector<nn::Param*>& out) = 0;
};

/// HEC-GNN layer with ablation switches.
struct HecConv final : Conv {
    HecConv(int in, int out, int edge_dim, bool edge_features, bool directed,
            bool heterogeneous, util::Rng& rng);
    int forward(nn::Tape& t, const GraphTensors& g, int h) override;
    void collect(std::vector<nn::Param*>& out) override;

private:
    bool edge_features_, directed_, heterogeneous_;
    nn::Linear w_v;                     ///< node self-update
    nn::Param w_e;                      ///< global edge/message transform
    std::vector<nn::Param> w_r;         ///< per-relation transforms (out,out)
};

/// GCN (Kipf & Welling): symmetric-normalized neighborhood averaging.
struct GcnConv final : Conv {
    GcnConv(int in, int out, util::Rng& rng);
    int forward(nn::Tape& t, const GraphTensors& g, int h) override;
    void collect(std::vector<nn::Param*>& out) override;

private:
    nn::Linear lin;
};

/// GraphSAGE with mean aggregator over in-neighbors.
struct SageConv final : Conv {
    SageConv(int in, int out, util::Rng& rng);
    int forward(nn::Tape& t, const GraphTensors& g, int h) override;
    void collect(std::vector<nn::Param*>& out) override;

private:
    nn::Linear w_self, w_neigh;
};

/// GraphConv (Morris et al.) with scalar edge weights (source switching
/// activity) modulating messages.
struct GraphConvLayer final : Conv {
    GraphConvLayer(int in, int out, util::Rng& rng);
    int forward(nn::Tape& t, const GraphTensors& g, int h) override;
    void collect(std::vector<nn::Param*>& out) override;

private:
    nn::Linear w_self, w_neigh;
};

/// GINE (Hu et al.): MLP((1+eps) h + sum ReLU(h_u + lift(e))).
struct GineConv final : Conv {
    GineConv(int in, int out, int edge_dim, util::Rng& rng);
    int forward(nn::Tape& t, const GraphTensors& g, int h) override;
    void collect(std::vector<nn::Param*>& out) override;

private:
    nn::Linear edge_lift; ///< (edge_dim -> in)
    nn::Mlp2 mlp;         ///< (in -> out -> out)
};

} // namespace powergear::gnn
