#include "gnn/convs.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

namespace powergear::gnn {

using graphgen::Graph;
using nn::Tape;
using nn::Tensor;

GraphTensors GraphTensors::from(const Graph& g,
                                const std::vector<double>& metadata) {
    GraphTensors out;
    out.num_nodes = g.num_nodes;
    out.x = Tensor(g.num_nodes, g.node_dim);
    for (int r = 0; r < g.num_nodes; ++r)
        for (int c = 0; c < g.node_dim; ++c)
            out.x.at(r, c) = g.node_feature(r, c);

    out.metadata = Tensor(1, static_cast<int>(metadata.size()));
    for (int c = 0; c < out.metadata.cols(); ++c)
        out.metadata.at(0, c) =
            static_cast<float>(std::log1p(std::max(0.0, metadata[static_cast<std::size_t>(c)])));

    // Per-relation and flat edge views, sized up front.
    const int num_edges = static_cast<int>(g.edges.size());
    std::array<int, Graph::kNumRelations> rel_count{};
    for (const Graph::Edge& e : g.edges)
        ++rel_count[static_cast<std::size_t>(e.relation)];
    for (std::size_t rel = 0; rel < rel_count.size(); ++rel) {
        out.rel_src[rel].reserve(static_cast<std::size_t>(rel_count[rel]));
        out.rel_dst[rel].reserve(static_cast<std::size_t>(rel_count[rel]));
        out.rel_edge_feat[rel] = Tensor(rel_count[rel], Graph::kEdgeDim);
    }
    out.src.reserve(g.edges.size());
    out.dst.reserve(g.edges.size());
    out.edge_feat = Tensor(num_edges, Graph::kEdgeDim);
    for (int i = 0; i < num_edges; ++i) {
        const Graph::Edge& e = g.edges[static_cast<std::size_t>(i)];
        const auto rel = static_cast<std::size_t>(e.relation);
        const int at = static_cast<int>(out.rel_src[rel].size());
        std::memcpy(out.rel_edge_feat[rel].row(at), e.feat.data(),
                    sizeof e.feat);
        std::memcpy(out.edge_feat.row(i), e.feat.data(), sizeof e.feat);
        out.rel_src[rel].push_back(e.src);
        out.rel_dst[rel].push_back(e.dst);
        out.src.push_back(e.src);
        out.dst.push_back(e.dst);
    }
    for (std::size_t rel = 0; rel < rel_count.size(); ++rel) {
        out.rel_by_dst[rel] = nn::Csr::group(out.rel_dst[rel], g.num_nodes);
        out.rel_by_src[rel] = nn::Csr::group(out.rel_src[rel], g.num_nodes);
    }
    out.by_dst = nn::Csr::group(out.dst, g.num_nodes);
    out.by_src = nn::Csr::group(out.src, g.num_nodes);

    // GCN view: symmetrized edges + self loops with 1/sqrt(d_u d_v) norms.
    std::vector<int> deg(static_cast<std::size_t>(g.num_nodes), 1); // self loop
    for (const Graph::Edge& e : g.edges) {
        ++deg[static_cast<std::size_t>(e.src)];
        ++deg[static_cast<std::size_t>(e.dst)];
    }
    const std::size_t gcn_edges =
        2 * g.edges.size() + static_cast<std::size_t>(g.num_nodes);
    out.gcn_src.reserve(gcn_edges);
    out.gcn_dst.reserve(gcn_edges);
    out.gcn_norm.reserve(gcn_edges);
    auto push_gcn = [&](int s, int d) {
        out.gcn_src.push_back(s);
        out.gcn_dst.push_back(d);
        out.gcn_norm.push_back(
            1.0f / std::sqrt(static_cast<float>(deg[static_cast<std::size_t>(s)]) *
                             static_cast<float>(deg[static_cast<std::size_t>(d)])));
    };
    for (const Graph::Edge& e : g.edges) {
        push_gcn(e.src, e.dst);
        push_gcn(e.dst, e.src);
    }
    for (int v = 0; v < g.num_nodes; ++v) push_gcn(v, v);

    // In-degree for mean aggregation.
    std::vector<int> indeg(static_cast<std::size_t>(g.num_nodes), 0);
    for (const Graph::Edge& e : g.edges) ++indeg[static_cast<std::size_t>(e.dst)];
    out.inv_in_degree.resize(static_cast<std::size_t>(g.num_nodes));
    for (int v = 0; v < g.num_nodes; ++v)
        out.inv_in_degree[static_cast<std::size_t>(v)] =
            1.0f / static_cast<float>(std::max(1, indeg[static_cast<std::size_t>(v)]));
    return out;
}

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
    std::array<Tape::AggTerm, Graph::kNumRelations> terms{};
    std::size_t num_terms = 0;
    const int num_rel = heterogeneous_ ? Graph::kNumRelations : 1;
    for (int rel = 0; rel < num_rel; ++rel) {
        const auto r = static_cast<std::size_t>(rel);
        const std::vector<int>& srcs = heterogeneous_ ? g.rel_src[r] : g.src;
        if (srcs.empty()) continue;

        int msg;
        if (edge_features_) {
            const Tensor& ef =
                heterogeneous_ ? g.rel_edge_feat[r] : g.edge_feat;
            msg = t.matmul(t.input_view(ef), t.param(&w_e));
        } else {
            // w/o e.f.: aggregate transformed neighbor embeddings instead,
            // via the fused gather+matmul kernel (no materialized gather).
            msg = t.gather_matmul(h, std::span<const int>(srcs), t.param(&w_e));
        }
        msg = t.matmul(msg, t.param(&w_r[r]));
        // w/o dir.: edges also deliver their message to the source side.
        terms[num_terms++] = {
            msg, heterogeneous_ ? &g.rel_by_dst[r] : &g.by_dst,
            directed_ ? nullptr : heterogeneous_ ? &g.rel_by_src[r] : &g.by_src};
    }

    const int self = w_v.forward(t, h);
    return t.aggregate_relu(
        self, std::span<const Tape::AggTerm>(terms.data(), num_terms));
}

void HecConv::collect(std::vector<nn::Param*>& out) {
    w_v.collect(out);
    out.push_back(&w_e);
    for (nn::Param& p : w_r) out.push_back(&p);
}

// ---------------------------------------------------------------------------
// GcnConv
// ---------------------------------------------------------------------------

GcnConv::GcnConv(int in, int out, util::Rng& rng) : lin(in, out, rng) {}

int GcnConv::forward(Tape& t, const GraphTensors& g, int h) {
    const int hw = lin.forward(t, h);
    const int gathered = t.gather_rows(hw, std::span<const int>(g.gcn_src));
    const int weighted =
        t.scale_rows(gathered, std::span<const float>(g.gcn_norm));
    return t.relu(t.scatter_add_rows(weighted, std::span<const int>(g.gcn_dst),
                                     g.num_nodes));
}

void GcnConv::collect(std::vector<nn::Param*>& out) { lin.collect(out); }

// ---------------------------------------------------------------------------
// SageConv
// ---------------------------------------------------------------------------

SageConv::SageConv(int in, int out, util::Rng& rng)
    : w_self(in, out, rng), w_neigh(in, out, rng) {}

int SageConv::forward(Tape& t, const GraphTensors& g, int h) {
    int neigh = -1;
    if (!g.src.empty()) {
        const int gathered = t.gather_rows(h, std::span<const int>(g.src));
        const int summed = t.scatter_add_rows(
            gathered, std::span<const int>(g.dst), g.num_nodes);
        const int mean =
            t.scale_rows(summed, std::span<const float>(g.inv_in_degree));
        neigh = w_neigh.forward(t, mean);
    }
    const int self = w_self.forward(t, h);
    return t.relu(neigh < 0 ? self : t.add(self, neigh));
}

void SageConv::collect(std::vector<nn::Param*>& out) {
    w_self.collect(out);
    w_neigh.collect(out);
}

// ---------------------------------------------------------------------------
// GraphConvLayer
// ---------------------------------------------------------------------------

GraphConvLayer::GraphConvLayer(int in, int out, util::Rng& rng)
    : w_self(in, out, rng), w_neigh(in, out, rng) {}

int GraphConvLayer::forward(Tape& t, const GraphTensors& g, int h) {
    int neigh = -1;
    if (!g.src.empty()) {
        // Edge weight: source-side switching activity (first edge feature).
        // The weights live in a constant tape leaf, so the span scale_rows
        // borrows stays valid through backward().
        const int edges = static_cast<int>(g.src.size());
        nn::Tensor weights(edges, 1);
        for (int e = 0; e < edges; ++e) weights.at(e, 0) = g.edge_feat.at(e, 0);
        const int leaf = t.input(std::move(weights));
        const std::span<const float> w(t.value(leaf).data(), g.src.size());
        const int gathered = t.gather_rows(h, std::span<const int>(g.src));
        const int weighted = t.scale_rows(gathered, w);
        const int summed = t.scatter_add_rows(
            weighted, std::span<const int>(g.dst), g.num_nodes);
        neigh = w_neigh.forward(t, summed);
    }
    const int self = w_self.forward(t, h);
    return t.relu(neigh < 0 ? self : t.add(self, neigh));
}

void GraphConvLayer::collect(std::vector<nn::Param*>& out) {
    w_self.collect(out);
    w_neigh.collect(out);
}

// ---------------------------------------------------------------------------
// GineConv
// ---------------------------------------------------------------------------

GineConv::GineConv(int in, int out, int edge_dim, util::Rng& rng)
    : edge_lift(edge_dim, in, rng), mlp(in, out, out, rng) {}

int GineConv::forward(Tape& t, const GraphTensors& g, int h) {
    int pooled = -1;
    if (!g.src.empty()) {
        const int lifted = edge_lift.forward(t, t.input_view(g.edge_feat));
        const int gathered = t.gather_rows(h, std::span<const int>(g.src));
        const int msg = t.relu(t.add(gathered, lifted));
        pooled =
            t.scatter_add_rows(msg, std::span<const int>(g.dst), g.num_nodes);
    }
    const int combined = pooled < 0 ? h : t.add(h, pooled); // eps = 0
    return t.relu(mlp.forward(t, combined));
}

void GineConv::collect(std::vector<nn::Param*>& out) {
    edge_lift.collect(out);
    mlp.collect(out);
}

} // namespace powergear::gnn
