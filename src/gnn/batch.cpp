#include "gnn/batch.hpp"

#include <cstring>
#include <stdexcept>

namespace powergear::gnn {

namespace {

/// Append src's rows to dst starting at row_offset (dst preallocated).
void copy_rows(nn::Tensor& dst, const nn::Tensor& src, int row_offset) {
    if (src.empty()) return;
    std::memcpy(dst.row(row_offset), src.data(), src.size() * sizeof(float));
}

/// Append idx + offset to out.
void append_offset(std::vector<int>& out, const std::vector<int>& idx,
                   int offset) {
    const std::size_t at = out.size();
    out.insert(out.end(), idx.begin(), idx.end());
    for (std::size_t i = at; i < out.size(); ++i) out[i] += offset;
}

} // namespace

GraphBatch GraphBatch::assemble(std::span<const GraphTensors* const> graphs) {
    if (graphs.empty())
        throw std::invalid_argument("GraphBatch::assemble: no graphs");
    const GraphTensors& first = *graphs.front();
    const int node_dim = first.x.cols();
    const int meta_dim = first.metadata.cols();

    int total_nodes = 0;
    int total_edges = 0;
    int total_gcn = 0;
    std::array<int, graphgen::Graph::kNumRelations> rel_edges{};
    for (const GraphTensors* gp : graphs) {
        const GraphTensors& g = *gp;
        if (g.x.cols() != node_dim || g.metadata.cols() != meta_dim ||
            g.metadata.rows() != 1)
            throw std::invalid_argument(
                "GraphBatch::assemble: graphs disagree on tensor widths");
        total_nodes += g.num_nodes;
        total_edges += static_cast<int>(g.src.size());
        total_gcn += static_cast<int>(g.gcn_src.size());
        for (std::size_t rel = 0; rel < rel_edges.size(); ++rel)
            rel_edges[rel] += static_cast<int>(g.rel_src[rel].size());
    }

    GraphBatch b;
    b.num_graphs = static_cast<int>(graphs.size());
    b.node_offset.reserve(graphs.size() + 1);
    b.graph_id.reserve(static_cast<std::size_t>(total_nodes));

    GraphTensors& m = b.g;
    m.num_nodes = total_nodes;
    m.x = nn::Tensor(total_nodes, node_dim);
    m.metadata = nn::Tensor(b.num_graphs, meta_dim);
    m.edge_feat = nn::Tensor(total_edges, graphgen::Graph::kEdgeDim);
    for (std::size_t rel = 0; rel < rel_edges.size(); ++rel)
        m.rel_edge_feat[rel] =
            nn::Tensor(rel_edges[rel], graphgen::Graph::kEdgeDim);
    m.src.reserve(static_cast<std::size_t>(total_edges));
    m.dst.reserve(static_cast<std::size_t>(total_edges));
    m.gcn_src.reserve(static_cast<std::size_t>(total_gcn));
    m.gcn_dst.reserve(static_cast<std::size_t>(total_gcn));
    m.gcn_norm.reserve(static_cast<std::size_t>(total_gcn));
    m.inv_in_degree.reserve(static_cast<std::size_t>(total_nodes));
    auto reserve_csr = [total_nodes](nn::Csr& c, int edges) {
        c.ptr.reserve(static_cast<std::size_t>(total_nodes) + 1);
        c.ids.reserve(static_cast<std::size_t>(edges));
    };
    for (std::size_t rel = 0; rel < rel_edges.size(); ++rel) {
        reserve_csr(m.rel_by_dst[rel], rel_edges[rel]);
        reserve_csr(m.rel_by_src[rel], rel_edges[rel]);
    }
    reserve_csr(m.by_dst, total_edges);
    reserve_csr(m.by_src, total_edges);

    int offset = 0;
    std::array<int, graphgen::Graph::kNumRelations> rel_at{};
    int edge_at = 0;
    for (int gi = 0; gi < b.num_graphs; ++gi) {
        const GraphTensors& g = *graphs[static_cast<std::size_t>(gi)];
        b.node_offset.push_back(offset);
        for (int v = 0; v < g.num_nodes; ++v) b.graph_id.push_back(gi);

        copy_rows(m.x, g.x, offset);
        copy_rows(m.metadata, g.metadata, gi);

        for (std::size_t rel = 0; rel < rel_at.size(); ++rel) {
            append_offset(m.rel_src[rel], g.rel_src[rel], offset);
            append_offset(m.rel_dst[rel], g.rel_dst[rel], offset);
            copy_rows(m.rel_edge_feat[rel], g.rel_edge_feat[rel], rel_at[rel]);
            m.rel_by_dst[rel].append(g.rel_by_dst[rel], rel_at[rel]);
            m.rel_by_src[rel].append(g.rel_by_src[rel], rel_at[rel]);
            rel_at[rel] += g.rel_edge_feat[rel].rows();
        }
        append_offset(m.src, g.src, offset);
        append_offset(m.dst, g.dst, offset);
        copy_rows(m.edge_feat, g.edge_feat, edge_at);
        m.by_dst.append(g.by_dst, edge_at);
        m.by_src.append(g.by_src, edge_at);
        edge_at += g.edge_feat.rows();

        append_offset(m.gcn_src, g.gcn_src, offset);
        append_offset(m.gcn_dst, g.gcn_dst, offset);
        m.gcn_norm.insert(m.gcn_norm.end(), g.gcn_norm.begin(),
                          g.gcn_norm.end());
        m.inv_in_degree.insert(m.inv_in_degree.end(), g.inv_in_degree.begin(),
                               g.inv_in_degree.end());

        offset += g.num_nodes;
    }
    b.node_offset.push_back(offset);
    return b;
}

} // namespace powergear::gnn
