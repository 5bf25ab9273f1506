#include "analysis/nn_check.hpp"

#include <cmath>
#include <string>

namespace powergear::analysis {

namespace {

using gnn::GraphTensors;
using graphgen::Graph;
using nn::Tensor;

bool all_finite(const Tensor& t) {
    const float* p = t.data();
    for (std::size_t i = 0; i < t.size(); ++i)
        if (!std::isfinite(p[i])) return false;
    return true;
}

void check_index_list(const std::vector<int>& idx, int num_nodes,
                      const char* what, Report& out) {
    for (int v : idx)
        if (v < 0 || v >= num_nodes) {
            out.add("NN001", what, -1,
                    std::string(what) + " references node " + std::to_string(v) +
                        " outside [0, " + std::to_string(num_nodes) + ")");
            return; // one diagnostic per list
        }
}

} // namespace

Report check_tensors(const GraphTensors& g) {
    Report out;
    if (g.x.rows() != g.num_nodes)
        out.add("NN001", "x", -1,
                "node feature rows " + std::to_string(g.x.rows()) +
                    " != num_nodes " + std::to_string(g.num_nodes));
    if (g.metadata.rows() != 1)
        out.add("NN001", "metadata", -1,
                "metadata must be a single row, has " +
                    std::to_string(g.metadata.rows()));

    std::size_t rel_total = 0;
    for (int r = 0; r < Graph::kNumRelations; ++r) {
        const auto& src = g.rel_src[static_cast<std::size_t>(r)];
        const auto& dst = g.rel_dst[static_cast<std::size_t>(r)];
        const Tensor& feat = g.rel_edge_feat[static_cast<std::size_t>(r)];
        rel_total += src.size();
        if (src.size() != dst.size() ||
            static_cast<int>(src.size()) != feat.rows())
            out.add("NN001", "relation", r,
                    "src/dst/feature counts disagree (" +
                        std::to_string(src.size()) + "/" +
                        std::to_string(dst.size()) + "/" +
                        std::to_string(feat.rows()) + ")");
        else if (feat.rows() > 0 && feat.cols() != Graph::kEdgeDim)
            out.add("NN001", "relation", r,
                    "edge feature width " + std::to_string(feat.cols()) +
                        " != " + std::to_string(Graph::kEdgeDim));
        check_index_list(src, g.num_nodes, "rel_src", out);
        check_index_list(dst, g.num_nodes, "rel_dst", out);
    }
    if (g.src.size() != g.dst.size() ||
        static_cast<int>(g.src.size()) != g.edge_feat.rows() ||
        g.src.size() != rel_total)
        out.add("NN001", "edges", -1,
                "flat edge view (" + std::to_string(g.src.size()) +
                    ") disagrees with per-relation views (" +
                    std::to_string(rel_total) + ")");
    check_index_list(g.src, g.num_nodes, "src", out);
    check_index_list(g.dst, g.num_nodes, "dst", out);

    if (g.gcn_src.size() != g.gcn_dst.size() ||
        g.gcn_src.size() != g.gcn_norm.size())
        out.add("NN001", "gcn", -1, "GCN view index/norm sizes disagree");
    check_index_list(g.gcn_src, g.num_nodes, "gcn_src", out);
    check_index_list(g.gcn_dst, g.num_nodes, "gcn_dst", out);
    if (static_cast<int>(g.inv_in_degree.size()) != g.num_nodes)
        out.add("NN001", "inv_in_degree", -1,
                "has " + std::to_string(g.inv_in_degree.size()) +
                    " entries for " + std::to_string(g.num_nodes) + " nodes");

    if (!all_finite(g.x)) out.add("NN002", "x", -1, "non-finite node feature");
    if (!all_finite(g.metadata))
        out.add("NN002", "metadata", -1, "non-finite metadata feature");
    if (!all_finite(g.edge_feat))
        out.add("NN002", "edge_feat", -1, "non-finite edge feature");
    for (int r = 0; r < Graph::kNumRelations; ++r)
        if (!all_finite(g.rel_edge_feat[static_cast<std::size_t>(r)])) {
            out.add("NN002", "rel_edge_feat", r, "non-finite edge feature");
            break;
        }
    for (float v : g.gcn_norm)
        if (!std::isfinite(v)) {
            out.add("NN002", "gcn_norm", -1, "non-finite normalization");
            break;
        }
    for (float v : g.inv_in_degree)
        if (!std::isfinite(v)) {
            out.add("NN002", "inv_in_degree", -1, "non-finite degree scale");
            break;
        }
    return out;
}

} // namespace powergear::analysis
