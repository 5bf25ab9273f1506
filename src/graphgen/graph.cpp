#include "graphgen/graph.hpp"

#include <cmath>

namespace powergear::graphgen {

bool Graph::valid(std::string* why) const {
    auto fail = [&](const std::string& msg) {
        if (why) *why = msg;
        return false;
    };
    if (num_nodes < 0) return fail("negative node count");
    if (static_cast<std::size_t>(num_nodes) * static_cast<std::size_t>(node_dim) !=
        x.size())
        return fail("feature matrix shape mismatch");
    for (float v : x)
        if (!std::isfinite(v)) return fail("non-finite node feature");
    for (const Edge& e : edges) {
        if (e.src < 0 || e.src >= num_nodes || e.dst < 0 || e.dst >= num_nodes)
            return fail("edge endpoint out of range");
        if (e.relation < 0 || e.relation >= kNumRelations)
            return fail("bad relation id");
        for (float v : e.feat)
            if (!std::isfinite(v)) return fail("non-finite edge feature");
    }
    return true;
}

int node_feature_dim(int opcode_slots) {
    return kNumNodeClasses + opcode_slots + 4;
}

} // namespace powergear::graphgen
