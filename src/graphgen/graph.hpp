// Final graph-structured sample consumed by the GNN models.
//
// Nodes carry a categorical one-hot block (operation class + opcode) plus
// four numeric activity features; edges carry one of four heterogeneous
// relation types (A->A, A->N, N->A, N->N) and the paper's four-dimensional
// feature vector built from source/sink switching activities (Eq. 2) and
// activation rates (Eq. 3).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace powergear::graphgen {

/// Operation class for the categorical node-type feature.
enum class NodeClass : std::uint8_t {
    Arithmetic = 0, ///< add/mul/cmp/... ("A" nodes)
    Memory,         ///< load/store/gep
    Control,        ///< induction variables / FSM-ish entities
    Misc,           ///< casts and other trivial entities (pre-trim)
    Buffer,         ///< inserted buffer nodes
};
constexpr int kNumNodeClasses = 5;

/// A directed heterogeneous graph sample.
struct Graph {
    static constexpr int kEdgeDim = 4;      ///< {SA_src, AR_src, SA_snk, AR_snk}
    static constexpr int kNumRelations = 4; ///< N->N, N->A, A->N, A->A

    struct Edge {
        int src = -1;
        int dst = -1;
        int relation = 0;
        std::array<float, kEdgeDim> feat{};

        friend bool operator==(const Edge&, const Edge&) = default;
    };

    int num_nodes = 0;
    int node_dim = 0;           ///< feature width of `x` rows
    std::vector<float> x;       ///< num_nodes * node_dim, row-major
    std::vector<Edge> edges;
    std::vector<std::string> labels; ///< per-node debug labels

    float node_feature(int node, int k) const {
        return x[static_cast<std::size_t>(node) * static_cast<std::size_t>(node_dim) +
                 static_cast<std::size_t>(k)];
    }

    /// Relation id from endpoint arithmetic-ness: (src_is_A, dst_is_A).
    static int relation_of(bool src_arith, bool dst_arith) {
        return (src_arith ? 2 : 0) + (dst_arith ? 1 : 0);
    }

    /// Structural sanity: endpoints in range, finite features.
    bool valid(std::string* why = nullptr) const;

    /// Bit-exact structural equality (artifact round-trip tests).
    friend bool operator==(const Graph&, const Graph&) = default;
};

/// Node feature layout: [class one-hot | opcode one-hot | AR, SA_in, SA_out,
/// SA_total]. `opcode_slots` must match the encoder used at build time.
int node_feature_dim(int opcode_slots);

} // namespace powergear::graphgen
