// Graph construction flow (Fig. 2 of the paper) as one partition pass.
//
// The flow is: primitive DFG (one node per operator instance, one edge per
// SSA dependence) -> buffer insertion (one buffer node per (array, bank);
// Alloca markers drop) -> datapath merging (value numbering of pure
// operators in rounds, then one node per shared functional unit) -> graph
// trimming (bypass trivial casts, drop constants and isolated nodes) ->
// feature annotation. partition_graph computes the first four steps in one
// pass without intermediate graphs: a topological walk hash-conses each
// op's value-numbering key once per round it changes, a union-find applies
// the shared units, casts and constants are marked, and nodes and coalesced
// edges are materialised once. Node, edge and provenance order match the
// steps run one after another, since the feature pass sums in that order
// (DESIGN.md §2). tests/graphflow_ref.* keeps those steps as parity oracle.
#pragma once

#include <vector>

#include "hls/binding.hpp"
#include "hls/elaborate.hpp"

namespace powergear::graphgen {

/// Which steps to run (all on by default; for tests and flow ablations).
struct GraphFlowOptions {
    bool buffer_insertion = true;
    bool datapath_merging = true;
    bool trimming = true;
};

/// Value-numbering rounds: duplicated chain levels past this stay unmerged.
constexpr int kMaxMergeRounds = 16;

/// Nodes and edges with the provenance the feature pass sums, in order.
struct FlowGraph {
    struct Node {
        bool is_buffer = false;
        ir::Opcode op = ir::Opcode::Const; ///< operation nodes
        int array = -1;                    ///< buffer: ArrayDecl id
        int bank = 0;                      ///< buffer: partition bank
        int ops_begin = 0, ops_end = 0;    ///< merged operator instances in `ops`
    };
    struct Edge {
        int src = -1;
        int dst = -1;
        int pins_begin = 0, pins_end = 0; ///< consumer pins (ElabEdge ids) in `pins`
        int mem_op = -1;                  ///< buffer edge: the load/store instance
    };
    std::vector<Node> nodes;
    std::vector<Edge> edges;
    std::vector<int> ops;
    std::vector<int> pins;
};

/// Buffer insertion, datapath merging and trimming as selected by `opts`.
/// Throws std::invalid_argument unless `elab` lists each consumer's operand
/// edges in operand order with producers before consumers (as
/// hls::elaborate does for verified IR).
FlowGraph partition_graph(const ir::Function& fn, const hls::ElabGraph& elab,
                          const hls::Binding& binding,
                          const GraphFlowOptions& opts);

} // namespace powergear::graphgen
