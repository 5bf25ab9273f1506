// Reference graph-construction flow (test-only).
//
// The graph flow as it stood before the partition pass in src/graphgen: a
// primitive DFG of WorkNodes/WorkEdges with `removed` flags, then buffer
// insertion, datapath merging (up to 16 value-numbering rounds, each
// followed by a compact(), then the shared-unit merge) and trimming, each
// rescanning the edge list, and the std::map-based feature annotation.
// Kept verbatim (apart from the namespace and construct_graph's obs
// counters) so parity tests can demand Graph equality from the library
// under every GraphFlowOptions combination, and so tests can check the
// intermediate states the library no longer builds.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graphgen/graph.hpp"
#include "graphgen/partition.hpp"
#include "hls/binding.hpp"
#include "hls/elaborate.hpp"
#include "sim/activity.hpp"

namespace powergear::graphgen::ref {

struct WorkNode {
    bool is_buffer = false;
    ir::Opcode op = ir::Opcode::Const;  ///< for operation nodes
    int bitwidth = 32;
    std::int64_t imm = 0;               ///< Const value (merging key)
    int array = -1;                     ///< buffer: ArrayDecl id
    int bank = 0;                       ///< buffer: partition bank
    std::vector<int> elab_ops;          ///< merged operator instances
    bool removed = false;
};

struct WorkEdge {
    int src = -1;
    int dst = -1;
    /// (consumer elab op, operand index) pins this edge feeds — provenance
    /// for sink-direction activity stats.
    std::vector<std::pair<int, int>> consumer_pins;
    /// For buffer edges: the memory operator instances on the moving side.
    std::vector<int> mem_ops;
    bool removed = false;
};

struct WorkGraph {
    const ir::Function* fn = nullptr;
    const hls::ElabGraph* elab = nullptr;
    std::vector<WorkNode> nodes;
    std::vector<WorkEdge> edges;
    std::vector<int> node_of_op; ///< elab op id -> current node (-1 removed)

    int live_nodes() const;
    int live_edges() const;

    /// Drop removed nodes/edges and coalesce parallel edges (same src/dst),
    /// merging their provenance lists.
    void compact();
};

/// Pass 1: primitive DFG — one node per operator instance, one edge per SSA
/// dependence (Ret is never instantiated).
WorkGraph build_dfg(const ir::Function& fn, const hls::ElabGraph& elab);

/// Buffer insertion (paper Sec. III-A): one buffer node per (array, bank),
/// stores wired in, loads wired out, Alloca nodes removed.
void insert_buffers(WorkGraph& g);

/// Datapath merging: identical-chain fusion by value numbering, then the
/// resource-sharing merge of nodes bound to one shared unit.
void merge_datapaths(WorkGraph& g, const hls::Binding& binding);

/// Graph trimming: bypass trivial casts, drop constants and isolated nodes.
void trim_graph(WorkGraph& g);

/// Annotate a fully-transformed WorkGraph into the final sample.
Graph annotate_features(const WorkGraph& g, const sim::ActivityOracle& oracle);

/// Full flow: primitive DFG -> buffer insertion -> datapath merging ->
/// trimming -> feature annotation.
Graph construct_graph(const ir::Function& fn, const hls::ElabGraph& elab,
                      const hls::Binding& binding,
                      const sim::ActivityOracle& oracle,
                      const GraphFlowOptions& opts = {});

} // namespace powergear::graphgen::ref
