#include "graphgen/features.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"

namespace powergear::graphgen {

namespace {

NodeClass class_of(const FlowGraph::Node& n) {
    if (n.is_buffer) return NodeClass::Buffer;
    if (ir::is_arithmetic(n.op)) return NodeClass::Arithmetic;
    if (ir::is_memory(n.op)) return NodeClass::Memory;
    if (n.op == ir::Opcode::IndVar) return NodeClass::Control;
    return NodeClass::Misc;
}

// Linear scaling (not log compression): dynamic power is linear in switching
// activity (Eq. 1), and HEC-GNN's additive edge aggregation is designed to
// exploit exactly that linearity, so the features must preserve it.
float squash(double v) { return static_cast<float>(std::max(0.0, v) / 8.0); }

/// Feature annotation of the flow's nodes and edges. Sums run over each
/// provenance list in order, so the floats depend on that order.
Graph annotate_features(const FlowGraph& g, const ir::Function& fn,
                        const hls::ElabGraph& elab,
                        const sim::ActivityOracle& oracle) {
    Graph out;
    const int opcode_slots = ir::opcode_count() + 1; // +1: buffer pseudo-opcode
    out.node_dim = node_feature_dim(opcode_slots);
    out.num_nodes = static_cast<int>(g.nodes.size());
    out.x.assign(static_cast<std::size_t>(out.num_nodes) *
                     static_cast<std::size_t>(out.node_dim),
                 0.0f);

    // --- edges first (buffer nodes read their stats back from edges) -------
    std::vector<double> node_sa_in(g.nodes.size(), 0.0);
    std::vector<double> node_sa_out(g.nodes.size(), 0.0);
    std::vector<double> node_ar(g.nodes.size(), 0.0);

    std::vector<int> producers;
    for (const FlowGraph::Edge& we : g.edges) {
        double sa_src = 0.0, ar_src = 0.0, sa_snk = 0.0, ar_snk = 0.0;
        if (we.mem_op >= 0) {
            // Buffer edge: the memory operator's stream describes both what
            // is injected into and what leaves the edge.
            const sim::DirStats st = oracle.produced(we.mem_op);
            sa_src += st.sa;
            ar_src += st.ar;
            sa_snk = sa_src;
            ar_snk = ar_src;
        } else {
            // Pins are elab edges: consumer, operand index and producer.
            producers.clear();
            for (int t = we.pins_begin; t < we.pins_end; ++t) {
                const hls::ElabEdge& pin = elab.edges[static_cast<std::size_t>(
                    g.pins[static_cast<std::size_t>(t)])];
                const sim::DirStats snk = oracle.consumed(pin.dst, pin.operand_index);
                sa_snk += snk.sa;
                ar_snk += snk.ar;
                producers.push_back(pin.src);
            }
            std::sort(producers.begin(), producers.end());
            producers.erase(std::unique(producers.begin(), producers.end()),
                            producers.end());
            for (int p : producers) {
                const sim::DirStats src = oracle.produced(p);
                sa_src += src.sa;
                ar_src += src.ar;
            }
        }

        Graph::Edge e;
        e.src = we.src;
        e.dst = we.dst;
        const bool src_arith =
            class_of(g.nodes[static_cast<std::size_t>(we.src)]) == NodeClass::Arithmetic;
        const bool dst_arith =
            class_of(g.nodes[static_cast<std::size_t>(we.dst)]) == NodeClass::Arithmetic;
        e.relation = Graph::relation_of(src_arith, dst_arith);
        e.feat = {squash(sa_src), squash(ar_src), squash(sa_snk), squash(ar_snk)};
        out.edges.push_back(e);

        node_sa_out[static_cast<std::size_t>(we.src)] += sa_src;
        node_sa_in[static_cast<std::size_t>(we.dst)] += sa_snk;
        node_ar[static_cast<std::size_t>(we.src)] += ar_src;
    }

    // --- nodes --------------------------------------------------------------
    for (int v = 0; v < out.num_nodes; ++v) {
        const FlowGraph::Node& n = g.nodes[static_cast<std::size_t>(v)];
        const NodeClass cls = class_of(n);
        float* row = &out.x[static_cast<std::size_t>(v) *
                            static_cast<std::size_t>(out.node_dim)];
        row[static_cast<int>(cls)] = 1.0f;
        const int opcode_slot =
            n.is_buffer ? ir::opcode_count() : static_cast<int>(n.op);
        row[kNumNodeClasses + opcode_slot] = 1.0f;

        // Operation nodes query the oracle directly; buffer nodes fall back
        // to the activity accumulated on their incident edges.
        double ar = 0.0, sa_in = 0.0, sa_out = 0.0;
        if (n.ops_end > n.ops_begin) {
            for (int t = n.ops_begin; t < n.ops_end; ++t) {
                const int o = g.ops[static_cast<std::size_t>(t)];
                const sim::DirStats prod = oracle.produced(o);
                ar += prod.ar;
                sa_out += prod.sa;
                const hls::ElabOp& op = elab.ops[static_cast<std::size_t>(o)];
                const ir::Instr& in_instr = fn.instr(op.instr);
                for (int k = 0; k < static_cast<int>(in_instr.operands.size()); ++k)
                    sa_in += oracle.consumed(o, k).sa;
            }
        } else {
            ar = node_ar[static_cast<std::size_t>(v)];
            sa_in = node_sa_in[static_cast<std::size_t>(v)];
            sa_out = node_sa_out[static_cast<std::size_t>(v)];
        }
        const int base = kNumNodeClasses + opcode_slots;
        row[base + 0] = squash(ar);
        row[base + 1] = squash(sa_in);
        row[base + 2] = squash(sa_out);
        row[base + 3] = squash(sa_in + sa_out);
    }

    // Debug labels.
    out.labels.reserve(g.nodes.size());
    for (const FlowGraph::Node& n : g.nodes) {
        if (n.is_buffer) {
            out.labels.push_back(
                "buffer:" + fn.arrays[static_cast<std::size_t>(n.array)].name +
                "[" + std::to_string(n.bank) + "]");
        } else {
            out.labels.push_back(std::string(ir::opcode_name(n.op)) + "x" +
                                 std::to_string(n.ops_end - n.ops_begin));
        }
    }
    return out;
}

} // namespace

Graph construct_graph(const ir::Function& fn, const hls::ElabGraph& elab,
                      const hls::Binding& binding,
                      const sim::ActivityOracle& oracle,
                      const GraphFlowOptions& opts) {
    const obs::Scope obs_scope(obs::Phase::GraphGen);
    Graph out = annotate_features(partition_graph(fn, elab, binding, opts), fn,
                                  elab, oracle);
    obs::add(obs::Phase::GraphGen, "graphs");
    obs::add(obs::Phase::GraphGen, "nodes",
             static_cast<std::uint64_t>(out.num_nodes));
    obs::add(obs::Phase::GraphGen, "edges", out.edges.size());
    return out;
}

} // namespace powergear::graphgen
