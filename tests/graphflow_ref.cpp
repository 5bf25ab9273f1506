#include "graphflow_ref.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <tuple>

#include "hls/scheduler.hpp"

namespace powergear::graphgen::ref {

int WorkGraph::live_nodes() const {
    int n = 0;
    for (const WorkNode& node : nodes)
        if (!node.removed) ++n;
    return n;
}

int WorkGraph::live_edges() const {
    int n = 0;
    for (const WorkEdge& e : edges)
        if (!e.removed) ++n;
    return n;
}

void WorkGraph::compact() {
    std::vector<int> remap(nodes.size(), -1);
    std::vector<WorkNode> new_nodes;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].removed) continue;
        remap[i] = static_cast<int>(new_nodes.size());
        new_nodes.push_back(std::move(nodes[i]));
    }
    nodes = std::move(new_nodes);

    std::map<std::pair<int, int>, int> seen; // (src,dst) -> new edge index
    std::vector<WorkEdge> new_edges;
    for (WorkEdge& e : edges) {
        if (e.removed) continue;
        const int s = remap[static_cast<std::size_t>(e.src)];
        const int d = remap[static_cast<std::size_t>(e.dst)];
        if (s < 0 || d < 0 || s == d) continue; // drop dangling / self loops
        auto [it, inserted] = seen.try_emplace({s, d}, static_cast<int>(new_edges.size()));
        if (inserted) {
            e.src = s;
            e.dst = d;
            new_edges.push_back(std::move(e));
        } else {
            WorkEdge& tgt = new_edges[static_cast<std::size_t>(it->second)];
            tgt.consumer_pins.insert(tgt.consumer_pins.end(),
                                     e.consumer_pins.begin(), e.consumer_pins.end());
            tgt.mem_ops.insert(tgt.mem_ops.end(), e.mem_ops.begin(), e.mem_ops.end());
        }
    }
    edges = std::move(new_edges);

    for (auto& n : node_of_op)
        if (n >= 0) n = remap[static_cast<std::size_t>(n)];
}

WorkGraph build_dfg(const ir::Function& fn, const hls::ElabGraph& elab) {
    WorkGraph g;
    g.fn = &fn;
    g.elab = &elab;
    g.node_of_op.assign(static_cast<std::size_t>(elab.num_ops()), -1);

    for (int o = 0; o < elab.num_ops(); ++o) {
        const hls::ElabOp& op = elab.ops[static_cast<std::size_t>(o)];
        WorkNode n;
        n.op = op.op;
        n.bitwidth = op.bitwidth;
        n.array = op.array;
        if (op.op == ir::Opcode::Const)
            n.imm = fn.instr(op.instr).imm;
        n.elab_ops = {o};
        g.node_of_op[static_cast<std::size_t>(o)] = static_cast<int>(g.nodes.size());
        g.nodes.push_back(std::move(n));
    }
    for (const hls::ElabEdge& e : elab.edges) {
        WorkEdge we;
        we.src = g.node_of_op[static_cast<std::size_t>(e.src)];
        we.dst = g.node_of_op[static_cast<std::size_t>(e.dst)];
        we.consumer_pins.emplace_back(e.dst, e.operand_index);
        g.edges.push_back(std::move(we));
    }
    return g;
}

void insert_buffers(WorkGraph& g) {
    const ir::Function& fn = *g.fn;
    const hls::ElabGraph& elab = *g.elab;

    // One buffer node per (array, bank), created on first access.
    std::map<std::pair<int, int>, int> buffer_node;
    auto buffer_for = [&](int array, int bank) {
        auto [it, inserted] = buffer_node.try_emplace({array, bank}, -1);
        if (inserted) {
            WorkNode n;
            n.is_buffer = true;
            n.array = array;
            n.bank = bank;
            n.bitwidth = fn.arrays[static_cast<std::size_t>(array)].bitwidth;
            it->second = static_cast<int>(g.nodes.size());
            g.nodes.push_back(std::move(n));
        }
        return it->second;
    };

    for (int o = 0; o < elab.num_ops(); ++o) {
        const hls::ElabOp& op = elab.ops[static_cast<std::size_t>(o)];
        const int node = g.node_of_op[static_cast<std::size_t>(o)];
        if (node < 0) continue;
        if (op.op == ir::Opcode::Alloca) {
            // The buffer node subsumes the alloca marker.
            g.nodes[static_cast<std::size_t>(node)].removed = true;
            g.node_of_op[static_cast<std::size_t>(o)] = -1;
            continue;
        }
        if (op.op != ir::Opcode::Load && op.op != ir::Opcode::Store) continue;

        const int banks = elab.directives.banks_of(op.array);
        const int buf = buffer_for(op.array, hls::bank_of(op.replica, banks));
        WorkEdge e;
        if (op.op == ir::Opcode::Store) {
            e.src = node;
            e.dst = buf;
        } else {
            e.src = buf;
            e.dst = node;
        }
        e.mem_ops.push_back(o);
        g.edges.push_back(std::move(e));
    }
    g.compact();
}

namespace {

/// Opcodes safe for value-numbering fusion (side-effect free, and not the
/// memory/buffer nodes whose multiplicity carries meaning).
bool pure_op(const WorkNode& n) {
    if (n.is_buffer) return false;
    switch (n.op) {
        case ir::Opcode::Load:
        case ir::Opcode::Store:
        case ir::Opcode::Alloca:
        case ir::Opcode::IndVar:
        case ir::Opcode::Ret:
            return false;
        default:
            return true;
    }
}

/// Merge node `from` into node `into`, retargeting edges.
void merge_into(WorkGraph& g, int into, int from) {
    WorkNode& a = g.nodes[static_cast<std::size_t>(into)];
    WorkNode& b = g.nodes[static_cast<std::size_t>(from)];
    a.elab_ops.insert(a.elab_ops.end(), b.elab_ops.begin(), b.elab_ops.end());
    b.removed = true;
    for (int op : b.elab_ops)
        g.node_of_op[static_cast<std::size_t>(op)] = into;
    b.elab_ops.clear();
    for (WorkEdge& e : g.edges) {
        if (e.removed) continue;
        if (e.src == from) e.src = into;
        if (e.dst == from) e.dst = into;
    }
}

/// One round of value numbering; returns the number of merges performed.
int value_numbering_round(WorkGraph& g) {
    // Gather input pins per node: sorted (operand_index, src node).
    std::vector<std::vector<std::pair<int, int>>> inputs(g.nodes.size());
    for (const WorkEdge& e : g.edges) {
        if (e.removed) continue;
        std::set<int> pin_indices;
        for (const auto& [consumer, opidx] : e.consumer_pins) {
            (void)consumer;
            pin_indices.insert(opidx);
        }
        if (pin_indices.empty()) pin_indices.insert(0);
        for (int k : pin_indices)
            inputs[static_cast<std::size_t>(e.dst)].emplace_back(k, e.src);
    }

    using Key = std::tuple<int, int, std::int64_t, int,
                           std::vector<std::pair<int, int>>>;
    std::map<Key, int> first_with_key;
    int merges = 0;
    for (int v = 0; v < static_cast<int>(g.nodes.size()); ++v) {
        WorkNode& n = g.nodes[static_cast<std::size_t>(v)];
        if (n.removed || !pure_op(n)) continue;
        auto& pins = inputs[static_cast<std::size_t>(v)];
        std::sort(pins.begin(), pins.end());
        // Constants have no inputs; keyed purely by immediate + width.
        Key key{static_cast<int>(n.op), n.bitwidth, n.imm, n.array, pins};
        auto [it, inserted] = first_with_key.try_emplace(std::move(key), v);
        if (!inserted) {
            merge_into(g, it->second, v);
            ++merges;
        }
    }
    if (merges) g.compact();
    return merges;
}

} // namespace

void merge_datapaths(WorkGraph& g, const hls::Binding& binding) {
    // Phase 1: identical-chain fusion to fixpoint (chains collapse one level
    // per round, so a few rounds settle any practical DFG).
    for (int round = 0; round < 16; ++round)
        if (value_numbering_round(g) == 0) break;

    // Phase 2: resource-sharing merge. Collect current node per shared unit.
    std::map<int, int> unit_node; // unit id -> representative node
    for (int o = 0; o < static_cast<int>(binding.unit_of_op.size()); ++o) {
        const int unit = binding.unit_of_op[static_cast<std::size_t>(o)];
        if (unit < 0 || !binding.units[static_cast<std::size_t>(unit)].shared)
            continue;
        const int node = g.node_of_op[static_cast<std::size_t>(o)];
        if (node < 0 || g.nodes[static_cast<std::size_t>(node)].removed) continue;
        auto [it, inserted] = unit_node.try_emplace(unit, node);
        if (inserted) continue;
        // A representative can have been merged away by an earlier overlap
        // (value numbering may interleave ops of several units in one node);
        // re-seat it rather than merging into a dead node.
        if (g.nodes[static_cast<std::size_t>(it->second)].removed) {
            it->second = node;
            continue;
        }
        if (it->second != node) merge_into(g, it->second, node);
    }
    g.compact();
}

namespace {

bool bypassable(const WorkNode& n) {
    return !n.is_buffer && ir::is_trivial_cast(n.op);
}

bool droppable(const WorkNode& n) {
    return !n.is_buffer && n.op == ir::Opcode::Const;
}

} // namespace

void trim_graph(WorkGraph& g) {
    // Bypass trivial casts: connect each predecessor to each successor,
    // keeping the successor-side consumer pins (the datapath still feeds the
    // same sink operand).
    for (int v = 0; v < static_cast<int>(g.nodes.size()); ++v) {
        WorkNode& n = g.nodes[static_cast<std::size_t>(v)];
        if (n.removed || !bypassable(n)) continue;
        std::vector<int> in_edges, out_edges;
        for (int e = 0; e < static_cast<int>(g.edges.size()); ++e) {
            const WorkEdge& we = g.edges[static_cast<std::size_t>(e)];
            if (we.removed) continue;
            if (we.dst == v) in_edges.push_back(e);
            if (we.src == v) out_edges.push_back(e);
        }
        for (int ei : in_edges) {
            for (int eo : out_edges) {
                WorkEdge bridged;
                bridged.src = g.edges[static_cast<std::size_t>(ei)].src;
                bridged.dst = g.edges[static_cast<std::size_t>(eo)].dst;
                bridged.consumer_pins =
                    g.edges[static_cast<std::size_t>(eo)].consumer_pins;
                bridged.mem_ops = g.edges[static_cast<std::size_t>(eo)].mem_ops;
                g.edges.push_back(std::move(bridged));
            }
        }
        for (int ei : in_edges) g.edges[static_cast<std::size_t>(ei)].removed = true;
        for (int eo : out_edges) g.edges[static_cast<std::size_t>(eo)].removed = true;
        n.removed = true;
        for (int op : n.elab_ops) g.node_of_op[static_cast<std::size_t>(op)] = -1;
    }

    // Drop constants and their fanout edges (no switching, no hardware).
    for (int v = 0; v < static_cast<int>(g.nodes.size()); ++v) {
        WorkNode& n = g.nodes[static_cast<std::size_t>(v)];
        if (n.removed || !droppable(n)) continue;
        for (WorkEdge& e : g.edges)
            if (!e.removed && (e.src == v || e.dst == v)) e.removed = true;
        n.removed = true;
        for (int op : n.elab_ops) g.node_of_op[static_cast<std::size_t>(op)] = -1;
    }
    g.compact();

    // Drop nodes left fully isolated by the bypasses.
    std::vector<bool> touched(g.nodes.size(), false);
    for (const WorkEdge& e : g.edges) {
        if (e.removed) continue;
        touched[static_cast<std::size_t>(e.src)] = true;
        touched[static_cast<std::size_t>(e.dst)] = true;
    }
    bool any = false;
    for (int v = 0; v < static_cast<int>(g.nodes.size()); ++v) {
        if (!touched[static_cast<std::size_t>(v)] &&
            !g.nodes[static_cast<std::size_t>(v)].removed) {
            g.nodes[static_cast<std::size_t>(v)].removed = true;
            for (int op : g.nodes[static_cast<std::size_t>(v)].elab_ops)
                g.node_of_op[static_cast<std::size_t>(op)] = -1;
            any = true;
        }
    }
    if (any) g.compact();
}

namespace {

NodeClass class_of(const WorkNode& n) {
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

} // namespace

Graph annotate_features(const WorkGraph& g, const sim::ActivityOracle& oracle) {
    const hls::ElabGraph& elab = *g.elab;

    // Producer lookup: (consumer op, operand index) -> producer op.
    std::map<std::pair<int, int>, int> producer_of_pin;
    for (const hls::ElabEdge& e : elab.edges)
        producer_of_pin[{e.dst, e.operand_index}] = e.src;

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

    for (const WorkEdge& we : g.edges) {
        if (we.removed) continue;
        double sa_src = 0.0, ar_src = 0.0, sa_snk = 0.0, ar_snk = 0.0;
        if (!we.mem_ops.empty()) {
            // Buffer edge: the memory operators' streams describe both what
            // is injected into and what leaves the edge.
            for (int mo : we.mem_ops) {
                const sim::DirStats st = oracle.produced(mo);
                sa_src += st.sa;
                ar_src += st.ar;
            }
            sa_snk = sa_src;
            ar_snk = ar_src;
        } else {
            std::set<int> producers;
            for (const auto& [consumer, opidx] : we.consumer_pins) {
                const sim::DirStats snk = oracle.consumed(consumer, opidx);
                sa_snk += snk.sa;
                ar_snk += snk.ar;
                auto it = producer_of_pin.find({consumer, opidx});
                if (it != producer_of_pin.end()) producers.insert(it->second);
            }
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
        const WorkNode& n = g.nodes[static_cast<std::size_t>(v)];
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
        if (!n.elab_ops.empty()) {
            for (int o : n.elab_ops) {
                const sim::DirStats prod = oracle.produced(o);
                ar += prod.ar;
                sa_out += prod.sa;
                const hls::ElabOp& op = elab.ops[static_cast<std::size_t>(o)];
                const ir::Instr& in_instr = g.fn->instr(op.instr);
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
    for (const WorkNode& n : g.nodes) {
        if (n.is_buffer) {
            out.labels.push_back(
                "buffer:" + g.fn->arrays[static_cast<std::size_t>(n.array)].name +
                "[" + std::to_string(n.bank) + "]");
        } else {
            out.labels.push_back(std::string(ir::opcode_name(n.op)) + "x" +
                                 std::to_string(n.elab_ops.size()));
        }
    }
    return out;
}

Graph construct_graph(const ir::Function& fn, const hls::ElabGraph& elab,
                      const hls::Binding& binding,
                      const sim::ActivityOracle& oracle,
                      const GraphFlowOptions& opts) {
    WorkGraph g = build_dfg(fn, elab);
    if (opts.buffer_insertion) insert_buffers(g);
    if (opts.datapath_merging) merge_datapaths(g, binding);
    if (opts.trimming) trim_graph(g);
    return annotate_features(g, oracle);
}

} // namespace powergear::graphgen::ref
