// Parity of graphgen::construct_graph (the one-pass partition) against the
// reference flow (graphflow_ref.hpp): the Graphs must be equal, features
// bit for bit, under every GraphFlowOptions combination, on Polybench
// design points, synthetic nests, a duplicated chain deeper than the
// value-numbering round cap and a shared-unit merge that re-seats a unit's
// representative.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "dse/stream.hpp"
#include "graphflow_ref.hpp"
#include "graphgen/features.hpp"
#include "hls/flow.hpp"
#include "ir/builder.hpp"
#include "kernels/polybench.hpp"
#include "kernels/synthetic.hpp"
#include "sim/stimulus.hpp"
#include "util/rng.hpp"

using namespace powergear;
using graphgen::Graph;
using graphgen::GraphFlowOptions;

namespace {

std::vector<GraphFlowOptions> all_options() {
    std::vector<GraphFlowOptions> out;
    for (int mask = 0; mask < 8; ++mask)
        out.push_back({(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0});
    return out;
}

std::string options_name(const GraphFlowOptions& o) {
    return std::string(" buffers=") + (o.buffer_insertion ? "1" : "0") +
           " merging=" + (o.datapath_merging ? "1" : "0") +
           " trimming=" + (o.trimming ? "1" : "0");
}

sim::Trace stimulated_trace(const ir::Function& fn, std::uint64_t seed) {
    sim::StimulusProfile stim;
    stim.seed = seed;
    return sim::simulate(fn, stim);
}

/// First difference between the library's partition and the reference's
/// transformed WorkGraph, down to the order of every provenance list; empty
/// when they agree.
std::string flow_difference(const graphgen::FlowGraph& lib,
                            const graphgen::ref::WorkGraph& ref,
                            const hls::ElabGraph& elab) {
    std::vector<const graphgen::ref::WorkNode*> nodes;
    for (const auto& n : ref.nodes)
        if (!n.removed) nodes.push_back(&n);
    std::vector<const graphgen::ref::WorkEdge*> edges;
    for (const auto& e : ref.edges)
        if (!e.removed) edges.push_back(&e);
    if (lib.nodes.size() != nodes.size() || lib.edges.size() != edges.size())
        return "sizes " + std::to_string(lib.nodes.size()) + "/" +
               std::to_string(nodes.size()) + " nodes, " +
               std::to_string(lib.edges.size()) + "/" + std::to_string(edges.size()) +
               " edges";
    for (std::size_t v = 0; v < nodes.size(); ++v) {
        const auto& a = lib.nodes[v];
        const auto& b = *nodes[v];
        const std::vector<int> ops(lib.ops.begin() + a.ops_begin, lib.ops.begin() + a.ops_end);
        if (a.is_buffer != b.is_buffer || (!a.is_buffer && a.op != b.op) ||
            (a.is_buffer && (a.array != b.array || a.bank != b.bank)) || ops != b.elab_ops)
            return "node " + std::to_string(v);
    }
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const auto& a = lib.edges[i];
        const auto& b = *edges[i];
        std::vector<std::pair<int, int>> pins;
        for (int t = a.pins_begin; t < a.pins_end; ++t) {
            const hls::ElabEdge& pin = elab.edges[static_cast<std::size_t>(lib.pins[static_cast<std::size_t>(t)])];
            pins.emplace_back(pin.dst, pin.operand_index);
        }
        const std::vector<int> mem = a.mem_op >= 0 ? std::vector<int>{a.mem_op} : std::vector<int>{};
        if (a.src != b.src || a.dst != b.dst || pins != b.consumer_pins || mem != b.mem_ops)
            return "edge " + std::to_string(i);
    }
    return "";
}

/// Library and reference flows of one design point under each option set:
/// the same partition and provenance order, and the same Graph.
void expect_parity(const ir::Function& fn, const sim::Trace& trace,
                   const hls::Directives& dirs,
                   const std::vector<GraphFlowOptions>& options,
                   const std::string& tag) {
    const hls::Design d = hls::synthesize(fn, dirs);
    const sim::ActivityOracle oracle(fn, d.elab, trace, d.sched.total_latency);
    for (const GraphFlowOptions& o : options) {
        graphgen::ref::WorkGraph g = graphgen::ref::build_dfg(fn, d.elab);
        if (o.buffer_insertion) graphgen::ref::insert_buffers(g);
        if (o.datapath_merging) graphgen::ref::merge_datapaths(g, d.binding);
        if (o.trimming) graphgen::ref::trim_graph(g);
        ASSERT_EQ(flow_difference(graphgen::partition_graph(fn, d.elab, d.binding, o), g,
                                  d.elab),
                  "")
            << tag << " " << dirs.to_string() << options_name(o);
        const Graph lib = graphgen::construct_graph(fn, d.elab, d.binding, oracle, o);
        const Graph ref = graphgen::ref::construct_graph(fn, d.elab, d.binding, oracle, o);
        ASSERT_TRUE(lib == ref) << tag << " " << dirs.to_string() << options_name(o)
                                << ": " << lib.num_nodes << "/" << ref.num_nodes
                                << " nodes, " << lib.edges.size() << "/"
                                << ref.edges.size() << " edges";
    }
}

/// Every point of spaces up to `full` points, else `sampled` points spread
/// over the space.
void check_kernel(const std::string& name, int size, std::uint64_t full, int sampled,
                  const std::vector<GraphFlowOptions>& options) {
    const ir::Function fn = kernels::build_polybench(name, size);
    const sim::Trace trace = stimulated_trace(fn, static_cast<std::uint64_t>(size));
    const hls::DesignSpace space(fn);
    const std::string tag = name + "@" + std::to_string(size);
    if (space.size() <= full) {
        for (std::uint64_t i = 0; i < space.size(); ++i)
            expect_parity(fn, trace, space.point(i), options, tag);
        return;
    }
    dse::CandidateStream stream(space.size());
    for (int i = 0; i < sampled && !stream.done(); ++i)
        expect_parity(fn, trace, space.point(*stream.next()), options, tag);
}

/// Two copies of one pure chain `depth` ops deep over the same load. Round 1
/// fuses the constants and round k + 1 the k-th chain level, so levels past
/// the round cap stay split.
ir::Function twin_chains(int depth) {
    ir::Builder b("twins");
    const int a = b.array("A", {8}, /*external=*/true);
    const int out = b.array("O", {8}, /*external=*/true);
    b.begin_loop("L", 8);
    const int x = b.load(a, {b.indvar()});
    for (int copy = 0; copy < 2; ++copy) {
        int v = x;
        for (int k = 0; k < depth; ++k) v = b.xor_(v, b.constant(k + 1));
        b.store(out, {b.indvar()}, v);
    }
    b.end_loop();
    return b.build();
}

/// Three sequential loops each issue two constant-only multiplies in one
/// cycle, so binding alternates them over two shared units, U0 and U1:
/// L0's 3*5 on U0, L1's 3*5 on U1. Value numbering puts both in one node, so
/// the shared-unit merge absorbs U0's node (with L1's U0 op) into U1's.
/// L2's U0 op then re-seats U0 on its own node, which stays a second mul.
ir::Function crossed_units() {
    ir::Builder b("crossed");
    const int out = b.array("O", {8}, /*external=*/true);
    const int factors[3][2][2] = {{{3, 5}, {7, 9}}, {{11, 13}, {3, 5}}, {{17, 19}, {23, 29}}};
    for (int l = 0; l < 3; ++l) {
        b.begin_loop("L" + std::to_string(l), 8);
        int sum = b.indvar();
        for (const auto& f : factors[l])
            sum = b.add(sum, b.mul(b.constant(f[0]), b.constant(f[1])));
        b.store(out, {b.indvar()}, sum);
        b.end_loop();
    }
    return b.build();
}

/// A loop body of `ops` random pure operations over a load, the induction
/// variable and constants 1..3, with casts and multiplies. Each value may
/// get a twin built the same way from its operands' twins, so duplicated
/// chains of every depth fuse in different rounds, and shared multipliers
/// merge across them.
ir::Function random_dag(util::Rng& rng, int ops, int tag) {
    ir::Builder b("dag" + std::to_string(tag));
    const int a = b.array("A", {8}, /*external=*/true);
    const int out = b.array("O", {8}, /*external=*/true);
    b.begin_loop("L", 8);
    struct Val {
        int id, twin;
    };
    const int load = b.load(a, {b.indvar()});
    std::vector<Val> vals{{load, load}, {b.indvar(), b.indvar()}};
    const auto draw = [&](int hi) { return static_cast<int>(rng.next_range(0, hi)); };
    const auto constant = [&](int c) { return Val{b.constant(c), b.constant(c)}; };
    const auto pick = [&]() -> Val {
        if (draw(3) == 0) return constant(1 + draw(2));
        const int n = static_cast<int>(vals.size());
        return vals[static_cast<std::size_t>(std::max(0, n - 1 - draw(5)))];
    };
    const auto make = [&](int kind, int x, int y) {
        switch (kind) {
            case 0: return b.add(x, y);
            case 1: return b.xor_(x, y);
            case 2: return b.mul(x, y);
            default: return b.sext(b.trunc(x, 16), 32);
        }
    };
    for (int k = 0; k < ops; ++k) {
        const int kind = draw(3);
        const Val x = pick();
        const Val y = kind < 3 ? pick() : constant(1);
        const int v = make(kind, x.id, y.id);
        vals.push_back({v, draw(1) == 0 ? make(kind, x.twin, y.twin) : v});
    }
    for (std::size_t k = vals.size() - 3; k < vals.size(); ++k) {
        b.store(out, {b.indvar()}, vals[k].id);
        b.store(out, {b.indvar()}, vals[k].twin);
    }
    b.end_loop();
    return b.build();
}

/// Re-seats the reference's shared-unit merge makes on `d`: its loop
/// replayed over the value-numbered nodes the reference leaves when no
/// unit is shared.
int count_reseats(const ir::Function& fn, const hls::Design& d) {
    hls::Binding unshared = d.binding;
    for (hls::Unit& u : unshared.units) u.shared = false;
    graphgen::ref::WorkGraph g = graphgen::ref::build_dfg(fn, d.elab);
    graphgen::ref::insert_buffers(g);
    graphgen::ref::merge_datapaths(g, unshared);
    std::vector<int> into(g.nodes.size());
    std::iota(into.begin(), into.end(), 0);
    const auto find = [&](int v) {
        while (into[static_cast<std::size_t>(v)] != v) v = into[static_cast<std::size_t>(v)];
        return v;
    };
    std::map<int, int> unit_node;
    int reseats = 0;
    for (int o = 0; o < static_cast<int>(d.binding.unit_of_op.size()); ++o) {
        const int u = d.binding.unit_of_op[static_cast<std::size_t>(o)];
        const int start = g.node_of_op[static_cast<std::size_t>(o)];
        if (u < 0 || !d.binding.units[static_cast<std::size_t>(u)].shared || start < 0)
            continue;
        const int node = find(start);
        auto [it, inserted] = unit_node.try_emplace(u, node);
        if (inserted) continue;
        if (find(it->second) != it->second) {
            it->second = node;
            ++reseats;
        } else if (it->second != node) {
            into[static_cast<std::size_t>(node)] = it->second;
        }
    }
    return reseats;
}

int count_labeled(const Graph& g, const std::string& label) {
    int n = 0;
    for (const std::string& l : g.labels) n += l == label;
    return n;
}

} // namespace

TEST(GraphFlowParity, SmallPolybenchSpacesEveryPoint) {
    for (const std::string name : {"gemm", "gesummv", "syrk", "syr2k"})
        for (int size : {12, 16, 20})
            check_kernel(name, size, 1000, 0, {GraphFlowOptions{}});
}

TEST(GraphFlowParity, LargePolybenchSpacesSpread) {
    for (const std::string name : {"atax", "bicg", "k2mm", "k3mm", "mvt"})
        for (int size : {12, 16, 20}) check_kernel(name, size, 0, 160, {GraphFlowOptions{}});
}

TEST(GraphFlowParity, PolybenchEveryOptionCombination) {
    for (const std::string& name : kernels::polybench_names())
        for (int size : {12, 16, 20}) check_kernel(name, size, 0, 24, all_options());
}

TEST(GraphFlowParity, SyntheticNestsEveryOptionCombination) {
    util::Rng rng(2022);
    for (int tag = 0; tag < 16; ++tag) {
        const ir::Function fn = kernels::build_synthetic({}, rng, tag);
        const sim::Trace trace = stimulated_trace(fn, static_cast<std::uint64_t>(tag + 1));
        const hls::DesignSpace space(fn);
        dse::CandidateStream stream(space.size());
        for (int i = 0; i < 8 && !stream.done(); ++i)
            expect_parity(fn, trace, space.point(*stream.next()), all_options(), fn.name);
    }
}

TEST(GraphFlowParity, ChainDeeperThanTheRoundCapStaysSplit) {
    for (int depth : {graphgen::kMaxMergeRounds - 1, graphgen::kMaxMergeRounds,
                      graphgen::kMaxMergeRounds + 4}) {
        const ir::Function fn = twin_chains(depth);
        const sim::Trace trace = stimulated_trace(fn, 5);
        for (int unroll : {1, 2})
            expect_parity(fn, trace, hls::Directives{{{0, {unroll, false}}}, {}},
                          all_options(), "twins" + std::to_string(depth));
        // Chain level k fuses in round k + 1; the rest keep one node per copy.
        const hls::Design d = hls::synthesize(fn, {});
        const sim::ActivityOracle oracle(fn, d.elab, trace, d.sched.total_latency);
        const Graph g = graphgen::construct_graph(fn, d.elab, d.binding, oracle);
        const int fused = std::min(depth, graphgen::kMaxMergeRounds - 1);
        EXPECT_EQ(count_labeled(g, "xorx2"), fused) << depth;
        EXPECT_EQ(count_labeled(g, "xorx1"), 2 * (depth - fused)) << depth;
    }
}

TEST(GraphFlowParity, SharedUnitRepresentativeReseated) {
    const ir::Function fn = crossed_units();
    const hls::Design d = hls::synthesize(fn, {});
    ASSERT_GT(count_reseats(fn, d), 0);
    const sim::Trace trace = stimulated_trace(fn, 3);
    expect_parity(fn, trace, {}, all_options(), "crossed");
    const sim::ActivityOracle oracle(fn, d.elab, trace, d.sched.total_latency);
    const Graph g = graphgen::construct_graph(fn, d.elab, d.binding, oracle);
    EXPECT_EQ(count_labeled(g, "mulx5"), 1);
    EXPECT_EQ(count_labeled(g, "mulx1"), 1);
}

TEST(GraphFlowParity, RandomDagsEveryOptionCombination) {
    util::Rng rng(21);
    for (int tag = 0; tag < 40; ++tag) {
        const ir::Function fn = random_dag(rng, 12 + tag % 5 * 8, tag);
        const sim::Trace trace = stimulated_trace(fn, static_cast<std::uint64_t>(tag));
        for (int unroll : {1, 2, 4})
            expect_parity(fn, trace, hls::Directives{{{0, {unroll, tag % 2 == 0}}}, {}},
                          all_options(), fn.name);
    }
}

TEST(GraphFlowParity, RejectsElabEdgesOutOfOperandOrder) {
    const ir::Function fn = kernels::build_polybench("atax", 12);
    const hls::Design d = hls::synthesize(fn, {});
    hls::ElabGraph swapped = d.elab;
    ASSERT_GE(swapped.edges.size(), 2u);
    std::swap(swapped.edges.front(), swapped.edges.back());
    EXPECT_THROW(graphgen::partition_graph(fn, swapped, d.binding, {}),
                 std::invalid_argument);
    EXPECT_NO_THROW(graphgen::partition_graph(fn, d.elab, d.binding, {}));
}
