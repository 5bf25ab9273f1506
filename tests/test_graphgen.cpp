// Graph construction flow tests: buffer insertion, datapath merging, graph
// trimming and feature annotation, plus the flow-ablation options. The
// library builds no intermediate graphs, so each step's properties are
// checked on the reference passes (graphflow_ref.hpp) after that step, and
// again on construct_graph run with the steps up to it switched on.
#include <gtest/gtest.h>

#include <string>

#include "graphflow_ref.hpp"
#include "graphgen/features.hpp"
#include "hls/binding.hpp"
#include "hls/scheduler.hpp"
#include "ir/builder.hpp"
#include "kernels/polybench.hpp"
#include "sim/interpreter.hpp"
#include "sim/stimulus.hpp"

using namespace powergear;
using graphgen::Graph;
using graphgen::GraphFlowOptions;
using graphgen::ref::WorkGraph;

namespace {

struct Ctx {
    ir::Function fn;
    sim::Trace trace;
    hls::ElabGraph elab;
    hls::Schedule sched;
    hls::Binding binding;

    explicit Ctx(ir::Function f, const hls::Directives& dirs = {})
        : fn(std::move(f)) {
        sim::Interpreter interp(fn);
        sim::apply_stimulus(interp, fn, {});
        trace = interp.run();
        elab = hls::elaborate(fn, dirs);
        sched = hls::schedule(fn, elab);
        binding = hls::bind(fn, elab, sched);
    }

    sim::ActivityOracle oracle() const {
        return sim::ActivityOracle(fn, elab, trace, sched.total_latency);
    }
};

int count_buffers(const WorkGraph& g) {
    int n = 0;
    for (const auto& node : g.nodes)
        if (!node.removed && node.is_buffer) ++n;
    return n;
}

/// Library flow on `ctx` with the given steps.
Graph flow(const Ctx& ctx, bool buffers, bool merging, bool trimming) {
    const auto oracle = ctx.oracle();
    return graphgen::construct_graph(ctx.fn, ctx.elab, ctx.binding, oracle,
                                     GraphFlowOptions{buffers, merging, trimming});
}

/// Nodes whose debug label starts with `prefix`.
int count_labeled(const Graph& g, const std::string& prefix) {
    int n = 0;
    for (const auto& label : g.labels)
        if (label.rfind(prefix, 0) == 0) ++n;
    return n;
}

/// Label prefix of operation nodes with opcode `op`.
std::string op_label(ir::Opcode op) { return std::string(ir::opcode_name(op)) + "x"; }

int in_degree(const Graph& g, int node) {
    int d = 0;
    for (const Graph::Edge& e : g.edges)
        if (e.dst == node) ++d;
    return d;
}

} // namespace

TEST(BufferInsertion, OneBufferPerArrayBank) {
    const ir::Function fn = kernels::build_polybench("gemm", 8);
    hls::Directives dirs;
    for (int l : fn.innermost_loops()) dirs.loops[l] = {4, true};
    dirs.array_partition[0] = 4; // A into 4 banks
    Ctx ctx(fn, dirs);

    WorkGraph g = graphgen::ref::build_dfg(ctx.fn, ctx.elab);
    graphgen::ref::insert_buffers(g);
    // A has 4 banks; B, C one each; the scalar register one.
    EXPECT_EQ(count_buffers(g), 4 + 1 + 1 + 1);
    // Allocas were removed.
    for (const auto& node : g.nodes)
        if (!node.removed && !node.is_buffer) {
            EXPECT_NE(node.op, ir::Opcode::Alloca);
        }

    const Graph lib = flow(ctx, true, false, false);
    EXPECT_EQ(count_labeled(lib, "buffer:"), 4 + 1 + 1 + 1);
    EXPECT_EQ(count_labeled(lib, op_label(ir::Opcode::Alloca)), 0);
}

TEST(BufferInsertion, StoreAndLoadEdgesPointThroughBuffer) {
    ir::Builder b("rw");
    const int arr = b.array("buf", {8}, /*external=*/false);
    b.begin_loop("w", 8);
    b.store(arr, {b.indvar()}, b.add(b.indvar(), b.constant(1)));
    b.end_loop();
    b.begin_loop("r", 8);
    const int out = b.array("out", {8});
    b.store(out, {b.indvar()}, b.load(arr, {b.indvar()}));
    b.end_loop();
    Ctx ctx(b.build());

    WorkGraph g = graphgen::ref::build_dfg(ctx.fn, ctx.elab);
    graphgen::ref::insert_buffers(g);
    // Find the internal buffer node and check both directions exist.
    int buf_node = -1;
    for (int v = 0; v < static_cast<int>(g.nodes.size()); ++v)
        if (g.nodes[static_cast<std::size_t>(v)].is_buffer &&
            g.nodes[static_cast<std::size_t>(v)].array == arr)
            buf_node = v;
    ASSERT_GE(buf_node, 0);
    bool has_in = false, has_out = false;
    for (const auto& e : g.edges) {
        if (e.removed) continue;
        if (e.dst == buf_node) has_in = true;
        if (e.src == buf_node) has_out = true;
    }
    EXPECT_TRUE(has_in);
    EXPECT_TRUE(has_out);

    const Graph lib = flow(ctx, true, false, false);
    int lib_buf = -1;
    for (int v = 0; v < lib.num_nodes; ++v)
        if (lib.labels[static_cast<std::size_t>(v)] == "buffer:buf[0]") lib_buf = v;
    ASSERT_GE(lib_buf, 0);
    bool lib_in = false, lib_out = false;
    for (const auto& e : lib.edges) {
        if (e.dst == lib_buf) lib_in = true;
        if (e.src == lib_buf) lib_out = true;
    }
    EXPECT_TRUE(lib_in);
    EXPECT_TRUE(lib_out);
}

TEST(DatapathMerge, FusesIdenticalAddressChains) {
    // Load and store to y[j] in the same loop generate two identical GEPs;
    // value numbering must fuse them.
    ir::Builder b("dup");
    const int y = b.array("y", {8});
    b.begin_loop("L", 8);
    const int j = b.indvar();
    const int v = b.add(b.load(y, {j}), b.constant(1));
    b.store(y, {j}, v);
    b.end_loop();
    Ctx ctx(b.build());

    WorkGraph g = graphgen::ref::build_dfg(ctx.fn, ctx.elab);
    graphgen::ref::insert_buffers(g);
    const int before = g.live_nodes();
    graphgen::ref::merge_datapaths(g, ctx.binding);
    EXPECT_LT(g.live_nodes(), before);

    int geps = 0;
    for (const auto& node : g.nodes)
        if (!node.removed && node.op == ir::Opcode::GetElementPtr) ++geps;
    EXPECT_EQ(geps, 1);

    const Graph lib = flow(ctx, true, true, false);
    EXPECT_LT(lib.num_nodes, flow(ctx, true, false, false).num_nodes);
    EXPECT_EQ(count_labeled(lib, op_label(ir::Opcode::GetElementPtr)), 1);
}

TEST(DatapathMerge, MergesResourceSharedMultipliers) {
    // Two sequential loops each with a multiplier; binding shares one unit,
    // so merging collapses the two mul nodes.
    ir::Builder b("share");
    const int a = b.array("a", {8});
    const int o1 = b.array("o1", {8});
    const int o2 = b.array("o2", {8});
    b.begin_loop("L1", 8);
    b.store(o1, {b.indvar()}, b.mul(b.load(a, {b.indvar()}), b.constant(3)));
    b.end_loop();
    b.begin_loop("L2", 8);
    b.store(o2, {b.indvar()}, b.mul(b.load(a, {b.indvar()}), b.constant(5)));
    b.end_loop();
    Ctx ctx(b.build());

    WorkGraph g = graphgen::ref::build_dfg(ctx.fn, ctx.elab);
    graphgen::ref::insert_buffers(g);
    graphgen::ref::merge_datapaths(g, ctx.binding);
    int muls = 0;
    for (const auto& node : g.nodes)
        if (!node.removed && node.op == ir::Opcode::Mul) ++muls;
    EXPECT_EQ(muls, 1);

    EXPECT_EQ(count_labeled(flow(ctx, true, true, false), op_label(ir::Opcode::Mul)), 1);
}

TEST(Trim, RemovesCastsAndConstants) {
    ir::Builder b("casty");
    const int a = b.array("a", {8});
    const int o = b.array("o", {8});
    b.begin_loop("L", 8);
    const int v = b.sext(b.trunc(b.load(a, {b.indvar()}), 16), 32);
    b.store(o, {b.indvar()}, b.add(v, b.constant(7)));
    b.end_loop();
    Ctx ctx(b.build());

    WorkGraph g = graphgen::ref::build_dfg(ctx.fn, ctx.elab);
    graphgen::ref::insert_buffers(g);
    graphgen::ref::merge_datapaths(g, ctx.binding);
    graphgen::ref::trim_graph(g);
    for (const auto& node : g.nodes) {
        if (node.removed || node.is_buffer) continue;
        EXPECT_FALSE(ir::is_trivial_cast(node.op));
        EXPECT_NE(node.op, ir::Opcode::Const);
    }
    // The datapath is bridged: the add still has an upstream load.
    const auto oracle = ctx.oracle();
    const Graph lib = flow(ctx, true, true, true);
    for (const Graph& final_g : {graphgen::ref::annotate_features(g, oracle), lib}) {
        int add_node = -1;
        for (int v = 0; v < final_g.num_nodes; ++v)
            if (final_g.labels[static_cast<std::size_t>(v)].rfind("add", 0) == 0)
                add_node = v;
        ASSERT_GE(add_node, 0);
        EXPECT_GT(in_degree(final_g, add_node), 0);
    }
    for (ir::Opcode op : {ir::Opcode::Trunc, ir::Opcode::ZExt, ir::Opcode::SExt,
                          ir::Opcode::Const})
        EXPECT_EQ(count_labeled(lib, op_label(op)), 0) << ir::opcode_name(op);
}

TEST(Features, GraphIsValidWithSaneDims) {
    const ir::Function fn = kernels::build_polybench("syr2k", 8);
    hls::Directives dirs;
    for (int l : fn.innermost_loops()) dirs.loops[l] = {2, true};
    Ctx ctx(fn, dirs);
    const auto oracle = ctx.oracle();
    const Graph g =
        graphgen::construct_graph(ctx.fn, ctx.elab, ctx.binding, oracle);
    std::string why;
    ASSERT_TRUE(g.valid(&why)) << why;
    EXPECT_EQ(g.node_dim, graphgen::node_feature_dim(ir::opcode_count() + 1));
    for (const auto& e : g.edges) {
        EXPECT_GE(e.relation, 0);
        EXPECT_LT(e.relation, Graph::kNumRelations);
    }
    // At least two relation types present in a real kernel.
    std::set<int> rels;
    for (const auto& e : g.edges) rels.insert(e.relation);
    EXPECT_GE(rels.size(), 2u);
}

TEST(Features, RelationMatchesEndpointClasses) {
    EXPECT_EQ(Graph::relation_of(false, false), 0);
    EXPECT_EQ(Graph::relation_of(false, true), 1);
    EXPECT_EQ(Graph::relation_of(true, false), 2);
    EXPECT_EQ(Graph::relation_of(true, true), 3);
}

TEST(Features, NodeOneHotsAreExclusive) {
    const ir::Function fn = kernels::build_polybench("atax", 8);
    Ctx ctx(fn);
    const auto oracle = ctx.oracle();
    const Graph g =
        graphgen::construct_graph(ctx.fn, ctx.elab, ctx.binding, oracle);
    for (int v = 0; v < g.num_nodes; ++v) {
        float class_sum = 0.0f, opcode_sum = 0.0f;
        for (int c = 0; c < graphgen::kNumNodeClasses; ++c)
            class_sum += g.node_feature(v, c);
        for (int c = 0; c < ir::opcode_count() + 1; ++c)
            opcode_sum += g.node_feature(v, graphgen::kNumNodeClasses + c);
        EXPECT_FLOAT_EQ(class_sum, 1.0f);
        EXPECT_FLOAT_EQ(opcode_sum, 1.0f);
    }
}

TEST(Features, FlowOptionsControlPasses) {
    const ir::Function fn = kernels::build_polybench("gesummv", 8);
    Ctx ctx(fn);
    const auto oracle = ctx.oracle();
    graphgen::GraphFlowOptions all;
    graphgen::GraphFlowOptions none;
    none.buffer_insertion = none.datapath_merging = none.trimming = false;
    const Graph g_all =
        graphgen::construct_graph(ctx.fn, ctx.elab, ctx.binding, oracle, all);
    const Graph g_none =
        graphgen::construct_graph(ctx.fn, ctx.elab, ctx.binding, oracle, none);
    // The raw DFG keeps consts/casts/allocas and has no buffers => more nodes.
    EXPECT_GT(g_none.num_nodes, g_all.num_nodes);
    bool none_has_buffer = false;
    for (const auto& label : g_none.labels)
        if (label.rfind("buffer", 0) == 0) none_has_buffer = true;
    EXPECT_FALSE(none_has_buffer);
}

TEST(Features, UnrollGrowsGraph) {
    const ir::Function fn = kernels::build_polybench("gemm", 8);
    Ctx base(fn);
    hls::Directives dirs;
    for (int l : fn.innermost_loops()) dirs.loops[l] = {8, true};
    Ctx unrolled(fn, dirs);
    const auto o1 = base.oracle();
    const auto o2 = unrolled.oracle();
    const Graph g1 = graphgen::construct_graph(base.fn, base.elab, base.binding, o1);
    const Graph g2 = graphgen::construct_graph(unrolled.fn, unrolled.elab,
                                               unrolled.binding, o2);
    EXPECT_GT(g2.num_nodes, g1.num_nodes);
}
