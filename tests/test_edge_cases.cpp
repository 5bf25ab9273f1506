// Edge-case and failure-injection tests across modules: escaping values
// under unrolling, degenerate design spaces, adversarial graphs into the
// models, and defensive error paths.
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <stdexcept>

#include "estimate_one.hpp"
#include "gnn/model.hpp"
#include "graphgen/features.hpp"
#include "hls/binding.hpp"
#include "hls/flow.hpp"
#include "hls/report.hpp"
#include "hls/scheduler.hpp"
#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "kernels/polybench.hpp"
#include "sim/activity.hpp"
#include "sim/interpreter.hpp"

using namespace powergear;

TEST(EdgeCases, EscapingValueResolvesToFinalIteration) {
    // A value produced inside a loop and consumed after it must deliver the
    // last iteration's value — both in simulation and in the activity
    // oracle's consumed stream.
    ir::Builder b("escape");
    const int a = b.array("A", {8});
    const int out = b.array("O", {1});
    int inner_val = -1;
    b.begin_loop("L", 8);
    inner_val = b.add(b.load(a, {b.indvar()}), b.constant(100));
    b.end_loop();
    b.store(out, {b.constant(0)}, inner_val);
    const ir::Function fn = b.build();

    sim::Interpreter interp(fn);
    interp.set_array(a, {1, 2, 3, 4, 5, 6, 7, 9});
    const sim::Trace trace = interp.run();
    EXPECT_EQ(interp.array(out)[0], 109u);

    // Unroll 2: the store consumes the escaping value from the last replica.
    hls::Directives dirs;
    dirs.loops[0] = {2, false};
    const hls::ElabGraph elab = hls::elaborate(fn, dirs);
    const sim::ActivityOracle oracle(fn, elab, trace, 100);
    int store_op = -1;
    for (int o = 0; o < elab.num_ops(); ++o)
        if (elab.ops[static_cast<std::size_t>(o)].op == ir::Opcode::Store &&
            elab.ops[static_cast<std::size_t>(o)].array == out)
            store_op = o;
    ASSERT_GE(store_op, 0);
    const auto consumed = oracle.consumed_sequence(store_op, 1);
    ASSERT_EQ(consumed.size(), 1u);
    EXPECT_EQ(consumed[0], 109u);
}

TEST(EdgeCases, TripCountOneLoop) {
    ir::Builder b("once");
    const int a = b.array("A", {1});
    b.begin_loop("L", 1);
    b.store(a, {b.constant(0)}, b.add(b.indvar(), b.constant(5)));
    b.end_loop();
    const ir::Function fn = b.build();
    EXPECT_TRUE(ir::verify(fn).ok);
    sim::Interpreter interp(fn);
    interp.run(false);
    EXPECT_EQ(interp.array(a)[0], 5u);

    const hls::ElabGraph elab = hls::elaborate(fn, hls::Directives{});
    const hls::Schedule sched = hls::schedule(fn, elab);
    EXPECT_GT(sched.total_latency, 0);
}

TEST(EdgeCases, InterpreterSignedDivOverflowDoesNotTrap) {
    // INT32_MIN / -1 overflows int32 (the hardware divide traps); the
    // interpreter defines the quotient as the wrapped 0x80000000 and the
    // remainder as 0, like a 32-bit two's-complement datapath.
    ir::Builder b("divov");
    const int out = b.array("O", {2});
    const int imin = b.constant(INT_MIN);
    const int m1 = b.constant(-1);
    const int q = b.div(imin, m1);
    b.store(out, {b.constant(0)}, q);
    const int r = b.rem(imin, m1);
    b.store(out, {b.constant(1)}, r);
    const ir::Function fn = b.build();
    ASSERT_TRUE(ir::verify(fn).ok) << ir::verify(fn).message;
    sim::Interpreter interp(fn);
    const sim::Trace trace = interp.run();
    EXPECT_EQ(interp.array(out)[0], 0x80000000u);
    EXPECT_EQ(interp.array(out)[1], 0u);
    EXPECT_EQ(trace.of(q), (std::vector<std::uint32_t>{0x80000000u}));
    EXPECT_EQ(trace.of(r), (std::vector<std::uint32_t>{0u}));
}

TEST(EdgeCases, InterpreterRejectsAccessOutsideItsArray) {
    // The verifier does not tie a Load/Store's array to its GEP's. A load
    // from a 2-element array through an 8-element array's GEP would read
    // past the end; the interpreter refuses the function instead.
    ir::Builder b("outside");
    const int big = b.array("A", {8});
    const int small = b.array("B", {2});
    b.begin_loop("L", 8);
    const int ld = b.load(big, {b.indvar()});
    b.store(big, {b.indvar()}, ld);
    b.end_loop();
    ir::Function fn = b.build();
    fn.instrs[static_cast<std::size_t>(ld)].array = small;
    ASSERT_TRUE(ir::verify(fn).ok);
    EXPECT_THROW({ const sim::Interpreter interp(fn); }, std::invalid_argument);
}

TEST(EdgeCases, DesignSpaceOfKernelWithoutArrays) {
    // A pure-register kernel has no partitionable arrays and only loops.
    ir::Builder b("regs");
    const int acc = b.reg("acc");
    b.store_reg(acc, b.constant(0));
    b.begin_loop("L", 4);
    b.store_reg(acc, b.add(b.load_reg(acc), b.indvar()));
    b.end_loop();
    const ir::Function fn = b.build();
    const hls::DesignSpace space(fn);
    EXPECT_EQ(space.num_tunable_arrays(), 0);
    EXPECT_GE(space.size(), 2u); // pipeline on/off at least
    for (std::uint64_t i = 0; i < space.size(); ++i)
        EXPECT_TRUE(space.point(i).array_partition.empty());
}

TEST(EdgeCases, EmptyLoopBodyGraph) {
    ir::Builder b("empty");
    b.begin_loop("L", 4);
    b.end_loop();
    b.ret();
    const ir::Function fn = b.build();
    EXPECT_TRUE(ir::verify(fn).ok);

    sim::Interpreter interp(fn);
    const sim::Trace trace = interp.run();
    const hls::ElabGraph elab = hls::elaborate(fn, hls::Directives{});
    const hls::Schedule sched = hls::schedule(fn, elab);
    const hls::Binding binding = hls::bind(fn, elab, sched);
    const sim::ActivityOracle oracle(fn, elab, trace, sched.total_latency);
    const graphgen::Graph g =
        graphgen::construct_graph(fn, elab, binding, oracle);
    std::string why;
    EXPECT_TRUE(g.valid(&why)) << why; // possibly empty, but structurally sane
}

TEST(EdgeCases, ModelHandlesGraphWithNoEdges) {
    gnn::ModelConfig cfg;
    cfg.node_dim = graphgen::node_feature_dim(ir::opcode_count() + 1);
    cfg.hidden = 4;
    cfg.layers = 2;
    cfg.dropout = 0.0f;
    gnn::PowerModel model(cfg);

    graphgen::Graph g;
    g.num_nodes = 3;
    g.node_dim = cfg.node_dim;
    g.x.assign(static_cast<std::size_t>(g.num_nodes * g.node_dim), 0.5f);
    g.labels = {"a", "b", "c"};
    const gnn::GraphTensors t =
        gnn::GraphTensors::from(g, std::vector<double>(10, 1.0));
    nn::Tape tape;
    EXPECT_TRUE(std::isfinite(test::predict_one(model, t, tape)));
}

TEST(EdgeCases, ModelHandlesSingleNodeGraph) {
    gnn::ModelConfig cfg;
    cfg.node_dim = graphgen::node_feature_dim(ir::opcode_count() + 1);
    cfg.hidden = 4;
    cfg.layers = 3;
    cfg.dropout = 0.0f;
    gnn::PowerModel model(cfg);

    graphgen::Graph g;
    g.num_nodes = 1;
    g.node_dim = cfg.node_dim;
    g.x.assign(static_cast<std::size_t>(g.node_dim), 1.0f);
    g.labels = {"solo"};
    graphgen::Graph::Edge self;
    self.src = self.dst = 0;
    self.relation = 3;
    self.feat = {1.0f, 0.5f, 1.0f, 0.5f};
    g.edges.push_back(self); // self-loop must not break aggregation
    const gnn::GraphTensors t =
        gnn::GraphTensors::from(g, std::vector<double>(10, 1.0));
    nn::Tape tape;
    EXPECT_TRUE(std::isfinite(test::predict_one(model, t, tape)));
}

TEST(EdgeCases, ActivityOracleOnZeroLatency) {
    // Latency is clamped to >= 1, so stats never divide by zero.
    const ir::Function fn = kernels::build_polybench("gemm", 4);
    sim::Interpreter interp(fn);
    const sim::Trace trace = interp.run();
    const hls::ElabGraph elab = hls::elaborate(fn, hls::Directives{});
    const sim::ActivityOracle oracle(fn, elab, trace, 0);
    EXPECT_EQ(oracle.latency(), 1);
    for (int o = 0; o < std::min(5, elab.num_ops()); ++o)
        EXPECT_TRUE(std::isfinite(oracle.produced(o).sa));
}

namespace {

/// `depth` nested trip-1 loops around one store of (indvar + 5).
ir::Function deep_nest(int depth) {
    ir::Builder b("deep");
    const int a = b.array("A", {1});
    for (int d = 0; d < depth; ++d) {
        std::string name = "L"; // += dodges GCC 12's -Wrestrict false positive
        name += std::to_string(d);
        b.begin_loop(name, 1);
    }
    b.store(a, {b.constant(0)}, b.add(b.indvar(), b.constant(5)));
    for (int d = 0; d < depth; ++d) b.end_loop();
    return b.build();
}

} // namespace

TEST(EdgeCases, ActivityOracleRejectsLoopNestDeeperThanSupported) {
    // The oracle keeps per-level loop coordinates in fixed arrays of
    // kMaxChainDepth (16); a deeper nest must be refused, not overrun them.
    const ir::Function fn = deep_nest(sim::ActivityOracle::kMaxChainDepth + 1);
    sim::Interpreter interp(fn);
    const sim::Trace trace = interp.run();
    const hls::ElabGraph elab = hls::elaborate(fn, hls::Directives{});
    try {
        const sim::ActivityOracle oracle(fn, elab, trace, 10);
        FAIL() << "17-deep nest accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("depth 17"), std::string::npos)
            << e.what();
    }
}

TEST(EdgeCases, ActivityOracleAcceptsLoopNestAtSupportedDepth) {
    const ir::Function fn = deep_nest(sim::ActivityOracle::kMaxChainDepth);
    sim::Interpreter interp(fn);
    const sim::Trace trace = interp.run();
    const hls::ElabGraph elab = hls::elaborate(fn, hls::Directives{});
    const sim::ActivityOracle oracle(fn, elab, trace, 10);
    for (int o = 0; o < elab.num_ops(); ++o) {
        const hls::ElabOp& op = elab.ops[static_cast<std::size_t>(o)];
        EXPECT_EQ(oracle.produced(o).events, 1);
        if (op.op != ir::Opcode::Store) continue;
        EXPECT_EQ(oracle.consumed_sequence(o, 1), (std::vector<std::uint32_t>{5u}));
        EXPECT_EQ(oracle.consumed(o, 1).events, 1);
    }
}

TEST(EdgeCases, HugeUnrollEqualsTripCount) {
    // Fully unrolling a loop removes the iteration dimension entirely.
    const ir::Function fn = kernels::build_polybench("gesummv", 8);
    hls::Directives dirs;
    for (int l : fn.innermost_loops()) dirs.loops[l] = {8, false};
    const hls::ElabGraph elab = hls::elaborate(fn, dirs);
    const hls::Schedule sched = hls::schedule(fn, elab);
    for (int l : fn.innermost_loops()) {
        // One "iteration" of the unrolled body.
        const auto& ls = sched.loops[static_cast<std::size_t>(l)];
        EXPECT_GE(ls.total_latency, ls.iteration_latency);
    }
    EXPECT_GT(elab.num_ops(), 0);
}

namespace {

/// Loop or array id of `fn` by name; -1 when absent.
template <typename Named>
int id_named(const std::vector<Named>& v, const std::string& name) {
    for (std::size_t i = 0; i < v.size(); ++i)
        if (v[i].name == name) return static_cast<int>(i);
    return -1;
}

/// synthesize(fn, dirs) must throw std::invalid_argument naming `what`.
void expect_rejected(const ir::Function& fn, const hls::Directives& dirs,
                     const std::string& what) {
    try {
        (void)hls::synthesize(fn, dirs);
        FAIL() << dirs.to_string() << " accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
}

} // namespace

TEST(EdgeCases, ElaborateRejectsNonPositiveUnroll) {
    // Unroll 0 used to die with SIGFPE; unroll -2 elaborated the loop's
    // replicas away (fewer ops than unroll 1) and still reported a latency.
    const ir::Function fn = kernels::build_polybench("atax", 12);
    const int dot = id_named(fn.loops, "dot");
    ASSERT_GE(dot, 0);
    for (int unroll : {0, -2, INT_MIN}) {
        hls::Directives dirs;
        dirs.loops[dot] = {unroll, false};
        expect_rejected(fn, dirs, "loop dot has unroll " + std::to_string(unroll));
        EXPECT_THROW(hls::elaborate(fn, dirs), std::invalid_argument);
    }
    hls::Directives one;
    one.loops[dot] = {1, false};
    EXPECT_EQ(hls::synthesize(fn, one).elab.num_ops(),
              hls::elaborate(fn, hls::Directives{}).num_ops());
}

TEST(EdgeCases, ElaborateRejectsNonPositiveBanks) {
    // Banks 0 used to die with SIGFPE in the scheduler; banks -1 passed.
    const ir::Function fn = kernels::build_polybench("atax", 12);
    const int a = id_named(fn.arrays, "A");
    ASSERT_GE(a, 0);
    for (int banks : {0, -1}) {
        hls::Directives dirs;
        dirs.array_partition[a] = banks;
        expect_rejected(fn, dirs, "array A has " + std::to_string(banks));
    }
    hls::Directives unknown;
    unknown.array_partition[99] = 0;
    expect_rejected(fn, unknown, "array #99");
}

TEST(EdgeCases, SchedulerCountsThePartialUnrollGroup) {
    // An unroll that does not divide the trip (12), or exceeds it, still
    // schedules every iteration: ceil(trip / unroll) groups, as elaborate and
    // the activity oracle count them. Flooring gave unroll 5 the latency of
    // unroll 6, and unroll 13 or 24 a loop latency of 1.
    const ir::Function fn = kernels::build_polybench("atax", 12);
    const int dot = id_named(fn.loops, "dot");
    ASSERT_GE(dot, 0);
    const auto loop_latency = [&](int unroll) {
        hls::Directives dirs;
        dirs.loops[dot] = {unroll, false};
        return hls::synthesize(fn, dirs).sched.loops[static_cast<std::size_t>(dot)].total_latency;
    };
    for (const auto& [unroll, divisor] : {std::pair{5, 4}, {13, 12}, {24, 12}}) {
        EXPECT_GE(loop_latency(unroll), loop_latency(divisor)) << "unroll " << unroll;
        EXPECT_GT(loop_latency(unroll), 1) << "unroll " << unroll;
    }
    EXPECT_GT(loop_latency(5), loop_latency(6));
}

TEST(EdgeCases, MetadataRatiosHandleZeroBaseline) {
    hls::HlsReport cur;
    cur.lut = 100;
    cur.latency_cycles = 10;
    cur.clock_ns = 4.0;
    hls::HlsReport zero; // all zeros
    const auto meta = hls::metadata_features(cur, zero);
    for (double v : meta) EXPECT_TRUE(std::isfinite(v));
}
