// Interpreter semantics, stimulus shaping and activity-oracle (Eq. 2/3)
// tests, including hand-computed replica subsequences under unrolling.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "hls/scheduler.hpp"
#include "ir/builder.hpp"
#include "kernels/polybench.hpp"
#include "sim/activity.hpp"
#include "sim/interpreter.hpp"
#include "sim/stimulus.hpp"

using namespace powergear;
using ir::Builder;
using ir::Opcode;
using ir::Pred;

namespace {

/// Straight-line function computing every binary op on two constants.
/// The padding is spelled out and zeroed: gtest prints all 32 bytes of the
/// value into the test name, so implicit padding made ctest names differ
/// from build to build.
struct OpcodeCase {
    Opcode op;
    std::uint8_t pad0[7];
    std::int64_t a, b;
    std::uint32_t expect;
    std::uint32_t pad1;
};
static_assert(sizeof(OpcodeCase) == 32 &&
              std::has_unique_object_representations_v<OpcodeCase>);

constexpr OpcodeCase binop(Opcode op, std::int64_t a, std::int64_t b, std::uint32_t expect) {
    return OpcodeCase{op, {}, a, b, expect, 0};
}

} // namespace

class InterpreterOps : public ::testing::TestWithParam<OpcodeCase> {};

TEST_P(InterpreterOps, BinaryOpSemantics) {
    const OpcodeCase c = GetParam();
    Builder b("op");
    const int out = b.array("out", {1});
    const int x = b.constant(c.a);
    const int y = b.constant(c.b);
    int v = -1;
    switch (c.op) {
        case Opcode::Add: v = b.add(x, y); break;
        case Opcode::Sub: v = b.sub(x, y); break;
        case Opcode::Mul: v = b.mul(x, y); break;
        case Opcode::Div: v = b.div(x, y); break;
        case Opcode::Rem: v = b.rem(x, y); break;
        case Opcode::And: v = b.and_(x, y); break;
        case Opcode::Or: v = b.or_(x, y); break;
        case Opcode::Xor: v = b.xor_(x, y); break;
        case Opcode::Shl: v = b.shl(x, y); break;
        case Opcode::LShr: v = b.lshr(x, y); break;
        case Opcode::AShr: v = b.ashr(x, y); break;
        default: FAIL();
    }
    b.store(out, {b.constant(0)}, v);
    const ir::Function fn = b.build();
    sim::Interpreter interp(fn);
    interp.run(false);
    EXPECT_EQ(interp.array(0)[0], c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, InterpreterOps,
    ::testing::Values(
        binop(Opcode::Add, 7, 5, 12u), binop(Opcode::Sub, 5, 7, 0xfffffffeu),
        binop(Opcode::Mul, 6, 7, 42u), binop(Opcode::Div, -8, 2, 0xfffffffcu),
        binop(Opcode::Div, 5, 0, 0u),  binop(Opcode::Rem, 7, 3, 1u),
        binop(Opcode::Rem, 7, 0, 0u),  binop(Opcode::And, 0b1100, 0b1010, 0b1000u),
        binop(Opcode::Or, 0b1100, 0b1010, 0b1110u),
        binop(Opcode::Xor, 0b1100, 0b1010, 0b0110u),
        binop(Opcode::Shl, 3, 4, 48u), binop(Opcode::LShr, -1, 28, 15u),
        binop(Opcode::AShr, -16, 2, 0xfffffffcu)));

TEST(Interpreter, IcmpAndSelect) {
    Builder b("cmp");
    const int out = b.array("out", {4});
    const int two = b.constant(2);
    const int three = b.constant(3);
    b.store(out, {b.constant(0)}, b.icmp(Pred::SLT, two, three));
    b.store(out, {b.constant(1)}, b.icmp(Pred::SGE, two, three));
    b.store(out, {b.constant(2)},
            b.select(b.icmp(Pred::EQ, two, two), b.constant(77), b.constant(88)));
    b.store(out, {b.constant(3)},
            b.select(b.icmp(Pred::NE, two, two), b.constant(77), b.constant(88)));
    const ir::Function fn = b.build();
    sim::Interpreter interp(fn);
    interp.run(false);
    EXPECT_EQ(interp.array(0), (std::vector<std::uint32_t>{1, 0, 77, 88}));
}

TEST(Interpreter, CastsMaskAndExtend) {
    Builder b("casts");
    const int out = b.array("out", {3});
    const int big = b.constant(0x1ff); // 9 bits set
    const int t = b.trunc(big, 8);     // -> 0xff
    b.store(out, {b.constant(0)}, b.zext(t, 32));
    b.store(out, {b.constant(1)}, b.sext(t, 32)); // 0xff as i8 = -1
    const int neg = b.trunc(b.constant(0x80), 8);
    b.store(out, {b.constant(2)}, b.sext(neg, 32));
    const ir::Function fn = b.build();
    sim::Interpreter interp(fn);
    interp.run(false);
    EXPECT_EQ(interp.array(0)[0], 0xffu);
    EXPECT_EQ(interp.array(0)[1], 0xffffffffu);
    EXPECT_EQ(interp.array(0)[2], 0xffffff80u);
}

TEST(Interpreter, TraceRecordsPerExecution) {
    Builder b("trace");
    const int a = b.array("A", {6});
    const int out = b.array("O", {6});
    b.begin_loop("L", 6);
    const int i = b.indvar();
    const int ld = b.load(a, {i});
    b.store(out, {i}, b.add(ld, b.constant(1)));
    b.end_loop();
    const ir::Function fn = b.build();
    sim::Interpreter interp(fn);
    interp.set_array(a, {10, 20, 30, 40, 50, 60});
    const sim::Trace trace = interp.run();
    EXPECT_EQ(trace.of(ld).size(), 6u);
    EXPECT_EQ(trace.of(ld)[2], 30u);
    EXPECT_EQ(trace.of(fn.loop(0).indvar),
              (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
}

TEST(Interpreter, SetArraySizeMismatchThrows) {
    const ir::Function fn = kernels::build_polybench("gemm", 4);
    sim::Interpreter interp(fn);
    EXPECT_THROW(interp.set_array(0, {1, 2, 3}), std::invalid_argument);
}

TEST(Stimulus, DeterministicAndRespectsActiveBits) {
    const ir::Function fn = kernels::build_polybench("atax", 6);
    sim::Interpreter i1(fn), i2(fn);
    sim::StimulusProfile p;
    p.active_bits = 8;
    p.seed = 99;
    sim::apply_stimulus(i1, fn, p);
    sim::apply_stimulus(i2, fn, p);
    for (int a = 0; a < static_cast<int>(fn.arrays.size()); ++a) {
        EXPECT_EQ(i1.array(a), i2.array(a));
        if (fn.arrays[static_cast<std::size_t>(a)].is_external) {
            for (std::uint32_t v : i1.array(a)) EXPECT_LT(v, 256u);
        }
    }
}

TEST(Stimulus, InternalArraysStayZero) {
    const ir::Function fn = kernels::build_polybench("k2mm", 4);
    sim::Interpreter interp(fn);
    sim::apply_stimulus(interp, fn, {});
    for (int a = 0; a < static_cast<int>(fn.arrays.size()); ++a)
        if (!fn.arrays[static_cast<std::size_t>(a)].is_external) {
            for (std::uint32_t v : interp.array(a)) EXPECT_EQ(v, 0u);
        }
}

TEST(Activity, StatsOfHandComputed) {
    // stream: 0 -> 1 (HD 1) -> 3 (HD 1) -> 3 (no change) -> 0 (HD 2)
    const std::vector<std::uint32_t> stream = {0, 1, 3, 3, 0};
    const sim::DirStats st = sim::ActivityOracle::stats_of(stream, 10);
    EXPECT_EQ(st.events, 5);
    EXPECT_DOUBLE_EQ(st.sa, 4.0 / 10.0);
    EXPECT_DOUBLE_EQ(st.ar, 3.0 / 10.0);
}

TEST(Activity, ConstantStreamHasZeroActivity) {
    const sim::DirStats st =
        sim::ActivityOracle::stats_of({7, 7, 7, 7}, 4);
    EXPECT_DOUBLE_EQ(st.sa, 0.0);
    EXPECT_DOUBLE_EQ(st.ar, 0.0);
}

TEST(Activity, UnrolledReplicasPartitionExecutions) {
    // One loop over 8 elements, unroll 2: replica 0 sees even iterations,
    // replica 1 the odd ones.
    Builder b("part");
    const int a = b.array("A", {8});
    const int out = b.array("O", {8});
    b.begin_loop("L", 8);
    const int i = b.indvar();
    const int ld = b.load(a, {i});
    b.store(out, {i}, ld);
    b.end_loop();
    const ir::Function fn = b.build();

    sim::Interpreter interp(fn);
    interp.set_array(a, {1, 2, 3, 4, 5, 6, 7, 8});
    const sim::Trace trace = interp.run();

    hls::Directives dirs;
    dirs.loops[0] = {2, false};
    const hls::ElabGraph elab = hls::elaborate(fn, dirs);
    const sim::ActivityOracle oracle(fn, elab, trace, 100);

    // Find the two load replicas.
    std::vector<int> load_ops;
    for (int o = 0; o < elab.num_ops(); ++o)
        if (elab.ops[static_cast<std::size_t>(o)].op == ir::Opcode::Load)
            load_ops.push_back(o);
    ASSERT_EQ(load_ops.size(), 2u);
    EXPECT_EQ(oracle.produced_sequence(load_ops[0]),
              (std::vector<std::uint32_t>{1, 3, 5, 7}));
    EXPECT_EQ(oracle.produced_sequence(load_ops[1]),
              (std::vector<std::uint32_t>{2, 4, 6, 8}));
}

TEST(Activity, ConsumedSequenceOfBroadcastValue) {
    // A value defined outside the loop is consumed unchanged every iteration.
    Builder b("bcast");
    const int out = b.array("O", {4});
    const int c = b.add(b.constant(20), b.constant(22));
    b.begin_loop("L", 4);
    const int i = b.indvar();
    b.store(out, {i}, b.add(c, i));
    b.end_loop();
    const ir::Function fn = b.build();
    sim::Interpreter interp(fn);
    const sim::Trace trace = interp.run();

    const hls::ElabGraph elab = hls::elaborate(fn, hls::Directives{});
    const sim::ActivityOracle oracle(fn, elab, trace, 50);
    // The in-loop add consumes {42, 42, 42, 42} through operand 0.
    int add_in_loop = -1;
    for (int o = 0; o < elab.num_ops(); ++o) {
        const auto& op = elab.ops[static_cast<std::size_t>(o)];
        if (op.op == ir::Opcode::Add && op.parent_loop == 0) add_in_loop = o;
    }
    ASSERT_GE(add_in_loop, 0);
    EXPECT_EQ(oracle.consumed_sequence(add_in_loop, 0),
              (std::vector<std::uint32_t>(4, 42u)));
    const sim::DirStats st = oracle.consumed(add_in_loop, 0);
    EXPECT_DOUBLE_EQ(st.sa, 0.0); // broadcast value never toggles
}

TEST(Activity, SaScalesInverselyWithLatency) {
    const ir::Function fn = kernels::build_polybench("bicg", 6);
    sim::Interpreter interp(fn);
    sim::apply_stimulus(interp, fn, {});
    const sim::Trace trace = interp.run();
    const hls::ElabGraph elab = hls::elaborate(fn, hls::Directives{});
    const sim::ActivityOracle fast(fn, elab, trace, 100);
    const sim::ActivityOracle slow(fn, elab, trace, 200);
    for (int o = 0; o < std::min(8, elab.num_ops()); ++o)
        EXPECT_NEAR(fast.produced(o).sa, 2.0 * slow.produced(o).sa, 1e-9);
}
