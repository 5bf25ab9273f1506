// IR construction, verification and printing tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

using namespace powergear::ir;

namespace {

int count_opcode(const Function& f, Opcode op) {
    return static_cast<int>(std::count_if(
        f.instrs.begin(), f.instrs.end(),
        [op](const Instr& in) { return in.op == op; }));
}

Function tiny_loop_kernel() {
    Builder b("tiny");
    const int a = b.array("A", {8});
    const int out = b.array("O", {8});
    b.begin_loop("L", 8);
    const int i = b.indvar();
    const int v = b.add(b.load(a, {i}), b.constant(3));
    b.store(out, {i}, v);
    b.end_loop();
    b.ret();
    return b.build();
}

} // namespace

TEST(Builder, EmitsVerifiableFunction) {
    const Function f = tiny_loop_kernel();
    const VerifyResult r = verify(f);
    EXPECT_TRUE(r.ok) << r.message;
    EXPECT_EQ(f.loops.size(), 1u);
    EXPECT_EQ(f.loop(0).trip_count, 8);
    EXPECT_EQ(count_opcode(f, Opcode::Load), 1);
    EXPECT_EQ(count_opcode(f, Opcode::Store), 1);
    EXPECT_EQ(count_opcode(f, Opcode::GetElementPtr), 2);
}

TEST(Builder, UnclosedLoopThrows) {
    Builder b("bad");
    b.begin_loop("L", 4);
    EXPECT_THROW(b.build(), std::logic_error);
}

TEST(Builder, EndLoopWithoutBeginThrows) {
    Builder b("bad");
    EXPECT_THROW(b.end_loop(), std::logic_error);
}

TEST(Builder, IndexCountMismatchThrows) {
    Builder b("bad");
    const int a = b.array("A", {4, 4});
    b.begin_loop("L", 4);
    EXPECT_THROW(b.load(a, {b.indvar()}), std::invalid_argument);
    b.end_loop();
}

TEST(Builder, IndvarAtReachesOuterLoops) {
    Builder b("nest");
    const int a = b.array("A", {4, 4});
    b.begin_loop("i", 4);
    b.begin_loop("j", 4);
    const int i = b.indvar_at(1);
    const int j = b.indvar_at(0);
    EXPECT_EQ(j, b.indvar());
    b.store(a, {i, j}, b.constant(1));
    EXPECT_THROW(b.indvar_at(2), std::out_of_range);
    b.end_loop();
    b.end_loop();
    const Function f = b.build();
    EXPECT_TRUE(verify(f).ok);
    // The inner loop nests directly in the top-level one: depth 2, 4 x 4
    // iterations.
    EXPECT_EQ(f.loop(1).parent, 0);
    EXPECT_EQ(f.loop(0).parent, -1);
    EXPECT_EQ(f.loop(0).trip_count * f.loop(1).trip_count, 16);
}

TEST(Builder, ScalarRegisterRoundTrip) {
    Builder b("reg");
    const int r = b.reg("acc", 16);
    b.store_reg(r, b.constant(5));
    const int v = b.load_reg(r);
    EXPECT_GE(v, 0);
    const Function f = b.build();
    EXPECT_TRUE(verify(f).ok);
    EXPECT_TRUE(f.arrays[0].is_register());
    EXPECT_EQ(f.arrays[0].num_elements(), 1);
    // Internal storage gets an Alloca marker.
    EXPECT_EQ(count_opcode(f, Opcode::Alloca), 1);
}

TEST(Verifier, CatchesCorruptedOperand) {
    Function f = tiny_loop_kernel();
    f.instrs[3].operands = {999};
    EXPECT_FALSE(verify(f).ok);
}

TEST(Verifier, CatchesBadBitwidth) {
    Function f = tiny_loop_kernel();
    f.instrs[2].bitwidth = 0;
    EXPECT_FALSE(verify(f).ok);
}

TEST(Verifier, CatchesBadTripCount) {
    Function f = tiny_loop_kernel();
    f.loops[0].trip_count = 0;
    EXPECT_FALSE(verify(f).ok);
    f.loops[0].trip_count = 8;
    EXPECT_TRUE(verify(f).ok);
}

TEST(Verifier, ThrowingWrapper) {
    Function f = tiny_loop_kernel();
    EXPECT_NO_THROW(verify_or_throw(f));
    f.instrs[3].operands = {999};
    EXPECT_THROW(verify_or_throw(f), std::runtime_error);
}

TEST(Printer, ContainsStructure) {
    const std::string text = to_string(tiny_loop_kernel());
    EXPECT_NE(text.find("func @tiny"), std::string::npos);
    EXPECT_NE(text.find("for L (trip=8"), std::string::npos);
    EXPECT_NE(text.find("load"), std::string::npos);
    EXPECT_NE(text.find("extern A"), std::string::npos);
}

TEST(Opcodes, ClassificationPartitions) {
    EXPECT_TRUE(is_arithmetic(Opcode::Mul));
    EXPECT_TRUE(is_arithmetic(Opcode::ICmp));
    EXPECT_FALSE(is_arithmetic(Opcode::Load));
    EXPECT_TRUE(is_memory(Opcode::GetElementPtr));
    EXPECT_TRUE(is_trivial_cast(Opcode::SExt));
    EXPECT_FALSE(is_trivial_cast(Opcode::Add));
    EXPECT_FALSE(has_result(Opcode::Store));
    EXPECT_TRUE(has_result(Opcode::Load));
}

TEST(Opcodes, NamesAreUniqueAndNonEmpty) {
    std::set<std::string> names;
    for (int i = 0; i < opcode_count(); ++i)
        names.insert(opcode_name(static_cast<Opcode>(i)));
    EXPECT_EQ(static_cast<int>(names.size()), opcode_count());
}

TEST(Function, InnermostLoopDetection) {
    Builder b("nest2");
    b.begin_loop("outer", 2);
    b.begin_loop("inner", 2);
    b.end_loop();
    b.end_loop();
    b.begin_loop("solo", 3);
    b.end_loop();
    const Function f = b.build();
    EXPECT_FALSE(f.is_innermost(0));
    EXPECT_TRUE(f.is_innermost(1));
    EXPECT_TRUE(f.is_innermost(2));
    EXPECT_EQ(f.innermost_loops(), (std::vector<int>{1, 2}));
}
