// Parity of sim::Interpreter (the lowered flat-op program) against the
// test-side reference interpreter (interpreter_ref.hpp): every trace stream,
// the dynamic op count and the final memory must be bit-identical, on the
// Polybench suite, random synthetic nests, persisted-memory and unrecorded
// runs, arithmetic edge cases, wrapping GEP indices and GEPs that cannot
// hand their address straight to the next statement.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <string>

#include "interpreter_ref.hpp"
#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "kernels/polybench.hpp"
#include "kernels/synthetic.hpp"
#include "sim/interpreter.hpp"
#include "sim/stimulus.hpp"
#include "util/rng.hpp"

using namespace powergear;
using ir::Pred;

namespace {

/// The two interpreters of one function, started from the same memory.
struct Pair {
    explicit Pair(const ir::Function& f) : fn(f), fast(f), ref(f) {}

    void set_array(int a, const std::vector<std::uint32_t>& data) {
        fast.set_array(a, data);
        ref.set_array(a, data);
    }
    void apply(const sim::StimulusProfile& profile) {
        sim::apply_stimulus(fast, fn, profile);
        for (int a = 0; a < static_cast<int>(fn.arrays.size()); ++a)
            ref.set_array(a, fast.array(a));
    }

    /// One run of each; every stream, executed_ops and every array must
    /// match. Returns the library's trace.
    sim::Trace run_and_compare(const std::string& tag, bool record = true) {
        const sim::Trace got = fast.run(record);
        const sim::Trace want = ref.run(record);
        EXPECT_EQ(got.executed_ops, want.executed_ops) << tag;
        EXPECT_EQ(got.values.size(), want.values.size()) << tag;
        for (std::size_t i = 0; i < std::min(got.values.size(), want.values.size()); ++i)
            EXPECT_EQ(got.values[i], want.values[i]) << tag << " instr %" << i;
        for (int a = 0; a < static_cast<int>(fn.arrays.size()); ++a)
            EXPECT_EQ(fast.array(a), ref.array(a)) << tag << " array " << a;
        return got;
    }

    const ir::Function& fn;
    sim::Interpreter fast;
    sim::ref::Interpreter ref;
};

/// Stimuli spanning narrow/wide values and white/correlated sequences.
std::vector<sim::StimulusProfile> stimuli() {
    return {{4, 0.0, 11}, {16, 0.25, 12}, {32, 0.9, 13}};
}

/// Values that stress signed arithmetic at 8, 16 and 32 bits.
std::vector<std::uint32_t> boundary_values() {
    return {0u,          1u,          2u,          7u,          31u,
            32u,         33u,         63u,         0x7fu,       0x80u,
            0xffu,       0x7fffu,     0x8000u,     0xffffu,     0x7fffffffu,
            0x80000000u, 0xfffffffeu, 0xffffffffu, 0x12345678u, 0xdeadbeefu};
}

} // namespace

TEST(InterpreterParity, PolybenchKernelsAtThreeSizesAndStimuli) {
    for (const std::string& name : kernels::polybench_names()) {
        for (const int size : {12, 16, 20}) {
            const ir::Function fn = kernels::build_polybench(name, size);
            for (const sim::StimulusProfile& profile : stimuli()) {
                Pair pair(fn);
                pair.apply(profile);
                const sim::Trace t = pair.run_and_compare(
                    name + "-" + std::to_string(size) + " seed " +
                    std::to_string(profile.seed));
                EXPECT_GT(t.executed_ops, 0);
            }
        }
    }
}

TEST(InterpreterParity, SyntheticNests) {
    kernels::SyntheticSpec deep;
    deep.max_depth = 4;
    deep.min_trip = 2;
    deep.max_trip = 6;
    deep.ops_per_body = 10;
    deep.cast_fraction = 0.5;
    for (const kernels::SyntheticSpec& spec : {kernels::SyntheticSpec{}, deep}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            util::Rng rng(seed);
            const ir::Function fn =
                kernels::build_synthetic(spec, rng, static_cast<int>(seed));
            Pair pair(fn);
            pair.apply({20, 0.3, seed});
            pair.run_and_compare(fn.name + " depth " +
                                 std::to_string(spec.max_depth));
        }
    }
}

TEST(InterpreterParity, PersistedMemoryAndUnrecordedRuns) {
    for (const char* name : {"k2mm", "syr2k", "atax"}) {
        const ir::Function fn = kernels::build_polybench(name, 12);
        Pair pair(fn);
        pair.apply({12, 0.5, 7});
        // The second run starts from the memory the first one left.
        pair.run_and_compare(std::string(name) + " run 1");
        pair.run_and_compare(std::string(name) + " run 2");
        const sim::Trace quiet = pair.run_and_compare(
            std::string(name) + " unrecorded", /*record=*/false);
        ASSERT_EQ(quiet.values.size(), fn.instrs.size());
        for (const auto& stream : quiet.values) EXPECT_TRUE(stream.empty());
        EXPECT_GT(quiet.executed_ops, 0);
    }
}

TEST(InterpreterParity, ArithmeticEdgeCases) {
    // Every pair of boundary values, loaded at 8, 16 and 32 bits, through
    // every opcode: division and remainder by zero and INT32_MIN / -1,
    // shift amounts >= 32, and sign-sensitive ops at narrow widths.
    const std::vector<std::uint32_t> vals = boundary_values();
    const int n = static_cast<int>(vals.size());
    ir::Builder b("edges");
    std::vector<int> xs, ys;
    const struct { const char* x; const char* y; int bw; } widths[] = {
        {"X8", "Y8", 8}, {"X16", "Y16", 16}, {"X32", "Y32", 32}};
    for (const auto& w : widths) {
        xs.push_back(b.array(w.x, {n}, true, w.bw));
        ys.push_back(b.array(w.y, {n}, true, w.bw));
    }
    const int out = b.array("O", {n, n}, true, 32);
    b.begin_loop("i", n);
    const int i = b.indvar();
    b.begin_loop("j", n);
    const int j = b.indvar();
    int acc = b.constant(0);
    for (std::size_t w = 0; w < xs.size(); ++w) {
        const int x = b.load(xs[w], {i});
        const int y = b.load(ys[w], {j});
        const std::vector<int> results = {
            b.add(x, y),  b.sub(x, y),  b.mul(x, y),  b.div(x, y),
            b.rem(x, y),  b.and_(x, y), b.or_(x, y),  b.xor_(x, y),
            b.shl(x, y),  b.lshr(x, y), b.ashr(x, y),
            b.icmp(Pred::EQ, x, y),  b.icmp(Pred::NE, x, y),
            b.icmp(Pred::SLT, x, y), b.icmp(Pred::SLE, x, y),
            b.icmp(Pred::SGT, x, y), b.icmp(Pred::SGE, x, y),
            b.select(b.icmp(Pred::SLT, x, y), x, y),
            b.sext(x, 32), b.zext(x, 32), b.trunc(y, 5), b.sext(b.trunc(y, 3), 16)};
        for (const int r : results) acc = b.xor_(acc, r);
    }
    // Mixed widths: an i8 against an i16 operand.
    const int x8 = b.load(xs[0], {i});
    const int y16 = b.load(ys[1], {j});
    acc = b.xor_(acc, b.div(x8, y16));
    acc = b.xor_(acc, b.icmp(Pred::SLT, x8, y16));
    acc = b.xor_(acc, b.ashr(y16, x8));
    b.store(out, {i, j}, acc);
    b.end_loop();
    b.end_loop();
    // Constants: INT32_MIN / -1 and % -1, and shifts by >= 32.
    const int imin = b.constant(INT_MIN);
    const int m1 = b.constant(-1);
    b.store(out, {b.constant(0), b.constant(0)}, b.div(imin, m1));
    b.store(out, {b.constant(0), b.constant(1)}, b.rem(imin, m1));
    b.store(out, {b.constant(0), b.constant(2)}, b.shl(m1, b.constant(33)));
    b.store(out, {b.constant(0), b.constant(3)}, b.ashr(imin, b.constant(63)));
    const ir::Function fn = b.build();
    ASSERT_TRUE(ir::verify(fn).ok) << ir::verify(fn).message;

    Pair pair(fn);
    for (std::size_t w = 0; w < xs.size(); ++w) {
        pair.set_array(xs[w], vals);
        std::vector<std::uint32_t> rev(vals.rbegin(), vals.rend());
        pair.set_array(ys[w], rev);
    }
    pair.run_and_compare("edges");
    EXPECT_EQ(pair.fast.array(out)[0], 0x80000000u);
    EXPECT_EQ(pair.fast.array(out)[1], 0u);
    EXPECT_EQ(pair.fast.array(out)[2], 0xfffffffeu); // shift amount 33 & 31
}

TEST(InterpreterParity, OutOfRangeGepIndicesWrap) {
    // Indices far past the dimension (and "negative" ones) wrap modulo it,
    // on loads, stores and the recorded GEP addresses.
    ir::Builder b("wrap");
    const int src = b.array("S", {5, 3}, true);
    const int idx = b.array("I", {8}, true);
    const int dst = b.array("D", {7}, true);
    b.begin_loop("i", 8);
    const int i = b.indvar();
    const int k = b.load(idx, {i});
    const int far = b.add(i, b.constant(1000003));
    const int v = b.load(src, {k, b.mul(i, b.constant(7))});
    b.store(dst, {far}, b.add(v, b.load(src, {b.sub(i, b.constant(9)), k})));
    b.end_loop();
    const ir::Function fn = b.build();
    ASSERT_TRUE(ir::verify(fn).ok) << ir::verify(fn).message;

    Pair pair(fn);
    pair.set_array(idx, {0u, 4u, 5u, 17u, 0xffffffffu, 0x80000000u, 3u, 1u << 20});
    std::vector<std::uint32_t> s(15);
    for (std::size_t e = 0; e < s.size(); ++e) s[e] = 100u + static_cast<std::uint32_t>(e);
    pair.set_array(src, s);
    pair.run_and_compare("wrap");
}

TEST(InterpreterParity, GepsNotDirectlyFollowedByTheirUser) {
    // Builder output always puts a GEP right before its Load/Store, where
    // the library hands the address over. Rearrange the body so that:
    //  - one load's GEP is separated from it by the statement that redefines
    //    its index (the address must be recomputed at the load);
    //  - a load directly follows another load's GEP (it must not take that
    //    GEP's address), and that other load follows it in turn;
    //  - one GEP feeds both a load and, later, a store that directly
    //    follows a GEP of its own array it does not use.
    ir::Builder b("unfused");
    const int a = b.array("A", {6}, true);
    const int c = b.array("C", {6}, true);
    const int o = b.array("O", {6}, true);
    b.begin_loop("i", 6);
    const int i = b.indvar();
    const int x = b.add(i, b.constant(2)); // index of the first load
    const int ld_x = b.load(a, {x});
    const int ld_a = b.load(a, {i});
    const int ld_c = b.load(c, {x});
    const int sum = b.add(b.add(ld_x, ld_a), ld_c);
    b.store(o, {i}, sum);
    b.end_loop();
    ir::Function fn = b.build();

    ir::Loop& loop = fn.loops[0];
    const auto pos = [&](int id) {
        return std::find_if(loop.body.begin(), loop.body.end(),
                            [&](const ir::BodyItem& it) {
                                return it.kind == ir::BodyItem::Kind::Instruction &&
                                       it.index == id;
                            });
    };
    const int gep_x = ld_x - 1, gep_a = ld_a - 1, gep_c = ld_c - 1;
    ASSERT_EQ(fn.instr(gep_x).op, ir::Opcode::GetElementPtr);
    // [.., x, gep_x, ld_x, ..] -> [.., gep_x, x, ld_x, ..]: x is redefined
    // between the GEP and its load.
    std::iter_swap(pos(x), pos(gep_x));
    // [gep_a, ld_a, gep_c, ld_c] -> [gep_a, gep_c, ld_a, ld_c].
    std::iter_swap(pos(ld_a), pos(gep_c));
    // The store writes through ld_c's GEP too (two users).
    int store = -1;
    for (int id = 0; id < static_cast<int>(fn.instrs.size()); ++id)
        if (fn.instr(id).op == ir::Opcode::Store) store = id;
    ASSERT_GE(store, 0);
    fn.instrs[static_cast<std::size_t>(store)].operands[0] = gep_c;
    ASSERT_TRUE(ir::verify(fn).ok) << ir::verify(fn).message;
    ASSERT_EQ(fn.instr(gep_a).op, ir::Opcode::GetElementPtr);

    Pair pair(fn);
    pair.set_array(a, {10, 11, 12, 13, 14, 15});
    pair.set_array(c, {20, 21, 22, 23, 24, 25});
    const sim::Trace t = pair.run_and_compare("unfused");
    // First iteration: the GEP saw x = 0 (not yet defined), the load sees
    // x = 2: the load must read A[2], not A[0]. The load after C's GEP
    // reads A[i], not A[x].
    EXPECT_EQ(t.of(ld_x).front(), 12u);
    EXPECT_EQ(t.of(gep_x).front(), 0u);
    EXPECT_EQ(t.of(ld_a).front(), 10u);
}
