// Parity of sim::ActivityOracle against the test-side reference oracle
// (activity_ref.hpp): every produced and consumed DirStats must be bit-exact,
// and every produced/consumed sequence identical, on every operator and pin.
// The pins are classified by how the producer's loop chain relates to the
// consumer's, and each case asserts the kinds it is meant to reach.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "activity_ref.hpp"
#include "dse/stream.hpp"
#include "hls/flow.hpp"
#include "ir/builder.hpp"
#include "kernels/polybench.hpp"
#include "kernels/synthetic.hpp"
#include "sim/activity.hpp"
#include "sim/stimulus.hpp"
#include "util/rng.hpp"

using namespace powergear;

namespace {

/// Pins checked, by producer-chain vs consumer-chain relation.
struct PinKinds {
    int same_chain = 0; ///< identical loop chains
    int enclosing = 0;  ///< producer chain a strict prefix of the consumer's
    int general = 0;    ///< anything else (escaping values)
};

void expect_same(const sim::DirStats& got, const sim::DirStats& want,
                 const std::string& where) {
    EXPECT_EQ(got.sa, want.sa) << where;
    EXPECT_EQ(got.ar, want.ar) << where;
    EXPECT_EQ(got.events, want.events) << where;
}

/// Compare both oracles on every op and pin of one design point.
void check_design(const ir::Function& fn, const sim::Trace& trace,
                  const hls::Directives& dirs, const std::string& tag,
                  PinKinds& kinds) {
    const hls::Design d = hls::synthesize(fn, dirs);
    const std::int64_t latency = d.sched.total_latency;
    const sim::ActivityOracle fast(fn, d.elab, trace, latency);
    const sim::ref::ActivityOracle ref(fn, d.elab, trace, latency);
    // Query consumed pins first on half the ops so both query orders (pin
    // reuse before and after the producer's own scan) are exercised.
    for (int o = 0; o < d.elab.num_ops(); ++o) {
        const hls::ElabOp& op = d.elab.ops[static_cast<std::size_t>(o)];
        const std::string where = tag + " " + dirs.to_string() + " op " +
                                  std::to_string(o);
        const ir::Instr& in = fn.instr(op.instr);
        const std::vector<int> c_chain = hls::loop_chain(fn, op.instr);
        if (o % 2 == 0) expect_same(fast.produced(o), ref.produced(o), where);
        for (int k = 0; k < static_cast<int>(in.operands.size()); ++k) {
            const std::string pin = where + " operand " + std::to_string(k);
            expect_same(fast.consumed(o, k), ref.consumed(o, k), pin);
            EXPECT_EQ(fast.consumed_sequence(o, k), ref.consumed_sequence(o, k))
                << pin;
            const std::vector<int> p_chain =
                hls::loop_chain(fn, in.operands[static_cast<std::size_t>(k)]);
            if (p_chain == c_chain)
                ++kinds.same_chain;
            else if (p_chain.size() < c_chain.size() &&
                     std::equal(p_chain.begin(), p_chain.end(), c_chain.begin()))
                ++kinds.enclosing;
            else
                ++kinds.general;
        }
        if (o % 2 == 1) expect_same(fast.produced(o), ref.produced(o), where);
        EXPECT_EQ(fast.produced_sequence(o), ref.produced_sequence(o)) << where;
    }
}

sim::Trace stimulated_trace(const ir::Function& fn, std::uint64_t seed) {
    sim::StimulusProfile stim;
    stim.seed = seed;
    return sim::simulate(fn, stim);
}

/// Values escaping their loop: `v` from L1 (trip 8) feeds its sibling L2
/// (trip 6; shared L0, L1 resolved to its final iteration) and the code
/// after L0 (trip 4).
ir::Function escape_nest() {
    ir::Builder b("escape");
    const int a = b.array("A", {16}, /*external=*/true);
    const int out = b.array("O", {16}, /*external=*/true);
    b.begin_loop("L0", 4);
    const int i0 = b.indvar();
    b.begin_loop("L1", 8);
    const int v = b.add(b.load(a, {b.indvar()}), i0);
    b.end_loop();
    b.begin_loop("L2", 6);
    b.store(out, {b.indvar()}, b.mul(v, b.indvar()));
    b.end_loop();
    b.end_loop();
    b.store(out, {b.constant(0)}, b.xor_(v, b.constant(3)));
    return b.build();
}

/// Directive sets DesignSpace never produces: innermost factors outside
/// {1, 2, 4, 8} (the oracle's runtime-u path), full unroll, factors that do
/// not divide or exceed the trip, and unrolled outer loops, alone and with
/// an unrolled inner loop (the base replica then changes between runs).
std::vector<hls::Directives> off_space_points(const ir::Function& fn) {
    const std::vector<int> inner = fn.innermost_loops();
    const auto each_inner = [&](auto factor_of_trip) {
        hls::Directives d;
        for (int l : inner) d.loops[l] = {factor_of_trip(fn.loop(l).trip_count), false};
        return d;
    };
    std::vector<hls::Directives> out;
    for (int u : {3, 5, 6, 7})
        out.push_back(each_inner([u](int) { return u; }));
    out.push_back(each_inner([](int trip) { return trip; }));
    out.push_back(each_inner([](int trip) { return trip + 3; }));
    for (const auto& [outer_u, inner_u] : {std::pair{2, 1}, {2, 4}, {3, 5}, {2, 8}}) {
        hls::Directives d = each_inner([inner_u](int) { return inner_u; });
        for (int l : inner)
            if (fn.loop(l).parent >= 0) d.loops[fn.loop(l).parent] = {outer_u, false};
        out.push_back(d);
    }
    return out;
}

} // namespace

TEST(ActivityOracleParity, PolybenchPointsBitExact) {
    PinKinds kinds;
    for (const std::string& name : kernels::polybench_names())
        for (int size : {12, 16, 20}) {
            const ir::Function fn = kernels::build_polybench(name, size);
            const sim::Trace trace =
                stimulated_trace(fn, static_cast<std::uint64_t>(size));
            const hls::DesignSpace space(fn);
            dse::CandidateStream stream(space.size());
            for (int i = 0; i < 16 && !stream.done(); ++i)
                check_design(fn, trace, space.point(*stream.next()),
                             name + "@" + std::to_string(size), kinds);
        }
    EXPECT_GT(kinds.same_chain, 0);
    EXPECT_GT(kinds.enclosing, 0);
}

TEST(ActivityOracleParity, SyntheticAndEscapingNestsCoverEveryPinKind) {
    PinKinds kinds;
    const auto check_space = [&](const ir::Function& fn, const sim::Trace& trace,
                                 int points) {
        const hls::DesignSpace space(fn);
        dse::CandidateStream stream(space.size());
        for (int i = 0; i < points && !stream.done(); ++i)
            check_design(fn, trace, space.point(*stream.next()), fn.name, kinds);
    };
    util::Rng rng(2022);
    for (int tag = 0; tag < 12; ++tag) {
        const ir::Function fn = kernels::build_synthetic({}, rng, tag);
        check_space(fn, stimulated_trace(fn, static_cast<std::uint64_t>(tag + 1)), 8);
    }

    const ir::Function esc = escape_nest();
    sim::Trace trace = stimulated_trace(esc, 7);
    check_space(esc, trace, 64);

    // Traces shorter or longer than their loop nest fail the reuse guard,
    // so every pin kind takes the scanning path.
    for (std::size_t i = 0; i < trace.values.size(); ++i) {
        auto& vals = trace.values[i];
        if (vals.empty()) continue;
        if (i % 2) vals.pop_back();
        else vals.insert(vals.end(), vals.begin(), vals.begin() + (vals.size() + 1) / 2);
    }
    check_space(esc, trace, 16);

    EXPECT_GT(kinds.same_chain, 0);
    EXPECT_GT(kinds.enclosing, 0);
    EXPECT_GT(kinds.general, 0);
}

TEST(ActivityOracleParity, UnrollsOutsideTheDesignSpace) {
    PinKinds kinds;
    const auto check_points = [&](const ir::Function& fn, const sim::Trace& trace) {
        for (const hls::Directives& dirs : off_space_points(fn))
            check_design(fn, trace, dirs, fn.name, kinds);
    };
    for (const std::string& name : kernels::polybench_names()) {
        const ir::Function fn = kernels::build_polybench(name, 12);
        check_points(fn, stimulated_trace(fn, 12));
    }
    util::Rng rng(2026);
    for (int tag = 0; tag < 6; ++tag) {
        const ir::Function fn = kernels::build_synthetic({}, rng, tag);
        check_points(fn, stimulated_trace(fn, static_cast<std::uint64_t>(tag + 1)));
    }
    const ir::Function esc = escape_nest();
    sim::Trace trace = stimulated_trace(esc, 7);
    check_points(esc, trace);

    // Streams of at most 2 values: shorter than one unroll group for every
    // factor above 2.
    for (auto& vals : trace.values)
        if (vals.size() > 2) vals.resize(2);
    check_points(esc, trace);

    EXPECT_GT(kinds.same_chain, 0);
    EXPECT_GT(kinds.enclosing, 0);
    EXPECT_GT(kinds.general, 0);
}
