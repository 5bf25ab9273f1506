// DSE tests: Pareto dominance/frontier, ADRS (Eq. 8) and the iterative
// prediction-guided explorer, including the "better predictor => better
// frontier" property that underlies Table III.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <set>

#include "core/powergear.hpp"
#include "dataset/generator.hpp"
#include "dataset/splits.hpp"
#include "dse/adrs.hpp"
#include "dse/explorer.hpp"
#include "dse/pareto.hpp"
#include "dse/pareto/archive.hpp"
#include "dse/shard.hpp"
#include "dse/stream.hpp"
#include "dse/stream_explorer.hpp"
#include "estimate_one.hpp"
#include "hls/directives.hpp"
#include "io/cache.hpp"
#include "kernels/polybench.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace powergear::dse;
using powergear::util::Rng;

namespace {

std::vector<Point> convex_cloud(int n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Point> pts;
    for (int i = 0; i < n; ++i) {
        const double lat = rng.next_float(1.0f, 100.0f);
        // Power roughly trades off against latency plus noise.
        const double pow_w = 200.0 / lat + rng.next_float(0.0f, 3.0f);
        pts.push_back({lat, pow_w, i});
    }
    return pts;
}

/// Random stream with deliberate duplicates: coordinates are rounded to a
/// coarse lattice so exactly-equal (latency, power) pairs with different
/// indices occur often — the tie-break cases the archive must get right.
std::vector<Point> lattice_cloud(int n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Point> pts;
    for (int i = 0; i < n; ++i) {
        const double lat = 1.0 + std::floor(rng.next_double() * 12.0);
        const double pow_w = 1.0 + std::floor(rng.next_double() * 12.0);
        pts.push_back({lat, pow_w, i});
    }
    return pts;
}

/// Exact (latency, power, index) triple equality of two frontiers.
void expect_fronts_identical(const std::vector<Point>& a,
                             const std::vector<Point>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].latency, b[i].latency) << "at " << i;
        EXPECT_EQ(a[i].power, b[i].power) << "at " << i;
        EXPECT_EQ(a[i].index, b[i].index) << "at " << i;
    }
}

/// Deterministic synthetic chunk scorer over raw space indices: latency and
/// power derived from hash_mix, a convex-ish trade-off with per-point
/// jitter. Pure function of the index, so every shard/interleaving/job
/// count scores a given index identically.
ScoredPoint synth_score(std::uint64_t idx) {
    const double lat =
        1.0 + static_cast<double>(powergear::util::hash_mix(idx, 0x5C07E) %
                                  10000);
    ScoredPoint sp;
    sp.latency = lat;
    sp.power = 2000.0 / lat +
               powergear::util::hash_jitter(0xD5E, idx, 0.05);
    sp.spread = 0.01 + powergear::util::hash_jitter(0x5B8EAD, idx, 0.009);
    return sp;
}

ChunkScorer synth_scorer() {
    return [](std::span<const std::uint64_t> idx) {
        std::vector<ScoredPoint> out;
        out.reserve(idx.size());
        for (const std::uint64_t i : idx) out.push_back(synth_score(i));
        return out;
    };
}

TruthFn synth_truth() {
    return [](std::uint64_t idx, const ScoredPoint& sp) {
        return sp.power + powergear::util::hash_jitter(0x7B07, idx, 0.02);
    };
}

bool fronts_equal(const std::vector<Point>& a, const std::vector<Point>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].latency != b[i].latency || a[i].power != b[i].power ||
            a[i].index != b[i].index)
            return false;
    return true;
}

/// Brute-force reference for StreamingExplorer::run: its own copy of the
/// stream/score/promote loop, where a point "enters the predicted frontier"
/// iff pareto_front over every predicted point seen changes. O(n^2 log n).
/// Drains the stream (no max_points), which is all it claims.
StreamResult run_materialized(const StreamConfig& cfg, CandidateStream& stream,
                              const ChunkScorer& score, const TruthFn& truth) {
    std::vector<Point> all_predicted;
    std::vector<Point> promoted;
    StreamResult res;
    double spread_sum = 0.0;
    std::vector<std::uint64_t> chunk;
    while (stream.next_chunk(cfg.chunk, chunk) > 0) {
        const std::vector<ScoredPoint> scored = score(chunk);
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            const auto idx = static_cast<std::int64_t>(chunk[i]);
            const ScoredPoint& sp = scored.at(i);
            const std::vector<Point> before = pareto_front(all_predicted);
            all_predicted.push_back(Point{sp.latency, sp.power, idx});
            if (!fronts_equal(before, pareto_front(all_predicted))) {
                ++res.stats.archived;
                const double mean =
                    res.stats.scored > 0
                        ? spread_sum / static_cast<double>(res.stats.scored)
                        : 0.0;
                if (cfg.spread_gate <= 0.0 ||
                    sp.spread >= cfg.spread_gate * mean) {
                    ++res.stats.promoted;
                    promoted.push_back(
                        Point{sp.latency, truth(chunk[i], sp), idx});
                }
            }
            spread_sum += sp.spread;
            ++res.stats.scored;
        }
        chunk.clear();
    }
    res.predicted_front = pareto_front(all_predicted);
    res.true_front = pareto_front(promoted);
    return res;
}

} // namespace

TEST(Pareto, DominatesDefinition) {
    EXPECT_TRUE(dominates({1, 1, 0}, {2, 2, 1}));
    EXPECT_TRUE(dominates({1, 2, 0}, {1, 3, 1}));
    EXPECT_FALSE(dominates({1, 1, 0}, {1, 1, 1})); // equal: no strict better
    EXPECT_FALSE(dominates({1, 3, 0}, {2, 2, 1})); // trade-off
}

TEST(Pareto, FrontIsNonDominatedAndSorted) {
    const auto pts = convex_cloud(200, 3);
    const auto front = pareto_front(pts);
    ASSERT_FALSE(front.empty());
    for (std::size_t i = 1; i < front.size(); ++i) {
        EXPECT_GT(front[i].latency, front[i - 1].latency);
        EXPECT_LT(front[i].power, front[i - 1].power);
    }
    for (const Point& f : front)
        for (const Point& p : pts)
            EXPECT_FALSE(dominates(p, f));
}

TEST(Pareto, HandlesDuplicatesAndSingletons) {
    const std::vector<Point> dup = {{1, 1, 0}, {1, 1, 1}, {2, 2, 2}};
    EXPECT_EQ(pareto_front(dup).size(), 1u);
    EXPECT_EQ(pareto_front({{5, 5, 0}}).size(), 1u);
    EXPECT_TRUE(pareto_front({}).empty());
}

TEST(Adrs, ZeroWhenFrontsIdentical) {
    const auto pts = convex_cloud(100, 5);
    const auto front = pareto_front(pts);
    EXPECT_DOUBLE_EQ(adrs(front, front), 0.0);
}

TEST(Adrs, PositiveForWorseFront) {
    const auto pts = convex_cloud(100, 7);
    const auto exact = pareto_front(pts);
    std::vector<Point> worse = exact;
    for (Point& p : worse) p.power *= 1.5;
    // Every approximate point costs 50% more power at equal latency, so the
    // ADRS is positive; neighbouring frontier points can offer a smaller
    // worst-gap, so 0.5 is an upper bound, not the value.
    EXPECT_GT(adrs(exact, worse), 0.0);
    EXPECT_LE(adrs(exact, worse), 0.5 + 1e-12);
}

TEST(Adrs, EmptyFrontConventions) {
    const auto pts = convex_cloud(10, 9);
    const auto front = pareto_front(pts);
    EXPECT_DOUBLE_EQ(adrs({}, front), 0.0);
    EXPECT_TRUE(std::isinf(adrs(front, {})));
}

TEST(Adrs, DistanceIsWorstRelativeGap) {
    EXPECT_DOUBLE_EQ(adrs_distance({10, 1, 0}, {12, 1, 1}), 0.2);
    EXPECT_DOUBLE_EQ(adrs_distance({10, 1, 0}, {10, 1.3, 1}), 0.3);
    EXPECT_DOUBLE_EQ(adrs_distance({10, 1, 0}, {8, 0.9, 1}), 0.0); // better
}

TEST(Explorer, RespectsBudget) {
    const auto truth = convex_cloud(100, 11);
    ExplorerConfig cfg;
    cfg.total_budget = 0.3;
    const DseResult res = explore(truth, truth, cfg);
    EXPECT_LE(res.sampled.size(), 31u);
    EXPECT_GE(res.sampled.size(), 28u);
    // No duplicates.
    std::set<int> s(res.sampled.begin(), res.sampled.end());
    EXPECT_EQ(s.size(), res.sampled.size());
}

TEST(Explorer, PerfectPredictorFindsExactFrontQuickly) {
    const auto truth = convex_cloud(150, 13);
    ExplorerConfig cfg;
    cfg.total_budget = 0.35;
    const DseResult res = explore(truth, truth, cfg);
    // With a perfect predictor the true frontier points are promoted first.
    EXPECT_NEAR(res.adrs_value, 0.0, 1e-9);
}

TEST(Explorer, BetterPredictorGivesLowerAdrs) {
    const auto truth = convex_cloud(200, 17);
    Rng rng(19);
    auto noisy = [&](double sigma) {
        std::vector<Point> pred = truth;
        for (Point& p : pred)
            p.power = std::max(0.01, p.power * (1.0 + sigma * rng.next_gaussian()));
        return pred;
    };
    const auto slightly = noisy(0.05);
    const auto badly = noisy(0.8);
    ExplorerConfig cfg;
    cfg.total_budget = 0.25;
    double good_sum = 0.0, bad_sum = 0.0;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        cfg.seed = seed;
        good_sum += explore(slightly, truth, cfg).adrs_value;
        bad_sum += explore(badly, truth, cfg).adrs_value;
    }
    EXPECT_LE(good_sum, bad_sum);
}

TEST(Explorer, FullBudgetReachesExactFront) {
    const auto truth = convex_cloud(80, 23);
    // Even a terrible predictor finds the exact frontier with 100% budget.
    std::vector<Point> anti = truth;
    for (Point& p : anti) p.power = -p.power;
    ExplorerConfig cfg;
    cfg.total_budget = 1.0;
    const DseResult res = explore(anti, truth, cfg);
    EXPECT_NEAR(res.adrs_value, 0.0, 1e-9);
}

TEST(Explorer, RejectsBadInput) {
    EXPECT_THROW(explore({}, {}, {}), std::invalid_argument);
    const auto pts = convex_cloud(5, 29);
    auto fewer = pts;
    fewer.pop_back();
    EXPECT_THROW(explore(pts, fewer, {}), std::invalid_argument);
}

TEST(Explorer, EstimatorFormMatchesPointwiseEstimates) {
    // Explorer::run scores the pool with one estimate_batch call; it must
    // sample exactly the same designs as explore() over points scored one
    // sample at a time with the same estimator.
    namespace ds = powergear::dataset;
    namespace core = powergear::core;
    ds::GeneratorOptions gopts;
    gopts.samples_per_dataset = 8;
    gopts.problem_size = 6;
    std::vector<ds::Dataset> suite;
    suite.push_back(ds::generate_dataset("atax", gopts));
    suite.push_back(ds::generate_dataset("gemm", gopts));

    core::PowerGear::Options o;
    o.kind = ds::PowerKind::Dynamic;
    o.epochs = 2;
    o.folds = 2;
    o.hidden = 4;
    o.layers = 1;
    core::PowerGear pg(o);
    pg.fit(ds::pool_except(suite, 1));

    ExplorerConfig cfg;
    cfg.total_budget = 0.5;
    const core::SamplePool pool = ds::pool_of(suite[1]);
    const DseResult via_batch =
        Explorer(cfg).run(pool, pg, ds::PowerKind::Dynamic);
    std::vector<Point> predicted, truth;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const ds::Sample& s = pool[i];
        const double lat = static_cast<double>(s.latency_cycles);
        const int idx = static_cast<int>(i);
        predicted.push_back({lat, powergear::test::estimate_one(pg, s), idx});
        truth.push_back({lat, s.label(ds::PowerKind::Dynamic), idx});
    }
    const DseResult pointwise = explore(predicted, truth, cfg);
    EXPECT_EQ(via_batch.sampled, pointwise.sampled);
    EXPECT_DOUBLE_EQ(via_batch.adrs_value, pointwise.adrs_value);
}

// --- pareto_front tie handling (regression) ---------------------------------

TEST(Pareto, EqualPointsKeepLowestIndexInAnyOrder) {
    // Exactly-equal (latency, power) points must dedupe to the *lowest*
    // index, whatever the input order. The pre-fix sort had no index
    // tie-break, so the surviving index depended on std::sort's internal
    // partitioning — permutations could disagree.
    std::vector<Point> pts = {{3, 7, 4}, {3, 7, 1}, {3, 7, 9},
                              {1, 9, 5}, {5, 5, 2}, {5, 5, 8}};
    Rng rng(0xDED09);
    for (int trial = 0; trial < 20; ++trial) {
        rng.shuffle(pts);
        const auto front = pareto_front(pts);
        ASSERT_EQ(front.size(), 3u);
        EXPECT_EQ(front[0].index, 5); // (1,9) unique
        EXPECT_EQ(front[1].index, 1); // (3,7) triple -> lowest index
        EXPECT_EQ(front[2].index, 2); // (5,5) pair   -> lowest index
    }
}

// --- ParetoArchive property suite -------------------------------------------

TEST(ParetoArchive, ExactModeMatchesOracleOnRandomStreams) {
    for (std::uint64_t seed : {1ull, 42ull, 0xBEEFull, 7777ull}) {
        const auto smooth = convex_cloud(300, seed);
        const auto coarse = lattice_cloud(300, seed ^ 0x5EED);
        for (const auto* cloud : {&smooth, &coarse}) {
            ParetoArchive arch;
            std::vector<Point> all;
            for (const Point& p : *cloud) {
                arch.insert(p);
                all.push_back(p);
                // Invariant after *every* insert, not just at the end.
                expect_fronts_identical(arch.front(), pareto_front(all));
            }
        }
    }
}

TEST(ParetoArchive, InsertionOrderInvariance) {
    auto pts = lattice_cloud(200, 0x0BDE8);
    ParetoArchive reference;
    for (const Point& p : pts) reference.insert(p);
    Rng rng(0x0BDE9);
    for (int trial = 0; trial < 10; ++trial) {
        rng.shuffle(pts);
        ParetoArchive arch;
        for (const Point& p : pts) arch.insert(p);
        expect_fronts_identical(arch.front(), reference.front());
    }
}

TEST(ParetoArchive, RejectsNonFinitePoints) {
    ParetoArchive arch;
    ASSERT_TRUE(arch.insert({10, 2, 0}));
    const auto before = arch.front();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(arch.insert({nan, 1, 1}));
    EXPECT_FALSE(arch.insert({1, nan, 2}));
    EXPECT_FALSE(arch.insert({inf, 1, 3}));
    EXPECT_FALSE(arch.insert({1, -inf, 4}));
    EXPECT_FALSE(arch.insert({-inf, nan, 5}));
    // Rejected points never enter the frontier.
    expect_fronts_identical(arch.front(), before);
}

TEST(ParetoArchive, AllDominatedCollapsesToOne) {
    // A chain where each point dominates the previous: size stays 1.
    ParetoArchive arch;
    for (int i = 0; i < 100; ++i) {
        arch.insert({100.0 - i, 100.0 - i, i});
        EXPECT_EQ(arch.size(), 1u);
    }
    EXPECT_EQ(arch.front()[0].index, 99);
}

TEST(ParetoArchive, AllNonDominatedKeepsEveryPoint) {
    // An anti-chain (latency up, power down): nothing is ever evicted.
    ParetoArchive arch;
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(arch.insert({1.0 + i, 100.0 - i, i}));
        EXPECT_EQ(arch.size(), static_cast<std::size_t>(i + 1));
    }
}

TEST(ParetoArchive, DuplicatePointKeepsLowestIndex) {
    ParetoArchive a, b;
    a.insert({5, 5, 3});
    EXPECT_FALSE(a.insert({5, 5, 7})); // higher index: no change
    b.insert({5, 5, 7});
    EXPECT_TRUE(b.insert({5, 5, 3})); // lower index replaces
    expect_fronts_identical(a.front(), b.front());
    EXPECT_EQ(a.front()[0].index, 3);
}

// --- CandidateStream --------------------------------------------------------

TEST(CandidateStream, IsABijectionOverTheSpace) {
    CandidateStream s(1000);
    std::vector<std::uint64_t> seen;
    while (auto idx = s.next()) seen.push_back(*idx);
    ASSERT_EQ(seen.size(), 1000u);
    auto sorted = seen;
    std::sort(sorted.begin(), sorted.end());
    for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(sorted[i], i);
    // The permuted order is not the identity (low-discrepancy stride).
    EXPECT_NE(seen, sorted);
}

TEST(CandidateStream, CursorResumeContinuesExactly) {
    CandidateStream uninterrupted(4096);
    std::vector<std::uint64_t> expected;
    while (auto idx = uninterrupted.next()) expected.push_back(*idx);

    // Stop after k points, capture the cursor, resume in a new stream.
    CandidateStream first_leg(4096);
    std::vector<std::uint64_t> got;
    for (int k = 0; k < 300; ++k) got.push_back(*first_leg.next());
    const CandidateStream::Cursor cursor = first_leg.cursor();
    EXPECT_EQ(cursor.pos, 300u);

    CandidateStream second_leg(4096);
    second_leg.seek(cursor);
    while (auto idx = second_leg.next()) got.push_back(*idx);
    EXPECT_EQ(got, expected);
}

TEST(CandidateStream, CursorRejectsCorruptionAndForeignGeometry) {
    CandidateStream s(4096);
    for (int k = 0; k < 17; ++k) s.next();

    // A cursor from a different geometry must be refused by seek (restart
    // instead of scanning the wrong points), and so must one past the end.
    CandidateStream other(4095);
    EXPECT_THROW(other.seek(s.cursor()), std::invalid_argument);
    auto oob = s.cursor();
    oob.pos = s.space_size() + 1;
    CandidateStream fresh(4096);
    EXPECT_THROW(fresh.seek(oob), std::invalid_argument);
    // The end position itself is valid: a drained stream resumes drained.
    auto end = s.cursor();
    end.pos = s.space_size();
    fresh.seek(end);
    EXPECT_TRUE(fresh.done());
}

TEST(CandidateStream, ChunkAddressingIsShardIndependent) {
    const std::uint64_t n = CandidateStream::num_chunks(1000, 64, 300);
    EXPECT_EQ(n, 5u); // ceil(300 / 64)
    std::vector<std::uint64_t> via_chunks;
    for (std::uint64_t c = 0; c < n; ++c)
        for (std::uint64_t idx : CandidateStream::chunk_indices(1000, c, 64, 300))
            via_chunks.push_back(idx);
    // The chunks cover the first 300 positions of the stream's order.
    CandidateStream stream(1000);
    std::vector<std::uint64_t> via_stream;
    stream.next_chunk(300, via_stream);
    EXPECT_EQ(via_chunks, via_stream);
    EXPECT_TRUE(CandidateStream::chunk_indices(1000, n, 64, 300).empty());
}

TEST(CandidateStream, NumChunksDoesNotWrapOnHugeChunks) {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(CandidateStream::num_chunks(1000, kMax), 1u);
    EXPECT_EQ(CandidateStream::num_chunks(kMax, kMax), 1u);
    EXPECT_EQ(CandidateStream::num_chunks(kMax, kMax - 1), 2u);
    EXPECT_EQ(CandidateStream::chunk_indices(1000, 0, kMax).size(), 1000u);
    EXPECT_TRUE(CandidateStream::chunk_indices(1000, 1, kMax).empty());
    EXPECT_EQ(CandidateStream::num_chunks(1000, 0), 0u);
}

TEST(CandidateStream, RejectsBadGeometry) {
    EXPECT_THROW(CandidateStream(0), std::invalid_argument);
}

// --- StreamingExplorer ------------------------------------------------------

TEST(StreamingExplorer, MatchesMaterializedOracleBitExactly) {
    StreamConfig cfg;
    cfg.chunk = 32;
    cfg.spread_gate = 1.0;
    const StreamingExplorer ex(cfg);

    CandidateStream a(517), b(517);
    const StreamResult fast = ex.run(a, synth_scorer(), synth_truth());
    const StreamResult slow =
        run_materialized(cfg, b, synth_scorer(), synth_truth());

    expect_fronts_identical(fast.predicted_front, slow.predicted_front);
    expect_fronts_identical(fast.true_front, slow.true_front);
    EXPECT_EQ(fast.stats.scored, slow.stats.scored);
    EXPECT_EQ(fast.stats.promoted, slow.stats.promoted);
    EXPECT_EQ(fast.stats.archived, slow.stats.archived);
    EXPECT_EQ(fast.stats.scored, 517u);
    EXPECT_GT(fast.stats.promoted, 0u);
    EXPECT_LT(fast.stats.promoted, fast.stats.archived); // the gate bit
}

TEST(StreamingExplorer, SpreadGateSpendsTruthBudgetAdaptively) {
    CandidateStream open_stream(800), gated_stream(800);
    StreamConfig open_cfg;
    open_cfg.chunk = 64;
    std::uint64_t truth_calls = 0;
    const TruthFn counted = [&](std::uint64_t idx, const ScoredPoint& sp) {
        ++truth_calls;
        return synth_truth()(idx, sp);
    };
    const StreamResult open =
        StreamingExplorer(open_cfg).run(open_stream, synth_scorer(), counted);
    // Gate 0: every predicted-frontier entrant is promoted, and every
    // promotion is exactly one ground-truth evaluation.
    EXPECT_EQ(open.stats.promoted, open.stats.archived);
    EXPECT_EQ(open.stats.promoted, truth_calls);

    StreamConfig gated_cfg;
    gated_cfg.chunk = 64;
    gated_cfg.spread_gate = 1.5; // only clearly-uncertain entrants
    const StreamResult gated = StreamingExplorer(gated_cfg).run(
        gated_stream, synth_scorer(), synth_truth());
    EXPECT_EQ(gated.stats.archived, open.stats.archived);
    EXPECT_LT(gated.stats.promoted, open.stats.promoted);
    EXPECT_GT(gated.stats.promoted, 0u);
}

TEST(StreamingExplorer, MaxPointsCapsTheSweep) {
    CandidateStream stream(100000);
    StreamConfig cfg;
    cfg.chunk = 64;
    cfg.max_points = 250;
    const StreamResult res =
        StreamingExplorer(cfg).run(stream, synth_scorer(), synth_truth());
    EXPECT_EQ(res.stats.scored, 250u);
    EXPECT_EQ(stream.cursor().pos, 250u); // nothing pulled past the cap
}

TEST(StreamingExplorer, ResumedRunEqualsUninterrupted) {
    StreamConfig cfg;
    cfg.chunk = 32;
    const StreamingExplorer ex(cfg);
    CandidateStream whole(700);
    const StreamResult full = ex.run(whole, synth_scorer(), synth_truth());

    // First leg: stop after 200 points, capture the cursor.
    CandidateStream leg1(700);
    StreamConfig capped = cfg;
    capped.max_points = 200;
    StreamingExplorer(capped).run(leg1, synth_scorer(), synth_truth());
    const auto cursor = leg1.cursor();

    // Second leg resumes from the captured position. The predicted
    // frontier is rebuilt by re-inserting both legs' fronts (what the shard
    // merge path does) — order invariance makes this equal the one-shot run.
    CandidateStream leg2(700);
    leg2.seek(cursor);
    CandidateStream leg1_replay(700);
    const StreamResult part1 = StreamingExplorer(capped).run(
        leg1_replay, synth_scorer(), synth_truth());
    const StreamResult part2 = ex.run(leg2, synth_scorer(), synth_truth());
    ParetoArchive stitched;
    for (const Point& p : part1.predicted_front) stitched.insert(p);
    for (const Point& p : part2.predicted_front) stitched.insert(p);
    expect_fronts_identical(stitched.front(), full.predicted_front);
}

TEST(StreamingExplorer, RejectsBadCallbacksAndConfig) {
    StreamConfig cfg;
    CandidateStream stream(10);
    EXPECT_THROW(StreamingExplorer(cfg).run(stream, nullptr, synth_truth()),
                 std::invalid_argument);
    EXPECT_THROW(StreamingExplorer(cfg).run(stream, synth_scorer(), nullptr),
                 std::invalid_argument);
    // A scorer returning the wrong count is a contract violation.
    const ChunkScorer bad = [](std::span<const std::uint64_t> idx) {
        return std::vector<ScoredPoint>(idx.size() + 1);
    };
    EXPECT_THROW(StreamingExplorer(cfg).run(stream, bad, synth_truth()),
                 std::runtime_error);
    StreamConfig zero;
    zero.chunk = 0;
    EXPECT_THROW(StreamingExplorer{zero}, std::invalid_argument);
}

TEST(StreamingExplorer, PoolFormIsJobCountInvariant) {
    // The full model path (trained estimator, fused estimate_batch scoring)
    // must be bit-identical at jobs=1 and jobs=4 — chunk scoring may fan
    // out, but archive inserts and promotions happen in stream order.
    namespace ds = powergear::dataset;
    namespace core = powergear::core;
    ds::GeneratorOptions gopts;
    gopts.samples_per_dataset = 8;
    gopts.problem_size = 6;
    std::vector<ds::Dataset> suite;
    suite.push_back(ds::generate_dataset("atax", gopts));
    suite.push_back(ds::generate_dataset("gemm", gopts));

    core::PowerGear::Options o;
    o.kind = ds::PowerKind::Dynamic;
    o.epochs = 2;
    o.folds = 2;
    o.hidden = 4;
    o.layers = 1;
    core::PowerGear pg(o);
    pg.fit(ds::pool_except(suite, 1));

    StreamConfig cfg;
    cfg.chunk = 4;
    cfg.spread_gate = 0.5;
    const StreamingExplorer ex(cfg);
    const core::SamplePool pool = ds::pool_of(suite[1]);

    powergear::util::set_parallel_jobs(1);
    const StreamResult serial = ex.run(pool, pg, ds::PowerKind::Dynamic);
    powergear::util::set_parallel_jobs(4);
    const StreamResult parallel = ex.run(pool, pg, ds::PowerKind::Dynamic);
    powergear::util::set_parallel_jobs(0); // restore default resolution

    expect_fronts_identical(serial.predicted_front, parallel.predicted_front);
    expect_fronts_identical(serial.true_front, parallel.true_front);
    EXPECT_EQ(serial.stats.promoted, parallel.stats.promoted);
    EXPECT_DOUBLE_EQ(serial.adrs_value, parallel.adrs_value);
    EXPECT_GE(serial.adrs_value, 0.0); // pool form fills ADRS
}

// --- Sharded sweep (run_shard / merge_shards) --------------------------------

namespace {

/// Fresh per-test cache directory, removed on destruction.
struct TempCacheDir {
    explicit TempCacheDir(const std::string& tag)
        : path((std::filesystem::path(::testing::TempDir()) /
                ("powergear_dse_" + tag + std::to_string(::getpid())))
                   .string()) {
        std::filesystem::remove_all(path);
    }
    ~TempCacheDir() { std::filesystem::remove_all(path); }
    std::string path;
};

} // namespace

TEST(ShardedSweep, WorkersPartitionChunksAndMergeToUnsharded) {
    namespace ds = powergear::dataset;
    const TempCacheDir tmp("shard");
    const powergear::io::Cache cache(tmp.path);
    const powergear::ir::Function fn =
        powergear::kernels::build_polybench("atax", 6);
    ds::GeneratorOptions gopts;
    gopts.problem_size = 6;
    gopts.run_vivado = false;
    gopts.cache_dir = tmp.path;
    const ds::PowerKind kind = ds::PowerKind::Dynamic;

    ShardConfig cfg;
    cfg.chunk = 8;
    cfg.limit = 48;
    cfg.num_workers = 2;
    const std::uint64_t chunks = CandidateStream::num_chunks(
        powergear::hls::DesignSpace(fn).size(), cfg.chunk, cfg.limit);
    ASSERT_EQ(chunks, 6u);

    // One after the other: worker 1 takes its own chunks, then steals the
    // rest, so worker 2 finds everything Done. Together they claim each
    // chunk exactly once.
    cfg.worker = 1;
    const ShardOutcome w1 = run_shard(fn, gopts, kind, cache, cfg);
    cfg.worker = 2;
    const ShardOutcome w2 = run_shard(fn, gopts, kind, cache, cfg);
    EXPECT_EQ(w1.chunks_claimed + w2.chunks_claimed, chunks);
    EXPECT_EQ(w1.chunks_stolen, chunks / 2);
    EXPECT_EQ(w1.points + w2.points, cfg.limit);

    const std::vector<Point> merged = merge_shards(
        cache, shard_space_key(fn, gopts, kind, cfg.chunk, cfg.limit, 2), 2);

    // An unsharded 1/1 sweep of the same space keeps its own manifest and
    // artifacts (num_workers is part of the key) and reaches the same
    // frontier bit for bit.
    ShardConfig whole = cfg;
    whole.worker = 1;
    whole.num_workers = 1;
    const ShardOutcome solo = run_shard(fn, gopts, kind, cache, whole);
    EXPECT_EQ(solo.chunks_claimed, chunks);
    ASSERT_FALSE(merged.empty());
    expect_fronts_identical(merged, solo.front);
    expect_fronts_identical(
        merged, merge_shards(cache,
                             shard_space_key(fn, gopts, kind, cfg.chunk,
                                             cfg.limit, 1),
                             1));

    // A re-run finds every chunk Done and keeps its published frontier.
    cfg.worker = 1;
    const ShardOutcome again = run_shard(fn, gopts, kind, cache, cfg);
    EXPECT_EQ(again.chunks_claimed, 0u);
    expect_fronts_identical(again.front, w1.front);
}

TEST(ShardedSweep, RejectsBadWorkerChunkAndDisabledCache) {
    const TempCacheDir tmp("shard_bad");
    const powergear::io::Cache cache(tmp.path);
    const powergear::ir::Function fn =
        powergear::kernels::build_polybench("atax", 6);
    powergear::dataset::GeneratorOptions gopts;
    gopts.problem_size = 6;
    gopts.run_vivado = false;
    const auto kind = powergear::dataset::PowerKind::Dynamic;
    const auto rejects = [&](const powergear::io::Cache& c,
                             std::uint64_t worker, std::uint64_t n,
                             std::size_t chunk) {
        ShardConfig cfg;
        cfg.worker = worker;
        cfg.num_workers = n;
        cfg.chunk = chunk;
        EXPECT_THROW(run_shard(fn, gopts, kind, c, cfg), std::invalid_argument)
            << "worker " << worker << "/" << n << " chunk " << chunk;
    };
    rejects(cache, 0, 2, 8);
    rejects(cache, 3, 2, 8);
    rejects(cache, 1, 0, 8);
    rejects(cache, 1, 2, 0);
    rejects(powergear::io::Cache(), 1, 2, 8);
    EXPECT_FALSE(std::filesystem::exists(tmp.path)); // nothing was written
}
