// DSE tests: Pareto dominance/frontier, ADRS (Eq. 8) and the iterative
// prediction-guided explorer, including the "better predictor => better
// frontier" property that underlies Table III.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "core/powergear.hpp"
#include "dataset/generator.hpp"
#include "dataset/splits.hpp"
#include "dse/adrs.hpp"
#include "dse/explorer.hpp"
#include "dse/pareto.hpp"
#include "dse/pareto/archive.hpp"
#include "dse/stream.hpp"
#include "dse/stream_explorer.hpp"
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
        predicted.push_back({lat, pg.estimate(s), idx});
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
            EXPECT_EQ(arch.inserted(), all.size());
            EXPECT_DOUBLE_EQ(arch.epsilon(), 0.0);
            EXPECT_DOUBLE_EQ(arch.coverage_bound(), 1.0);
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
    // Rejected points neither enter the frontier nor count as inserted.
    expect_fronts_identical(arch.front(), before);
    EXPECT_EQ(arch.inserted(), 1u);
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

TEST(ParetoArchive, EpsilonBoundsSizeIndependentOfStreamLength) {
    // With epsilon boxes on a log grid over [1, 100]^2, the number of
    // distinguishable latency levels is at most log(100)/log(1.1) + 1 < 50,
    // whatever the stream length.
    ArchiveConfig cfg;
    cfg.epsilon = 0.1;
    ParetoArchive arch(cfg);
    Rng rng(0xE75);
    const std::size_t bound = static_cast<std::size_t>(
        std::log(100.0) / std::log1p(0.1)) + 2;
    for (int i = 0; i < 20000; ++i) {
        arch.insert({rng.next_float(1.0f, 100.0f),
                     rng.next_float(1.0f, 100.0f), i});
        ASSERT_LE(arch.size(), bound) << "after insert " << i;
    }
    EXPECT_GT(arch.size(), 4u); // sanity: the grid is not degenerate
    EXPECT_DOUBLE_EQ(arch.epsilon(), 0.1);
}

TEST(ParetoArchive, EpsilonModeIsInsertionOrderInvariant) {
    ArchiveConfig cfg;
    cfg.epsilon = 0.05;
    auto pts = lattice_cloud(400, 0xE7501);
    ParetoArchive reference(cfg);
    for (const Point& p : pts) reference.insert(p);
    Rng rng(0xE7502);
    for (int trial = 0; trial < 8; ++trial) {
        rng.shuffle(pts);
        ParetoArchive arch(cfg);
        for (const Point& p : pts) arch.insert(p);
        expect_fronts_identical(arch.front(), reference.front());
    }
}

TEST(ParetoArchive, MaxSizeCapEscalatesEpsilonAndStaysBounded) {
    ArchiveConfig cfg;
    cfg.max_size = 32;
    ParetoArchive arch(cfg);
    Rng rng(0xCA9);
    std::vector<Point> all;
    for (int i = 0; i < 20000; ++i) {
        // A dense anti-chain region that would hold thousands of exact
        // frontier points, forcing repeated escalation.
        const double lat = rng.next_float(1.0f, 1000.0f);
        const Point p{lat, 1000.0 / lat * (1.0 + 0.001 * rng.next_double()),
                      i};
        arch.insert(p);
        all.push_back(p);
        ASSERT_LE(arch.size(), 32u) << "after insert " << i;
    }
    EXPECT_GT(arch.epsilon(), 0.0); // cap forced epsilon mode
    const double cov = arch.coverage_bound();
    EXPECT_GT(cov, 1.0);
    // Coverage contract: every exact-frontier point is within the bound of
    // some surviving representative on both objectives.
    const auto reps = arch.front();
    for (const Point& p : pareto_front(all)) {
        bool covered = false;
        for (const Point& r : reps)
            if (r.latency <= p.latency * cov && r.power <= p.power * cov)
                covered = true;
        EXPECT_TRUE(covered) << "(" << p.latency << ", " << p.power << ")";
    }
}

TEST(ParetoArchive, MergeEqualsSingleArchiveInsertion) {
    const auto pts = lattice_cloud(300, 0x3E63E);
    ParetoArchive whole, left, right;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        whole.insert(pts[i]);
        (i % 2 ? left : right).insert(pts[i]);
    }
    ParetoArchive merged;
    merged.merge(left);
    merged.merge(right);
    expect_fronts_identical(merged.front(), whole.front());
}

TEST(ParetoArchive, RejectsBadConfig) {
    ArchiveConfig cfg;
    cfg.epsilon = -0.1;
    EXPECT_THROW(ParetoArchive{cfg}, std::invalid_argument);
    cfg.epsilon = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(ParetoArchive{cfg}, std::invalid_argument);
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

TEST(CandidateStream, ShardsPartitionTheSpace) {
    std::vector<std::uint64_t> unsharded;
    CandidateStream whole(997); // prime size stresses stride coprimality
    while (auto idx = whole.next()) unsharded.push_back(*idx);

    std::set<std::uint64_t> combined;
    std::uint64_t total = 0;
    for (std::uint64_t s = 0; s < 3; ++s) {
        CandidateStream shard(997, s, 3);
        total += shard.total();
        while (auto idx = shard.next()) {
            // Disjointness: no index appears in two shards.
            EXPECT_TRUE(combined.insert(*idx).second) << *idx;
        }
    }
    EXPECT_EQ(total, 997u);
    EXPECT_EQ(combined.size(), 997u);
    // Shard s yields exactly the global positions congruent to s mod N, in
    // order — interleaving the shards reconstructs the unsharded stream.
    CandidateStream s0(997, 0, 3), s1(997, 1, 3), s2(997, 2, 3);
    CandidateStream* shards[3] = {&s0, &s1, &s2};
    for (std::size_t g = 0; g < unsharded.size(); ++g) {
        const auto idx = shards[g % 3]->next();
        ASSERT_TRUE(idx.has_value());
        EXPECT_EQ(*idx, unsharded[g]) << "global position " << g;
    }
}

TEST(CandidateStream, LimitTruncatesThePermutedPrefix) {
    CandidateStream whole(5000);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 128; ++i) first.push_back(*whole.next());

    CandidateStream limited(5000, 0, 1, 128);
    EXPECT_EQ(limited.total(), 128u);
    std::vector<std::uint64_t> got;
    while (auto idx = limited.next()) got.push_back(*idx);
    EXPECT_EQ(got, first);

    // Sharded limited streams partition the same 128-position prefix.
    std::set<std::uint64_t> combined;
    for (std::uint64_t s = 0; s < 4; ++s) {
        CandidateStream shard(5000, s, 4, 128);
        while (auto idx = shard.next()) combined.insert(*idx);
    }
    EXPECT_EQ(combined, std::set<std::uint64_t>(first.begin(), first.end()));
}

TEST(CandidateStream, CursorResumeContinuesExactly) {
    CandidateStream uninterrupted(4096, 1, 2, 2000);
    std::vector<std::uint64_t> expected;
    while (auto idx = uninterrupted.next()) expected.push_back(*idx);

    // Stop after k points, serialize the cursor, resume in a new stream.
    CandidateStream first_leg(4096, 1, 2, 2000);
    std::vector<std::uint64_t> got;
    for (int k = 0; k < 300; ++k) got.push_back(*first_leg.next());
    const auto bytes = first_leg.cursor().serialize();

    const auto cursor = CandidateStream::Cursor::deserialize(bytes);
    ASSERT_TRUE(cursor.has_value());
    CandidateStream second_leg(4096, 1, 2, 2000);
    second_leg.seek(*cursor);
    EXPECT_EQ(second_leg.remaining(), uninterrupted.total() - 300);
    while (auto idx = second_leg.next()) got.push_back(*idx);
    EXPECT_EQ(got, expected);
}

TEST(CandidateStream, CursorRejectsCorruptionAndForeignGeometry) {
    CandidateStream s(4096, 1, 2, 2000);
    for (int k = 0; k < 17; ++k) s.next();
    const auto bytes = s.cursor().serialize();

    // Every single-byte flip must fail the checksum (or magic) cleanly.
    Rng rng(0xF1A5);
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        auto corrupt = bytes;
        corrupt[pos] ^= static_cast<std::uint8_t>(1 + rng.next_double() * 255.0);
        EXPECT_FALSE(CandidateStream::Cursor::deserialize(corrupt).has_value())
            << "flip at byte " << pos << " yielded a valid cursor";
    }
    // Truncation.
    auto short_bytes = bytes;
    short_bytes.pop_back();
    EXPECT_FALSE(CandidateStream::Cursor::deserialize(short_bytes).has_value());

    // A structurally valid cursor from a different geometry must be refused
    // by seek (restart instead of scanning the wrong points).
    CandidateStream other(4096, 0, 2, 2000);
    EXPECT_THROW(other.seek(s.cursor()), std::invalid_argument);
    auto oob = s.cursor();
    oob.pos = s.total() + 1;
    CandidateStream fresh(4096, 1, 2, 2000);
    EXPECT_THROW(fresh.seek(oob), std::invalid_argument);
}

TEST(CandidateStream, ChunkAddressingIsShardIndependent) {
    const std::uint64_t n = CandidateStream::num_chunks(1000, 64, 300);
    EXPECT_EQ(n, 5u); // ceil(300 / 64)
    std::vector<std::uint64_t> via_chunks;
    for (std::uint64_t c = 0; c < n; ++c)
        for (std::uint64_t idx : CandidateStream::chunk_indices(1000, c, 64, 300))
            via_chunks.push_back(idx);
    CandidateStream stream(1000, 0, 1, 300);
    std::vector<std::uint64_t> via_stream;
    while (auto idx = stream.next()) via_stream.push_back(*idx);
    EXPECT_EQ(via_chunks, via_stream);
}

TEST(CandidateStream, RejectsBadGeometry) {
    EXPECT_THROW(CandidateStream(0), std::invalid_argument);
    EXPECT_THROW(CandidateStream(10, 2, 2), std::invalid_argument);
    EXPECT_THROW(CandidateStream(10, 0, 0), std::invalid_argument);
}

// --- StreamingExplorer ------------------------------------------------------

TEST(StreamingExplorer, MatchesMaterializedOracleBitExactly) {
    StreamConfig cfg;
    cfg.chunk = 32;
    cfg.spread_gate = 1.0;
    const StreamingExplorer ex(cfg);

    CandidateStream a(517), b(517);
    const StreamResult fast = ex.run(a, synth_scorer(), synth_truth());
    const StreamResult slow = ex.run_materialized(b, synth_scorer(), synth_truth());

    expect_fronts_identical(fast.predicted_front, slow.predicted_front);
    expect_fronts_identical(fast.true_front, slow.true_front);
    EXPECT_EQ(fast.stats.streamed, slow.stats.streamed);
    EXPECT_EQ(fast.stats.scored, slow.stats.scored);
    EXPECT_EQ(fast.stats.promoted, slow.stats.promoted);
    EXPECT_EQ(fast.stats.archived, slow.stats.archived);
    EXPECT_EQ(fast.stats.truth_evals, slow.stats.truth_evals);
    EXPECT_EQ(fast.stats.streamed, 517u);
}

TEST(StreamingExplorer, SpreadGateSpendsTruthBudgetAdaptively) {
    CandidateStream open_stream(800), gated_stream(800);
    StreamConfig open_cfg;
    open_cfg.chunk = 64;
    const StreamResult open =
        StreamingExplorer(open_cfg).run(open_stream, synth_scorer(), synth_truth());
    // Gate 0: every predicted-frontier entrant is promoted.
    EXPECT_EQ(open.stats.promoted, open.stats.archived);
    EXPECT_EQ(open.stats.promoted, open.stats.truth_evals);

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
    EXPECT_EQ(res.stats.streamed, 250u);
    EXPECT_EQ(res.stats.scored, 250u);
    EXPECT_EQ(stream.remaining(), 100000u - 250u);
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

    // Second leg resumes from the serialized position. The predicted
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

TEST(StreamingExplorer, ShardedPredictedFrontsMergeToUnsharded) {
    StreamConfig cfg;
    cfg.chunk = 32;
    const StreamingExplorer ex(cfg);
    CandidateStream whole(911);
    const StreamResult full = ex.run(whole, synth_scorer(), synth_truth());

    ParetoArchive merged;
    std::uint64_t streamed = 0;
    for (std::uint64_t s = 0; s < 2; ++s) {
        CandidateStream shard(911, s, 2);
        const StreamResult r = ex.run(shard, synth_scorer(), synth_truth());
        streamed += r.stats.streamed;
        for (const Point& p : r.predicted_front) merged.insert(p);
    }
    EXPECT_EQ(streamed, 911u);
    expect_fronts_identical(merged.front(), full.predicted_front);
}

TEST(StreamingExplorer, BoundedArchiveIsBoundedEndToEnd) {
    StreamConfig cfg;
    cfg.chunk = 64;
    cfg.archive.max_size = 16;
    CandidateStream stream(5000);
    const StreamResult res =
        StreamingExplorer(cfg).run(stream, synth_scorer(), synth_truth());
    EXPECT_LE(res.predicted_front.size(), 16u);
    EXPECT_LE(res.true_front.size(), 16u);
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
