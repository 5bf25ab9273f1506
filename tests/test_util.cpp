// Utility-layer tests: RNG determinism, table/CSV rendering, statistics.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>

#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace powergear::util;

TEST(Rng, DeterministicForSameSeed) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next_u64() == b.next_u64()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextRangeInclusive) {
    Rng rng(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        const std::int64_t v = rng.next_range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, DoubleInUnitInterval) {
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 2000; ++i) {
        const double v = rng.next_double();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 2000.0, 0.5, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
    Rng rng(15);
    std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    rng.shuffle(v);
    std::set<int> s(v.begin(), v.end());
    EXPECT_EQ(s.size(), 10u);
}

TEST(Rng, HashJitterBoundedAndDeterministic) {
    for (std::uint64_t salt = 0; salt < 200; ++salt) {
        const double j = hash_jitter(42, salt, 0.01);
        EXPECT_LE(std::abs(j), 0.01);
        EXPECT_DOUBLE_EQ(j, hash_jitter(42, salt, 0.01));
    }
}

TEST(Table, AsciiAndCsvRendering) {
    Table t({"a", "b"});
    t.add_row({"1", "x,y"});
    t.add_row({"2", "q\"z"});
    EXPECT_EQ(t.num_rows(), 2u);
    const std::string ascii = t.to_ascii();
    EXPECT_NE(ascii.find("| a"), std::string::npos);
    const std::string csv = t.to_csv();
    EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
    EXPECT_NE(csv.find("\"q\"\"z\""), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
    EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, NumFormatting) {
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Stats, MapeBasics) {
    EXPECT_NEAR(mape({1.1, 0.9}, {1.0, 1.0}), 10.0, 1e-9);
    EXPECT_NEAR(mape({2.0}, {1.0}), 100.0, 1e-9);
    EXPECT_THROW(mape({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Stats, MapeSkipsZeroTruth) {
    EXPECT_NEAR(mape({5.0, 1.1}, {0.0, 1.0}), 10.0, 1e-9);
}

TEST(Stats, MeanStdRmse) {
    EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, Popcount) {
    // The SWAR helper must agree with std::popcount on every word tried.
    static_assert(popcount32(0b1011u) == 3);
    EXPECT_EQ(popcount32(0u), 0);
    EXPECT_EQ(popcount32(0xffffffffu), 32);
    for (int b = 0; b < 32; ++b) {
        const std::uint32_t bit = 1u << b;
        EXPECT_EQ(popcount32(bit), 1) << b;
        EXPECT_EQ(popcount32(~bit), 31) << b;
    }
    Rng rng(20220314);
    int mismatches = 0;
    for (int i = 0; i < (1 << 20); ++i) {
        const std::uint32_t w = rng.next_u32();
        if (popcount32(w) != std::popcount(w) && ++mismatches <= 5)
            ADD_FAILURE() << "popcount32(" << w << ") = " << popcount32(w)
                          << ", std::popcount = " << std::popcount(w);
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(Env, ParsesAndFallsBack) {
    ::setenv("POWERGEAR_TEST_INT", "42", 1);
    EXPECT_EQ(env_int("POWERGEAR_TEST_INT", 7), 42);
    EXPECT_EQ(env_int("POWERGEAR_TEST_UNSET_XYZ", 7), 7);
    ::setenv("POWERGEAR_TEST_BAD", "zz", 1);
    EXPECT_EQ(env_int("POWERGEAR_TEST_BAD", 7), 7);
    ::setenv("POWERGEAR_TEST_DBL", "2.5", 1);
    EXPECT_DOUBLE_EQ(env_double("POWERGEAR_TEST_DBL", 1.0), 2.5);
    EXPECT_EQ(env_string("POWERGEAR_TEST_UNSET_XYZ", "dflt"), "dflt");
    ::unsetenv("POWERGEAR_TEST_INT");
    ::unsetenv("POWERGEAR_TEST_BAD");
    ::unsetenv("POWERGEAR_TEST_DBL");
}

TEST(Env, BenchScaleDefaultsSane) {
    const BenchScale s = bench_scale();
    EXPECT_GT(s.samples_per_dataset, 0);
    EXPECT_GT(s.hidden_dim, 0);
    EXPECT_EQ(s.epochs_dynamic, 2 * s.epochs_total);
    EXPECT_GE(s.folds, 1);
    EXPECT_GT(s.learning_rate, 0.0);
}
