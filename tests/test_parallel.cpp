// util/parallel runtime tests plus the cross-cutting determinism suite: for
// a fixed seed, POWERGEAR_JOBS=1 and POWERGEAR_JOBS=4 must produce
// bit-identical trained weights, estimates and dataset labels.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/powergear.hpp"
#include "dataset/generator.hpp"
#include "dataset/splits.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace powergear;

namespace {

/// Run fn under a forced job count, restoring the env-resolved default even
/// when fn throws.
template <typename Fn>
auto with_jobs(int jobs, Fn&& fn) {
    util::set_parallel_jobs(jobs);
    struct Restore {
        ~Restore() { util::set_parallel_jobs(0); }
    } restore;
    return fn();
}

dataset::GeneratorOptions tiny_gen() {
    dataset::GeneratorOptions o;
    o.samples_per_dataset = 8;
    o.problem_size = 8;
    return o;
}

core::PowerGear::Options tiny_opts() {
    core::PowerGear::Options o;
    o.kind = dataset::PowerKind::Dynamic;
    o.epochs = 8;
    o.folds = 2;
    o.seeds = 2;
    o.learning_rate = 2e-3;
    return o;
}

/// Bit-exact fingerprint of a model freshly trained under `jobs` workers:
/// train, save (model artifact), slurp the file back.
std::string train_fingerprint(const std::vector<dataset::Dataset>& suite,
                              int jobs, const std::string& path) {
    return with_jobs(jobs, [&] {
        core::PowerGear pg(tiny_opts());
        pg.fit(dataset::pool_except(suite, 1));
        pg.save(path);
        std::ifstream is(path);
        std::stringstream buf;
        buf << is.rdbuf();
        std::remove(path.c_str());
        return buf.str();
    });
}

} // namespace

// --- runtime primitives -----------------------------------------------------

TEST(ParallelRuntime, CoversEveryIndexExactlyOnce) {
    with_jobs(4, [] {
        std::vector<std::atomic<int>> hits(257);
        for (auto& h : hits) h = 0;
        util::parallel_for(hits.size(),
                           [&](std::size_t i) { hits[i].fetch_add(1); });
        for (auto& h : hits) EXPECT_EQ(h.load(), 1);
        return 0;
    });
}

TEST(ParallelRuntime, MapPreservesOrder) {
    const std::vector<int> out = with_jobs(4, [] {
        return util::parallel_map<int>(
            1000, [](std::size_t i) { return static_cast<int>(i * i); });
    });
    ASSERT_EQ(out.size(), 1000u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ParallelRuntime, NestedFanOutRunsInlineWithoutDeadlock) {
    const int total = with_jobs(4, [] {
        std::atomic<int> count{0};
        util::parallel_for(8, [&](std::size_t) {
            util::parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
        });
        return count.load();
    });
    EXPECT_EQ(total, 64);
}

TEST(ParallelRuntime, LowestIndexExceptionWins) {
    with_jobs(4, [] {
        try {
            util::parallel_for(64, [](std::size_t i) {
                if (i % 2 == 1)
                    throw std::runtime_error("task " + std::to_string(i));
            });
            ADD_FAILURE() << "exception swallowed";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "task 1");
        }
        return 0;
    });
}

TEST(ParallelRuntime, TinyFanOutsSurviveCompletionRaceStress) {
    // Many n=2 fan-outs: one helper task each, so the helper's completion
    // signal races the submitter's return on every call. The fan-out state
    // lives on the submitter's stack; a helper still touching it after the
    // submitter returned would corrupt memory or abort. Results must stay
    // bit-identical to a serial run.
    constexpr int kCalls = 20000;
    auto run = [] {
        std::vector<std::uint64_t> sums;
        sums.reserve(kCalls);
        for (int c = 0; c < kCalls; ++c) {
            const std::vector<std::uint64_t> out =
                util::parallel_map<std::uint64_t>(2, [c](std::size_t i) {
                    return util::hash_mix(static_cast<std::uint64_t>(c), i);
                });
            sums.push_back(out[0] ^ (out[1] * 3));
        }
        return sums;
    };
    const std::vector<std::uint64_t> serial = with_jobs(1, run);
    for (const int jobs : {2, 4})
        EXPECT_EQ(with_jobs(jobs, run), serial) << "jobs " << jobs;
}

TEST(ParallelRuntime, SerialModeNeedsNoPool) {
    with_jobs(1, [] {
        std::vector<int> order;
        util::parallel_for(5, [&](std::size_t i) {
            order.push_back(static_cast<int>(i)); // safe: serial by contract
        });
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
        return 0;
    });
}

TEST(ParallelRuntime, JobCountResolvesAndOverrides) {
    util::set_parallel_jobs(3);
    EXPECT_EQ(util::parallel_jobs(), 3);
    util::set_parallel_jobs(0); // back to POWERGEAR_JOBS / hardware
    EXPECT_GE(util::parallel_jobs(), 1);
}

// --- determinism suite: jobs=1 vs jobs=4 ------------------------------------

TEST(Determinism, DatasetLabelsBitIdenticalAcrossJobCounts) {
    const dataset::Dataset serial =
        with_jobs(1, [] { return dataset::generate_dataset("atax", tiny_gen()); });
    const dataset::Dataset parallel =
        with_jobs(4, [] { return dataset::generate_dataset("atax", tiny_gen()); });
    ASSERT_EQ(serial.size(), parallel.size());
    for (int i = 0; i < serial.size(); ++i) {
        const auto& a = serial.samples[static_cast<std::size_t>(i)];
        const auto& b = parallel.samples[static_cast<std::size_t>(i)];
        EXPECT_EQ(a.design_index, b.design_index);
        EXPECT_EQ(a.directives.to_string(), b.directives.to_string());
        // Labels and features must match to the bit, not approximately.
        EXPECT_EQ(a.total_power_w, b.total_power_w);
        EXPECT_EQ(a.dynamic_power_w, b.dynamic_power_w);
        EXPECT_EQ(a.static_power_w, b.static_power_w);
        EXPECT_EQ(a.latency_cycles, b.latency_cycles);
        EXPECT_EQ(a.metadata, b.metadata);
        EXPECT_EQ(a.hlpow_feats, b.hlpow_feats);
        ASSERT_EQ(a.tensors.x.size(), b.tensors.x.size());
        EXPECT_EQ(0, std::memcmp(a.tensors.x.data(), b.tensors.x.data(),
                                 a.tensors.x.size() * sizeof(float)));
    }
}

TEST(Determinism, TrainedWeightsAndEstimatesBitIdenticalAcrossJobCounts) {
    std::vector<dataset::Dataset> suite;
    for (const char* k : {"gemm", "atax"})
        suite.push_back(dataset::generate_dataset(k, tiny_gen()));

    const std::string serial_w = train_fingerprint(suite, 1, "det_serial.pgm");
    const std::string parallel_w =
        train_fingerprint(suite, 4, "det_parallel.pgm");
    ASSERT_FALSE(serial_w.empty());
    EXPECT_EQ(serial_w, parallel_w)
        << "trained weights differ across job counts";

    // Estimates from a shared trained model are also bit-identical.
    core::PowerGear pg(tiny_opts());
    pg.fit(dataset::pool_except(suite, 1));
    const core::SamplePool test = dataset::pool_of(suite[1]);
    const std::vector<core::Estimate> serial_est =
        with_jobs(1, [&] { return pg.estimate_batch(test); });
    const std::vector<core::Estimate> parallel_est =
        with_jobs(4, [&] { return pg.estimate_batch(test); });
    ASSERT_EQ(serial_est.size(), parallel_est.size());
    for (std::size_t i = 0; i < serial_est.size(); ++i) {
        EXPECT_EQ(serial_est[i].watts, parallel_est[i].watts);
        EXPECT_EQ(serial_est[i].member_spread, parallel_est[i].member_spread);
    }
    const double serial_mape =
        with_jobs(1, [&] { return pg.evaluate_mape(test); });
    const double parallel_mape =
        with_jobs(4, [&] { return pg.evaluate_mape(test); });
    EXPECT_EQ(serial_mape, parallel_mape);
}
