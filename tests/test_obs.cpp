// src/obs observability-layer tests: RAII timer nesting, counter totals
// that are identical at any POWERGEAR_JOBS value, snapshot merging across
// pool worker threads, the powergear-obs-v1 JSON schema round trip, and an
// end-to-end estimate pipeline emitting every expected phase.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/powergear.hpp"
#include "dataset/generator.hpp"
#include "dataset/splits.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "util/parallel.hpp"

using namespace powergear;

namespace {

/// Every test records into the process-global registry; this fixture turns
/// recording on with a clean slate and restores the disabled default so obs
/// state never leaks into unrelated suites.
class ObsTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::set_enabled(true);
        obs::reset();
    }
    void TearDown() override {
        obs::set_enabled(false);
        obs::reset();
        util::set_parallel_jobs(0);
    }
};

/// Spin for a wall-clock floor so scope durations are reliably ordered.
void busy_wait_ms(double ms) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(static_cast<long>(ms * 1e3));
    while (std::chrono::steady_clock::now() < until) {
    }
}

TEST_F(ObsTest, ScopeRecordsCallAndDuration) {
    {
        const obs::Scope s(obs::Phase::GraphGen);
        busy_wait_ms(1.0);
    }
    const obs::Report rep = obs::snapshot();
    ASSERT_EQ(rep.phases.count("graphgen"), 1u);
    const obs::PhaseStats& st = rep.phases.at("graphgen");
    EXPECT_EQ(st.calls, 1u);
    EXPECT_GE(st.total_s, 1e-3);
    EXPECT_GE(st.p50_ms, 1.0);
    EXPECT_LE(st.p50_ms, st.p95_ms);
    EXPECT_LE(st.p95_ms, st.max_ms);
    EXPECT_GT(rep.wall_s, 0.0);
}

TEST_F(ObsTest, TimerNestingRecordsBothSpans) {
    {
        const obs::Scope outer(obs::Phase::DatasetGen);
        busy_wait_ms(1.0);
        {
            const obs::Scope inner(obs::Phase::HlsSchedule);
            busy_wait_ms(1.0);
        }
        busy_wait_ms(0.5);
    }
    const obs::Report rep = obs::snapshot();
    ASSERT_EQ(rep.phases.count("dataset_gen"), 1u);
    ASSERT_EQ(rep.phases.count("hls_schedule"), 1u);
    // Outer scopes time their full span, inner spans included.
    EXPECT_GT(rep.phases.at("dataset_gen").total_s,
              rep.phases.at("hls_schedule").total_s);
    EXPECT_EQ(rep.phases.at("dataset_gen").calls, 1u);
    EXPECT_EQ(rep.phases.at("hls_schedule").calls, 1u);
}

TEST_F(ObsTest, SamePhaseNestsWithoutLoss) {
    {
        const obs::Scope a(obs::Phase::SimTrace);
        const obs::Scope b(obs::Phase::SimTrace);
    }
    EXPECT_EQ(obs::snapshot().phases.at("sim_trace").calls, 2u);
}

TEST_F(ObsTest, CountersAccumulate) {
    obs::add(obs::Phase::EstimateBatch, "estimates", 3);
    obs::add(obs::Phase::EstimateBatch, "estimates", 4);
    obs::add(obs::Phase::EstimateBatch, "other");
    const obs::Report rep = obs::snapshot();
    const auto& counters = rep.phases.at("estimate_batch").counters;
    EXPECT_EQ(counters.at("estimates"), 7u);
    EXPECT_EQ(counters.at("other"), 1u);
}

TEST_F(ObsTest, DisabledRecordsNothing) {
    obs::set_enabled(false);
    {
        const obs::Scope s(obs::Phase::GraphGen);
        obs::add(obs::Phase::GraphGen, "nodes", 99);
    }
    EXPECT_TRUE(obs::snapshot().phases.empty());
}

TEST_F(ObsTest, SnapshotMergesWorkerThreadSinks) {
    constexpr std::size_t kTasks = 64;
    util::set_parallel_jobs(4);
    util::parallel_for(kTasks, [](std::size_t i) {
        const obs::Scope s(obs::Phase::EstimateBatch);
        obs::add(obs::Phase::EstimateBatch, "estimates", i);
    });
    const obs::Report rep = obs::snapshot();
    const obs::PhaseStats& st = rep.phases.at("estimate_batch");
    EXPECT_EQ(st.calls, kTasks);
    // sum 0..63
    EXPECT_EQ(st.counters.at("estimates"), kTasks * (kTasks - 1) / 2);
}

// The determinism contract extends to observability: counter totals are
// per-task sums, so POWERGEAR_JOBS=1 and =4 must agree bit-for-bit (scope
// call counts too; only wall-clock durations may differ).
TEST_F(ObsTest, CounterTotalsIdenticalAcrossJobCounts) {
    dataset::GeneratorOptions gen;
    gen.samples_per_dataset = 6;
    gen.problem_size = 8;

    auto run_at = [&](int jobs) {
        util::set_parallel_jobs(jobs);
        obs::reset();
        (void)dataset::generate_dataset("atax", gen);
        return obs::snapshot();
    };
    const obs::Report serial = run_at(1);
    const obs::Report fanned = run_at(4);

    ASSERT_FALSE(serial.phases.empty());
    ASSERT_EQ(serial.phases.size(), fanned.phases.size());
    for (const auto& [name, st] : serial.phases) {
        ASSERT_EQ(fanned.phases.count(name), 1u) << name;
        const obs::PhaseStats& other = fanned.phases.at(name);
        EXPECT_EQ(st.calls, other.calls) << name;
        EXPECT_EQ(st.counters, other.counters) << name;
    }
    // The generator phases all fired.
    EXPECT_EQ(serial.phases.count("dataset_gen"), 1u);
    EXPECT_EQ(serial.phases.count("hls_schedule"), 1u);
    EXPECT_EQ(serial.phases.count("sim_trace"), 1u);
    EXPECT_EQ(serial.phases.count("graphgen"), 1u);
    EXPECT_EQ(serial.phases.at("dataset_gen").counters.at("samples"), 6u);
}

TEST_F(ObsTest, ReportJsonRoundTrip) {
    obs::Report rep;
    rep.wall_s = 1.5;
    rep.jobs = 4;
    obs::PhaseStats st;
    st.calls = 12;
    st.total_s = 0.25;
    st.p50_ms = 18.5;
    st.p95_ms = 30.25;
    st.max_ms = 42.125;
    st.counters["estimates"] = 240;
    st.counters["weird name \"quoted\""] = 1;
    rep.phases["estimate_batch"] = st;

    const std::string json = rep.to_json();
    const obs::JsonValue back = obs::JsonValue::parse(json);
    EXPECT_EQ(back.at("schema").as_string(), "powergear-obs-v1");
    EXPECT_DOUBLE_EQ(back.at("wall_s").as_number(), rep.wall_s);
    EXPECT_EQ(back.at("jobs").as_number(), rep.jobs);
    ASSERT_EQ(back.at("phases").as_object().size(), 1u);
    const obs::JsonValue& bst = back.at("phases").at("estimate_batch");
    EXPECT_EQ(bst.at("calls").as_number(), static_cast<double>(st.calls));
    EXPECT_DOUBLE_EQ(bst.at("total_s").as_number(), st.total_s);
    EXPECT_DOUBLE_EQ(bst.at("p50_ms").as_number(), st.p50_ms);
    EXPECT_DOUBLE_EQ(bst.at("p95_ms").as_number(), st.p95_ms);
    EXPECT_DOUBLE_EQ(bst.at("max_ms").as_number(), st.max_ms);
    std::map<std::string, std::uint64_t> counters;
    for (const auto& [name, v] : bst.at("counters").as_object())
        counters[name] = static_cast<std::uint64_t>(v.as_number());
    EXPECT_EQ(counters, st.counters);
    // Rates are derived: each counter over the phase's total time.
    EXPECT_DOUBLE_EQ(bst.at("rates_per_s").at("estimates").as_number(),
                     240 / 0.25);
    // Canonical dump: re-serializing the parsed document reproduces the
    // exact bytes (sorted keys, shortest round-trip numbers).
    EXPECT_EQ(back.dump(2), json);
}

TEST_F(ObsTest, WriteReportFileParsesBack) {
    obs::add(obs::Phase::Dse, "candidates", 5);
    const obs::Report rep = obs::snapshot();
    const std::string path = ::testing::TempDir() + "obs_report.json";
    ASSERT_TRUE(rep.write(path));
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    const obs::JsonValue back = obs::JsonValue::parse(text);
    EXPECT_EQ(
        back.at("phases").at("dse").at("counters").at("candidates").as_number(),
        5.0);
}

TEST(ObsJson, ParserHandlesEscapesAndNesting) {
    const obs::JsonValue v = obs::JsonValue::parse(
        R"({"a": [1, -2.5e2, "x\nyA"], "b": {"c": true, "d": null}})");
    EXPECT_EQ(v.at("a").as_array()[0].as_number(), 1.0);
    EXPECT_EQ(v.at("a").as_array()[1].as_number(), -250.0);
    EXPECT_EQ(v.at("a").as_array()[2].as_string(), "x\nyA");
    EXPECT_TRUE(v.at("b").at("c").as_bool());
    EXPECT_EQ(v.at("b").at("d").kind(), obs::JsonValue::Kind::Null);
}

TEST(ObsJson, ParserRejectsMalformedInput) {
    EXPECT_THROW(obs::JsonValue::parse("{"), std::runtime_error);
    EXPECT_THROW(obs::JsonValue::parse("{} extra"), std::runtime_error);
    EXPECT_THROW(obs::JsonValue::parse("{\"a\": 1,}"), std::runtime_error);
    EXPECT_THROW(obs::JsonValue::parse("[1 2]"), std::runtime_error);
    EXPECT_THROW(obs::JsonValue::parse("\"open"), std::runtime_error);
}

// Library-level integration: the full train -> estimate_batch pipeline with
// metrics on emits every phase the CLI's `estimate --metrics` documents.
TEST_F(ObsTest, EstimatePipelineEmitsAllPhases) {
    dataset::GeneratorOptions gen;
    gen.samples_per_dataset = 6;
    gen.problem_size = 8;
    std::vector<dataset::Dataset> suite;
    suite.push_back(dataset::generate_dataset("atax", gen));
    suite.push_back(dataset::generate_dataset("bicg", gen));

    core::PowerGear::Options opts;
    opts.kind = dataset::PowerKind::Dynamic;
    opts.hidden = 4;
    opts.epochs = 2;
    opts.folds = 2;
    opts.seeds = 1;
    core::PowerGear pg(opts);
    pg.fit(dataset::pool_except(suite, 1));
    const std::vector<core::Estimate> ests =
        pg.estimate_batch(dataset::pool_of(suite[1]));
    ASSERT_EQ(ests.size(), 6u);

    const obs::Report rep = obs::snapshot();
    for (const char* phase : {"dataset_gen", "hls_schedule", "sim_trace",
                              "graphgen", "ensemble_fit", "estimate_batch"})
        EXPECT_EQ(rep.phases.count(phase), 1u) << phase;
    EXPECT_EQ(rep.phases.at("estimate_batch").counters.at("estimates"), 6u);
    EXPECT_EQ(rep.phases.at("ensemble_fit").counters.at("members_trained"), 2u);
    // Throughput is derivable: the JSON carries rates_per_s.
    const std::string json = rep.to_json();
    EXPECT_NE(json.find("rates_per_s"), std::string::npos);
    EXPECT_NE(json.find("\"estimates\""), std::string::npos);
}

} // namespace
