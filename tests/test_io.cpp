// Artifact I/O and pipeline-cache tests: container framing, per-stage
// round-trip bit-exactness, corrupt/truncated/mismatched-version rejection,
// cache hit/miss/corrupt accounting and cold-vs-warm determinism at
// multiple POWERGEAR_JOBS values.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/powergear.hpp"
#include "dataset/generator.hpp"
#include "dataset/splits.hpp"
#include "io/cache.hpp"
#include "io/manifest.hpp"
#include "io/serial.hpp"
#include "kernels/polybench.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "sim/stimulus.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace powergear;

namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory, removed on destruction.
struct TempDir {
    explicit TempDir(const std::string& tag)
        : path((fs::path(::testing::TempDir()) /
                ("powergear_io_" + tag +
                 std::to_string(::getpid())))
                   .string()) {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    std::string file(const std::string& name) const {
        return (fs::path(path) / name).string();
    }
    std::string path;
};

/// Expect `fn()` to throw std::runtime_error whose message contains `what`.
template <typename Fn>
void expect_throw_containing(Fn&& fn, const std::string& what) {
    try {
        fn();
        FAIL() << "expected std::runtime_error containing '" << what << "'";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << "message was: " << e.what();
    }
}

dataset::GeneratorOptions quick_opts(int samples, const std::string& cache = "") {
    dataset::GeneratorOptions o;
    o.samples_per_dataset = samples;
    o.problem_size = 6;
    o.cache_dir = cache;
    return o;
}

void expect_tensors_bitexact(const gnn::GraphTensors& a,
                             const gnn::GraphTensors& b) {
    ASSERT_EQ(a.num_nodes, b.num_nodes);
    ASSERT_EQ(a.x.rows(), b.x.rows());
    ASSERT_EQ(a.x.cols(), b.x.cols());
    for (int r = 0; r < a.x.rows(); ++r)
        for (int c = 0; c < a.x.cols(); ++c)
            EXPECT_EQ(a.x.at(r, c), b.x.at(r, c));
    ASSERT_EQ(a.metadata.cols(), b.metadata.cols());
    for (int c = 0; c < a.metadata.cols(); ++c)
        EXPECT_EQ(a.metadata.at(0, c), b.metadata.at(0, c));
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
}

void expect_samples_bitexact(const dataset::Sample& a,
                             const dataset::Sample& b) {
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.design_index, b.design_index);
    EXPECT_EQ(a.directives.to_string(), b.directives.to_string());
    EXPECT_EQ(a.graph, b.graph);
    EXPECT_EQ(a.metadata, b.metadata);
    EXPECT_EQ(a.hlpow_feats, b.hlpow_feats);
    EXPECT_EQ(a.total_power_w, b.total_power_w);
    EXPECT_EQ(a.dynamic_power_w, b.dynamic_power_w);
    EXPECT_EQ(a.static_power_w, b.static_power_w);
    EXPECT_EQ(a.latency_cycles, b.latency_cycles);
    EXPECT_EQ(a.vivado_total_raw, b.vivado_total_raw);
    EXPECT_EQ(a.vivado_dynamic_raw, b.vivado_dynamic_raw);
    expect_tensors_bitexact(a.tensors, b.tensors);
}

} // namespace

// --- container framing -------------------------------------------------------

TEST(Artifact, FrameRoundTripPreservesPayloadAndHeader) {
    const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 42};
    const std::vector<std::uint8_t> file = io::frame("sim", 1, payload);
    ASSERT_EQ(file.size(), io::kHeaderSize + payload.size());
    EXPECT_EQ(std::memcmp(file.data(), "PGART\0v1", 8), 0); // the magic

    io::ArtifactInfo info;
    const std::vector<std::uint8_t> back = io::unframe(file, "sim", 1, &info);
    EXPECT_EQ(back, payload);
    EXPECT_EQ(info.stage, "sim");
    EXPECT_EQ(info.payload_version, 1u);
    EXPECT_EQ(info.payload_size, payload.size());
    EXPECT_EQ(info.checksum, io::fnv1a(payload.data(), payload.size()));
}

TEST(Artifact, UnframeRejectsMalformedFilesWithDiagnostics) {
    const std::vector<std::uint8_t> good = io::frame("sim", 1, {9, 9, 9});

    std::vector<std::uint8_t> short_file(good.begin(), good.begin() + 10);
    expect_throw_containing([&] { io::unframe(short_file, "sim", 1); },
                            "shorter than");

    std::vector<std::uint8_t> bad_magic = good;
    bad_magic[0] = 'X';
    expect_throw_containing([&] { io::unframe(bad_magic, "sim", 1); },
                            "bad magic");

    expect_throw_containing([&] { io::unframe(good, "sample", 1); },
                            "stage mismatch");

    expect_throw_containing([&] { io::unframe(good, "sim", 2); },
                            "version 1 unsupported");

    std::vector<std::uint8_t> truncated = good;
    truncated.pop_back();
    expect_throw_containing([&] { io::unframe(truncated, "sim", 1); },
                            "payload size mismatch");

    std::vector<std::uint8_t> corrupt = good;
    corrupt.back() ^= 0xff;
    expect_throw_containing([&] { io::unframe(corrupt, "sim", 1); },
                            "checksum mismatch");

    // The retired pre-artifact text model format is just another malformed
    // file: rejected by the frame check, and by PowerGear::load.
    const std::string text = "powergear-ensemble 1 3\npowergear-model 1\n"
                             "config 0 40 4 10 16 3 0.2 0.0005 1 1 1 1 1 1\n";
    const std::vector<std::uint8_t> text_file(text.begin(), text.end());
    expect_throw_containing([&] { io::unframe(text_file, "model", 1); },
                            "bad magic");
    TempDir tmp("text_model");
    {
        std::ofstream f(tmp.file("m.txt"), std::ios::binary);
        f.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    core::PowerGear pg(core::PowerGear::Options{});
    EXPECT_THROW(pg.load(tmp.file("m.txt")), std::runtime_error);
    EXPECT_EQ(pg.num_members(), 0);
}

TEST(Artifact, HasherSeparatesTypesAndBoundaries) {
    // Same raw bytes, different field types or boundaries => different keys.
    EXPECT_NE(io::Hasher().feed(std::uint64_t{1}).value(),
              io::Hasher().feed(true).feed(std::uint64_t{0}).value());
    EXPECT_NE(io::Hasher().feed(std::string("ab")).feed(std::string("c")).value(),
              io::Hasher().feed(std::string("a")).feed(std::string("bc")).value());
    EXPECT_NE(io::Hasher().feed(1.0).value(),
              io::Hasher().feed(std::uint64_t{0x3ff0000000000000ull}).value());
}

// --- per-stage round trips ---------------------------------------------------

TEST(ArtifactStages, TraceSaveLoadIsBitExact) {
    TempDir tmp("trace");
    const ir::Function fn = kernels::build_polybench("bicg", 6);
    const sim::Trace trace = sim::simulate(fn, sim::StimulusProfile{});

    io::write_file_atomic(tmp.file("t.art"),
                          io::frame(io::kStageSim, io::kSimPayloadVersion,
                                    io::encode_trace(trace)));
    const sim::Trace back = io::decode_trace(
        io::unframe(*io::read_file(tmp.file("t.art")), io::kStageSim,
                    io::kSimPayloadVersion));
    EXPECT_EQ(back.executed_ops, trace.executed_ops);
    EXPECT_EQ(back.values, trace.values);
}

TEST(ArtifactStages, GraphDecodeRejectsNonFiniteFeatures) {
    const dataset::Dataset ds = dataset::generate_dataset("atax", quick_opts(1));
    dataset::Sample s = ds.samples.front();
    ASSERT_FALSE(s.graph.x.empty());
    s.graph.x.front() = std::nanf(""); // a checksum-valid frame around NaN data
    const std::vector<std::uint8_t> file = io::frame(
        io::kStageSample, io::kSamplePayloadVersion, io::encode_sample(s));
    // The graph validator (src/analysis-backed Graph::valid), not the
    // checksum, must reject it: the frame itself is internally consistent.
    expect_throw_containing(
        [&] {
            io::decode_sample(io::unframe(file, io::kStageSample,
                                          io::kSamplePayloadVersion));
        },
        "invalid graph payload");
}

TEST(ArtifactStages, GraphDecodeRejectsImplausibleCounts) {
    const dataset::Dataset ds = dataset::generate_dataset("atax", quick_opts(1));
    const graphgen::Graph& g = ds.samples.front().graph;
    std::vector<std::uint8_t> payload = io::encode_sample(ds.samples.front());
    // The graph starts with num_nodes (i32), node_dim (i32) and the
    // node-feature count (u64); find it inside the sample payload.
    io::Writer head;
    head.i32(g.num_nodes);
    head.i32(g.node_dim);
    head.u64(g.x.size());
    const std::vector<std::uint8_t> needle = head.take();
    const auto at = std::search(payload.begin(), payload.end(),
                                needle.begin(), needle.end());
    ASSERT_NE(at, payload.end());
    // Corrupt the count to a huge value; the decoder must fail on the
    // count, not attempt a multi-GB allocation.
    *(at + 8 + 7) = 0x7f;
    expect_throw_containing([&] { io::decode_sample(payload); }, "count");
}

TEST(ArtifactStages, SampleSaveLoadIsBitExact) {
    TempDir tmp("sample");
    const dataset::Dataset ds = dataset::generate_dataset("gemm", quick_opts(2));
    for (const dataset::Sample& s : ds.samples) {
        const std::string path = tmp.file("s.art");
        io::write_file_atomic(path, io::frame(io::kStageSample,
                                              io::kSamplePayloadVersion,
                                              io::encode_sample(s)));
        const dataset::Sample back = io::decode_sample(
            io::unframe(*io::read_file(path), io::kStageSample,
                        io::kSamplePayloadVersion));
        expect_samples_bitexact(s, back);
    }
}

TEST(ArtifactStages, EnsembleSaveLoadIsBitExact) {
    TempDir tmp("model");
    std::vector<dataset::Dataset> suite;
    suite.push_back(dataset::generate_dataset("atax", quick_opts(4)));
    suite.push_back(dataset::generate_dataset("bicg", quick_opts(4)));

    core::PowerGear::Options o;
    o.epochs = 2;
    o.folds = 2;
    o.hidden = 4;
    o.layers = 1;
    core::PowerGear pg(o);
    pg.fit(dataset::pool_except(suite, 1));

    // Binary artifact round trip through the public save/load.
    pg.save(tmp.file("m.art"));
    core::PowerGear pg2(o);
    pg2.load(tmp.file("m.art"));
    EXPECT_EQ(pg2.num_members(), pg.num_members());
    for (const dataset::Sample& s : suite[1].samples)
        EXPECT_EQ(pg.estimate(s), pg2.estimate(s)); // bit-exact weights

    expect_throw_containing(
        [&] { io::load_ensemble_file(tmp.file("missing.art")); },
        "cannot read");
}

// --- content-addressed cache -------------------------------------------------

TEST(Cache, DisabledCacheMissesAndDropsStores) {
    const io::Cache cache;
    EXPECT_FALSE(cache.enabled());
    const std::vector<std::uint8_t> payload = {1, 2, 3};
    // Disabled store still reports the chaining checksum, but writes nothing.
    EXPECT_EQ(cache.store("sim", 7, 1, payload),
              io::fnv1a(payload.data(), payload.size()));
    EXPECT_FALSE(cache.load("sim", 7, 1).has_value());
    EXPECT_FALSE(cache.peek_checksum("sim", 7, 1).has_value());
    EXPECT_TRUE(cache.stats().empty());
}

TEST(Cache, StoreLoadPeekStatsClear) {
    TempDir tmp("cache");
    const io::Cache cache(tmp.path);
    const std::vector<std::uint8_t> payload = {5, 6, 7, 8};

    EXPECT_FALSE(cache.load("sim", 1, 1).has_value()); // cold miss
    const std::uint64_t checksum = cache.store("sim", 1, 1, payload);
    EXPECT_EQ(cache.load("sim", 1, 1), payload);
    EXPECT_EQ(cache.peek_checksum("sim", 1, 1), checksum);
    // Same key, different stage or payload version: miss, not a mix-up.
    EXPECT_FALSE(cache.load("sample", 1, 1).has_value());
    EXPECT_FALSE(cache.load("sim", 1, 2).has_value());

    cache.store("sample", 2, 1, {9});
    const std::vector<io::Cache::StageStats> stats = cache.stats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].stage, "sample");
    EXPECT_EQ(stats[0].files, 1u);
    EXPECT_EQ(stats[1].stage, "sim");
    EXPECT_EQ(stats[1].files, 1u);
    EXPECT_EQ(stats[1].bytes, io::kHeaderSize + payload.size());

    EXPECT_EQ(cache.clear(), 2u);
    EXPECT_FALSE(cache.load("sim", 1, 1).has_value());
    EXPECT_TRUE(cache.stats().empty() ||
                cache.stats().front().files == 0u);
}

TEST(Cache, CorruptEntryIsAMissNotAFailure) {
    TempDir tmp("corrupt");
    const io::Cache cache(tmp.path);
    cache.store("sim", 3, 1, {1, 2, 3, 4});
    { // flip one payload byte on disk
        std::fstream f(cache.path_of("sim", 3),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(io::kHeaderSize));
        f.put('\xee');
    }
    obs::set_enabled(true);
    obs::reset();
    EXPECT_FALSE(cache.load("sim", 3, 1).has_value());
    const obs::Report rep = obs::snapshot();
    obs::set_enabled(false);
    const auto it = rep.phases.find("cache");
    ASSERT_NE(it, rep.phases.end());
    ASSERT_TRUE(it->second.counters.count("corrupt"));
    EXPECT_GE(it->second.counters.at("corrupt"), 1u);
    ASSERT_TRUE(it->second.counters.count("misses"));
}

// --- cold vs. warm pipeline determinism --------------------------------------

TEST(PipelineCache, WarmRunIsBitIdenticalAcrossJobCounts) {
    TempDir tmp("pipeline");
    const int prior_jobs = util::parallel_jobs();

    // Cold reference, no cache, serial.
    util::set_parallel_jobs(1);
    const dataset::Dataset reference =
        dataset::generate_dataset("gemm", quick_opts(5));

    // Cold populate + warm reload, at jobs=1 and jobs=4, all through the
    // same cache directory: every variant must be bit-identical.
    for (const int jobs : {1, 4}) {
        util::set_parallel_jobs(jobs);
        const dataset::Dataset cold =
            dataset::generate_dataset("gemm", quick_opts(5, tmp.path));
        const dataset::Dataset warm =
            dataset::generate_dataset("gemm", quick_opts(5, tmp.path));
        ASSERT_EQ(cold.size(), reference.size());
        ASSERT_EQ(warm.size(), reference.size());
        for (std::size_t i = 0; i < reference.samples.size(); ++i) {
            expect_samples_bitexact(reference.samples[i], cold.samples[i]);
            expect_samples_bitexact(reference.samples[i], warm.samples[i]);
        }
    }
    util::set_parallel_jobs(prior_jobs);
}

TEST(PipelineCache, FitCachedRestoresIdenticalWeights) {
    TempDir tmp("fitcache");
    std::vector<dataset::Dataset> suite;
    suite.push_back(dataset::generate_dataset("atax", quick_opts(4, tmp.path)));
    suite.push_back(dataset::generate_dataset("bicg", quick_opts(4, tmp.path)));

    core::PowerGear::Options o;
    o.epochs = 2;
    o.folds = 2;
    o.hidden = 4;
    o.layers = 1;
    const io::Cache cache(tmp.path);

    core::PowerGear first(o);
    EXPECT_FALSE(first.fit_cached(dataset::pool_except(suite, 1), cache));
    core::PowerGear second(o);
    EXPECT_TRUE(second.fit_cached(dataset::pool_except(suite, 1), cache));
    for (const dataset::Sample& s : suite[1].samples)
        EXPECT_EQ(first.estimate(s), second.estimate(s));

    // Any option change re-keys: no stale hit.
    core::PowerGear::Options o2 = o;
    o2.epochs = 3;
    core::PowerGear third(o2);
    EXPECT_FALSE(third.fit_cached(dataset::pool_except(suite, 1), cache));
}

TEST(PipelineCache, CorruptSampleArtifactFallsBackToRecompute) {
    TempDir tmp("fallback");
    const dataset::Dataset cold =
        dataset::generate_dataset("atax", quick_opts(3, tmp.path));
    // Damage every cached sample artifact; the warm run must silently
    // recompute and still match bit-exactly.
    for (const auto& entry :
         fs::directory_iterator(fs::path(tmp.path) / "sample")) {
        std::fstream f(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(io::kHeaderSize) + 2);
        f.put('\x5a');
        f.put('\xa5');
    }
    const dataset::Dataset warm =
        dataset::generate_dataset("atax", quick_opts(3, tmp.path));
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < cold.samples.size(); ++i)
        expect_samples_bitexact(cold.samples[i], warm.samples[i]);
}

// --- golden artifacts --------------------------------------------------------
// Committed files in tests/golden/ pin the powergear-art-v1 on-disk format.
// If framing or a stage codec drifts, these fail loudly instead of silently
// invalidating every existing cache/model file. Regenerate (after an
// *intentional* format bump, alongside a payload-version bump) with:
//   POWERGEAR_REGEN_GOLDEN=1 build/tests/powergear_tests --gtest_filter='GoldenArtifacts.*'

namespace {

std::string golden_path(const std::string& name) {
    return std::string(POWERGEAR_GOLDEN_DIR) + "/" + name;
}

gnn::Ensemble train_golden_ensemble(const dataset::Dataset& ds) {
    std::vector<const gnn::GraphTensors*> graphs;
    std::vector<float> targets;
    for (const dataset::Sample& s : ds.samples) {
        graphs.push_back(&s.tensors);
        targets.push_back(static_cast<float>(s.total_power_w));
    }
    gnn::EnsembleConfig cfg;
    cfg.model.node_dim = ds.samples[0].tensors.x.cols();
    cfg.model.hidden = 4;
    cfg.model.layers = 1;
    cfg.folds = 1;
    cfg.seeds = 2;
    cfg.epochs = 2;
    cfg.batch_size = 4;
    gnn::Ensemble e;
    e.fit(graphs, targets, cfg);
    return e;
}

} // namespace

TEST(GoldenArtifacts, RegenerateWhenRequested) {
    if (std::getenv("POWERGEAR_REGEN_GOLDEN") == nullptr)
        GTEST_SKIP() << "set POWERGEAR_REGEN_GOLDEN=1 to rewrite tests/golden";
    fs::create_directories(POWERGEAR_GOLDEN_DIR);
    const dataset::Dataset ds = dataset::generate_dataset("gemm", quick_opts(4));
    io::write_file_atomic(golden_path("sample-v1.art"),
                          io::frame(io::kStageSample, io::kSamplePayloadVersion,
                                    io::encode_sample(ds.samples[0])));
    io::save_ensemble_file(golden_path("ensemble-v1.art"),
                           train_golden_ensemble(ds));
}

TEST(GoldenArtifacts, SampleV1StillLoadsBitExactly) {
    const auto file = io::read_file(golden_path("sample-v1.art"));
    ASSERT_TRUE(file.has_value()) << "missing committed golden sample";
    io::ArtifactInfo info;
    const std::vector<std::uint8_t> payload =
        io::unframe(*file, io::kStageSample, io::kSamplePayloadVersion, &info);
    EXPECT_EQ(info.checksum, io::fnv1a(payload.data(), payload.size()));

    const dataset::Sample s = io::decode_sample(payload);
    EXPECT_EQ(s.kernel, "gemm");
    EXPECT_GT(s.total_power_w, 0.0);
    EXPECT_GT(s.graph.num_nodes, 0);
    EXPECT_EQ(s.tensors.num_nodes, s.graph.num_nodes);

    // The encoder must reproduce the committed payload byte-for-byte —
    // decode/encode drift would silently re-key every content-addressed cache.
    EXPECT_EQ(io::encode_sample(s), payload);
}

TEST(GoldenArtifacts, EnsembleV1StillLoadsBitExactly) {
    const auto file = io::read_file(golden_path("ensemble-v1.art"));
    ASSERT_TRUE(file.has_value()) << "missing committed golden ensemble";
    io::ArtifactInfo info;
    const std::vector<std::uint8_t> payload =
        io::unframe(*file, io::kStageModel, io::kModelPayloadVersion, &info);

    const gnn::Ensemble e = io::decode_ensemble(payload);
    EXPECT_EQ(e.num_members(), 2);
    for (gnn::PowerModel* m : e.members()) {
        EXPECT_EQ(m->config().hidden, 4);
        EXPECT_EQ(m->config().layers, 1);
    }
    EXPECT_EQ(io::encode_ensemble(e), payload);
}

// --- seeded byte-flip fuzzing ------------------------------------------------

TEST(ArtifactFuzz, SingleByteFlipsAlwaysRejectCleanly) {
    const dataset::Dataset ds = dataset::generate_dataset("gemm", quick_opts(1));
    const std::vector<std::uint8_t> payload = io::encode_sample(ds.samples[0]);
    const std::vector<std::uint8_t> file =
        io::frame(io::kStageSample, io::kSamplePayloadVersion, payload);
    ASSERT_GT(file.size(), io::kHeaderSize);

    util::Rng rng(0xF1A5);
    for (int i = 0; i < 500; ++i) {
        // First sweep every header byte (each field has its own diagnostic),
        // then random payload positions.
        const std::size_t pos =
            i < static_cast<int>(io::kHeaderSize)
                ? static_cast<std::size_t>(i)
                : io::kHeaderSize +
                      static_cast<std::size_t>(
                          rng.next_double() *
                          static_cast<double>(file.size() - io::kHeaderSize));
        const auto flip =
            static_cast<std::uint8_t>(1 + rng.next_double() * 255.0);

        std::vector<std::uint8_t> corrupt = file;
        corrupt[pos] ^= flip;
        bool rejected = false;
        try {
            const std::vector<std::uint8_t> p = io::unframe(
                corrupt, io::kStageSample, io::kSamplePayloadVersion);
            (void)io::decode_sample(p);
        } catch (const std::runtime_error& e) {
            rejected = true;
            EXPECT_FALSE(std::string(e.what()).empty());
        }
        ASSERT_TRUE(rejected) << "flip 0x" << std::hex << +flip << " at byte "
                              << std::dec << pos
                              << " produced a successful load";
    }
}

TEST(ArtifactFuzz, StageCodecSurvivesRawPayloadCorruption) {
    // Bypass the frame checksum and hit decode_sample directly: corrupted
    // payloads may decode to garbage values, but must never crash (ASan leg)
    // and must only ever fail via a clean exception.
    const dataset::Dataset ds = dataset::generate_dataset("atax", quick_opts(1));
    const std::vector<std::uint8_t> payload = io::encode_sample(ds.samples[0]);
    util::Rng rng(0xC0DEC);
    for (int i = 0; i < 200; ++i) {
        std::vector<std::uint8_t> corrupt = payload;
        const std::size_t pos = static_cast<std::size_t>(
            rng.next_double() * static_cast<double>(corrupt.size()));
        corrupt[pos] ^= static_cast<std::uint8_t>(1 + rng.next_double() * 255.0);
        try {
            (void)io::decode_sample(corrupt);
        } catch (const std::exception&) {
            // Clean rejection is one of the two acceptable outcomes.
        }
    }
}

// --- work-stealing manifest --------------------------------------------------

namespace {

std::vector<std::uint8_t> read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(Manifest, FirstValidClaimWinsAndIsIdempotent) {
    TempDir tmp("manifest");
    const std::string path = tmp.file("sweep.mf");
    io::Manifest w1(path, 1);
    io::Manifest w2(path, 2);

    EXPECT_TRUE(w1.claim(0));
    EXPECT_FALSE(w2.claim(0)); // lost the race: w1's record is first
    EXPECT_TRUE(w1.claim(0));  // re-claiming an owned chunk stays true
    EXPECT_TRUE(w2.claim(1));

    EXPECT_EQ(w1.state(0), io::Manifest::State::Claimed);
    ASSERT_TRUE(w1.owner(0).has_value());
    EXPECT_EQ(*w1.owner(0), 1u);
    ASSERT_TRUE(w1.owner(1).has_value());
    EXPECT_EQ(*w1.owner(1), 2u);
    EXPECT_FALSE(w1.owner(2).has_value());

    w1.complete(0);
    EXPECT_EQ(w2.state(0), io::Manifest::State::Done);
    const auto snap = w2.snapshot(3);
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0], io::Manifest::State::Done);
    EXPECT_EQ(snap[1], io::Manifest::State::Claimed);
    EXPECT_EQ(snap[2], io::Manifest::State::Unclaimed);
}

TEST(Manifest, MissingFileMeansEverythingUnclaimed) {
    TempDir tmp("manifest_empty");
    const io::Manifest m(tmp.file("nothere.mf"), 1);
    EXPECT_EQ(m.state(0), io::Manifest::State::Unclaimed);
    EXPECT_FALSE(m.owner(7).has_value());
    for (const auto s : m.snapshot(4))
        EXPECT_EQ(s, io::Manifest::State::Unclaimed);
}

TEST(ManifestFuzz, ByteFlipsOnlyEverRemoveKnowledge) {
    // Corruption must degrade a record to "invisible" — a chunk's state can
    // drop (Done -> Claimed -> Unclaimed, forcing benign recomputation) but
    // never rise, never crash a reader, and never mint a second owner.
    TempDir tmp("manifest_fuzz");
    const std::string clean_path = tmp.file("clean.mf");
    {
        io::Manifest w1(clean_path, 1);
        io::Manifest w2(clean_path, 2);
        for (std::uint64_t c = 0; c < 8; ++c) (c % 2 ? w2 : w1).claim(c);
        for (std::uint64_t c = 0; c < 4; ++c) (c % 2 ? w2 : w1).complete(c);
    }
    const std::vector<std::uint8_t> clean_bytes = read_bytes(clean_path);
    ASSERT_EQ(clean_bytes.size(), 12 * io::Manifest::kRecordSize);
    const auto clean_states = io::Manifest(clean_path, 9).snapshot(8);

    const std::string fuzz_path = tmp.file("fuzz.mf");
    util::Rng rng(0xF1A5);
    for (int i = 0; i < 500; ++i) {
        // Sweep every byte of the first record, then random positions.
        const std::size_t pos =
            i < static_cast<int>(io::Manifest::kRecordSize)
                ? static_cast<std::size_t>(i)
                : static_cast<std::size_t>(
                      rng.next_double() *
                      static_cast<double>(clean_bytes.size()));
        const auto flip =
            static_cast<std::uint8_t>(1 + rng.next_double() * 255.0);
        auto corrupt = clean_bytes;
        corrupt[pos] ^= flip;
        write_bytes(fuzz_path, corrupt);

        const io::Manifest reader(fuzz_path, 9);
        const auto states = reader.snapshot(8);
        for (std::uint64_t c = 0; c < 8; ++c) {
            EXPECT_LE(static_cast<int>(states[c]),
                      static_cast<int>(clean_states[c]))
                << "flip 0x" << std::hex << +flip << " at byte " << std::dec
                << pos << " upgraded chunk " << c;
            // An owner, if any, is one of the workers that actually wrote a
            // claim — corruption cannot invent a third claimant.
            const auto o = reader.owner(c);
            if (o.has_value()) {
                EXPECT_TRUE(*o == 1 || *o == 2) << *o;
            }
        }
    }

    // Truncated tail (torn final write): the partial record is skipped.
    auto torn = clean_bytes;
    torn.resize(torn.size() - 13);
    write_bytes(fuzz_path, torn);
    const auto torn_states = io::Manifest(fuzz_path, 9).snapshot(8);
    for (std::uint64_t c = 0; c < 8; ++c)
        EXPECT_LE(static_cast<int>(torn_states[c]),
                  static_cast<int>(clean_states[c]));

    // The claim protocol still works on a corrupted file and stays
    // exclusive: no double-claim, whatever the damage did.
    auto corrupt = clean_bytes;
    for (std::size_t r = 0; r < corrupt.size(); r += io::Manifest::kRecordSize)
        corrupt[r + 8] ^= 0xFF; // break every record's chunk field checksum
    write_bytes(fuzz_path, corrupt);
    io::Manifest w1(fuzz_path, 1);
    io::Manifest w2(fuzz_path, 2);
    EXPECT_EQ(w1.state(3), io::Manifest::State::Unclaimed);
    const bool got1 = w1.claim(3);
    const bool got2 = w2.claim(3);
    EXPECT_TRUE(got1);
    EXPECT_FALSE(got2);
}
