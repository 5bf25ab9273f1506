// Perf-regression harness: hand-timed micro-kernel + estimate-batch
// benchmarks with machine-readable results.
//
//   bench_regression [--reps N] [--out FILE] [--jobs N] [--filter SUBSTR]
//
// Runs each benchmark `reps` times (after one warmup + auto-calibration of
// an inner iteration count so every timed run covers >= ~20 ms) and writes
// the results as "powergear-bench-v1" JSON — BENCH_<date>.json by default,
// the schema scripts/bench_gate.py consumes. The gate runs this binary from
// two builds in alternating pairs and compares them; this binary only
// measures.
//
// Timing uses best-of-reps per-iteration wall time: the minimum is the run
// least disturbed by the machine, which is the stable statistic to gate on
// (median and the full run list are recorded for inspection). Benchmarks
// run with a single-threaded pool by default (--jobs to override) so the
// gate measures code, not the runner's core count.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/powergear.hpp"
#include "core/serve/client.hpp"
#include "core/serve/server.hpp"
#include "dataset/generator.hpp"
#include "dataset/splits.hpp"
#include "dse/adrs.hpp"
#include "dse/stream_explorer.hpp"
#include "fpga/netlist.hpp"
#include "fpga/placement.hpp"
#include "gnn/model.hpp"
#include "graphgen/features.hpp"
#include "hls/binding.hpp"
#include "hls/report.hpp"
#include "hls/scheduler.hpp"
#include "kernels/polybench.hpp"
#include "kernels/synthetic.hpp"
#include "nn/kernels_cpu.hpp"
#include "obs/json.hpp"
#include "sim/interpreter.hpp"
#include "sim/stimulus.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

using namespace powergear;

namespace {

struct BenchResult {
    std::string name;
    int iters = 1;                ///< inner iterations per timed run
    std::vector<double> runs_ms;  ///< per-iteration ms, one entry per rep
    double throughput_per_s = 0.0; ///< 0 when the benchmark has no item count

    double best_ms() const {
        return *std::min_element(runs_ms.begin(), runs_ms.end());
    }
    double median_ms() const {
        std::vector<double> s = runs_ms;
        std::sort(s.begin(), s.end());
        return s[s.size() / 2];
    }
};

/// Time `fn` (one logical operation per call): calibrate an inner iteration
/// count so a run lasts >= min_run_ms, then produce `reps` per-iteration
/// timings. `items_per_iter` > 0 additionally derives throughput from the
/// best run.
template <typename Fn>
BenchResult run_bench(const std::string& name, int reps, Fn&& fn,
                      double items_per_iter = 0.0, double min_run_ms = 20.0) {
    BenchResult r;
    r.name = name;
    fn(); // warmup: faults pages, fills caches, triggers lazy init

    util::Timer cal;
    fn();
    const double once_ms = std::max(1e-6, cal.millis());
    r.iters = static_cast<int>(
        std::clamp(min_run_ms / once_ms, 1.0, 100000.0));

    for (int rep = 0; rep < reps; ++rep) {
        util::Timer t;
        for (int i = 0; i < r.iters; ++i) fn();
        r.runs_ms.push_back(t.millis() / r.iters);
    }
    if (items_per_iter > 0.0)
        r.throughput_per_s = items_per_iter / (r.best_ms() * 1e-3);
    std::printf("  %-22s best %10.4f ms  median %10.4f ms  (x%d iters)\n",
                name.c_str(), r.best_ms(), r.median_ms(), r.iters);
    return r;
}

/// The micro-kernel fixture (gemm-16 design), shared setup.
struct Prepared {
    ir::Function fn;
    sim::Trace trace;
    hls::ElabGraph elab;
    hls::Schedule sched;
    hls::Binding binding;
    graphgen::Graph graph;
    gnn::GraphTensors tensors;

    Prepared() : fn(kernels::build_polybench("gemm", 16)) {
        sim::Interpreter interp(fn);
        sim::apply_stimulus(interp, fn, {});
        trace = interp.run();
        const hls::DesignSpace space(fn);
        elab = hls::elaborate(fn, space.point(40 % space.size()));
        sched = hls::schedule(fn, elab);
        binding = hls::bind(fn, elab, sched);
        const sim::ActivityOracle oracle(fn, elab, trace, sched.total_latency);
        graph = graphgen::construct_graph(fn, elab, binding, oracle);
        std::vector<double> metadata(10, 1.0);
        tensors = gnn::GraphTensors::from(graph, metadata);
    }
};

/// NN-training fixture: a ~100-node synthetic kernel graph (the polybench
/// gemm graph has only ~21 nodes, far below the design sizes the estimator
/// targets) so conv_forward/train_epoch measure kernel throughput rather
/// than per-node bookkeeping.
struct TrainFixture {
    gnn::GraphTensors tensors;

    TrainFixture() {
        kernels::SyntheticSpec spec;
        spec.max_depth = 3;
        spec.num_arrays = 6;
        spec.ops_per_body = 40;
        util::Rng rng(99);
        ir::Function fn = kernels::build_synthetic(spec, rng, 1);
        sim::Interpreter interp(fn);
        sim::apply_stimulus(interp, fn, {});
        sim::Trace trace = interp.run();
        const hls::DesignSpace space(fn);
        auto elab = hls::elaborate(fn, space.point(0));
        auto sched = hls::schedule(fn, elab);
        auto binding = hls::bind(fn, elab, sched);
        const sim::ActivityOracle oracle(fn, elab, trace,
                                         sched.total_latency);
        auto graph = graphgen::construct_graph(fn, elab, binding, oracle);
        std::vector<double> metadata(10, 1.0);
        tensors = gnn::GraphTensors::from(graph, metadata);
    }
};

/// Trained-estimator fixture for the estimate_batch benchmark: a tiny but
/// real ensemble (2 folds) over two kernels, evaluated on a third.
struct EstimatorFixture {
    core::PowerGear pg;
    dataset::Dataset eval;

    EstimatorFixture()
        : pg([] {
              core::PowerGear::Options o;
              o.kind = dataset::PowerKind::Dynamic;
              o.hidden = 8;
              o.epochs = 2;
              o.folds = 2;
              o.seeds = 1;
              return o;
          }()) {
        dataset::GeneratorOptions gen;
        gen.samples_per_dataset = 8;
        gen.problem_size = 8;
        std::vector<dataset::Dataset> suite;
        suite.push_back(dataset::generate_dataset("atax", gen));
        suite.push_back(dataset::generate_dataset("bicg", gen));
        pg.fit(dataset::pool_except(suite, suite.size()));
        gen.samples_per_dataset = 24;
        eval = dataset::generate_dataset("mvt", gen);
    }
};

/// Peak resident set (VmHWM) in MiB, 0 when /proc is unavailable.
double peak_rss_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (!f) return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %lf", &kb) == 1) break;
    std::fclose(f);
    return kb / 1024.0;
}

/// Deterministic synthetic scorer for the streaming-DSE benchmark: latency
/// and power are pure hash functions of the space index (a convex-ish
/// trade-off with jitter), so the sweep measures stream + archive + gate
/// machinery, not model inference.
dse::ScoredPoint dse_bench_score(std::uint64_t idx) {
    const double lat = 1.0 + static_cast<double>(
                                 util::hash_mix(idx, 0xB57) % 100000);
    dse::ScoredPoint sp;
    sp.latency = lat;
    sp.power = 20000.0 / lat + util::hash_jitter(0xD5E, idx, 0.05);
    sp.spread = 0.01 + util::hash_jitter(0x5B8, idx, 0.009);
    return sp;
}

std::string today() {
    std::time_t t = std::time(nullptr);
    std::tm tm{};
    localtime_r(&t, &tm);
    char buf[16];
    std::strftime(buf, sizeof buf, "%Y-%m-%d", &tm);
    return buf;
}

obs::JsonValue results_to_json(const std::vector<BenchResult>& results,
                               int reps) {
    obs::JsonValue root = obs::JsonValue::object();
    root.set("schema", obs::JsonValue("powergear-bench-v1"));
    root.set("date", obs::JsonValue(today()));
    root.set("reps", obs::JsonValue(static_cast<std::int64_t>(reps)));
    root.set("jobs",
             obs::JsonValue(static_cast<std::int64_t>(util::parallel_jobs())));
    obs::JsonValue benches = obs::JsonValue::object();
    for (const BenchResult& r : results) {
        obs::JsonValue b = obs::JsonValue::object();
        b.set("unit", obs::JsonValue("ms"));
        b.set("iters", obs::JsonValue(static_cast<std::int64_t>(r.iters)));
        b.set("best_ms", obs::JsonValue(r.best_ms()));
        b.set("median_ms", obs::JsonValue(r.median_ms()));
        obs::JsonValue runs = obs::JsonValue::array();
        for (double ms : r.runs_ms) runs.push_back(obs::JsonValue(ms));
        b.set("runs_ms", std::move(runs));
        if (r.throughput_per_s > 0.0)
            b.set("throughput_per_s", obs::JsonValue(r.throughput_per_s));
        benches.set(r.name, std::move(b));
    }
    root.set("benchmarks", std::move(benches));
    return root;
}

int usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--reps N] [--out FILE] [--jobs N] [--filter SUBSTR]\n"
        "exit codes: 0 ok, 2 bad usage or error\n",
        argv0);
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    int reps = 5;
    int jobs = 1;
    std::string out_path, filter;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_next = i + 1 < argc;
        if (arg == "--reps" && has_next) reps = std::atoi(argv[++i]);
        else if (arg == "--out" && has_next) out_path = argv[++i];
        else if (arg == "--jobs" && has_next) jobs = std::atoi(argv[++i]);
        else if (arg == "--filter" && has_next) filter = argv[++i];
        else return usage(argv[0]);
    }
    if (reps < 1 || jobs < 1) return usage(argv[0]);
    if (out_path.empty()) out_path = "BENCH_" + today() + ".json";
    util::set_parallel_jobs(jobs);

    try {
        std::printf("bench_regression: %d rep%s, jobs=%d\n", reps,
                    reps == 1 ? "" : "s", jobs);
        const Prepared p;
        std::vector<BenchResult> results;
        const auto want = [&](const char* name) {
            return filter.empty() || std::string(name).find(filter) !=
                                         std::string::npos;
        };

        if (want("ir_simulation")) {
            sim::Interpreter interp(p.fn);
            sim::apply_stimulus(interp, p.fn, {});
            results.push_back(run_bench("ir_simulation", reps, [&] {
                auto trace = interp.run();
                if (trace.executed_ops <= 0) std::abort();
            }));
        }
        if (want("schedule_bind"))
            results.push_back(run_bench("schedule_bind", reps, [&] {
                auto sched = hls::schedule(p.fn, p.elab);
                auto binding = hls::bind(p.fn, p.elab, sched);
                if (binding.num_units() <= 0) std::abort();
            }));
        if (want("graph_construction")) {
            const sim::ActivityOracle oracle(p.fn, p.elab, p.trace,
                                             p.sched.total_latency);
            results.push_back(run_bench("graph_construction", reps, [&] {
                auto g = graphgen::construct_graph(p.fn, p.elab, p.binding,
                                                   oracle);
                if (g.num_nodes <= 0) std::abort();
            }));
        }
        if (want("graph_construction_cold"))
            // A fresh oracle per call, as for every new design: times the
            // trace scans that graph_construction's warm memo skips.
            results.push_back(run_bench("graph_construction_cold", reps, [&] {
                const sim::ActivityOracle oracle(p.fn, p.elab, p.trace,
                                                 p.sched.total_latency);
                auto g = graphgen::construct_graph(p.fn, p.elab, p.binding,
                                                   oracle);
                if (g.num_nodes <= 0) std::abort();
            }));
        if (want("placement")) {
            const sim::ActivityOracle oracle(p.fn, p.elab, p.trace,
                                             p.sched.total_latency);
            const fpga::Netlist nl =
                fpga::build_netlist(p.fn, p.elab, p.binding, oracle);
            results.push_back(run_bench("placement", reps, [&] {
                auto placed = fpga::place(nl);
                if (placed.total_hpwl < 0) std::abort();
            }));
        }
        if (want("matmul128")) {
            util::Rng rng(3);
            const nn::Tensor a = nn::Tensor::xavier(128, 128, rng);
            const nn::Tensor b = nn::Tensor::xavier(128, 128, rng);
            results.push_back(run_bench("matmul128", reps, [&] {
                nn::Tensor c(128, 128);
                nn::kernels::matmul(128, 128, 128, a.data(), b.data(),
                                    c.data());
                if (c.rows() != 128) std::abort();
            }));
        }
        if (want("matmul_blocked")) {
            // The raw blocked kernel into a preallocated output: tracks the
            // register-tiled GEMM itself, without matmul128's allocation.
            util::Rng rng(7);
            const nn::Tensor a = nn::Tensor::xavier(128, 128, rng);
            const nn::Tensor b = nn::Tensor::xavier(128, 128, rng);
            nn::Tensor c(128, 128);
            results.push_back(run_bench("matmul_blocked", reps, [&] {
                nn::kernels::matmul(128, 128, 128, a.data(), b.data(),
                                    c.data());
                if (c.at(0, 0) != c.at(0, 0)) std::abort();
            }));
        }
        if (want("matmul_sparse")) {
            // The zero-skip path on the first HEC layer's shape: a 32-graph
            // batch's one-hot node features (2,816 x 33: a class and an
            // opcode one-hot plus one numeric activity value per row, ~90%
            // exact zeros) times a 33 x 16 weight.
            const int m = 2816, k = 33, n = 16;
            util::Rng rng(13);
            nn::Tensor a(m, k);
            for (int r = 0; r < m; ++r) {
                a.at(r, r % 5) = 1.0f;
                a.at(r, 5 + r % 24) = 1.0f;
                a.at(r, 29 + r % 4) = rng.next_float(0.0f, 1.0f);
            }
            const nn::Tensor b = nn::Tensor::xavier(k, n, rng);
            nn::Tensor c(m, n);
            results.push_back(run_bench("matmul_sparse", reps, [&] {
                nn::kernels::matmul(m, k, n, a.data(), b.data(), c.data());
                if (c.at(0, 0) != c.at(0, 0)) std::abort();
            }));
        }
        if (want("conv_forward")) {
            // One HEC conv layer at the paper-adjacent width, tape reused
            // across iterations so the arena is grown once.
            const TrainFixture fx;
            util::Rng rng(11);
            gnn::HecConv conv(fx.tensors.x.cols(), 64,
                              graphgen::Graph::kEdgeDim, true, true, true,
                              rng);
            nn::Tape t;
            results.push_back(run_bench("conv_forward", reps, [&] {
                t.reset();
                const int out =
                    conv.forward(t, fx.tensors, t.input_view(fx.tensors.x));
                if (t.value(out).rows() != fx.tensors.num_nodes) std::abort();
            }));
        }
        if (want("hecgnn_forward")) {
            gnn::ModelConfig cfg;
            cfg.node_dim = p.tensors.x.cols();
            cfg.hidden = 32;
            gnn::PowerModel model(cfg);
            const gnn::GraphTensors* one = &p.tensors;
            const gnn::GraphBatch batch = gnn::GraphBatch::assemble(
                std::span<const gnn::GraphTensors* const>(&one, 1));
            volatile float sink = 0.0f;
            results.push_back(run_bench("hecgnn_forward", reps, [&] {
                nn::Tape t; // fresh per call: times arena growth too
                sink = model.predict_batch(batch, t).front();
            }));
            (void)sink;
        }
        if (want("hecgnn_forward_batch32")) {
            // The dse_sweep inference shape: one kBatchChunk-sized block-
            // diagonal batch of 32 atax designs (~90 nodes each) through
            // the default hidden-16 model, on a warm tape whose arena has
            // reached its high-water mark.
            dataset::GeneratorOptions gen;
            gen.samples_per_dataset = gnn::kBatchChunk;
            gen.problem_size = 16;
            const dataset::Dataset ds = dataset::generate_dataset("atax", gen);
            std::vector<const gnn::GraphTensors*> graphs;
            for (const dataset::Sample& smp : ds.samples)
                graphs.push_back(&smp.tensors);
            gnn::ModelConfig cfg;
            cfg.node_dim = graphs.front()->x.cols();
            gnn::PowerModel model(cfg);
            const gnn::GraphBatch batch = gnn::GraphBatch::assemble(graphs);
            nn::Tape t;
            volatile float sink = 0.0f;
            results.push_back(run_bench(
                "hecgnn_forward_batch32", reps,
                [&] { sink = model.predict_batch(batch, t).front(); },
                static_cast<double>(batch.num_graphs)));
            (void)sink;
        }
        if (want("gen_warm_cache")) {
            // Warm-cache dataset regeneration: one cold run fills a private
            // pipeline cache, then every timed run replays the same dataset
            // from stored artifacts (sim trace peek + per-sample loads).
            namespace fs = std::filesystem;
            const fs::path cache_root =
                fs::temp_directory_path() /
                ("powergear_bench_cache_" + std::to_string(::getpid()));
            fs::remove_all(cache_root);
            dataset::GeneratorOptions gen;
            gen.samples_per_dataset = 8;
            gen.problem_size = 8;
            gen.cache_dir = cache_root.string();
            const dataset::Dataset cold = dataset::generate_dataset("gemm", gen);
            results.push_back(run_bench(
                "gen_warm_cache", reps,
                [&] {
                    auto warm = dataset::generate_dataset("gemm", gen);
                    if (warm.samples.size() != cold.samples.size())
                        std::abort();
                },
                static_cast<double>(cold.samples.size())));
            fs::remove_all(cache_root);
        }
        if (want("train_epoch")) {
            // Full forward+backward+Adam over one mini-batch-sized epoch at
            // hidden=64, where the matmul kernels dominate the profile.
            const TrainFixture fx;
            gnn::ModelConfig cfg;
            cfg.node_dim = fx.tensors.x.cols();
            cfg.hidden = 64;
            gnn::PowerModel model(cfg);
            const std::vector<const gnn::GraphTensors*> graphs(8,
                                                               &fx.tensors);
            const std::vector<float> targets(8, 1.5f);
            results.push_back(run_bench(
                "train_epoch", reps,
                [&] {
                    const double loss = model.train_epoch(graphs, targets, 8);
                    if (!(loss >= 0.0)) std::abort();
                },
                static_cast<double>(graphs.size())));
        }
        if (want("estimate_batch")) {
            const EstimatorFixture fx;
            const core::SamplePool pool = dataset::pool_of(fx.eval);
            results.push_back(run_bench(
                "estimate_batch", reps,
                [&] {
                    auto ests = fx.pg.estimate_batch(pool);
                    if (ests.size() != pool.size()) std::abort();
                },
                static_cast<double>(pool.size())));
        }

        if (want("dse_stream_100k")) {
            // Streaming DSE sweep: pull 100k of a ~10^6-point space through
            // the lazy stream, score with a closed-form synthetic model and
            // fold into the incremental archives with the spread gate on.
            // Measures stream + archive + promotion machinery in bounded
            // memory (the ADRS/RSS lines below are the EXPERIMENTS.md
            // evidence, reported outside the timed region).
            const std::uint64_t space = 1000003;
            dse::StreamConfig scfg;
            scfg.chunk = 64;
            scfg.max_points = 100000;
            scfg.spread_gate = 0.5;
            const dse::StreamingExplorer ex(scfg);
            const dse::ChunkScorer scorer =
                [](std::span<const std::uint64_t> idx) {
                    std::vector<dse::ScoredPoint> out;
                    out.reserve(idx.size());
                    for (const std::uint64_t i : idx)
                        out.push_back(dse_bench_score(i));
                    return out;
                };
            const dse::TruthFn truth = [](std::uint64_t idx,
                                          const dse::ScoredPoint& sp) {
                return sp.power + util::hash_jitter(0x7B0, idx, 0.02);
            };
            dse::StreamResult last;
            results.push_back(run_bench(
                "dse_stream_100k", reps,
                [&] {
                    dse::CandidateStream stream(space);
                    last = ex.run(stream, scorer, truth);
                    if (last.stats.scored != scfg.max_points) std::abort();
                },
                static_cast<double>(scfg.max_points)));
            // Exact frontier of every scored point's ground truth — the
            // reference the streamed (gated, promoted-only) frontier is
            // scored against.
            std::vector<dse::Point> exact;
            dse::CandidateStream replay(space);
            for (std::uint64_t k = 0; k < scfg.max_points; ++k) {
                const std::uint64_t idx = *replay.next();
                const dse::ScoredPoint sp = dse_bench_score(idx);
                exact.push_back(dse::Point{sp.latency, truth(idx, sp),
                                           static_cast<std::int64_t>(idx)});
            }
            std::printf(
                "  %-22s ADRS %.4f  front %zu/%zu  promoted %llu  peak RSS "
                "%.0f MiB\n",
                "", dse::adrs(dse::pareto_front(exact), last.true_front),
                last.true_front.size(), dse::pareto_front(exact).size(),
                static_cast<unsigned long long>(last.stats.promoted),
                peak_rss_mb());
        }

        if (want("serve_pipeline16")) {
            // Warm-daemon round trip: 16 estimates pipelined over one
            // connection, coalesced by the admission queue into a single
            // PowerGear::estimate_batch (max_batch 16 makes the batcher
            // fire exactly when the burst has landed instead of waiting
            // out the linger window).
            const EstimatorFixture fx;
            const std::string tag = std::to_string(::getpid());
            const std::string sock = "/tmp/pgbench_reg_" + tag + ".sock";
            const std::string model = "/tmp/pgbench_reg_" + tag + ".pgm";
            fx.pg.save(model);
            core::serve::ServerConfig cfg;
            cfg.socket_path = sock;
            cfg.model_path = model;
            cfg.max_batch = 16;
            cfg.batch_window_us = 5000;
            core::serve::Server server(cfg);
            server.start();
            {
                core::serve::Client client(sock);
                std::vector<const dataset::Sample*> ptrs;
                for (std::size_t i = 0; i < 16; ++i)
                    ptrs.push_back(
                        &fx.eval.samples[i % fx.eval.samples.size()]);
                results.push_back(run_bench(
                    "serve_pipeline16", reps,
                    [&] {
                        if (client.estimate_batch(ptrs).size() != 16)
                            std::abort();
                    },
                    16.0));
            }
            server.stop();
            std::filesystem::remove(model);
        }

        if (results.empty()) {
            std::fprintf(stderr, "error: --filter '%s' matched nothing\n",
                         filter.c_str());
            return 2;
        }

        const obs::JsonValue doc = results_to_json(results, reps);
        std::FILE* f = std::fopen(out_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
            return 2;
        }
        const std::string body = doc.dump(2) + "\n";
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
        std::printf("[saved] %s\n", out_path.c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
