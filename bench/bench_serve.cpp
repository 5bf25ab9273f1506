// Load generator for the `powergear serve` daemon.
//
//   bench_serve [--requests N] [--cold-reps N] [--out FILE] [--jobs N]
//
// Trains a tiny ensemble, saves it, starts an in-process daemon on a
// private socket, and measures the warm serving path three ways:
//
//   1. Closed-loop clients at 1 / 4 / 16 connections, each thread doing
//      synchronous round trips: estimates/s plus p50/p95/p99 per-request
//      latency (client-observed, includes the coalescing linger).
//   2. A pipelined burst on one connection (all eval samples in flight at
//      once), which the admission queue coalesces into batches of >= 16 —
//      the throughput configuration.
//   3. The cold path, twice:
//      a. the real `powergear estimate` process path (process startup +
//         model load + sample construction + estimate) for a 16-sample
//         batch, by exec'ing the CLI that was built next to this binary
//         (--cli to point elsewhere) — the headline speedup comparator;
//      b. an in-process floor (fresh PowerGear::load() + one estimate),
//         which isolates how much of the cold cost is the model itself.
//
// Writes a "powergear-serve-bench-v1" JSON report and exits 0 on success,
// 2 on bad usage or any benchmark failure.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/serve/client.hpp"
#include "core/serve/server.hpp"
#include "dataset/generator.hpp"
#include "dataset/splits.hpp"
#include "obs/json.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

using namespace powergear;

namespace {

/// Tiny-but-real serving fixture: a 2-member ensemble trained on two
/// kernels, evaluated on a third (same scale as bench_regression's
/// estimate_batch fixture so the numbers are comparable).
struct ServeFixture {
    core::PowerGear pg;
    dataset::Dataset eval;
    std::string model_path;
    std::string socket_path;

    ServeFixture()
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

        const std::string tag = std::to_string(::getpid());
        socket_path = "/tmp/pgserve_bench_" + tag + ".sock";
        model_path = "/tmp/pgserve_bench_" + tag + ".pgm";
        pg.save(model_path);
    }
    ~ServeFixture() { std::filesystem::remove(model_path); }
};

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double idx = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

struct LoadResult {
    int connections = 0;
    int requests = 0;
    double estimates_per_s = 0.0;
    double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
    double mean_batch = 0.0; ///< requests per estimate_batch on the server
};

/// Closed-loop load: `connections` threads, each with its own Client,
/// issue synchronous estimate round trips until `total_requests` are done.
LoadResult run_load(const ServeFixture& fx, core::serve::Server& server,
                    int connections, int total_requests) {
    const core::serve::Server::Stats before = server.stats();
    std::vector<std::vector<double>> lat_ms(
        static_cast<std::size_t>(connections));
    std::atomic<int> next{0};
    std::vector<std::thread> threads;
    util::Timer wall;
    for (int c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            core::serve::Client client(fx.socket_path);
            for (;;) {
                const int i = next.fetch_add(1, std::memory_order_relaxed);
                if (i >= total_requests) break;
                const dataset::Sample& s =
                    fx.eval.samples[static_cast<std::size_t>(i) %
                                    fx.eval.samples.size()];
                util::Timer t;
                const core::Estimate est = client.estimate(s);
                lat_ms[static_cast<std::size_t>(c)].push_back(t.millis());
                if (!(est.watts == est.watts)) std::abort(); // NaN guard
            }
        });
    }
    for (std::thread& t : threads) t.join();
    const double wall_ms = wall.millis();
    const core::serve::Server::Stats after = server.stats();

    std::vector<double> all;
    for (const auto& v : lat_ms) all.insert(all.end(), v.begin(), v.end());
    LoadResult r;
    r.connections = connections;
    r.requests = total_requests;
    r.estimates_per_s = total_requests / (wall_ms * 1e-3);
    r.p50_ms = percentile(all, 0.50);
    r.p95_ms = percentile(all, 0.95);
    r.p99_ms = percentile(all, 0.99);
    const std::uint64_t batches = after.batches - before.batches;
    r.mean_batch =
        batches ? static_cast<double>(after.requests - before.requests) /
                      static_cast<double>(batches)
                : 0.0;
    return r;
}

std::string today() {
    std::time_t t = std::time(nullptr);
    std::tm tm{};
    localtime_r(&t, &tm);
    char buf[16];
    std::strftime(buf, sizeof buf, "%Y-%m-%d", &tm);
    return buf;
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--requests N] [--cold-reps N] [--out FILE]\n"
                 "          [--jobs N] [--cli PATH]\n"
                 "exit codes: 0 ok, 2 bad usage or benchmark failure\n",
                 argv0);
    return 2;
}

/// The CLI built next to this binary (build/bench/.. -> build/tools).
std::string default_cli(const char* argv0) {
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path self = fs::canonical(argv0, ec);
    if (ec) return {};
    const fs::path cli = self.parent_path().parent_path() / "tools" /
                         "powergear";
    return fs::exists(cli) ? cli.string() : std::string{};
}

} // namespace

int main(int argc, char** argv) {
    int requests = 1600;
    int cold_reps = 3;
    int jobs = 0; // 0: leave the library default (all cores)
    std::string out_path;
    std::string cli_path = default_cli(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_next = i + 1 < argc;
        if (arg == "--requests" && has_next) requests = std::atoi(argv[++i]);
        else if (arg == "--cold-reps" && has_next) cold_reps = std::atoi(argv[++i]);
        else if (arg == "--jobs" && has_next) jobs = std::atoi(argv[++i]);
        else if (arg == "--out" && has_next) out_path = argv[++i];
        else if (arg == "--cli" && has_next) cli_path = argv[++i];
        else return usage(argv[0]);
    }
    if (requests < 16 || cold_reps < 1 || jobs < 0) return usage(argv[0]);
    if (jobs > 0) util::set_parallel_jobs(jobs);
    if (out_path.empty()) out_path = "SERVE_BENCH_" + today() + ".json";

    try {
        std::printf("bench_serve: training fixture ensemble...\n");
        const ServeFixture fx;

        core::serve::ServerConfig cfg;
        cfg.socket_path = fx.socket_path;
        cfg.model_path = fx.model_path;
        core::serve::Server server(cfg);
        server.start();
        std::printf("bench_serve: daemon on %s (%d requests per level)\n",
                    fx.socket_path.c_str(), requests);

        // 1. Closed-loop latency/throughput at 1 / 4 / 16 connections.
        std::vector<LoadResult> levels;
        for (const int conns : {1, 4, 16}) {
            const LoadResult r = run_load(fx, server, conns, requests);
            std::printf("  conns=%-2d  %9.0f est/s  p50 %7.3f ms  "
                        "p95 %7.3f ms  p99 %7.3f ms  mean batch %5.1f\n",
                        r.connections, r.estimates_per_s, r.p50_ms, r.p95_ms,
                        r.p99_ms, r.mean_batch);
            levels.push_back(r);
        }

        // 2. Pipelined burst: every eval sample in flight on one
        // connection; the admission queue coalesces them (batch >= 16).
        std::vector<const dataset::Sample*> ptrs;
        for (const auto& s : fx.eval.samples) ptrs.push_back(&s);
        double burst_eps = 0.0, burst_batch = 0.0;
        {
            core::serve::Client client(fx.socket_path);
            (void)client.estimate_batch(ptrs); // warmup
            const core::serve::Server::Stats before = server.stats();
            const int reps = std::max(1, requests / static_cast<int>(
                                                        ptrs.size()));
            util::Timer t;
            for (int i = 0; i < reps; ++i)
                if (client.estimate_batch(ptrs).size() != ptrs.size())
                    std::abort();
            const double ms = t.millis();
            const core::serve::Server::Stats after = server.stats();
            burst_eps =
                static_cast<double>(ptrs.size()) * reps / (ms * 1e-3);
            const std::uint64_t batches = after.batches - before.batches;
            burst_batch = batches
                              ? static_cast<double>(after.requests -
                                                    before.requests) /
                                    static_cast<double>(batches)
                              : 0.0;
            std::printf("  pipelined %9.0f est/s  mean batch %5.1f\n",
                        burst_eps, burst_batch);
        }
        server.stop();

        // 3a. Cold process path: one `powergear estimate` invocation per
        // rep, 16 samples each (batch >= 16 on both sides of the
        // comparison), best-of-reps to shed scheduler noise.
        const double warm_ms = 1e3 / burst_eps; // per estimate, batch >= 16
        double cold_proc_ms = 0.0;
        if (cli_path.empty()) {
            std::printf("  (no CLI found next to this binary and no --cli: "
                        "skipping the process-path comparison)\n");
        } else {
            const std::string cmd = "'" + cli_path + "' estimate --model '" +
                                    fx.model_path +
                                    "' --kernel mvt --samples 16 --size 8 "
                                    "> /dev/null";
            double best_ms = 0.0;
            for (int i = 0; i < cold_reps; ++i) {
                util::Timer t;
                if (std::system(cmd.c_str()) != 0)
                    throw std::runtime_error("cold estimate run failed: " +
                                             cmd);
                const double ms = t.millis();
                if (i == 0 || ms < best_ms) best_ms = ms;
            }
            cold_proc_ms = best_ms / 16.0;
        }

        // 3b. In-process floor: artifact load + one estimate, no process.
        double cold_inproc_ms = 0.0;
        {
            const int reps = 20;
            util::Timer t;
            for (int i = 0; i < reps; ++i) {
                core::PowerGear cold{core::PowerGear::Options{}};
                cold.load(fx.model_path);
                const dataset::Sample* one =
                    &fx.eval.samples[static_cast<std::size_t>(i) %
                                     fx.eval.samples.size()];
                const double w =
                    cold.estimate_batch(
                            core::SamplePool(core::SamplePool::View(&one, 1)))
                        .front()
                        .watts;
                if (!(w == w)) std::abort();
            }
            cold_inproc_ms = t.millis() / reps;
        }
        const double speedup =
            cold_proc_ms > 0.0 ? cold_proc_ms / warm_ms : 0.0;
        std::printf("  cold process path %8.3f ms/req   in-proc floor "
                    "%6.3f ms/req   warm (pipelined) %8.4f ms/req   "
                    "speedup %.1fx\n",
                    cold_proc_ms, cold_inproc_ms, warm_ms, speedup);

        obs::JsonValue root = obs::JsonValue::object();
        root.set("schema", obs::JsonValue("powergear-serve-bench-v1"));
        root.set("date", obs::JsonValue(today()));
        root.set("requests",
                 obs::JsonValue(static_cast<std::int64_t>(requests)));
        obs::JsonValue conns = obs::JsonValue::object();
        for (const LoadResult& r : levels) {
            obs::JsonValue c = obs::JsonValue::object();
            c.set("estimates_per_s", obs::JsonValue(r.estimates_per_s));
            c.set("p50_ms", obs::JsonValue(r.p50_ms));
            c.set("p95_ms", obs::JsonValue(r.p95_ms));
            c.set("p99_ms", obs::JsonValue(r.p99_ms));
            c.set("mean_batch", obs::JsonValue(r.mean_batch));
            conns.set(std::to_string(r.connections), std::move(c));
        }
        root.set("connections", std::move(conns));
        obs::JsonValue burst = obs::JsonValue::object();
        burst.set("estimates_per_s", obs::JsonValue(burst_eps));
        burst.set("mean_batch", obs::JsonValue(burst_batch));
        root.set("pipelined", std::move(burst));
        root.set("cold_process_ms_per_estimate",
                 obs::JsonValue(cold_proc_ms));
        root.set("cold_inproc_ms_per_estimate",
                 obs::JsonValue(cold_inproc_ms));
        root.set("warm_ms_per_estimate", obs::JsonValue(warm_ms));
        root.set("speedup_vs_cold_process", obs::JsonValue(speedup));

        std::FILE* f = std::fopen(out_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         out_path.c_str());
            return 2;
        }
        const std::string body = root.dump(2) + "\n";
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
        std::printf("[saved] %s\n", out_path.c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
