// powergear — command-line front end for the library.
//
//   powergear gen      --kernel gemm --samples 24 [--size 16] [--csv out.csv]
//   powergear train    --kernels atax,bicg,gemm --samples 24 --kind dynamic
//                      --out model.pgm [--epochs N] [--folds K] [--seeds S]
//   powergear estimate --model model.pgm --kernel mvt --samples 24
//                      [--kind dynamic]
//   powergear dse      --kernel atax --samples 48 --budget 0.4
//                      [--train bicg,gemm,syrk]
//   powergear dse      --kernel atax --stream [--chunk 64 --spread-gate G
//                      --limit P]
//   powergear dse      --kernel atax --shard i/N --cache-dir D
//                      [--chunk 64 --limit P]
//   powergear dse      --kernel atax --merge N --cache-dir D
//                      [--chunk 64 --limit P]
//   powergear serve    --model model.pgm --socket /tmp/pg.sock
//                      [--max-batch N --batch-window-us U --max-queue N]
//   powergear serve    --socket /tmp/pg.sock {--ping|--reload|--stop}
//   powergear lint     [kernel] [--all] [--size 16] [--points 6] [--json]
//                      [--sarif out.sarif]
//   powergear cache    {stats|clear} [--cache-dir DIR]
//   powergear version  (also: powergear --version)
//
// The command surface is declared once, as data: kSpecs below is the
// util::cli option table (type, default, env fallback, per-command
// applicability), and parsing/suggestions/type validation all come from
// that single source. Exit contract: 0 = success, 1 = operational failure,
// 2 = usage error (unknown/misapplied option, bad value, missing value).
//
// gen/train/estimate/dse/serve accept --jobs N to size the parallel runtime
// (default: POWERGEAR_JOBS or hardware concurrency; 1 = serial) and the
// pipeline commands take --cache-dir DIR (env fallback: POWERGEAR_CACHE) to
// reuse stage artifacts across invocations through the content-addressed
// io::Cache. Results are bit-identical for every job count, with and
// without a warm cache.
//
// Every command accepts --metrics FILE (env fallback: POWERGEAR_METRICS)
// to write an obs JSON report of per-phase latency percentiles, counters
// (including cache hits/misses and serve requests/batches/reloads) and
// throughput after the run — for serve, after the daemon drains.
//
// serve runs the long-lived estimation daemon (core/serve): the model
// loads once, concurrent connections coalesce into batched estimate calls,
// and SIGHUP (or `powergear serve --reload`) hot-swaps the model atomically
// without dropping in-flight requests. SIGTERM/SIGINT (or `--stop`) drain
// and exit cleanly.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "analysis/sarif.hpp"
#include "core/powergear.hpp"
#include "core/serve/client.hpp"
#include "core/serve/server.hpp"
#include "dataset/generator.hpp"
#include "dataset/splits.hpp"
#include "dse/explorer.hpp"
#include "dse/shard.hpp"
#include "dse/stream_explorer.hpp"
#include "io/cache.hpp"
#include "io/serial.hpp"
#include "kernels/polybench.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

using namespace powergear;
using util::cli::OptType;
using util::cli::Parsed;
using util::cli::UsageError;

namespace {

// The whole CLI surface, as data. Column order: name, type, default, env
// fallback, applicable commands, help. parse() enforces the applicability
// column and value types; getters resolve command line > env > default.
constexpr util::cli::OptionSpec kSpecs[] = {
    {"kernel", OptType::String, "", "", "gen,estimate,dse,lint",
     "kernel to generate/estimate/explore/lint"},
    {"kernels", OptType::String, "atax,bicg,gemm", "", "train",
     "comma-separated training kernels"},
    {"train", OptType::String, "bicg,gemm,syrk", "", "dse",
     "comma-separated kernels the DSE model trains on"},
    {"samples", OptType::Int, "24", "", "gen,train,estimate,dse",
     "designs per dataset"},
    {"size", OptType::Int, "16", "", "gen,train,estimate,dse,lint",
     "polybench problem size"},
    {"seed", OptType::Int, "42", "", "gen,train,estimate,dse,lint",
     "dataset RNG seed"},
    {"csv", OptType::String, "", "", "gen", "also write the table as CSV"},
    {"out", OptType::String, "", "", "train", "model artifact output path"},
    {"model", OptType::String, "", "", "estimate,serve",
     "trained model artifact (.pgm)"},
    {"kind", OptType::String, "total", "", "train,estimate",
     "power label: total | dynamic"},
    {"epochs", OptType::Int, "", "", "train", "training epochs per member"},
    {"folds", OptType::Int, "", "", "train", "cross-validation folds"},
    {"seeds", OptType::Int, "", "", "train", "ensemble seeds per fold"},
    {"hidden", OptType::Int, "", "", "train", "hidden layer width"},
    {"budget", OptType::Double, "0.4", "", "dse",
     "estimation budget fraction"},
    {"stream", OptType::Flag, "", "", "dse",
     "use the streaming explorer (bounded memory, spread-guided)"},
    {"shard", OptType::String, "", "", "dse",
     "run ground-truth sweep worker i/N against a shared cache"},
    {"merge", OptType::Int, "", "", "dse",
     "merge N shard frontiers from the cache and print the result"},
    {"chunk", OptType::Int, "64", "", "dse",
     "points per scoring batch / work-stealing unit"},
    {"limit", OptType::Int, "0", "", "dse",
     "cap swept candidate points (0 = full space)"},
    {"spread-gate", OptType::Double, "0", "", "dse",
     "promote frontier entrants only above this x mean ensemble spread"},
    {"points", OptType::Int, "6", "", "lint", "design points per kernel"},
    {"json", OptType::Flag, "", "", "lint", "emit JSON diagnostics"},
    {"all", OptType::Flag, "", "", "lint", "lint every registered kernel"},
    {"sarif", OptType::String, "", "", "lint",
     "write a SARIF 2.1.0 report"},
    {"jobs", OptType::Int, "", "", "gen,train,estimate,dse,serve",
     "parallel runtime width (1 = serial)"},
    {"metrics", OptType::String, "", "POWERGEAR_METRICS", "*",
     "write a powergear-obs-v1 JSON report after the run"},
    {"cache-dir", OptType::String, "", "POWERGEAR_CACHE",
     "gen,train,estimate,dse,cache", "pipeline cache root"},
    {"socket", OptType::String, "", "POWERGEAR_SOCKET", "serve",
     "Unix-domain socket the daemon binds / clients dial"},
    {"max-batch", OptType::Int, "64", "", "serve",
     "admission-queue coalescing cap"},
    {"batch-window-us", OptType::Int, "200", "", "serve",
     "linger for stragglers once a request lands"},
    {"max-queue", OptType::Int, "1024", "", "serve",
     "pending-request bound (readers block past it)"},
    {"ping", OptType::Flag, "", "", "serve", "probe a running daemon"},
    {"reload", OptType::Flag, "", "", "serve",
     "ask a running daemon to hot-swap its model"},
    {"stop", OptType::Flag, "", "", "serve",
     "ask a running daemon to drain and exit"},
};

const std::vector<std::string>& command_names() {
    static const std::vector<std::string> names = {
        "gen", "train", "estimate", "dse", "serve",
        "lint", "cache", "version"};
    return names;
}

/// Apply --jobs (gen/train/estimate/dse/serve) before any parallel work.
void apply_jobs(const Parsed& a) {
    if (!a.has("jobs")) return;
    const int jobs = a.get_int("jobs", 0);
    if (jobs < 1) throw UsageError("--jobs must be a positive integer");
    util::set_parallel_jobs(jobs);
}

/// Metrics destination: --metrics wins, POWERGEAR_METRICS is the fallback
/// (resolved by the option spec). Empty = observability stays off (the
/// probes cost one atomic load each).
std::string metrics_path(const Parsed& a) { return a.get("metrics"); }

/// Turn recording on before the command runs (clearing anything a previous
/// in-process run left behind).
void metrics_begin(const std::string& path) {
    if (path.empty()) return;
    obs::set_enabled(true);
    obs::reset();
}

/// Snapshot and persist the report after the command body finished.
void metrics_end(const std::string& path) {
    if (path.empty()) return;
    const obs::Report rep = obs::snapshot();
    if (rep.write(path))
        std::fprintf(stderr, "metrics: wrote %s (%zu phase%s)\n", path.c_str(),
                     rep.phases.size(), rep.phases.size() == 1 ? "" : "s");
    else
        std::fprintf(stderr, "metrics: error: cannot write %s\n", path.c_str());
}

std::vector<std::string> split_list(const std::string& csv) {
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty()) out.push_back(item);
    return out;
}

/// Pipeline-cache root: --cache-dir wins, POWERGEAR_CACHE is the fallback,
/// both empty = caching off.
std::string cache_dir_of(const Parsed& a) {
    return io::Cache::resolve(a.get("cache-dir")).root();
}

dataset::GeneratorOptions generator_options(const Parsed& a) {
    dataset::GeneratorOptions o;
    o.samples_per_dataset = a.get_int("samples", 24);
    o.problem_size = a.get_int("size", 16);
    o.seed = static_cast<std::uint64_t>(a.get_int("seed", 42));
    o.cache_dir = cache_dir_of(a);
    return o;
}

dataset::PowerKind kind_of(const Parsed& a) {
    const std::string kind = a.get("kind", "total");
    if (kind == "total") return dataset::PowerKind::Total;
    if (kind == "dynamic") return dataset::PowerKind::Dynamic;
    throw UsageError("--kind must be 'total' or 'dynamic' (got '" + kind +
                     "')");
}

/// Range checks for the options several commands share. Run before any
/// command body, so a bad value exits 2 before datasets are generated
/// instead of printing an empty or mislabelled result.
void check_shared_values(const Parsed& a) {
    if (a.get_int("samples", 24) < 1)
        throw UsageError("--samples must be >= 1");
    if (a.get_int("size", 16) < 2) throw UsageError("--size must be >= 2");
    if (a.get_int("points", 6) < 1) throw UsageError("--points must be >= 1");
    kind_of(a);
}

int cmd_gen(const Parsed& a) {
    const std::string kernel = a.get("kernel", "gemm");
    const dataset::Dataset ds =
        dataset::generate_dataset(kernel, generator_options(a));

    util::Table table({"design", "directives", "latency", "nodes", "dyn_W",
                       "static_W", "total_W"});
    for (const auto& s : ds.samples)
        table.add_row({std::to_string(s.design_index),
                       s.directives.to_string(),
                       std::to_string(s.latency_cycles),
                       std::to_string(s.graph.num_nodes),
                       util::Table::num(s.dynamic_power_w, 4),
                       util::Table::num(s.static_power_w, 4),
                       util::Table::num(s.total_power_w, 4)});
    std::printf("%s", table.to_ascii().c_str());
    std::printf("dataset %s: %d samples, avg %.0f graph nodes\n",
                ds.name.c_str(), ds.size(), ds.avg_nodes());
    if (a.has("csv")) {
        if (table.save_csv(a.get("csv")))
            std::printf("saved %s\n", a.get("csv").c_str());
        else {
            std::fprintf(stderr, "error: cannot write %s\n", a.get("csv").c_str());
            return 1;
        }
    }
    return 0;
}

int cmd_train(const Parsed& a) {
    const auto kernels = split_list(a.get("kernels", "atax,bicg,gemm"));
    if (kernels.empty() || !a.has("out")) {
        std::fprintf(stderr, "error: train needs --kernels and --out\n");
        return 1;
    }
    core::PowerGear::Options opts = core::PowerGear::Options::from_bench_scale(
        util::bench_scale(), kind_of(a));
    opts.epochs = a.get_int("epochs", opts.epochs);
    opts.folds = a.get_int("folds", opts.folds);
    opts.seeds = a.get_int("seeds", opts.seeds);
    opts.hidden = a.get_int("hidden", opts.hidden);
    // fit() would reject these too, but only after every dataset exists.
    const analysis::Report config = opts.validate();
    if (!config.clean())
        throw UsageError("invalid training options\n" + config.render_text());

    std::vector<dataset::Dataset> suite;
    for (const std::string& k : kernels) {
        std::printf("generating %s...\n", k.c_str());
        suite.push_back(dataset::generate_dataset(k, generator_options(a)));
    }
    std::vector<const dataset::Sample*> ptrs;
    for (const auto& ds : suite)
        for (const auto& s : ds.samples) ptrs.push_back(&s);
    const core::SamplePool pool = core::SamplePool::adopt(std::move(ptrs));

    std::printf("training on %zu samples (%s power, %d folds x %d seeds)...\n",
                pool.size(),
                opts.kind == dataset::PowerKind::Dynamic ? "dynamic" : "total",
                opts.folds, opts.seeds);
    core::PowerGear pg(opts);
    if (pg.fit_cached(pool, io::Cache(cache_dir_of(a))))
        std::printf("loaded trained ensemble from the pipeline cache\n");
    pg.save(a.get("out"));
    std::printf("saved %d-member ensemble to %s\n", pg.num_members(),
                a.get("out").c_str());
    return 0;
}

int cmd_estimate(const Parsed& a) {
    if (!a.has("model") || !a.has("kernel")) {
        std::fprintf(stderr, "error: estimate needs --model and --kernel\n");
        return 1;
    }
    core::PowerGear::Options opts;
    opts.kind = kind_of(a);
    core::PowerGear pg(opts);
    pg.load(a.get("model"));

    const dataset::Dataset ds =
        dataset::generate_dataset(a.get("kernel"), generator_options(a));
    // One batched call: the ensemble fans out over all designs and reports
    // the member spread as a per-estimate confidence signal.
    const core::SamplePool pool = dataset::pool_of(ds);
    const std::vector<core::Estimate> ests = pg.estimate_batch(pool);
    util::Table table({"design", "directives", "estimated_W", "spread_W",
                       "measured_W", "error_%"});
    // watts is the widened float ensemble mean, so casting back is exact and
    // the MAPE below equals PowerGear::evaluate_mape without a second pass.
    std::vector<float> est_w, label_w;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const auto& s = pool[i];
        est_w.push_back(static_cast<float>(ests[i].watts));
        label_w.push_back(s.label(opts.kind));
        const double truth = static_cast<double>(label_w.back());
        table.add_row(
            {std::to_string(s.design_index), s.directives.to_string(),
             util::Table::num(ests[i].watts, 4),
             util::Table::num(ests[i].member_spread, 4),
             util::Table::num(truth, 4),
             util::Table::num(100.0 * std::abs(ests[i].watts - truth) / truth,
                              2)});
    }
    std::printf("%s", table.to_ascii().c_str());
    std::printf("MAPE: %.2f%%\n", util::mape(est_w, label_w));
    return 0;
}

/// Frontier rows printed with %.17g so bit-identical frontiers produce
/// byte-identical output — the sharded-vs-unsharded CI check compares these
/// lines with cmp(1).
void print_frontier(const std::vector<dse::Point>& front) {
    std::printf("%-14s %12s %24s\n", "frontier", "latency", "dyn power (W)");
    for (const dse::Point& p : front)
        std::printf("%-14s %12.0f %24.17g\n",
                    ("design#" + std::to_string(p.index)).c_str(), p.latency,
                    p.power);
}

/// Ground-truth sweep worker: claim chunks through the manifest, generate
/// samples into the shared cache, publish this worker's frontier artifact.
int cmd_dse_shard(const Parsed& a) {
    const util::cli::ShardSpec spec = util::cli::parse_shard(a.get("shard"));
    const io::Cache cache = io::Cache::resolve(a.get("cache-dir"));
    if (!cache.enabled()) {
        std::fprintf(stderr,
                     "error: dse --shard needs --cache-dir DIR (or "
                     "POWERGEAR_CACHE) — workers meet in the cache\n");
        return 1;
    }
    const ir::Function fn = kernels::build_polybench(a.get("kernel", "atax"),
                                                     a.get_int("size", 16));
    dse::ShardConfig cfg;
    cfg.worker = spec.index;
    cfg.num_workers = spec.count;
    cfg.chunk = static_cast<std::size_t>(a.get_int("chunk", 64));
    cfg.limit = static_cast<std::uint64_t>(a.get_int("limit", 0));
    const dse::ShardOutcome out =
        dse::run_shard(fn, generator_options(a), dataset::PowerKind::Dynamic,
                       cache, cfg);
    std::printf("shard %llu/%llu: %llu chunk(s) claimed (%llu stolen), "
                "%llu point(s), frontier %zu\n",
                static_cast<unsigned long long>(spec.index),
                static_cast<unsigned long long>(spec.count),
                static_cast<unsigned long long>(out.chunks_claimed),
                static_cast<unsigned long long>(out.chunks_stolen),
                static_cast<unsigned long long>(out.points),
                out.front.size());
    std::printf("wrote %s\n", out.artifact_path.c_str());
    return 0;
}

int cmd_dse_merge(const Parsed& a) {
    const int n = a.get_int("merge", 0);
    if (n < 1) throw UsageError("--merge expects the shard count N (>= 1)");
    const io::Cache cache = io::Cache::resolve(a.get("cache-dir"));
    if (!cache.enabled()) {
        std::fprintf(stderr,
                     "error: dse --merge needs --cache-dir DIR (or "
                     "POWERGEAR_CACHE)\n");
        return 1;
    }
    const ir::Function fn = kernels::build_polybench(a.get("kernel", "atax"),
                                                     a.get_int("size", 16));
    const std::uint64_t key = dse::shard_space_key(
        fn, generator_options(a), dataset::PowerKind::Dynamic,
        static_cast<std::size_t>(a.get_int("chunk", 64)),
        static_cast<std::uint64_t>(a.get_int("limit", 0)),
        static_cast<std::uint64_t>(n));
    const std::vector<dse::Point> front =
        dse::merge_shards(cache, key, static_cast<std::uint64_t>(n));
    std::printf("merged %d shard(s): frontier %zu point(s)\n", n,
                front.size());
    print_frontier(front);
    return 0;
}

int cmd_dse(const Parsed& a) {
    // Checked here, before any mode casts them to unsigned sizes or spends
    // time on datasets and training.
    if (a.get_int("chunk", 64) < 1) throw UsageError("--chunk must be >= 1");
    if (a.get_int("limit", 0) < 0) throw UsageError("--limit must be >= 0");
    if (a.get_double("spread-gate", 0.0) < 0.0)
        throw UsageError("--spread-gate must be >= 0");
    const double budget = a.get_double("budget", 0.4);
    if (budget <= 0.0 || budget > 1.0)
        throw UsageError("--budget must be in (0, 1]");
    if (a.has("shard")) return cmd_dse_shard(a);
    if (a.has("merge")) return cmd_dse_merge(a);
    const std::string target = a.get("kernel", "atax");
    const auto train_kernels = split_list(a.get("train", "bicg,gemm,syrk"));
    std::vector<dataset::Dataset> suite;
    for (const std::string& k : train_kernels)
        suite.push_back(dataset::generate_dataset(k, generator_options(a)));
    suite.push_back(dataset::generate_dataset(target, generator_options(a)));
    const std::size_t tgt = suite.size() - 1;

    core::PowerGear::Options opts = core::PowerGear::Options::from_bench_scale(
        util::bench_scale(), dataset::PowerKind::Dynamic);
    core::PowerGear pg(opts);
    if (pg.fit_cached(dataset::pool_except(suite, tgt),
                      io::Cache(cache_dir_of(a))))
        std::printf("loaded trained ensemble from the pipeline cache\n");

    if (a.flag("stream")) {
        dse::StreamConfig scfg;
        scfg.chunk = static_cast<std::size_t>(a.get_int("chunk", 64));
        scfg.spread_gate = a.get_double("spread-gate", 0.0);
        if (a.has("limit"))
            scfg.max_points =
                static_cast<std::uint64_t>(a.get_int("limit", 0));
        const dse::StreamingExplorer explorer(scfg);
        const dse::StreamResult res = explorer.run(
            dataset::pool_of(suite[tgt]), pg, dataset::PowerKind::Dynamic);
        std::printf("streamed %llu candidate(s): %llu archived, %llu "
                    "promoted to ground truth, ADRS %.4f\n",
                    static_cast<unsigned long long>(res.stats.scored),
                    static_cast<unsigned long long>(res.stats.archived),
                    static_cast<unsigned long long>(res.stats.promoted),
                    res.adrs_value);
        print_frontier(res.true_front);
        return 0;
    }

    dse::ExplorerConfig cfg;
    cfg.total_budget = budget;
    const dse::Explorer explorer(cfg);
    const dse::DseResult res = explorer.run(
        dataset::pool_of(suite[tgt]), pg, dataset::PowerKind::Dynamic);
    std::printf("explored %zu/%d designs (budget %.0f%%), ADRS %.4f\n",
                res.sampled.size(), suite[tgt].size(), 100 * cfg.total_budget,
                res.adrs_value);
    std::printf("%-14s %12s %14s\n", "frontier", "latency", "dyn power (W)");
    for (const auto& p : res.approx_front)
        std::printf("%-14s %12.0f %14.4f\n",
                    ("design#" + std::to_string(p.index)).c_str(), p.latency,
                    p.power);
    return 0;
}

// The daemon the signal handlers poke. Handlers may only touch lock-free
// atomics, which is exactly what poke_stop/poke_reload are.
core::serve::Server* g_server = nullptr;

void serve_signal(int sig) {
    if (!g_server) return;
    if (sig == SIGHUP)
        g_server->poke_reload();
    else
        g_server->poke_stop();
}

int cmd_serve(const Parsed& a) {
    const std::string socket = a.get("socket");
    if (socket.empty()) {
        std::fprintf(stderr,
                     "error: serve needs --socket PATH (or POWERGEAR_SOCKET)\n");
        return 1;
    }

    // Client one-shots against a running daemon.
    if (a.flag("ping") || a.flag("reload") || a.flag("stop")) {
        core::serve::Client client(socket);
        if (a.flag("ping")) {
            const auto info = client.ping();
            std::printf("pong: generation %llu, %u member(s)\n",
                        static_cast<unsigned long long>(info.generation),
                        info.members);
        }
        if (a.flag("reload")) {
            const auto info = client.reload();
            std::printf("reloaded: generation %llu, %u member(s)\n",
                        static_cast<unsigned long long>(info.generation),
                        info.members);
        }
        if (a.flag("stop")) {
            client.shutdown_server();
            std::printf("server draining\n");
        }
        return 0;
    }

    if (!a.has("model")) {
        std::fprintf(stderr, "error: serve needs --model M.pgm "
                             "(or --ping/--reload/--stop for a running "
                             "daemon)\n");
        return 1;
    }
    core::serve::ServerConfig cfg;
    cfg.socket_path = socket;
    cfg.model_path = a.get("model");
    cfg.max_batch = a.get_int("max-batch", cfg.max_batch);
    cfg.batch_window_us = a.get_int("batch-window-us", cfg.batch_window_us);
    cfg.max_queue = a.get_int("max-queue", cfg.max_queue);

    core::serve::Server server(cfg);
    g_server = &server;
    std::signal(SIGHUP, serve_signal);
    std::signal(SIGTERM, serve_signal);
    std::signal(SIGINT, serve_signal);
    server.start();
    std::fprintf(stderr,
                 "serve: listening on %s (model %s, %llu member(s); "
                 "SIGHUP reloads, SIGTERM drains)\n",
                 socket.c_str(), cfg.model_path.c_str(),
                 static_cast<unsigned long long>(server.generation()));
    server.wait();
    std::signal(SIGHUP, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    g_server = nullptr;
    const core::serve::Server::Stats st = server.stats();
    std::fprintf(stderr,
                 "serve: drained: %llu request(s) in %llu batch(es), "
                 "%llu reload(s), %llu error(s)\n",
                 static_cast<unsigned long long>(st.requests),
                 static_cast<unsigned long long>(st.batches),
                 static_cast<unsigned long long>(st.reloads),
                 static_cast<unsigned long long>(st.errors));
    return 0;
}

int cmd_lint(const Parsed& a) {
    // "lint <kernel>" or "lint --kernel <kernel>"; no kernel = the paper's
    // nine-kernel suite; --all = every registered kernel (paper + extended).
    std::vector<std::string> names;
    if (a.flag("all")) {
        names = kernels::polybench_names();
        for (const std::string& n : kernels::extended_kernel_names())
            names.push_back(n);
    } else if (!a.positional().empty()) {
        names.push_back(a.positional().front());
    } else if (a.has("kernel")) {
        names.push_back(a.get("kernel"));
    } else {
        names = kernels::polybench_names();
    }

    analysis::LintOptions lo;
    lo.design_points = a.get_int("points", 6);
    lo.seed = static_cast<std::uint64_t>(a.get_int("seed", 42));
    const int size = a.get_int("size", 16);
    const bool json = a.flag("json");

    analysis::Report all;
    for (const std::string& name : names) {
        const ir::Function fn = kernels::build_polybench(name, size);
        all.merge(analysis::lint_kernel(fn, lo));
    }
    if (a.has("sarif")) {
        const std::string path = a.get("sarif");
        if (!analysis::write_sarif(all, path)) {
            std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
            return 1;
        }
        std::fprintf(stderr, "lint: wrote SARIF report to %s\n", path.c_str());
    }
    if (json) {
        std::printf("%s\n", all.render_json().c_str());
    } else {
        std::printf("%s", all.render_text().c_str());
        std::printf("lint: %d kernel(s), %d design point(s) each: "
                    "%d diagnostic(s) (%d error(s), %d warning(s))\n",
                    static_cast<int>(names.size()), lo.design_points,
                    all.size(), all.errors(), all.warnings());
    }
    // Exit contract: 0 = no Error-severity findings (warnings/notes are
    // advisory), 2 = at least one Error, 1 = operational failure above.
    return all.errors() > 0 ? 2 : 0;
}

int cmd_cache(const Parsed& a) {
    const std::string action =
        a.positional().empty() ? "stats" : a.positional().front();
    if (action != "stats" && action != "clear")
        throw UsageError("cache action must be 'stats' or 'clear' (got '" +
                         action + "')");
    const io::Cache cache = io::Cache::resolve(a.get("cache-dir"));
    if (!cache.enabled()) {
        std::fprintf(stderr,
                     "error: cache %s needs --cache-dir DIR or "
                     "POWERGEAR_CACHE=DIR\n",
                     action.c_str());
        return 1;
    }
    if (action == "clear") {
        const std::uint64_t removed = cache.clear();
        std::printf("removed %llu cached artifact(s) from %s\n",
                    static_cast<unsigned long long>(removed),
                    cache.root().c_str());
        return 0;
    }
    const std::vector<io::Cache::StageStats> stats = cache.stats();
    util::Table table({"stage", "artifacts", "bytes"});
    std::uint64_t files = 0, bytes = 0;
    for (const io::Cache::StageStats& st : stats) {
        table.add_row({st.stage, std::to_string(st.files),
                       std::to_string(st.bytes)});
        files += st.files;
        bytes += st.bytes;
    }
    std::printf("%s", table.to_ascii().c_str());
    std::printf("cache %s: %llu artifact(s), %llu bytes\n",
                cache.root().c_str(), static_cast<unsigned long long>(files),
                static_cast<unsigned long long>(bytes));
    return 0;
}

int cmd_version() {
    // One "name version" pair per line, grep-friendly for scripts and CI.
    std::printf("powergear-artifact %s\n", io::kArtifactFormatName);
    std::printf("powergear-metrics powergear-obs-v1\n");
    std::printf("powergear-model-payload %u\n",
                static_cast<unsigned>(io::kModelPayloadVersion));
    return 0;
}

void usage() {
    std::printf(
        "powergear — early-stage HLS power estimation (PowerGear reproduction)\n"
        "\n"
        "usage: powergear <command> [options]\n"
        "\n"
        "  gen       --kernel K [--samples N --size S --seed X --csv F]\n"
        "            [--jobs N] [--metrics F] [--cache-dir D]\n"
        "            generate one dataset and dump its designs\n"
        "  train     --kernels A,B,C --out M.pgm [--kind dynamic --epochs N\n"
        "            --folds K --seeds S --hidden H]\n"
        "            [--jobs N] [--metrics F] [--cache-dir D]\n"
        "            train an ensemble and save it as a model artifact\n"
        "  estimate  --model M.pgm --kernel K [--kind dynamic]\n"
        "            [--jobs N] [--metrics F] [--cache-dir D]\n"
        "            estimate every design of a kernel vs. board labels\n"
        "  dse       --kernel K [--train A,B,C --budget 0.4]\n"
        "            [--jobs N] [--metrics F] [--cache-dir D]\n"
        "            explore a design space under an estimation budget.\n"
        "            --stream uses the streaming explorer (bounded memory,\n"
        "            incremental Pareto archive, ensemble-spread-guided\n"
        "            ground-truth promotion; tune --chunk/--spread-gate/\n"
        "            --limit).\n"
        "            --shard i/N runs ground-truth sweep worker i of N into\n"
        "            a shared --cache-dir (work-stealing manifest; run all\n"
        "            N workers concurrently or in any order), then\n"
        "            --merge N folds the shard frontiers into the final\n"
        "            Pareto front — bit-identical to a --shard 1/1 sweep\n"
        "            merged with --merge 1\n"
        "  serve     --model M.pgm --socket P [--max-batch N\n"
        "            --batch-window-us U --max-queue N] [--jobs N]\n"
        "            [--metrics F]\n"
        "            run the estimation daemon: load the model once, answer\n"
        "            framed requests on a Unix socket, coalesce concurrent\n"
        "            clients into batched estimates. SIGHUP hot-swaps the\n"
        "            model without dropping requests; SIGTERM drains.\n"
        "            with --ping/--reload/--stop, talk to a running daemon\n"
        "            instead (env POWERGEAR_SOCKET supplies --socket)\n"
        "  lint      [K] [--all --size S --points N --json --sarif F]\n"
        "            [--metrics F]\n"
        "            static-check the pipeline artifacts of one kernel\n"
        "            (default: the paper's nine; --all adds the extended\n"
        "            kernels); --sarif F writes a SARIF 2.1.0 report.\n"
        "            exit 0 = no errors (warnings are advisory),\n"
        "            2 = error diagnostics, 1 = operational failure\n"
        "  cache     {stats|clear} [--cache-dir D]\n"
        "            inspect or empty the pipeline cache\n"
        "  version   print the on-disk format versions (also: --version)\n"
        "\n"
        "common options:\n"
        "  --jobs N       parallel runtime width (env POWERGEAR_JOBS; 1 =\n"
        "                 serial — results are bit-identical at any width)\n"
        "  --metrics F    write a powergear-obs-v1 JSON report (p50/p95/max\n"
        "                 ms, counters incl. cache hits/misses and serve\n"
        "                 requests/batches/reloads, rates) after the run\n"
        "                 (env POWERGEAR_METRICS)\n"
        "  --cache-dir D  content-addressed pipeline cache root (env\n"
        "                 POWERGEAR_CACHE): warm re-runs load sim traces,\n"
        "                 samples and trained ensembles bit-identically\n"
        "                 instead of recomputing them\n");
}

} // namespace

int main(int argc, char** argv) {
    try {
        const Parsed args = util::cli::parse(
            argc, argv, kSpecs,
            std::span<const std::string>(command_names()));
        if (args.command() == "version" || args.command() == "--version")
            return cmd_version();
        const bool known =
            args.command() == "gen" || args.command() == "train" ||
            args.command() == "estimate" || args.command() == "dse" ||
            args.command() == "serve" || args.command() == "lint" ||
            args.command() == "cache";
        if (!known) {
            if (!args.command().empty()) {
                const std::string hint = util::cli::closest(
                    args.command(),
                    std::span<const std::string>(command_names()));
                if (!hint.empty())
                    std::fprintf(stderr,
                                 "error: unknown command '%s' (did you mean "
                                 "'%s'?)\n\n",
                                 args.command().c_str(), hint.c_str());
            }
            usage();
            return args.command().empty() ? 0 : 1;
        }
        if (args.command() != "lint" && args.command() != "cache")
            apply_jobs(args);
        check_shared_values(args);
        const std::string metrics = metrics_path(args);
        metrics_begin(metrics);
        int rc = 0;
        if (args.command() == "gen") rc = cmd_gen(args);
        else if (args.command() == "train") rc = cmd_train(args);
        else if (args.command() == "estimate") rc = cmd_estimate(args);
        else if (args.command() == "dse") rc = cmd_dse(args);
        else if (args.command() == "serve") rc = cmd_serve(args);
        else if (args.command() == "cache") rc = cmd_cache(args);
        else rc = cmd_lint(args);
        metrics_end(metrics);
        return rc;
    } catch (const UsageError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::fprintf(stderr,
                     "run 'powergear' with no arguments for usage\n");
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
