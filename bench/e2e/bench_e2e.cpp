// bench_e2e — the end-to-end benchmark of record for PowerGear's three
// product paths: a fresh HLS design to watts, the warm `powergear serve`
// round trip, and a streaming DSE sweep scored by the real ensemble.
//
//   bench_e2e --workload W --seed S --out F.json [--seconds N]
//             [--trace T.json] [--smoke] [--workdir DIR]
//
// --seconds is the timed phase (default 25; 1 with --smoke, which shrinks
// every input for a quick end-to-end check). Private files live under
// --workdir (default .bench_work) and are removed at exit.
//
// Workloads (README.md in this directory records why each one exists):
//   fresh_design  closed loop, 1 caller. Every request is a new design: a
//                 directive point of one of 9 Polybench kernels x 3 sizes on
//                 a stimulus of its own, taken from IR to watts: sim -> hls
//                 (point + baseline) -> activity -> graph -> tensors ->
//                 estimate_batch of 1.
//   serve_burst   closed loop against an in-process daemon. 1 connection
//                 repeating Client::estimate_batch of 64 pipelined
//                 requests.
//   dse_sweep     closed loop. A warm `powergear dse --stream` in process:
//                 cached datasets + cached model -> StreamingExplorer
//                 {chunk 64, gate 0.5} -> Explorer{budget 0.4}.
//
// Fixed settings, recorded in the output: util::set_parallel_jobs(1);
// observability off except in the traced half of a --trace run; the default
// serve::ServerConfig; one load thread and at most one connection. A set
// POWERGEAR_* environment variable is a usage error, because each one
// changes what the library runs.
//
// One run performs the full set-up several times (setup_s is their median;
// the last one is kept), then an untimed warm-up, then the timed phase,
// then the output checks, outside the timed loop. The seed picks the
// inputs around a fixed set of designs (stimulus values, request order),
// so it does not change the amount of work. peak_rss_mib counts from the
// end of the warm-up.
// With --trace the timed phase is split in halves:
// untraced, then traced with bench-side spans around each layer call plus
// the program's own obs phases. The traced half yields the per-layer
// breakdown (self time per layer and the unattributed residual); the
// difference of the two halves' p50 is the tracing overhead. Spans stay in
// memory and are written at exit as Chrome trace-event JSON.
//
// Exit codes: 0 ran to completion (whether the outputs were correct is in
// the JSON: "correct", "attempted", "failed"), 1 set-up or I/O failure,
// 2 usage error.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/powergear.hpp"
#include "core/serve/client.hpp"
#include "core/serve/server.hpp"
#include "dataset/generator.hpp"
#include "dataset/splits.hpp"
#include "dse/explorer.hpp"
#include "dse/stream_explorer.hpp"
#include "graphgen/features.hpp"
#include "hls/flow.hpp"
#include "io/artifact.hpp"
#include "io/cache.hpp"
#include "io/serial.hpp"
#include "kernels/polybench.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "sim/activity.hpp"
#include "sim/stimulus.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

extern char** environ;

using namespace powergear;
namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------------------ time

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double ms_of(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

double seconds_since(std::uint64_t t0_ns) { return static_cast<double>(now_ns() - t0_ns) * 1e-9; }

// ----------------------------------------------------------------- stats

/// Linearly interpolated percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double idx = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (const double x : v) s += x;
    return s / static_cast<double>(v.size());
}

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mib() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Start a new peak: VmHWM drops to the current resident set.
void reset_peak_rss() {
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    if (!out) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

/// `part` as a percentage of `whole`; 0 when no operation completed.
double pct(double part, double whole) {
    return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ----------------------------------------------------------------- spans

/// One bench-side span. Ids are index + 1; 0 means none.
struct Span {
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t req = 0; ///< operation (design / burst / sweep) id
};

/// In-memory span recorder, written by the one load thread, so recording
/// takes no lock. Disabled, a SpanScope costs one branch.
class Tracer {
public:
    bool on() const { return on_; }
    void set_on(bool on) { on_ = on; }

    /// Open a span, parented to the innermost open span.
    std::uint64_t open(const char* name, std::uint64_t req) {
        const std::uint64_t parent = open_.empty() ? 0 : open_.back();
        const std::uint64_t id = spans_.size() + 1;
        spans_.push_back(Span{name, now_ns(), 0, id, parent, req});
        open_.push_back(id);
        return id;
    }

    void close(std::uint64_t id) {
        spans_[id - 1].end_ns = now_ns();
        open_.pop_back();
    }

    void reserve(std::size_t n) { spans_.reserve(n); }

    /// Self time per span name: a span's duration minus the part its child
    /// spans cover. Returned in milliseconds, summed over all spans.
    std::map<std::string, double> self_ms() const {
        std::unordered_map<std::uint64_t, double> child_ms;
        for (const Span& s : spans_)
            if (s.parent) child_ms[s.parent] += ms_of(s.end_ns - s.start_ns);
        std::map<std::string, double> out;
        for (const Span& s : spans_) {
            const auto it = child_ms.find(s.id);
            out[s.name] += ms_of(s.end_ns - s.start_ns) -
                           (it == child_ms.end() ? 0.0 : it->second);
        }
        return out;
    }

    /// Chrome trace-event JSON ("X" complete events, microsecond times),
    /// one obs::JsonValue per event so memory stays at span scale.
    bool write_chrome(const std::string& path) const {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (!f) return false;
        std::uint64_t t0 = ~0ull;
        for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
        std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            obs::JsonValue args = obs::JsonValue::object();
            args.set("id", obs::JsonValue(s.id));
            args.set("parent", obs::JsonValue(s.parent));
            args.set("req", obs::JsonValue(s.req));
            obs::JsonValue ev = obs::JsonValue::object();
            ev.set("name", obs::JsonValue(s.name));
            ev.set("cat", obs::JsonValue("bench"));
            ev.set("ph", obs::JsonValue("X"));
            ev.set("pid", obs::JsonValue(std::int64_t{1}));
            ev.set("tid", obs::JsonValue(std::int64_t{1}));
            ev.set("ts", obs::JsonValue(static_cast<double>(s.start_ns - t0) * 1e-3));
            ev.set("dur", obs::JsonValue(static_cast<double>(s.end_ns - s.start_ns) * 1e-3));
            ev.set("args", std::move(args));
            const std::string line = ev.dump(0);
            std::fputs(line.c_str(), f);
            std::fputs(i + 1 < spans_.size() ? ",\n" : "\n", f);
        }
        std::fputs("]}\n", f);
        return std::fclose(f) == 0;
    }

private:
    bool on_ = false;
    std::vector<Span> spans_;
    std::vector<std::uint64_t> open_;
};

/// RAII span around one layer call; a no-op while the tracer is off.
class SpanScope {
public:
    SpanScope(Tracer& t, const char* name, std::uint64_t req)
        : t_(t.on() ? &t : nullptr) {
        if (t_) id_ = t_->open(name, req);
    }
    ~SpanScope() {
        if (t_) t_->close(id_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    Tracer* t_;
    std::uint64_t id_ = 0;
};

// --------------------------------------------------------------- metrics

struct Metric {
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Every per-layer metric, with its unit. Each traced run reports all of
/// them (0 for a layer the workload does not run), so every workload's
/// breakdown has the same columns; BENCHMARK.json lists the same names.
const std::vector<std::pair<const char*, const char*>>& layer_metric_units() {
    static const std::vector<std::pair<const char*, const char*>> k = {
        {"sim.simulate_pct", "%"},        {"sim.activity_pct", "%"},
        {"hls.synthesize_pct", "%"},      {"graphgen.construct_pct", "%"},
        {"gnn.tensorize_pct", "%"},       {"core.estimate_pct", "%"},
        {"serve.client_pct", "%"},
        {"io.cache_load_pct", "%"},       {"core.fit_cached_pct", "%"},
        {"dse.stream_pct", "%"},          {"dse.iterative_pct", "%"},
        {"unattributed_pct", "%"},        {"trace.op_mean_ms", "ms"},
        {"trace.overhead_ms", "ms"},      {"core.estimate_batch_ms", "ms"},
        {"setup.datagen_s", "s"},         {"setup.fit_s", "s"},
        {"setup.workload_s", "s"},        {"setup.peak_rss_mib", "MiB"},
        {"core.estimate_calls", "count"},
        {"core.batch_mean", "count"},     {"graphgen.nodes", "count"},
        {"graphgen.edges", "count"},      {"sim.trace_ops", "count"},
        {"input.repeat_pct", "%"},        {"io.request_bytes", "bytes"},
        {"serve.forward_util_pct", "%"},  {"serve.errors", "count"},
        {"io.cache_hits", "count"},       {"io.cache_misses", "count"},
        {"dse.promoted", "count"},        {"dse.truth_pct", "%"},
        {"dse.adrs_stream", "ratio"},     {"dse.adrs_iterative", "ratio"},
    };
    return k;
}

void set_layer(Metrics& m, const std::string& name, double value) {
    const auto it = m.find(name);
    if (it == m.end())
        throw std::logic_error("bench_e2e: undeclared layer metric " + name);
    it->second.value = value;
}

/// One named output check (run outside the timed loop).
struct Checks {
    struct Item {
        std::string name;
        bool ok = false;
        std::string detail;
    };
    std::vector<Item> items;

    void expect(std::string name, bool ok, std::string detail = {}) {
        items.push_back(Item{std::move(name), ok, std::move(detail)});
    }
    bool all_ok() const {
        return std::all_of(items.begin(), items.end(),
                           [](const Item& i) { return i.ok; });
    }
};

// ------------------------------------------------------------ run scale

/// Sizes of one run. `full` is the benchmark of record; `smoke` keeps
/// every code path but shrinks each input so all three workloads finish in
/// a few seconds (the ctest leg).
struct Scale {
    int setups = 3;           ///< full set-ups per run; setup_s is the median
    double warmup_s = 1.0;    ///< untimed operations before the timed phase
    int train_samples = 24;   ///< per training kernel
    int epochs = 60;
    int folds = 3;
    std::size_t fresh_checked = 32;    ///< requests compared to the library
    int serve_points_per_kernel = 8;   ///< 9 kernels -> 72 serve samples
    std::size_t burst = 64;            ///< requests per serve_burst call
    std::uint64_t dse_points = 128;    ///< atax space indices per sweep

    static Scale full() { return {}; }
    static Scale smoke() {
        Scale s;
        s.setups = 1;
        s.warmup_s = 0.2;
        s.train_samples = 6;
        s.epochs = 2;
        s.folds = 2;
        s.fresh_checked = 4;
        s.serve_points_per_kernel = 2;
        s.burst = 16;
        s.dse_points = 64;
        return s;
    }
};

constexpr int kTrainSize = 16;
const std::vector<std::string> kTrainKernels = {"bicg", "gemm", "syrk", "k2mm"};

core::PowerGear::Options fixture_options(const Scale& sc) {
    core::PowerGear::Options o;
    o.kind = dataset::PowerKind::Dynamic;
    o.hidden = 16;
    o.epochs = sc.epochs;
    o.folds = sc.folds;
    o.seeds = 1;
    return o;
}

dataset::GeneratorOptions generator_options(const Scale& sc,
                                            std::string cache_dir = {}) {
    dataset::GeneratorOptions g;
    g.samples_per_dataset = sc.train_samples;
    g.problem_size = kTrainSize;
    g.run_vivado = false;
    g.cache_dir = std::move(cache_dir);
    return g;
}

/// Walk over a directive space in the library's golden-ratio order
/// (dse::CandidateStream), wrapping at the end. Consecutive draws are
/// distinct and spread evenly over the space. The walk ignores the seed:
/// how long a design takes follows its directives, and from a seeded start
/// runs on different seeds spread about twice as wide as runs on one seed.
/// So every seed draws the same designs, and the seed moves the inputs
/// around them (stimulus values, request order), not the amount of work.
class SpaceWalk {
public:
    explicit SpaceWalk(std::uint64_t space_size) : stream_(space_size) {}
    std::uint64_t next() {
        if (stream_.done()) stream_.seek({stream_.signature(), 0});
        return *stream_.next();
    }
    std::vector<std::uint64_t> take(std::uint64_t count) {
        std::vector<std::uint64_t> out;
        for (count = std::min(count, stream_.space_size()); out.size() < count;)
            out.push_back(next());
        return out;
    }

private:
    dse::CandidateStream stream_;
};

// ------------------------------------------------------------- workloads

/// Set-up phase durations (seconds) of one set-up.
struct SetupTimes {
    double datagen_s = 0.0; ///< training-set generation
    double fit_s = 0.0;     ///< ensemble training (or cold fit_cached)
    double workload_s = 0.0; ///< everything workload-specific
};

/// What one timed phase produced.
struct PhaseResult {
    std::vector<double> latency_ms; ///< one per completed operation
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double wall_s = 0.0;
    double work = 0.0; ///< throughput numerator (designs/estimates/sweeps)
    std::vector<std::string> errors; ///< first few failure messages
};

void note_error(PhaseResult& r, const std::string& msg) {
    if (r.errors.size() < 8) r.errors.push_back(msg);
}

/// The training fixture every workload shares: a 3-fold x 1-seed,
/// hidden-16 dynamic-power ensemble on bicg/gemm/syrk/k2mm.
struct Fixture {
    std::unique_ptr<core::PowerGear> pg;

    /// Through `cache` when it is enabled (dse_sweep: a cold fill), plain
    /// generation and fit otherwise.
    SetupTimes build(const Scale& sc, const io::Cache& cache) {
        SetupTimes t;
        std::uint64_t t0 = now_ns();
        std::vector<dataset::Dataset> train;
        for (const std::string& k : kTrainKernels)
            train.push_back(dataset::generate_dataset(
                k, generator_options(sc, cache.root())));
        t.datagen_s = seconds_since(t0);
        t0 = now_ns();
        pg = std::make_unique<core::PowerGear>(fixture_options(sc));
        pg->fit_cached(dataset::pool_except(train, train.size()), cache);
        t.fit_s = seconds_since(t0);
        return t;
    }
};

class Workload {
public:
    virtual ~Workload() = default;
    /// Full set-up into the private directory `dir`.
    virtual SetupTimes setup(const fs::path& dir) = 0;
    /// Run operations for `seconds`; spans go to `tr` when it is on.
    /// `salt` separates the input streams of the untraced and traced
    /// halves.
    virtual PhaseResult measure(double seconds, Tracer& tr,
                                std::uint64_t salt) = 0;
    /// Untimed operations between set-up and the timed phase, so first-use
    /// costs (page faults, arenas growing to their working size) stay out
    /// of the metrics. Its operations are checked and counted like any.
    virtual PhaseResult warm_up(double seconds, Tracer& tr) {
        return measure(seconds, tr, 0);
    }
    /// Output checks, outside the timed loop.
    virtual void check(Checks& c) = 0;
    /// Per-layer metrics of the traced half.
    virtual void layers(const PhaseResult& traced, const Tracer& tr,
                        const obs::Report& rep, Metrics& out) = 0;
    /// Workload-specific detail for the output JSON.
    virtual obs::JsonValue detail() const { return obs::JsonValue::object(); }
    /// The percentile latency_tail_ms reports: the highest one that leaves
    /// at least ten operations beyond it in a run and still repeats from
    /// run to run (README.md, "End-to-end metrics").
    virtual double tail_percentile() const { return 0.99; }
};

/// Share (%) of each span name's self time in `total_ms`, into `out`.
/// `names` maps span name -> layer metric; anything else is unattributed.
void span_shares(const Tracer& tr, double total_ms,
                 const std::vector<std::pair<const char*, const char*>>& names,
                 Metrics& out) {
    const std::map<std::string, double> self = tr.self_ms();
    double attributed = 0.0;
    for (const auto& [span, metric] : names) {
        const auto it = self.find(span);
        const double ms = it == self.end() ? 0.0 : it->second;
        set_layer(out, metric, pct(ms, total_ms));
        attributed += ms;
    }
    set_layer(out, "unattributed_pct", pct(total_ms - attributed, total_ms));
}

const obs::PhaseStats* phase(const obs::Report& rep, obs::Phase p) {
    const auto it = rep.phases.find(obs::phase_name(p));
    return it == rep.phases.end() ? nullptr : &it->second;
}

std::uint64_t counter(const obs::Report& rep, obs::Phase p, const char* name) {
    const obs::PhaseStats* ps = phase(rep, p);
    if (!ps) return 0;
    const auto it = ps->counters.find(name);
    return it == ps->counters.end() ? 0 : it->second;
}

// ---------------------------------------------------------- fresh_design

/// One kernel at one problem size, with its IR built in set-up and a walk
/// over its directive space.
struct KernelCase {
    KernelCase(const std::string& name, int size)
        : fn(kernels::build_polybench(name, size)), space(fn), walk(space.size()) {}
    ir::Function fn;
    hls::DesignSpace space;
    SpaceWalk walk;
};

/// IR to an estimable sample for one design point — the paper's
/// estimation path up to the forward, every layer called through its
/// public function and wrapped in a span. No board label: a caller asking
/// for watts has none. The kernel's input stimulus is the one the library's
/// generator derives from GeneratorOptions::seed == `gen_seed`
/// (dataset/generator.cpp), so generate_design_points with that seed
/// computes the same sample.
dataset::Sample fresh_sample(const KernelCase& kc, std::uint64_t point,
                             std::uint64_t gen_seed, Tracer& tr, std::uint64_t req,
                             std::int64_t* trace_ops = nullptr) {
    sim::StimulusProfile stim = dataset::GeneratorOptions{}.stimulus;
    stim.seed = util::hash_mix(gen_seed, std::hash<std::string>{}(kc.fn.name));
    sim::Trace trace;
    {
        const SpanScope s(tr, "sim.simulate", req);
        trace = sim::simulate(kc.fn, stim);
    }
    if (trace_ops) *trace_ops = trace.executed_ops;
    dataset::Sample smp;
    smp.kernel = kc.fn.name;
    smp.design_index = point;
    hls::Design design;
    hls::Design base;
    {
        const SpanScope s(tr, "hls.synthesize", req);
        smp.directives = kc.space.point(point);
        design = hls::synthesize(kc.fn, smp.directives);
        base = hls::synthesize(kc.fn, hls::Directives{});
    }
    std::optional<sim::ActivityOracle> oracle;
    {
        const SpanScope s(tr, "sim.activity", req);
        oracle.emplace(kc.fn, design.elab, trace, design.sched.total_latency);
    }
    {
        const SpanScope s(tr, "graphgen.construct", req);
        smp.graph = graphgen::construct_graph(kc.fn, design.elab,
                                              design.binding, *oracle);
    }
    {
        const SpanScope s(tr, "gnn.tensorize", req);
        smp.metadata = hls::metadata_features(design.report, base.report);
        smp.tensors = gnn::GraphTensors::from(smp.graph, smp.metadata);
    }
    smp.latency_cycles = design.report.latency_cycles;
    return smp;
}

struct FreshOutcome {
    int nodes = 0;
    std::size_t edges = 0;
    std::int64_t trace_ops = 0;
    double watts = 0.0;
    double spread = 0.0;
};

/// The paper's product path for one design point: fresh_sample, then an
/// estimate_batch of one.
FreshOutcome fresh_estimate(const KernelCase& kc, std::uint64_t point,
                            std::uint64_t gen_seed, const core::PowerGear& pg,
                            Tracer& tr, std::uint64_t req) {
    const SpanScope root(tr, "fresh.request", req);
    FreshOutcome out;
    const dataset::Sample smp =
        fresh_sample(kc, point, gen_seed, tr, req, &out.trace_ops);
    out.nodes = smp.graph.num_nodes;
    out.edges = smp.graph.edges.size();
    const dataset::Sample* one[] = {&smp};
    {
        const SpanScope s(tr, "core.estimate", req);
        const core::Estimate e =
            pg.estimate_batch(core::SamplePool(core::SamplePool::View(one, 1)))[0];
        out.watts = e.watts;
        out.spread = e.member_spread;
    }
    return out;
}

class FreshDesign final : public Workload {
public:
    FreshDesign(const Scale& sc, std::uint64_t seed) : sc_(sc), seed_(seed) {}

    SetupTimes setup(const fs::path&) override {
        SetupTimes t = fixture_.build(sc_, io::Cache{});
        const std::uint64_t t0 = now_ns();
        cases_.clear();
        for (const std::string& k : kernels::polybench_names())
            for (const int size : {12, 16, 20})
                cases_.push_back(std::make_unique<KernelCase>(k, size));
        rng_ = util::Rng(util::hash_mix(seed_, 0xf7e5));
        order_.resize(cases_.size());
        issued_.clear();
        outcomes_.clear();
        t.workload_s = seconds_since(t0);
        return t;
    }

    PhaseResult measure(double seconds, Tracer& tr, std::uint64_t) override {
        PhaseResult r;
        const std::uint64_t start = now_ns();
        const std::uint64_t deadline =
            start + static_cast<std::uint64_t>(seconds * 1e9);
        // A simulation trace depends on (kernel, size, stimulus); the share
        // of requests repeating one is what a trace cache could save.
        std::set<std::pair<std::size_t, std::uint64_t>> seen;
        nodes_ = edges_ = ops_ = 0.0;
        repeats_ = 0;
        if (tr.on()) tr.reserve(static_cast<std::size_t>(seconds * 8000));
        while (now_ns() < deadline) {
            // Stratified mix: each round of 27 requests visits every
            // (kernel, size) once in seeded order, and each visit takes the
            // next point of that case's walk. Every request simulates a
            // stimulus of its own: a design seen for the first time comes
            // with inputs nobody has simulated yet.
            const std::size_t pos = issued_.size();
            if (pos % cases_.size() == 0) {
                for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
                rng_.shuffle(order_);
            }
            const std::size_t kc = order_[pos % cases_.size()];
            const Issued req{kc, cases_[kc]->walk.next(),
                             util::hash_mix(seed_, 0x5eed0000 + pos)};
            issued_.push_back(req);
            if (!seen.emplace(kc, req.gen_seed).second) ++repeats_;

            ++r.attempted;
            const std::uint64_t t0 = now_ns();
            // outcomes_[i] belongs to issued_[i]; a request that throws
            // keeps its slot with an empty outcome, which the check flags.
            FreshOutcome o;
            try {
                o = fresh_estimate(*cases_[kc], req.point, req.gen_seed,
                                   *fixture_.pg, tr, pos);
                r.latency_ms.push_back(ms_of(now_ns() - t0));
                if (!std::isfinite(o.watts) || o.nodes <= 0) {
                    ++r.failed;
                    note_error(r, "request " + std::to_string(pos) +
                                      ": non-finite estimate or empty graph");
                }
                nodes_ += o.nodes;
                edges_ += static_cast<double>(o.edges);
                ops_ += static_cast<double>(o.trace_ops);
            } catch (const std::exception& e) {
                ++r.failed;
                note_error(r, e.what());
            }
            if (outcomes_.size() < sc_.fresh_checked) outcomes_.push_back(o);
        }
        r.wall_s = seconds_since(start);
        r.work = static_cast<double>(r.latency_ms.size());
        return r;
    }

    void check(Checks& c) override {
        // The first requests again through the library's own generator:
        // the benchmark must run the same program the library runs.
        std::size_t match = 0;
        std::string why;
        for (std::size_t i = 0; i < outcomes_.size(); ++i) {
            const auto [kc, point, gen_seed] = issued_[i];
            dataset::GeneratorOptions gen = generator_options(sc_);
            gen.seed = gen_seed;
            const std::uint64_t idx[] = {point};
            const dataset::Dataset lib{
                "check", dataset::generate_design_points(cases_[kc]->fn, idx, gen)};
            const core::Estimate e =
                fixture_.pg->estimate_batch(dataset::pool_of(lib))[0];
            const FreshOutcome& o = outcomes_[i];
            const graphgen::Graph& g = lib.samples[0].graph;
            const bool ok = o.nodes == g.num_nodes && o.edges == g.edges.size() &&
                            same_bits(o.watts, e.watts) &&
                            same_bits(o.spread, e.member_spread);
            if (ok) ++match;
            else if (why.empty())
                why = "request " + std::to_string(i) + " (" +
                      cases_[kc]->fn.name + "@" + std::to_string(point) +
                      ") differs from generate_design_points";
        }
        c.expect("fresh_matches_generate_design_points",
                 !outcomes_.empty() && match == outcomes_.size(),
                 std::to_string(match) + "/" + std::to_string(outcomes_.size()) +
                     " bit-identical" + (why.empty() ? "" : "; " + why));
    }

    void layers(const PhaseResult& traced, const Tracer& tr,
                const obs::Report&, Metrics& out) override {
        double total = 0.0;
        for (const double x : traced.latency_ms) total += x;
        span_shares(tr, total,
                    {{"sim.simulate", "sim.simulate_pct"},
                     {"sim.activity", "sim.activity_pct"},
                     {"hls.synthesize", "hls.synthesize_pct"},
                     {"graphgen.construct", "graphgen.construct_pct"},
                     {"gnn.tensorize", "gnn.tensorize_pct"},
                     {"core.estimate", "core.estimate_pct"}},
                    out);
        const double n = std::max<double>(1.0, traced.work);
        set_layer(out, "graphgen.nodes", nodes_ / n);
        set_layer(out, "graphgen.edges", edges_ / n);
        set_layer(out, "sim.trace_ops", ops_ / n);
        set_layer(out, "input.repeat_pct",
                  100.0 * static_cast<double>(repeats_) / n);
    }

private:
    Scale sc_;
    std::uint64_t seed_;
    Fixture fixture_;
    std::vector<std::unique_ptr<KernelCase>> cases_;
    util::Rng rng_;
    std::vector<std::size_t> order_;
    struct Issued {
        std::size_t kc;         ///< index into cases_
        std::uint64_t point;    ///< directive space index
        std::uint64_t gen_seed; ///< GeneratorOptions::seed of its stimulus
    };
    std::vector<Issued> issued_;
    std::vector<FreshOutcome> outcomes_; ///< first sc_.fresh_checked requests
    double nodes_ = 0.0, edges_ = 0.0, ops_ = 0.0;
    std::uint64_t repeats_ = 0;
};

// ----------------------------------------------------------- serve_burst

/// The DSE-client pattern against a warm daemon. Set-up saves the fixture
/// as an artifact, starts an in-process daemon with the default
/// ServerConfig, and builds 72 samples (9 kernels x 8 points at size 16, by
/// the fresh_design path on a seeded stimulus) with their in-process
/// reference estimates. The timed loop is one closed-loop client on one
/// connection, repeating Client::estimate_batch of sc_.burst pipelined
/// requests. A second such client made throughput spread three times as
/// wide between runs (9.4% against 3.1% over eight interleaved pairs): how
/// the two clients' bursts met in the daemon's batches changed from run to
/// run.
class ServeBurst final : public Workload {
public:
    ServeBurst(const Scale& sc, std::uint64_t seed) : sc_(sc), seed_(seed) {}

    SetupTimes setup(const fs::path& dir) override {
        server_.reset();
        SetupTimes t = fixture_.build(sc_, io::Cache{});
        const std::uint64_t t0 = now_ns();
        samples_.clear();
        Tracer off;
        const std::uint64_t gen_seed = util::hash_mix(seed_, 0x5e7e);
        for (const std::string& k : kernels::polybench_names()) {
            KernelCase kc(k, kTrainSize);
            for (int j = 0; j < sc_.serve_points_per_kernel; ++j)
                samples_.push_back(fresh_sample(kc, kc.walk.next(), gen_seed, off, 0));
        }
        ptrs_.clear();
        for (const dataset::Sample& s : samples_) ptrs_.push_back(&s);
        reference_ = fixture_.pg->estimate_batch(
            core::SamplePool(core::SamplePool::View(ptrs_.data(), ptrs_.size())));

        const std::string model = (dir / "model.art").string();
        fixture_.pg->save(model);
        core::serve::ServerConfig cfg;
        cfg.socket_path = (dir / "serve.sock").string();
        cfg.model_path = model;
        config_ = cfg;
        server_ = std::make_unique<core::serve::Server>(cfg);
        server_->start();
        t.workload_s = seconds_since(t0);
        return t;
    }

    PhaseResult measure(double seconds, Tracer& tr, std::uint64_t salt) override {
        PhaseResult r;
        const std::uint64_t start = now_ns();
        const std::uint64_t deadline =
            start + static_cast<std::uint64_t>(seconds * 1e9);
        if (tr.on()) tr.reserve(static_cast<std::size_t>(seconds * 2000));
        std::uint64_t answered = 0;
        try {
            core::serve::Client client(config_.socket_path);
            util::Rng rng(util::hash_mix(seed_, salt));
            std::vector<const dataset::Sample*> burst(sc_.burst);
            std::vector<std::size_t> idx(sc_.burst);
            std::uint64_t req = 0;
            while (now_ns() < deadline) {
                const std::size_t off = rng.next_below(samples_.size());
                for (std::size_t j = 0; j < sc_.burst; ++j) {
                    idx[j] = (off + j) % samples_.size();
                    burst[j] = ptrs_[idx[j]];
                }
                r.attempted += sc_.burst;
                const std::uint64_t a = now_ns();
                std::vector<core::Estimate> ests;
                {
                    const SpanScope s(tr, "serve.client", req++);
                    ests = client.estimate_batch(burst);
                }
                r.latency_ms.push_back(ms_of(now_ns() - a));
                for (std::size_t j = 0; j < sc_.burst; ++j)
                    if (!same_bits(ests[j].watts, reference_[idx[j]].watts) ||
                        !same_bits(ests[j].member_spread,
                                   reference_[idx[j]].member_spread)) {
                        ++r.failed;
                        ++mismatches_;
                    }
                answered += sc_.burst;
            }
        } catch (const std::exception& e) {
            note_error(r, e.what());
        }
        r.failed += r.attempted - answered;
        unanswered_ += r.attempted - answered;
        r.work = static_cast<double>(answered);
        r.wall_s = seconds_since(start);
        return r;
    }

    void check(Checks& c) override {
        const core::serve::Server::Stats st = server_->stats();
        c.expect("serve_no_server_errors", st.errors == 0,
                 std::to_string(st.errors) + " error response(s)");
        c.expect("serve_answers_bit_equal", mismatches_ == 0,
                 std::to_string(mismatches_) +
                     " answer(s) differ from in-process estimate_batch");
        c.expect("serve_all_answered", unanswered_ == 0,
                 std::to_string(unanswered_) + " request(s) unanswered");
    }

    void layers(const PhaseResult& traced, const Tracer& tr,
                const obs::Report& rep, Metrics& out) override {
        // A burst is one public Client call, and the daemon's reader and
        // batcher work on it concurrently, so the server side is reported
        // as utilization and batch shape, not as additive shares.
        double total = 0.0;
        for (const double x : traced.latency_ms) total += x;
        span_shares(tr, total, {{"serve.client", "serve.client_pct"}}, out);
        if (const obs::PhaseStats* eb = phase(rep, obs::Phase::EstimateBatch))
            set_layer(out, "serve.forward_util_pct", pct(eb->total_s, traced.wall_s));
        set_layer(out, "serve.errors", static_cast<double>(server_->stats().errors));
        double nodes = 0.0, edges = 0.0, bytes = 0.0;
        for (const dataset::Sample& s : samples_) {
            nodes += s.graph.num_nodes;
            edges += static_cast<double>(s.graph.edges.size());
            bytes += static_cast<double>(io::encode_sample(s).size());
        }
        const double n = static_cast<double>(samples_.size());
        set_layer(out, "graphgen.nodes", nodes / n);
        set_layer(out, "graphgen.edges", edges / n);
        set_layer(out, "io.request_bytes", bytes / n);
        // At most one first use per sample; every later request repeats.
        set_layer(out, "input.repeat_pct",
                  pct(std::max(0.0, traced.work - n), traced.work));
    }

    obs::JsonValue detail() const override {
        obs::JsonValue d = obs::JsonValue::object();
        d.set("samples", obs::JsonValue(static_cast<std::uint64_t>(samples_.size())));
        d.set("connections", obs::JsonValue(std::int64_t{1}));
        d.set("burst", obs::JsonValue(static_cast<std::uint64_t>(sc_.burst)));
        d.set("max_batch", obs::JsonValue(static_cast<std::int64_t>(config_.max_batch)));
        d.set("batch_window_us",
              obs::JsonValue(static_cast<std::int64_t>(config_.batch_window_us)));
        d.set("max_queue", obs::JsonValue(static_cast<std::int64_t>(config_.max_queue)));
        return d;
    }

    /// A run holds about 2,600 bursts. Over eight runs the p90 spread 5%,
    /// the p99 21%: it rests on the 26 slowest bursts, host stalls.
    double tail_percentile() const override { return 0.90; }

private:
    Scale sc_;
    std::uint64_t seed_;
    Fixture fixture_;
    std::vector<dataset::Sample> samples_;
    std::vector<const dataset::Sample*> ptrs_;
    std::vector<core::Estimate> reference_;
    core::serve::ServerConfig config_;
    std::unique_ptr<core::serve::Server> server_;
    std::uint64_t mismatches_ = 0;
    std::uint64_t unanswered_ = 0;
};

// ------------------------------------------------------------- dse_sweep

class DseSweep final : public Workload {
public:
    DseSweep(const Scale& sc, std::uint64_t seed) : sc_(sc), seed_(seed) {}

    SetupTimes setup(const fs::path& dir) override {
        cache_ = io::Cache((dir / "cache").string());
        SetupTimes t = fixture_.build(sc_, cache_);
        const std::uint64_t t0 = now_ns();
        fn_ = std::make_unique<ir::Function>(kernels::build_polybench("atax", kTrainSize));
        const hls::DesignSpace space(*fn_);
        indices_ = SpaceWalk(space.size()).take(sc_.dse_points);
        (void)dataset::generate_design_points(*fn_, indices_, pool_options());
        files_before_ = cache_files();
        first_adrs_.reset();
        t.workload_s = seconds_since(t0);
        return t;
    }

    PhaseResult measure(double seconds, Tracer& tr, std::uint64_t) override {
        PhaseResult r;
        const std::uint64_t start = now_ns();
        const std::uint64_t deadline =
            start + static_cast<std::uint64_t>(seconds * 1e9);
        const dataset::GeneratorOptions gen = generator_options(sc_, cache_.root());
        const dataset::GeneratorOptions pool_gen = pool_options();
        obs::Report prev = tr.on() ? obs::snapshot() : obs::Report{};
        auto est_delta_ms = [&]() {
            // estimate_batch time since the last call (traced half only).
            const obs::Report now = obs::snapshot();
            const obs::PhaseStats* a = phase(now, obs::Phase::EstimateBatch);
            const obs::PhaseStats* b = phase(prev, obs::Phase::EstimateBatch);
            const double d = ((a ? a->total_s : 0.0) - (b ? b->total_s : 0.0)) * 1e3;
            prev = now;
            return d;
        };
        std::uint64_t sweep = 0;
        while (now_ns() < deadline) {
            ++r.attempted;
            const std::uint64_t a = now_ns();
            try {
                bool hit = false;
                dse::StreamResult sres;
                dse::DseResult ires;
                {
                    const SpanScope root(tr, "dse.sweep", sweep);
                    std::vector<dataset::Dataset> train;
                    dataset::Dataset pool{"atax", {}};
                    {
                        const SpanScope s(tr, "io.cache_load", sweep);
                        for (const std::string& k : kTrainKernels)
                            train.push_back(dataset::generate_dataset(k, gen));
                        pool.samples =
                            dataset::generate_design_points(*fn_, indices_, pool_gen);
                    }
                    core::PowerGear pg(fixture_options(sc_));
                    {
                        const SpanScope s(tr, "core.fit_cached", sweep);
                        hit = pg.fit_cached(dataset::pool_except(train, train.size()),
                                            cache_);
                    }
                    dse::StreamConfig scfg;
                    scfg.chunk = 64;
                    scfg.spread_gate = 0.5;
                    {
                        const SpanScope s(tr, "dse.stream", sweep);
                        sres = dse::StreamingExplorer(scfg).run(
                            dataset::pool_of(pool), pg, dataset::PowerKind::Dynamic);
                    }
                    if (tr.on()) stream_est_ms_ += est_delta_ms();
                    dse::ExplorerConfig icfg;
                    icfg.total_budget = 0.4;
                    {
                        const SpanScope s(tr, "dse.iterative", sweep);
                        ires = dse::Explorer(icfg).run(dataset::pool_of(pool), pg,
                                                       dataset::PowerKind::Dynamic);
                    }
                    if (tr.on()) iter_est_ms_ += est_delta_ms();
                }
                r.latency_ms.push_back(ms_of(now_ns() - a));
                if (!first_adrs_)
                    first_adrs_ = std::make_pair(sres.adrs_value, ires.adrs_value);
                const bool ok = hit && sres.stats.scored == indices_.size() &&
                                same_bits(sres.adrs_value, first_adrs_->first) &&
                                same_bits(ires.adrs_value, first_adrs_->second);
                if (!ok) {
                    ++r.failed;
                    ++bad_sweeps_;
                    note_error(r, "sweep " + std::to_string(sweep) +
                                      (hit ? ": result differs" : ": model cache miss"));
                }
                promoted_ = static_cast<double>(sres.stats.promoted);
                scored_ = static_cast<double>(sres.stats.scored);
            } catch (const std::exception& e) {
                ++r.failed;
                ++bad_sweeps_;
                note_error(r, e.what());
            }
            ++sweep;
        }
        r.wall_s = seconds_since(start);
        r.work = static_cast<double>(r.latency_ms.size());
        return r;
    }

    void check(Checks& c) override {
        c.expect("dse_sweeps_identical", bad_sweeps_ == 0 && first_adrs_.has_value(),
                 std::to_string(bad_sweeps_) +
                     " sweep(s) with a cache miss, a short stream or a different ADRS");
        const std::uint64_t files = cache_files();
        c.expect("dse_no_cache_stores", files == files_before_,
                 std::to_string(files_before_) + " cache files before the timed "
                 "phase, " + std::to_string(files) + " after (a miss stores)");
        if (obs_misses_ >= 0)
            c.expect("dse_no_cache_misses", obs_misses_ == 0,
                     std::to_string(obs_misses_) + " obs cache miss(es)");
    }

    void layers(const PhaseResult& traced, const Tracer& tr,
                const obs::Report& rep, Metrics& out) override {
        double total = 0.0;
        for (const double x : traced.latency_ms) total += x;
        // estimate_batch runs inside both explorers; obs splits it out so
        // each explorer's share is its own bookkeeping.
        span_shares(tr, total,
                    {{"io.cache_load", "io.cache_load_pct"},
                     {"core.fit_cached", "core.fit_cached_pct"},
                     {"dse.stream", "dse.stream_pct"},
                     {"dse.iterative", "dse.iterative_pct"}},
                    out);
        out["dse.stream_pct"].value -= pct(stream_est_ms_, total);
        out["dse.iterative_pct"].value -= pct(iter_est_ms_, total);
        set_layer(out, "core.estimate_pct",
                  pct(stream_est_ms_ + iter_est_ms_, total));
        const double n = std::max<double>(1.0, traced.work);
        const std::uint64_t hits = counter(rep, obs::Phase::Cache, "hits");
        obs_misses_ = static_cast<std::int64_t>(counter(rep, obs::Phase::Cache, "misses"));
        set_layer(out, "io.cache_hits", static_cast<double>(hits) / n);
        set_layer(out, "io.cache_misses", static_cast<double>(obs_misses_) / n);
        set_layer(out, "dse.promoted", promoted_);
        set_layer(out, "dse.truth_pct", pct(promoted_, scored_));
        if (first_adrs_) {
            set_layer(out, "dse.adrs_stream", first_adrs_->first);
            set_layer(out, "dse.adrs_iterative", first_adrs_->second);
        }
        set_layer(out, "input.repeat_pct", 100.0 * (n - 1.0) / n);
        graph_sizes(out);
    }

    obs::JsonValue detail() const override {
        obs::JsonValue d = obs::JsonValue::object();
        d.set("points", obs::JsonValue(static_cast<std::uint64_t>(indices_.size())));
        d.set("chunk", obs::JsonValue(std::int64_t{64}));
        d.set("spread_gate", obs::JsonValue(0.5));
        d.set("total_budget", obs::JsonValue(0.4));
        d.set("cache_files", obs::JsonValue(files_before_));
        if (first_adrs_) {
            d.set("adrs_stream", obs::JsonValue(first_adrs_->first));
            d.set("adrs_iterative", obs::JsonValue(first_adrs_->second));
        }
        return d;
    }

    /// A run holds about 500 sweeps, so its p99 rests on five of them, each
    /// one a stall of the host: over ten runs the p99 spread 12%, the p90
    /// 4%.
    double tail_percentile() const override { return 0.90; }

private:
    /// The candidate pool's generator options: the seed picks the stimulus
    /// the pool is simulated on. The training sets keep the default one.
    dataset::GeneratorOptions pool_options() const {
        dataset::GeneratorOptions g = generator_options(sc_, cache_.root());
        g.seed = util::hash_mix(seed_, 0xd5e);
        return g;
    }

    std::uint64_t cache_files() const {
        std::uint64_t n = 0;
        for (const io::Cache::StageStats& s : cache_.stats()) n += s.files;
        return n;
    }

    /// Mean graph size of the sweep's candidate pool (read back warm).
    void graph_sizes(Metrics& out) const {
        const std::vector<dataset::Sample> pool =
            dataset::generate_design_points(*fn_, indices_, pool_options());
        double nodes = 0.0, edges = 0.0;
        for (const dataset::Sample& s : pool) {
            nodes += s.graph.num_nodes;
            edges += static_cast<double>(s.graph.edges.size());
        }
        set_layer(out, "graphgen.nodes", nodes / static_cast<double>(pool.size()));
        set_layer(out, "graphgen.edges", edges / static_cast<double>(pool.size()));
    }

    Scale sc_;
    std::uint64_t seed_;
    Fixture fixture_;
    io::Cache cache_;
    std::unique_ptr<ir::Function> fn_;
    std::vector<std::uint64_t> indices_;
    std::uint64_t files_before_ = 0;
    std::optional<std::pair<double, double>> first_adrs_;
    std::uint64_t bad_sweeps_ = 0;
    std::int64_t obs_misses_ = -1; ///< -1 until a traced half counted them
    double stream_est_ms_ = 0.0, iter_est_ms_ = 0.0;
    double promoted_ = 0.0, scored_ = 0.0;
};

// ------------------------------------------------------------------ main

std::unique_ptr<Workload> make_workload(const std::string& name, const Scale& sc,
                                        std::uint64_t seed) {
    if (name == "fresh_design") return std::make_unique<FreshDesign>(sc, seed);
    if (name == "serve_burst") return std::make_unique<ServeBurst>(sc, seed);
    if (name == "dse_sweep") return std::make_unique<DseSweep>(sc, seed);
    return nullptr;
}

/// Removes the run's private directory on every exit path, and the work
/// root too once no other run uses it.
struct DirGuard {
    fs::path dir;
    ~DirGuard() {
        std::error_code ec;
        fs::remove_all(dir, ec);
        fs::remove(dir.parent_path(), ec); // fails harmlessly when not empty
    }
};

int usage(const char* msg) {
    std::fprintf(stderr,
                 "bench_e2e: %s\n"
                 "usage: bench_e2e --workload {fresh_design|serve_burst|"
                 "dse_sweep}\n"
                 "                 --seed S --out F.json [--seconds N] "
                 "[--trace T.json]\n"
                 "                 [--smoke] [--workdir DIR]\n",
                 msg);
    return 2;
}

obs::JsonValue metrics_json(const Metrics& m) {
    obs::JsonValue o = obs::JsonValue::object();
    for (const auto& [name, metric] : m) {
        obs::JsonValue v = obs::JsonValue::object();
        v.set("value", obs::JsonValue(metric.value));
        v.set("unit", obs::JsonValue(metric.unit));
        o.set(name, std::move(v));
    }
    return o;
}

} // namespace

int main(int argc, char** argv) {
    std::string workload, out_path, trace_path, workdir = ".bench_work";
    std::uint64_t seed = 0;
    bool have_seed = false, smoke = false;
    double seconds = -1.0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool more = i + 1 < argc;
        if (a == "--workload" && more) workload = argv[++i];
        else if (a == "--seed" && more) {
            char* end = nullptr;
            seed = std::strtoull(argv[++i], &end, 10);
            if (!end || *end) return usage("--seed takes an unsigned integer");
            have_seed = true;
        } else if (a == "--seconds" && more) seconds = std::atof(argv[++i]);
        else if (a == "--out" && more) out_path = argv[++i];
        else if (a == "--trace" && more) trace_path = argv[++i];
        else if (a == "--workdir" && more) workdir = argv[++i];
        else if (a == "--smoke") smoke = true;
        else return usage(("unknown argument " + a).c_str());
    }
    if (!make_workload(workload, Scale::smoke(), 0))
        return usage("--workload must name one of the three workloads");
    if (!have_seed) return usage("--seed is required");
    if (out_path.empty()) return usage("--out is required");
    if (seconds < 0.0) seconds = smoke ? 1.0 : 25.0;
    if (!(seconds > 0.0) || seconds > 600.0)
        return usage("--seconds must lie in (0, 600]");
    for (char** e = environ; *e; ++e)
        if (std::strncmp(*e, "POWERGEAR_", 10) == 0)
            return usage(("environment variable " +
                          std::string(*e).substr(0, std::strcspn(*e, "=")) +
                          " is set; unset every POWERGEAR_* variable").c_str());

    const bool traced = !trace_path.empty();
    const Scale sc = smoke ? Scale::smoke() : Scale::full();
    util::set_parallel_jobs(1);
    obs::set_enabled(false);

    try {
        DirGuard guard{fs::path(workdir) /
                       (workload + "-" + std::to_string(::getpid()))};
        fs::remove_all(guard.dir);
        fs::create_directories(guard.dir);

        // Set-up, several times; the last one is measured.
        std::unique_ptr<Workload> wl;
        std::vector<double> setup_s, datagen_s, fit_s, workload_s;
        for (int k = 0; k < sc.setups; ++k) {
            wl.reset();
            const fs::path dir = guard.dir / ("setup" + std::to_string(k));
            fs::create_directories(dir);
            const std::uint64_t t0 = now_ns();
            wl = make_workload(workload, sc, seed);
            const SetupTimes st = wl->setup(dir);
            setup_s.push_back(seconds_since(t0));
            datagen_s.push_back(st.datagen_s);
            fit_s.push_back(st.fit_s);
            workload_s.push_back(st.workload_s);
            if (k + 1 < sc.setups) {
                wl.reset();
                fs::remove_all(dir);
            }
        }

        // peak_rss_mib covers the timed phase only; the set-ups' own peak
        // (training included) is a per-layer metric. The heap the set-ups
        // freed goes back to the system first, so the phase's peak counts
        // what the process holds, not free space left resident.
        const double setup_rss = peak_rss_mib();
        Tracer tracer;
        const PhaseResult warm = wl->warm_up(sc.warmup_s, tracer);
        ::malloc_trim(0);
        reset_peak_rss();

        const double untraced_s = traced ? seconds / 2 : seconds;
        const PhaseResult untraced = wl->measure(untraced_s, tracer, 1);
        const double rss = peak_rss_mib();
        PhaseResult traced_half;
        obs::Report rep;
        if (traced) {
            tracer.set_on(true);
            obs::set_enabled(true);
            traced_half = wl->measure(seconds / 2, tracer, 2);
            obs::set_enabled(false);
            tracer.set_on(false);
            rep = obs::snapshot();
        }

        Metrics layer_metrics;
        if (traced) {
            for (const auto& [name, unit] : layer_metric_units())
                layer_metrics[name] = Metric{0.0, unit};
            wl->layers(traced_half, tracer, rep, layer_metrics);
            set_layer(layer_metrics, "trace.op_mean_ms", mean(traced_half.latency_ms));
            set_layer(layer_metrics, "trace.overhead_ms",
                      percentile(traced_half.latency_ms, 0.5) -
                          percentile(untraced.latency_ms, 0.5));
            set_layer(layer_metrics, "setup.datagen_s", percentile(datagen_s, 0.5));
            set_layer(layer_metrics, "setup.fit_s", percentile(fit_s, 0.5));
            set_layer(layer_metrics, "setup.workload_s", percentile(workload_s, 0.5));
            set_layer(layer_metrics, "setup.peak_rss_mib", setup_rss);
            if (const obs::PhaseStats* eb = phase(rep, obs::Phase::EstimateBatch)) {
                const double calls = static_cast<double>(std::max<std::uint64_t>(1, eb->calls));
                set_layer(layer_metrics, "core.estimate_batch_ms", eb->total_s * 1e3 / calls);
                set_layer(layer_metrics, "core.estimate_calls",
                          calls / std::max(1.0, traced_half.work));
                set_layer(layer_metrics, "core.batch_mean",
                          static_cast<double>(counter(rep, obs::Phase::EstimateBatch,
                                                      "estimates")) / calls);
            }
        }

        Checks checks;
        const std::uint64_t tc = now_ns();
        wl->check(checks);
        const double check_s = seconds_since(tc);

        std::uint64_t attempted = 0, failed = 0;
        for (const PhaseResult& p : {std::cref(warm), std::cref(untraced), std::cref(traced_half)}) {
            attempted += p.attempted;
            failed += p.failed;
            for (const std::string& e : p.errors)
                checks.expect("operation_error", false, e);
        }

        // The median latency is reported in "phase" but is no end-to-end
        // metric: it follows the shared host more than the program does
        // (README.md, "End-to-end metrics").
        Metrics e2e;
        e2e["setup_s"] = {percentile(setup_s, 0.5), "s"};
        e2e["throughput_per_s"] = {untraced.work / std::max(untraced.wall_s, 1e-9), "1/s"};
        e2e["latency_tail_ms"] = {
            percentile(untraced.latency_ms, wl->tail_percentile()), "ms"};
        e2e["peak_rss_mib"] = {rss, "MiB"};

        obs::JsonValue root = obs::JsonValue::object();
        root.set("schema", obs::JsonValue("powergear-bench-e2e-v1"));
        root.set("workload", obs::JsonValue(workload));
        root.set("seed", obs::JsonValue(seed));
        root.set("seconds", obs::JsonValue(seconds));
        root.set("smoke", obs::JsonValue(smoke));
        root.set("traced", obs::JsonValue(traced));
        const bool correct = checks.all_ok() && failed == 0;
        root.set("correct", obs::JsonValue(correct));
        root.set("attempted", obs::JsonValue(attempted));
        root.set("failed", obs::JsonValue(failed));
        root.set("error_rate",
                 obs::JsonValue(attempted ? static_cast<double>(failed) /
                                                static_cast<double>(attempted)
                                          : 0.0));
        obs::JsonValue settings = obs::JsonValue::object();
        settings.set("jobs", obs::JsonValue(static_cast<std::int64_t>(util::parallel_jobs())));
        settings.set("obs", obs::JsonValue(traced ? "traced half only" : "off"));
        settings.set("setups", obs::JsonValue(static_cast<std::int64_t>(sc.setups)));
        settings.set("fixture",
                     obs::JsonValue("dynamic power, hidden 16, " +
                                    std::to_string(sc.epochs) + " epochs, " +
                                    std::to_string(sc.folds) + " folds x 1 seed, "
                                    "bicg/gemm/syrk/k2mm x " +
                                    std::to_string(sc.train_samples) +
                                    " samples, size 16, no Vivado baseline"));
        root.set("settings", std::move(settings));
        root.set("metrics", metrics_json(e2e));
        if (traced) root.set("layers", metrics_json(layer_metrics));

        obs::JsonValue phase_info = obs::JsonValue::object();
        phase_info.set("warmup_s", obs::JsonValue(sc.warmup_s));
        phase_info.set("samples",
                       obs::JsonValue(static_cast<std::uint64_t>(untraced.latency_ms.size())));
        phase_info.set("wall_s", obs::JsonValue(untraced.wall_s));
        phase_info.set("latency_mean_ms", obs::JsonValue(mean(untraced.latency_ms)));
        phase_info.set("tail_percentile", obs::JsonValue(wl->tail_percentile()));
        phase_info.set("latency_p50_ms", obs::JsonValue(percentile(untraced.latency_ms, 0.5)));
        phase_info.set("latency_p90_ms", obs::JsonValue(percentile(untraced.latency_ms, 0.9)));
        phase_info.set("latency_p99_ms", obs::JsonValue(percentile(untraced.latency_ms, 0.99)));
        phase_info.set("latency_max_ms",
                       obs::JsonValue(percentile(untraced.latency_ms, 1.0)));
        phase_info.set("check_s", obs::JsonValue(check_s));
        obs::JsonValue runs = obs::JsonValue::array();
        for (const double s : setup_s) runs.push_back(obs::JsonValue(s));
        phase_info.set("setup_runs_s", std::move(runs));
        if (traced) {
            phase_info.set("traced_samples", obs::JsonValue(static_cast<std::uint64_t>(
                                                 traced_half.latency_ms.size())));
            phase_info.set("traced_p50_ms",
                           obs::JsonValue(percentile(traced_half.latency_ms, 0.5)));
        }
        root.set("phase", std::move(phase_info));
        root.set("detail", wl->detail());
        obs::JsonValue check_list = obs::JsonValue::array();
        for (const Checks::Item& it : checks.items) {
            obs::JsonValue c = obs::JsonValue::object();
            c.set("name", obs::JsonValue(it.name));
            c.set("ok", obs::JsonValue(it.ok));
            c.set("detail", obs::JsonValue(it.detail));
            check_list.push_back(std::move(c));
        }
        root.set("checks", std::move(check_list));
        if (traced) root.set("obs", obs::JsonValue::parse(rep.to_json()));

        {
            std::ofstream out(out_path);
            out << root.dump(2) << "\n";
            if (!out) {
                std::fprintf(stderr, "bench_e2e: cannot write %s\n", out_path.c_str());
                return 1;
            }
        }
        if (traced && !tracer.write_chrome(trace_path)) {
            std::fprintf(stderr, "bench_e2e: cannot write %s\n", trace_path.c_str());
            return 1;
        }

        std::printf("bench_e2e %s seed %llu: %s, %llu/%llu failed, %zu ops in %.1f s\n",
                    workload.c_str(), static_cast<unsigned long long>(seed),
                    correct ? "correct" : "INCORRECT",
                    static_cast<unsigned long long>(failed),
                    static_cast<unsigned long long>(attempted),
                    untraced.latency_ms.size(), untraced.wall_s);
        for (const auto& [name, m] : e2e)
            std::printf("  %-26s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
        for (const Checks::Item& it : checks.items)
            std::printf("  check %-34s %s  %s\n", it.name.c_str(),
                        it.ok ? "ok  " : "FAIL", it.detail.c_str());
        if (traced) {
            std::printf("  per-layer (traced half, self time as %% of op time):\n");
            for (const auto& [name, m] : layer_metrics)
                std::printf("    %-28s %14.4f %s\n", name.c_str(), m.value,
                            m.unit.c_str());
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_e2e: error: %s\n", e.what());
        return 1;
    }
}
