#include "dataset/generator.hpp"

#include <optional>
#include <stdexcept>

#include "analysis/ir_lint.hpp"
#include "graphgen/features.hpp"
#include "hls/flow.hpp"
#include "hlpow/features.hpp"
#include "io/cache.hpp"
#include "io/serial.hpp"
#include "kernels/polybench.hpp"
#include "obs/obs.hpp"
#include "sim/interpreter.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace powergear::dataset {

namespace {

/// Cache key of the sim stage: the trace depends only on the kernel IR and
/// the stimulus profile (directives never reach the interpreter).
std::uint64_t sim_stage_key(std::uint64_t ir_hash,
                            const sim::StimulusProfile& stim) {
    return io::Hasher()
        .feed(std::string(io::kArtifactFormatName))
        .feed(std::string(io::kStageSim))
        .feed(std::uint64_t{io::kSimPayloadVersion})
        .feed(ir_hash)
        .feed(stim.active_bits)
        .feed(stim.correlation)
        .feed(stim.seed)
        .value();
}

/// Cache key of one sample: everything the finished sample depends on —
/// kernel identity, directive config, every stage option, format versions,
/// and the upstream sim artifact hash.
std::uint64_t sample_stage_key(std::uint64_t ir_hash, std::uint64_t trace_hash,
                               const std::string& kernel_name,
                               const GeneratorOptions& opts,
                               const hls::Directives& dirs,
                               std::uint64_t design_index) {
    return io::Hasher()
        .feed(std::string(io::kArtifactFormatName))
        .feed(std::string(io::kStageSample))
        .feed(std::uint64_t{io::kSamplePayloadVersion})
        .feed(ir_hash)
        .feed(trace_hash)
        .feed(kernel_name)
        .feed(opts.seed)
        .feed(opts.board.place_moves_per_cell)
        .feed(opts.board.noise_amplitude)
        .feed(opts.board.noise_seed)
        .feed(opts.vivado.place_moves_per_cell)
        .feed(opts.vivado.place_seed)
        .feed(opts.vivado.activity_exponent)
        .feed(opts.vivado.default_logic_toggle)
        .feed(opts.run_vivado)
        .feed(dirs.to_string())
        .feed(design_index)
        .value();
}

/// Compute one sample from scratch: the per-point pipeline stages
/// hls -> graphgen (+ hlpow features) -> board label -> Vivado baseline.
Sample compute_sample(const ir::Function& fn, const hls::Directives& dirs,
                      std::uint64_t design_index, const sim::Trace& trace,
                      const hls::HlsReport& base_report,
                      const GeneratorOptions& opts) {
    Sample smp;
    smp.kernel = fn.name;
    smp.design_index = design_index;
    smp.directives = dirs;

    // --- hls + graphgen stages (timed: PowerGear's estimation-path cost) ---
    util::Timer pg_timer;
    const hls::Design design = hls::synthesize(fn, dirs);
    const sim::ActivityOracle oracle(fn, design.elab, trace,
                                     design.sched.total_latency);
    smp.graph = graphgen::construct_graph(fn, design.elab, design.binding,
                                          oracle);
    smp.metadata = hls::metadata_features(design.report, base_report);
    smp.tensors = gnn::GraphTensors::from(smp.graph, smp.metadata);
    smp.powergear_runtime_s = pg_timer.seconds();

    smp.hlpow_feats = hlpow::hlpow_features(design.elab, oracle, smp.metadata);
    smp.latency_cycles = design.report.latency_cycles;

    // --- ground truth: board measurement ------------------------------
    const std::uint64_t sample_uid =
        util::hash_mix(std::hash<std::string>{}(fn.name), smp.design_index);
    const fpga::BoardMeasurement m =
        fpga::measure_on_board(fn, design.elab, design.binding, oracle,
                               design.report, sample_uid, opts.board);
    smp.total_power_w = m.total_w;
    smp.dynamic_power_w = m.dynamic_w;
    smp.static_power_w = m.static_w;

    // --- Vivado-like baseline flow -------------------------------------
    if (opts.run_vivado) {
        const fpga::VivadoEstimate est = fpga::vivado_estimate(
            fn, design.elab, design.binding, oracle, design.report,
            opts.vivado);
        smp.vivado_total_raw = est.total_w;
        smp.vivado_dynamic_raw = est.dynamic_w;
        smp.vivado_runtime_s = est.runtime_s;
    }
    return smp;
}

/// One design point to push through the per-point pipeline, with the
/// identity its cache key and Sample::design_index carry (positional for
/// generate_dataset_for, raw space index for generate_design_points).
struct PointJob {
    hls::Directives dirs;
    std::uint64_t design_index = 0;
};

/// Shared pipeline body: lint gate, lazily-materialized sim trace, serial
/// cache consult, parallel fan-out over the misses. Returns one Sample per
/// job, in job order.
std::vector<Sample> run_point_pipeline(const ir::Function& fn,
                                       const std::vector<PointJob>& jobs,
                                       const GeneratorOptions& opts) {
    // A malformed kernel would silently produce garbage labels for every
    // sample below, so the IR gate is unconditional (it is linear and runs
    // once per batch); lint warnings are tolerated, errors are not.
    analysis::Report ir_report = analysis::lint_ir(fn);
    ir_report.set_context(fn.name);
    analysis::require_clean(ir_report, "dataset::generate_dataset_for");

    const io::Cache cache(opts.cache_dir);
    const std::uint64_t ir_hash = io::hash_ir(fn);

    sim::StimulusProfile stim = opts.stimulus;
    stim.seed = util::hash_mix(opts.seed, std::hash<std::string>{}(fn.name));

    // --- sim stage: one trace per kernel, shared across design points. ----
    // The trace is materialized lazily: when every sample below hits the
    // cache, only the stored artifact's checksum is needed (it chains into
    // the sample keys), which a header peek provides without reading the
    // payload. `trace` stays empty on a fully-warm run.
    const std::uint64_t sim_key = sim_stage_key(ir_hash, stim);
    std::optional<sim::Trace> trace;
    std::uint64_t trace_hash = 0;
    const auto simulate_and_store = [&] {
        trace = sim::simulate(fn, stim);
        if (cache.enabled())
            trace_hash = cache.store(io::kStageSim, sim_key,
                                     io::kSimPayloadVersion,
                                     io::encode_trace(*trace));
    };
    if (cache.enabled()) {
        if (const std::optional<std::uint64_t> stored =
                cache.peek_checksum(io::kStageSim, sim_key,
                                    io::kSimPayloadVersion)) {
            trace_hash = *stored;
        } else {
            simulate_and_store();
        }
    }
    const auto ensure_trace = [&]() -> const sim::Trace& {
        if (!trace) {
            // Peeked-but-never-loaded, or cache disabled. A vanished entry
            // degrades to recomputation; so does a well-framed one whose
            // payload does not decode to one stream per instruction, which
            // counts as corrupt. Either way the fresh trace is stored over
            // the entry.
            if (cache.enabled()) {
                if (std::optional<std::vector<std::uint8_t>> payload =
                        cache.load(io::kStageSim, sim_key,
                                   io::kSimPayloadVersion)) {
                    try {
                        sim::Trace loaded = io::decode_trace(*payload);
                        if (loaded.values.size() == fn.instrs.size()) {
                            trace = std::move(loaded);
                            return *trace;
                        }
                    } catch (const std::runtime_error&) {
                        // undecodable: counted and recomputed below
                    }
                    obs::add(obs::Phase::Cache, "corrupt");
                }
            }
            simulate_and_store();
        }
        return *trace;
    };
    if (!cache.enabled()) ensure_trace();

    // --- sample stage: consult the cache serially (I/O-bound, cheap), then
    // fan the misses out. Loads happen before the parallel region so a
    // corrupt entry can fall back to recomputation with the trace in hand.
    std::vector<std::optional<Sample>> ready(jobs.size());
    std::vector<std::uint64_t> keys(jobs.size(), 0);
    std::vector<std::size_t> misses;
    for (std::size_t p = 0; p < jobs.size(); ++p) {
        if (cache.enabled()) {
            keys[p] = sample_stage_key(ir_hash, trace_hash, fn.name, opts,
                                       jobs[p].dirs, jobs[p].design_index);
            if (std::optional<std::vector<std::uint8_t>> payload = cache.load(
                    io::kStageSample, keys[p], io::kSamplePayloadVersion)) {
                try {
                    ready[p] = io::decode_sample(*payload);
                    continue;
                } catch (const std::runtime_error&) {
                    obs::add(obs::Phase::Cache, "corrupt");
                }
            }
        }
        misses.push_back(p);
    }

    if (!misses.empty()) {
        const std::uint64_t keyed_hash = trace_hash;
        const sim::Trace& the_trace = ensure_trace();
        // A recomputed sim entry: key the new samples off the stored trace.
        if (trace_hash != keyed_hash)
            for (const std::size_t p : misses)
                keys[p] = sample_stage_key(ir_hash, trace_hash, fn.name, opts,
                                           jobs[p].dirs, jobs[p].design_index);
        // Unoptimized baseline report for the metadata scaling factors.
        const hls::HlsReport base_report =
            hls::synthesize(fn, hls::Directives{}).report;

        // Design points are independent given the shared trace and baseline
        // report (both read-only from here): the HLS -> activity -> graph ->
        // board-label flow fans out one task per missed point. Every
        // stochastic input (stimulus trace, per-sample measurement jitter)
        // is derived from hashes of (kernel, design_index), not from a
        // shared generator, so the samples are bit-identical at any
        // POWERGEAR_JOBS value — and bit-identical to what a warm run loads
        // back from the artifacts stored here.
        util::parallel_for(misses.size(), [&](std::size_t i) {
            const std::size_t p = misses[i];
            Sample smp = compute_sample(fn, jobs[p].dirs,
                                        jobs[p].design_index, the_trace,
                                        base_report, opts);
            if (cache.enabled())
                cache.store(io::kStageSample, keys[p],
                            io::kSamplePayloadVersion, io::encode_sample(smp));
            ready[p] = std::move(smp);
        });
    }

    std::vector<Sample> out;
    out.reserve(jobs.size());
    for (std::optional<Sample>& s : ready) out.push_back(std::move(*s));
    return out;
}

} // namespace

Dataset generate_dataset_for(const ir::Function& fn, const GeneratorOptions& opts) {
    const obs::Scope obs_scope(obs::Phase::DatasetGen);
    const hls::DesignSpace space(fn);
    const std::vector<hls::Directives> points =
        space.sample(opts.samples_per_dataset);
    std::vector<PointJob> jobs;
    jobs.reserve(points.size());
    // Positional design_index: this is the historical cache keyspace of
    // dataset generation (sample p of the golden-ratio draw), kept stable
    // so existing caches stay warm.
    for (std::size_t p = 0; p < points.size(); ++p)
        jobs.push_back(PointJob{points[p], static_cast<std::uint64_t>(p)});

    Dataset ds;
    ds.name = fn.name;
    ds.samples = run_point_pipeline(fn, jobs, opts);
    obs::add(obs::Phase::DatasetGen, "datasets");
    obs::add(obs::Phase::DatasetGen, "samples", ds.samples.size());
    return ds;
}

std::vector<Sample> generate_design_points(
    const ir::Function& fn, std::span<const std::uint64_t> space_indices,
    const GeneratorOptions& opts) {
    const obs::Scope obs_scope(obs::Phase::DatasetGen);
    const hls::DesignSpace space(fn);
    std::vector<PointJob> jobs;
    jobs.reserve(space_indices.size());
    for (const std::uint64_t idx : space_indices) {
        if (idx >= space.size())
            throw std::out_of_range(
                "generate_design_points: space index out of range");
        jobs.push_back(PointJob{space.point(idx), idx});
    }
    std::vector<Sample> out = run_point_pipeline(fn, jobs, opts);
    obs::add(obs::Phase::DatasetGen, "design_points", out.size());
    return out;
}

Dataset generate_dataset(const std::string& kernel_name,
                         const GeneratorOptions& opts) {
    const ir::Function fn =
        kernels::build_polybench(kernel_name, opts.problem_size);
    return generate_dataset_for(fn, opts);
}

std::vector<Dataset> generate_polybench_suite(const GeneratorOptions& opts) {
    std::vector<Dataset> out;
    for (const std::string& name : kernels::polybench_names())
        out.push_back(generate_dataset(name, opts));
    return out;
}

} // namespace powergear::dataset
