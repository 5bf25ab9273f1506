#include "analysis/analysis.hpp"

#include <functional>
#include <string>

#include "graphgen/features.hpp"
#include "hls/flow.hpp"
#include "sim/stimulus.hpp"
#include "util/rng.hpp"

namespace powergear::analysis {

Report check_design(const ir::Function& fn, const hls::ElabGraph& elab,
                    const hls::Schedule& sched, const graphgen::Graph& graph,
                    const gnn::GraphTensors& tensors) {
    Report out;
    out.merge(check_schedule(fn, elab, sched));
    out.merge(check_graph(graph));
    out.merge(check_tensors(tensors));
    return out;
}

Report lint_kernel(const ir::Function& fn, const LintOptions& opts) {
    Report out = lint_ir(fn);
    out.set_context(fn.name);
    if (!out.clean()) return out; // downstream passes assume verified IR

    // Dataflow checkers (DF001-003) need only a structurally valid function.
    {
        Report df = check_dataflow(fn);
        df.set_context(fn.name);
        out.merge(df);
        if (!out.clean()) return out; // don't simulate a proven-broken kernel
    }

    // One trace per kernel, shared across design points (as in generation).
    sim::StimulusProfile stim;
    stim.seed = util::hash_mix(opts.seed, std::hash<std::string>{}(fn.name));
    const sim::Trace trace = sim::simulate(fn, stim);

    const hls::Design base = hls::synthesize(fn, hls::Directives{});

    // DF004: cross-check the scheduler's recurrence analysis against the
    // IR-side dataflow derivation on the baseline elaboration.
    {
        Report recur = check_recurrence(fn, base.elab);
        recur.set_context(fn.name);
        out.merge(recur);
    }

    const hls::DesignSpace space(fn);
    for (const hls::Directives& dirs : space.sample(opts.design_points)) {
        const hls::Design d = hls::synthesize(fn, dirs);
        const sim::ActivityOracle oracle(fn, d.elab, trace,
                                         d.sched.total_latency);
        const graphgen::Graph graph =
            graphgen::construct_graph(fn, d.elab, d.binding, oracle);
        const gnn::GraphTensors tensors = gnn::GraphTensors::from(
            graph, hls::metadata_features(d.report, base.report));

        Report point = check_design(fn, d.elab, d.sched, graph, tensors);
        point.set_context(fn.name + "@" + dirs.to_string());
        out.merge(point);
    }
    return out;
}

} // namespace powergear::analysis
