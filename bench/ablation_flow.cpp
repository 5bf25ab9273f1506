// Extension ablation: the paper's Table II ablates the *model*; this bench
// ablates the *graph construction flow* itself (Fig. 2) — dynamic-power error
// when buffer insertion, datapath merging or graph trimming is disabled —
// plus the graph-size cost of skipping each pass. This quantifies DESIGN.md's
// claim that the construction passes, not just the conv, carry signal.
#include "bench_common.hpp"
#include "graphgen/features.hpp"
#include "hls/flow.hpp"
#include "kernels/polybench.hpp"
#include "sim/stimulus.hpp"

using namespace powergear;

namespace {

/// Regenerate a suite with a specific graph-flow configuration. Labels and
/// metadata are reused from the normal generator; only graphs change.
std::vector<dataset::Dataset> suite_with_flow(
    const util::BenchScale& scale, const graphgen::GraphFlowOptions& flow) {
    dataset::GeneratorOptions gen;
    gen.samples_per_dataset = scale.samples_per_dataset;
    gen.run_vivado = false; // baseline estimates are unused in this ablation
    std::vector<dataset::Dataset> suite;
    for (const std::string& name : kernels::polybench_names()) {
        dataset::Dataset ds = dataset::generate_dataset(name, gen);
        // Rebuild every graph under the ablated flow.
        const ir::Function fn = kernels::build_polybench(name, gen.problem_size);
        sim::StimulusProfile stim = gen.stimulus;
        stim.seed = util::hash_mix(gen.seed, std::hash<std::string>{}(fn.name));
        const sim::Trace trace = sim::simulate(fn, stim);
        for (dataset::Sample& s : ds.samples) {
            const hls::Design d = hls::synthesize(fn, s.directives);
            const sim::ActivityOracle oracle(fn, d.elab, trace,
                                             d.sched.total_latency);
            s.graph = graphgen::construct_graph(fn, d.elab, d.binding, oracle,
                                                flow);
            s.tensors = gnn::GraphTensors::from(s.graph, s.metadata);
        }
        suite.push_back(std::move(ds));
    }
    return suite;
}

} // namespace

int main() {
    const util::BenchScale scale = util::bench_scale();

    struct Variant {
        const char* name;
        graphgen::GraphFlowOptions flow;
    };
    std::vector<Variant> variants = {
        {"full flow", {}},
        {"w/o buffer ins.", {false, true, true}},
        {"w/o merging", {true, false, true}},
        {"w/o trimming", {true, true, false}},
        {"raw DFG", {false, false, false}},
    };

    util::Table table(
        {"Flow variant", "Avg nodes", "Avg dyn err %", "Avg tot err %"});
    for (const Variant& v : variants) {
        util::Timer t;
        const auto suite = suite_with_flow(scale, v.flow);
        double nodes = 0.0;
        for (const auto& ds : suite) nodes += ds.avg_nodes();
        nodes /= static_cast<double>(suite.size());

        std::vector<double> dyn_errors, tot_errors;
        for (std::size_t d = 0; d < suite.size(); ++d) {
            core::PowerGear::Options o =
                core::PowerGear::Options::from_bench_scale(
                    scale, dataset::PowerKind::Dynamic);
            o.folds = 1; // single models keep the sweep tractable
            dyn_errors.push_back(bench::gnn_loo_mape(suite, d, o));
            o = core::PowerGear::Options::from_bench_scale(
                scale, dataset::PowerKind::Total);
            o.folds = 1;
            tot_errors.push_back(bench::gnn_loo_mape(suite, d, o));
        }
        table.add_row({v.name, util::Table::num(nodes, 0),
                       util::Table::num(util::mean(dyn_errors)),
                       util::Table::num(util::mean(tot_errors))});
        std::printf("[%-16s] done in %.1fs\n", v.name, t.seconds());
    }

    std::printf("\nGraph-construction-flow ablation (extension):\n");
    bench::emit(table, "ablation_flow.csv");
    return 0;
}
