// Reproduces Table I (last column): runtime speedup of the PowerGear
// estimation path (HLS artifacts -> graph construction -> GNN inference)
// over the Vivado-like power estimation flow (gate-level vector simulation
// -> implementation/placement -> analytical report). Both sides are wall-
// clock measured on the same designs; nothing is asserted.
//
// What the two timers cover. Both start after the per-kernel IR value
// trace exists (dataset/generator.cpp builds one trace per (kernel,
// stimulus) and shares it across every design point), so sim::simulate is
// amortised: neither side pays it per design.
//   PowerGear: Sample::powergear_runtime_s (hls::synthesize, activity
//     oracle, graph construction, metadata, tensorize; timed in
//     dataset::compute_sample) plus the batched inference timed below.
//   Vivado-like: Sample::vivado_runtime_s (fpga::vivado_estimate), which
//     still includes its own bit-serial gate-level vector simulation over
//     the oracle's waveforms, then netlist, placement, routing and report.
#include "bench_common.hpp"

using namespace powergear;

int main() {
    const util::BenchScale scale = util::bench_scale();
    const auto suite = bench::make_suite(scale);

    // A trained model is needed to time inference; train one small dynamic-
    // power ensemble on all datasets but the first.
    core::PowerGear::Options opts = core::PowerGear::Options::from_bench_scale(
        scale, dataset::PowerKind::Dynamic);
    opts.epochs = std::min(opts.epochs, 40); // speedup doesn't need accuracy
    core::PowerGear pg(opts);
    pg.fit(dataset::pool_except(suite, 0));

    util::Table table({"Dataset", "Vivado flow (ms)", "PowerGear (ms)",
                       "Speedup"});
    std::vector<double> speedups;
    for (const auto& ds : suite) {
        double viv_ms = 0.0, pg_ms = 0.0;
        // PowerGear side = HLS+graph construction (recorded at dataset
        // generation) + batched GNN inference (timed now).
        util::Timer t;
        (void)pg.estimate_batch(dataset::pool_of(ds));
        pg_ms += t.seconds() * 1e3;
        for (const auto& s : ds.samples) {
            pg_ms += s.powergear_runtime_s * 1e3;
            viv_ms += s.vivado_runtime_s * 1e3;
        }
        viv_ms /= ds.size();
        pg_ms /= ds.size();
        const double speedup = viv_ms / pg_ms;
        speedups.push_back(speedup);
        table.add_row({ds.name, util::Table::num(viv_ms, 2),
                       util::Table::num(pg_ms, 2),
                       util::Table::num(speedup, 2) + "x"});
    }
    table.add_row({"Average", "-", "-",
                   util::Table::num(util::mean(speedups), 2) + "x"});

    std::printf("\nTable I (runtime speedup over the Vivado-like estimator):\n");
    bench::emit(table, "table1_speedup.csv");
    return 0;
}
