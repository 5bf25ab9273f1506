// Pipeline-wide lint driver: runs every checker family over a kernel the
// same way dataset generation exercises the pipeline — IR lint on the
// function, then per sampled design point a schedule check on the FSMD
// schedule, a graph check on the constructed sample and a tensor check on
// the packaged GNN input. `powergear lint` is a thin wrapper around these
// entry points.
#pragma once

#include <cstdint>

#include "analysis/df_check.hpp"
#include "analysis/diagnostic.hpp"
#include "analysis/graph_check.hpp"
#include "analysis/ir_lint.hpp"
#include "analysis/nn_check.hpp"
#include "analysis/schedule_check.hpp"

namespace powergear::analysis {

struct LintOptions {
    int design_points = 6;   ///< directive points sampled from the space
    std::uint64_t seed = 42; ///< stimulus seed for the activity trace
};

/// Lint one kernel end to end. Diagnostics carry a context of either the
/// function name (IR rules) or "<name>@<directives>" (per-design rules).
/// An IR error short-circuits the downstream checkers.
Report lint_kernel(const ir::Function& fn, const LintOptions& opts = {});

/// Check one design point's artifacts (schedule, graph, tensors).
Report check_design(const ir::Function& fn, const hls::ElabGraph& elab,
                    const hls::Schedule& sched, const graphgen::Graph& graph,
                    const gnn::GraphTensors& tensors);

} // namespace powergear::analysis
