// Feature annotation + the end-to-end graph construction driver.
//
// Edge features are the paper's four-dimensional vector
//   { SA_src, AR_src, SA_snk, AR_snk }
// built from Eq. (2)/(3) over the value streams produced by the edge's
// source operators and utilized by its sink pins. Node features combine the
// operation-class and opcode one-hots with activation rate and input /
// output / overall switching activities. Numeric activity features are
// scaled linearly (see squash in features.cpp).
#pragma once

#include "graphgen/graph.hpp"
#include "graphgen/partition.hpp"
#include "sim/activity.hpp"

namespace powergear::graphgen {

/// Full flow: partition_graph (buffer insertion -> datapath merging ->
/// trimming) -> feature annotation.
Graph construct_graph(const ir::Function& fn, const hls::ElabGraph& elab,
                      const hls::Binding& binding,
                      const sim::ActivityOracle& oracle,
                      const GraphFlowOptions& opts = {});

} // namespace powergear::graphgen
