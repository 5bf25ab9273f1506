// Block-diagonal multi-graph batching (the PyG `Batch` idiom).
//
// GraphBatch::assemble concatenates the node/edge tensors of N graphs into
// one merged GraphTensors whose adjacency is block-diagonal: node features
// are stacked, every edge index list is shifted by the destination graph's
// node offset, and metadata becomes one row per graph. Because the conv
// layers only ever touch node rows through index lists, they run unchanged
// on the merged tensors — one fused gather_matmul pass covers the whole
// minibatch — and the per-graph readout becomes a segmented reduction over
// the per-node graph_id vector (nn::kernels::segment_sum).
//
// Layout (DESIGN.md §13):
//   node_offset[i]   first merged row of graph i (node_offset[N] = total)
//   graph_id[r]      owning graph of merged node row r (ascending)
//   edge offsetting  merged_idx = local_idx + node_offset[graph]
//
// This is the model's only input form: PowerModel::predict_batch runs an
// assembled batch (estimate_batch, evaluate_mape, training minibatches), and
// a single graph is an assembled batch of one.
//
// Numerics: in larger batches the kernels' tiling and sparsity decisions
// see the whole batch, so per-graph results are only guaranteed within the
// documented <=1e-5 relative envelope of the same graph run as a batch of
// one (DESIGN.md §10/§13).
#pragma once

#include <span>
#include <vector>

#include "gnn/convs.hpp"

namespace powergear::gnn {

/// Largest batch one fused forward covers when a caller chunks an
/// arbitrarily long sample list (evaluate_mape, estimate_batch). Bounds
/// tape-arena memory to ~chunk-size graphs and keeps chunk × member
/// parallelism available one level up; chunk boundaries depend only on
/// position, so results stay deterministic for a given input order.
inline constexpr int kBatchChunk = 32;

/// N graphs merged into one block-diagonal GraphTensors plus the segment
/// bookkeeping the readout needs.
struct GraphBatch {
    GraphTensors g;               ///< merged tensors; metadata is (N, meta)
    int num_graphs = 0;
    std::vector<int> graph_id;    ///< (total nodes) owning-graph id per row
    std::vector<int> node_offset; ///< (num_graphs + 1) row offsets

    /// Concatenate. All graphs must agree on node/metadata/edge widths.
    static GraphBatch assemble(std::span<const GraphTensors* const> graphs);
};

} // namespace powergear::gnn
