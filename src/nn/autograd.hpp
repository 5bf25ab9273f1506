// Tape-based reverse-mode automatic differentiation.
//
// A Tape records the forward computation as a DAG of tensor nodes; calling
// backward(loss) seeds d(loss)=1 and sweeps the tape in reverse, then flushes
// leaf gradients into their external Param objects.
//
// Every intermediate (node values, gradient buffers, dropout masks) lives in
// the tape's Arena: built once per minibatch, rewound with reset(), so the
// steady state allocates nothing. The heavy ops dispatch through
// nn::kernels. A tape is owned by one task at a time (DESIGN.md §7) and is
// neither copyable nor shareable across threads.
//
// Leaves come in three flavors:
//   input       owns a copy of the tensor,
//   input_view  borrows caller storage (zero copy; must outlive use of the
//               tape up to the next reset()),
//   param       borrows the Param's weights and accumulates into its grad.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "nn/arena.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace powergear::nn {

/// A trainable parameter: value, gradient accumulator and Adam moments.
struct Param {
    Tensor w;
    Tensor g;
    Tensor m;
    Tensor v;

    explicit Param(Tensor init)
        : w(std::move(init)), g(w.rows(), w.cols()), m(w.rows(), w.cols()),
          v(w.rows(), w.cols()) {}

    void zero_grad() { g.fill(0.0f); }
};

/// Row ids grouped by key in CSR form: key v owns ids[ptr[v] .. ptr[v+1]),
/// in ascending row order (the index aggregate_relu walks).
struct Csr {
    std::vector<int> ptr; ///< (num_keys + 1) offsets
    std::vector<int> ids; ///< row ids, grouped by key

    /// Group rows 0..key.size()-1 under key[r] in [0, num_keys), stable in r.
    static Csr group(std::span<const int> key, int num_keys);
    /// Concatenate block-diagonally: other's keys follow this one's, and its
    /// row ids shift by row_offset. Equals group() over the concatenated keys.
    void append(const Csr& other, int row_offset);
};

class Tape {
public:
    Tape() = default;
    Tape(const Tape&) = delete;
    Tape& operator=(const Tape&) = delete;
    Tape(Tape&&) = default;
    Tape& operator=(Tape&&) = default;

    /// Drop all nodes and rewind the arena for the next minibatch. Node ids
    /// and value()/grad() references from before the reset are invalidated.
    void reset();

    /// Constant leaf (no gradient flows into it). Owns a copy; push is
    /// move-friendly, so an rvalue argument transfers storage without a copy.
    int input(Tensor v);
    /// Constant leaf borrowing v's storage — zero copy. v must outlive every
    /// use of this tape up to the next reset().
    int input_view(const Tensor& v);
    /// Trainable leaf; borrows p->w, backward() accumulates into p->g.
    int param(Param* p);

    int matmul(int a, int b);
    /// Fused gather+matmul: out[r] = x[idx[r]] · W where W is node w's value.
    /// Borrows idx storage — same lifetime contract as input_view.
    int gather_matmul(int x, std::span<const int> idx, int w);
    /// Elementwise sum of same-shape nodes.
    int add(int a, int b);
    /// x (n,d) + bias (1,d) broadcast over rows.
    int add_bias(int x, int bias);
    /// Fused relu(x + bias): one node, one backward pass.
    int add_bias_relu(int x, int bias);
    int relu(int x);
    /// Inverted dropout; pass training=false for a no-op passthrough.
    int dropout(int x, float p, util::Rng& rng, bool training);
    // The index and weight spans below are borrowed, with input_view's
    // lifetime contract: backward() reads them again.
    /// out[i] = x[idx[i]]  — node -> edge-endpoint gather.
    int gather_rows(int x, std::span<const int> idx);
    /// out[idx[i]] += x[i] — edge -> node aggregation.
    int scatter_add_rows(int x, std::span<const int> idx, int out_rows);
    /// Row-wise scaling by fixed per-row weights (e.g. GCN normalization).
    int scale_rows(int x, std::span<const float> weights);
    /// One relation term of aggregate_relu: an (E_r, d) message node, its
    /// rows grouped by sink node, and for the undirected variant also by
    /// source node (nullptr when directed). Both groupings are borrowed,
    /// with input_view's lifetime contract.
    struct AggTerm {
        int msg;
        const Csr* by_dst;
        const Csr* by_src = nullptr;
    };
    /// Fused HEC-GNN node update relu(self + Σ_r s_r), where s_r[v] sums
    /// the message rows grouped under v (both sides when by_src is set).
    /// One pass, no per-relation buffer; bit-identical to scatter_add_rows
    /// per side, add of the two sides, an add fold over the terms in order,
    /// add(self, ·) and relu — forward and backward.
    int aggregate_relu(int self, std::span<const AggTerm> terms);
    int concat_cols(int a, int b);
    /// Segmented column-wise sum: (n,d) -> (num_segs,d), row r accumulated
    /// into output row seg[r] in ascending row order; the sum-pooling
    /// readout. seg values must lie in [0, num_segs).
    int segment_sum(int x, std::span<const int> seg, int num_segs);
    int scale(int x, float s);

    /// Mean absolute percentage error over the B rows of one (B,1)
    /// prediction node (the batched readout). Returns a scalar (1,1) loss
    /// node. Targets must be nonzero. Borrows targets with input_view's
    /// lifetime contract (train_epoch's minibatch `ys` outlives backward()).
    int mape_loss_rows(int preds, std::span<const float> targets);

    void backward(int node);

    const Tensor& value(int node) const {
        return nodes_[static_cast<std::size_t>(node)].val;
    }
    /// Gradient of a node (valid after backward; zero tensor if untouched).
    const Tensor& grad(int node) const {
        return nodes_[static_cast<std::size_t>(node)].grad;
    }
    std::size_t num_nodes() const { return nodes_.size(); }
    /// Floats reserved by the arena (tests assert grow-once behavior).
    std::size_t arena_capacity() const { return arena_.capacity(); }

private:
    struct Node {
        Tensor val;
        Tensor grad;           ///< lazily sized on first accumulation
        Param* external = nullptr;
        std::function<void(Tape&, int)> backprop; ///< adds into parents' grads
    };

    int push(Tensor val, std::function<void(Tape&, int)> backprop = nullptr);
    /// Arena-backed zeroed (rows, cols) view.
    Tensor make(int rows, int cols);
    Tensor& grad_buf(int node);

    Arena arena_; ///< declared before nodes_: views die before their storage
    std::vector<Node> nodes_;
};

} // namespace powergear::nn
