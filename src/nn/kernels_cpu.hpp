// Vectorized CPU kernels for the NN hot path.
//
// One implementation: cache/register-blocked loops with 16-wide inner loops
// over restrict-qualified row pointers, written so -O3 auto-vectorizes them
// without -ffast-math. Every kernel uses a *fixed* float reduction order —
// plain loops, no threading, no data-dependent reassociation — so results
// are bit-identical at any POWERGEAR_JOBS value (the kernels never touch the
// thread pool; parallelism stays one level up, across tape-owning tasks).
//
// The kernels are ISA-dispatched: the same source (kernels_cpu_tiles.inl) is
// compiled once at the baseline ISA and once with AVX2+FMA, and the faster
// table is selected at startup from CPUID (see kernels_cpu_isa.hpp). FMA
// contraction means results may differ *across hosts*; both tables agree
// with the naive triple-loop reference oracle in tests/kernels_ref.cpp
// within 1e-5 relative error (DESIGN.md §10), which
// tests/test_kernels_cpu.cpp locks in over randomized shapes for every
// compiled table.
//
// Shape conventions (row-major, row stride == column count):
//   matmul         c(m,n)  = a(m,k) · b(k,n)
//   matmul_tn_acc  c(k,n) += a(m,k)ᵀ · b(m,n)
//   matmul_nt_acc  c(m,n) += a(m,k) · b(n,k)ᵀ
//   gather_matmul  out(e,n) = x[idx[r]] · w(k,n)  (fused row gather + matmul)
//
// The forward products overwrite; the *_acc products accumulate (c += ...)
// and exist for the backward pass, which is the only place a transposed
// operand appears. The fused epilogues (add_bias_relu,
// relu_forward/backward, vadd/vacc) are elementwise and ISA-invariant in
// results.
#pragma once

#include <cstddef>

namespace powergear::nn::kernels {

// --- dispatched kernels (overwrite) -----------------------------------------
void matmul(int m, int k, int n, const float* a, const float* b, float* c);
void gather_matmul(int e, int k, int n, const float* x, const int* idx,
                   const float* w, float* out);

// --- dispatched kernels (accumulate, for backward) ---------------------------
void matmul_tn_acc(int m, int k, int n, const float* a, const float* b,
                   float* c);
void matmul_nt_acc(int m, int k, int n, const float* a, const float* b,
                   float* c);
/// dw(k,n) += Σ_r x[idx[r]]ᵀ · g[r]  (weight gradient of gather_matmul)
void gather_matmul_tn_acc(int e, int k, int n, const float* x, const int* idx,
                          const float* g, float* dw);
/// dx[idx[r]] += g[r] · w(k,n)ᵀ  (input gradient of gather_matmul)
void scatter_matmul_nt_acc(int e, int k, int n, const float* g, const float* w,
                           const int* idx, float* dx);

// --- segmented sum (batched multi-graph readout) -----------------------------
// out(num_segs, cols) with out[s] = Σ of the x rows whose seg id is s.
// seg must hold values in [0, num_segs); rows are reduced in ascending row
// order, so a single-segment segment_sum is bit-identical to summing rows
// with vacc. Both kernels are pure adds, so like vadd/vacc they are ISA-
// invariant in results and bit-identical to the reference oracle.
/// out[s][c] = Σ_{r : seg[r]==s} x[r][c] (overwrite; ascending r).
void segment_sum(int rows, int cols, const float* x, const int* seg,
                 int num_segs, float* out);
/// dx[r] += g[seg[r]]  (backward of segment_sum).
void segment_sum_backward(int rows, int cols, const float* g, const int* seg,
                          float* dx);

// --- fused heterogeneous aggregation + ReLU (HEC-GNN node update) ------------
// One relation's rows of messages msg_r(E_r, cols), grouped by node in CSR
// form: node v's sink-side rows are in_ids[in_ptr[v] .. in_ptr[v+1]) and, for
// the undirected variant, its source-side rows are out_ids[out_ptr[v] ..
// out_ptr[v+1]) (both null when directed). Row ids ascend within a node.
struct AggRelation {
    const int* in_ptr = nullptr;
    const int* in_ids = nullptr;
    const int* out_ptr = nullptr;
    const int* out_ids = nullptr;
};
/// y(rows,cols) = max(0, self + fold_r s_r), where s_r[v] sums msg_r's rows
/// grouped under v from +0.0f in ascending row id (sink side, plus the
/// separately summed source side when out_ptr is set) and the fold adds the
/// relations in ascending r; num_rels == 0 gives max(0, self). Pure adds
/// and compares: ISA-invariant in results.
void aggregate_relu(int rows, int cols, const float* self, int num_rels,
                    const AggRelation* rels, const float* const* msg,
                    float* y);
/// Backward of aggregate_relu with G = g ∘ [y > 0]: dself += G, then for
/// every relation dmsg_r[e] += G[v] over the source-side grouping, then over
/// the sink-side one.
void aggregate_relu_backward(int rows, int cols, const float* y,
                             const float* g, int num_rels,
                             const AggRelation* rels, float* dself,
                             float* const* dmsg);

// --- fused elementwise epilogues (ISA-invariant) -----------------------------
/// y(rows,cols) = x + bias with bias(1,cols) broadcast over rows.
void add_bias(int rows, int cols, const float* x, const float* bias, float* y);
/// dx += g;  dbias[c] += Σ_r g[r][c]  (backward of the broadcast bias add).
void add_bias_backward(int rows, int cols, const float* g, float* dx,
                       float* dbias);
/// y(rows,cols) = max(0, x + bias) with bias(1,cols) broadcast over rows.
void add_bias_relu(int rows, int cols, const float* x, const float* bias,
                   float* y);
/// dx += g ∘ [y > 0];  dbias[c] += Σ_r (g ∘ [y > 0])[r][c].
void add_bias_relu_backward(int rows, int cols, const float* y, const float* g,
                            float* dx, float* dbias);
/// y = max(0, x), elementwise over n values.
void relu_forward(std::size_t n, const float* x, float* y);
/// dx += g ∘ [y > 0], elementwise over n values.
void relu_backward(std::size_t n, const float* y, const float* g, float* dx);

/// out = a + b, elementwise.
void vadd(std::size_t n, const float* a, const float* b, float* out);
/// dst += src, elementwise.
void vacc(std::size_t n, const float* src, float* dst);

} // namespace powergear::nn::kernels
