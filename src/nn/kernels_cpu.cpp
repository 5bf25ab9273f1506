#include "nn/kernels_cpu.hpp"

#include "nn/kernels_cpu_isa.hpp"

namespace powergear::nn::kernels {

namespace {

/// ISA table, picked once at load time: the AVX2+FMA translation unit when
/// the host CPU has it, the baseline one otherwise. Selection depends only
/// on CPUID, never on other static state, so a namespace-scope initializer
/// is safe and keeps the per-call cost to one pointer load (no thread-safe
/// static guard on a path hit millions of times per epoch).
const BlockedOps& pick_ops() {
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return blocked_ops_avx2();
#endif
    return blocked_ops_generic();
}

const BlockedOps& g_ops = pick_ops();

const BlockedOps& ops() { return g_ops; }

} // namespace

// --- dispatched (overwrite) --------------------------------------------------

void matmul(int m, int k, int n, const float* a, const float* b, float* c) {
    ops().matmul(m, k, n, a, b, c);
}

void gather_matmul(int e, int k, int n, const float* x, const int* idx,
                   const float* w, float* out) {
    ops().gather_matmul(e, k, n, x, idx, w, out);
}

// --- dispatched (accumulate) -------------------------------------------------

void matmul_tn_acc(int m, int k, int n, const float* a, const float* b,
                   float* c) {
    ops().matmul_tn_acc(m, k, n, a, b, c);
}

void matmul_nt_acc(int m, int k, int n, const float* a, const float* b,
                   float* c) {
    ops().matmul_nt_acc(m, k, n, a, b, c);
}

void gather_matmul_tn_acc(int e, int k, int n, const float* x, const int* idx,
                          const float* g, float* dw) {
    ops().gather_matmul_tn_acc(e, k, n, x, idx, g, dw);
}

void scatter_matmul_nt_acc(int e, int k, int n, const float* g, const float* w,
                           const int* idx, float* dx) {
    ops().scatter_matmul_nt_acc(e, k, n, g, w, idx, dx);
}

// --- segmented sum ----------------------------------------------------------

void segment_sum(int rows, int cols, const float* x, const int* seg,
                 int num_segs, float* out) {
    ops().segment_sum(rows, cols, x, seg, num_segs, out);
}

void segment_sum_backward(int rows, int cols, const float* g, const int* seg,
                          float* dx) {
    ops().segment_sum_backward(rows, cols, g, seg, dx);
}

// --- fused heterogeneous aggregation + ReLU ----------------------------------

void aggregate_relu(int rows, int cols, const float* self, int num_rels,
                    const AggRelation* rels, const float* const* msg,
                    float* y) {
    ops().aggregate_relu(rows, cols, self, num_rels, rels, msg, y);
}

void aggregate_relu_backward(int rows, int cols, const float* y,
                             const float* g, int num_rels,
                             const AggRelation* rels, float* dself,
                             float* const* dmsg) {
    ops().aggregate_relu_backward(rows, cols, y, g, num_rels, rels, dself,
                                  dmsg);
}

// --- fused elementwise epilogues ---------------------------------------------
// ISA-invariant in results (pure adds/compares, identical in every
// translation unit); routed through the ISA table purely for vector width.

void add_bias(int rows, int cols, const float* x, const float* bias,
              float* y) {
    ops().add_bias(rows, cols, x, bias, y);
}

void add_bias_backward(int rows, int cols, const float* g, float* dx,
                       float* dbias) {
    ops().add_bias_backward(rows, cols, g, dx, dbias);
}

void add_bias_relu(int rows, int cols, const float* x, const float* bias,
                   float* y) {
    ops().add_bias_relu(rows, cols, x, bias, y);
}

void add_bias_relu_backward(int rows, int cols, const float* y, const float* g,
                            float* dx, float* dbias) {
    ops().add_bias_relu_backward(rows, cols, y, g, dx, dbias);
}

void relu_forward(std::size_t n, const float* x, float* y) {
    ops().relu_forward(n, x, y);
}

void relu_backward(std::size_t n, const float* y, const float* g, float* dx) {
    ops().relu_backward(n, y, g, dx);
}

void vadd(std::size_t n, const float* a, const float* b, float* out) {
    ops().vadd(n, a, b, out);
}

void vacc(std::size_t n, const float* src, float* dst) {
    ops().vacc(n, src, dst);
}

} // namespace powergear::nn::kernels
