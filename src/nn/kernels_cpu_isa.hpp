// Internal ISA-dispatch table for the blocked NN kernels.
//
// The blocked implementations live in kernels_cpu_tiles.inl, which is
// compiled twice: once at the build's baseline ISA (kernels_cpu_generic.cpp)
// and once with AVX2+FMA enabled (kernels_cpu_avx2.cpp, x86-64 only). Each
// translation unit exports one factory returning a table of function
// pointers; kernels_cpu.cpp picks a table once per process with
// __builtin_cpu_supports, so the shipped binary runs on any host while
// still using FMA where the CPU has it.
//
// Numeric note: the two tables use the same fixed reduction order, but the
// AVX2 translation unit may contract a*b+c into fused multiply-adds, so
// results can differ across hosts within the documented 1e-5 relative
// envelope (DESIGN.md §10). Tests include this header to run the parity
// suite against every table the host can execute, not only the one
// dispatch picks; the reference oracle they compare with lives in tests/.
#pragma once

#include <cstddef>

#include "nn/kernels_cpu.hpp"

namespace powergear::nn::kernels {

struct BlockedOps {
    void (*matmul)(int m, int k, int n, const float* a, const float* b,
                   float* c);
    void (*matmul_tn_acc)(int m, int k, int n, const float* a, const float* b,
                          float* c);
    void (*matmul_nt_acc)(int m, int k, int n, const float* a, const float* b,
                          float* c);
    void (*gather_matmul)(int e, int k, int n, const float* x, const int* idx,
                          const float* w, float* out);
    void (*gather_matmul_tn_acc)(int e, int k, int n, const float* x,
                                 const int* idx, const float* g, float* dw);
    void (*scatter_matmul_nt_acc)(int e, int k, int n, const float* g,
                                  const float* w, const int* idx, float* dx);
    // Elementwise epilogues ride in the same table so they get AVX codegen
    // too. They contain no multiply-add expressions (pure adds, compares and
    // copies), so unlike the matmuls their results are identical in both
    // translation units — dispatching them is a pure speed choice.
    void (*add_bias)(int rows, int cols, const float* x, const float* bias,
                     float* y);
    void (*add_bias_backward)(int rows, int cols, const float* g, float* dx,
                              float* dbias);
    void (*add_bias_relu)(int rows, int cols, const float* x,
                          const float* bias, float* y);
    void (*add_bias_relu_backward)(int rows, int cols, const float* y,
                                   const float* g, float* dx, float* dbias);
    void (*relu_forward)(std::size_t n, const float* x, float* y);
    void (*relu_backward)(std::size_t n, const float* y, const float* g,
                          float* dx);
    void (*vadd)(std::size_t n, const float* a, const float* b, float* out);
    void (*vacc)(std::size_t n, const float* src, float* dst);
    // Segmented sum for the batched multi-graph readout, forward and
    // backward. Both are pure adds with no multiply-add expressions, so
    // their results are identical in both translation units like the
    // epilogues.
    void (*segment_sum)(int rows, int cols, const float* x, const int* seg,
                        int num_segs, float* out);
    void (*segment_sum_backward)(int rows, int cols, const float* g,
                                 const int* seg, float* dx);
    // Fused heterogeneous aggregation + ReLU, forward and backward: pure
    // adds and compares, identical in both translation units.
    void (*aggregate_relu)(int rows, int cols, const float* self,
                           int num_rels, const AggRelation* rels,
                           const float* const* msg, float* y);
    void (*aggregate_relu_backward)(int rows, int cols, const float* y,
                                    const float* g, int num_rels,
                                    const AggRelation* rels, float* dself,
                                    float* const* dmsg);
};

/// Blocked kernels compiled at the build's baseline ISA. Always available.
const BlockedOps& blocked_ops_generic();

#if defined(__x86_64__)
/// Blocked kernels compiled with -mavx2 -mfma. Only call after checking
/// __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma").
const BlockedOps& blocked_ops_avx2();
#endif

} // namespace powergear::nn::kernels
