// Reference oracle for the NN kernels (test-only).
//
// The naive triple-loop kernels the blocked implementation in src/nn was
// written against, byte-for-byte the original tensor.cpp loops (skip-zero
// fast path included). They are compiled into the test binary at the
// baseline ISA with default FP flags, so their results are the same on every
// host. Parity tests compare every compiled ISA table of the library against
// them: the matmuls within 1e-5 relative error (DESIGN.md §10), the
// segmented sums bit for bit.
//
// Signatures and shape conventions match nn/kernels_cpu.hpp.
#pragma once

namespace powergear::nn::kernels::ref {

void matmul(int m, int k, int n, const float* a, const float* b, float* c);
void gather_matmul(int e, int k, int n, const float* x, const int* idx,
                   const float* w, float* out);

void matmul_tn_acc(int m, int k, int n, const float* a, const float* b,
                   float* c);
void matmul_nt_acc(int m, int k, int n, const float* a, const float* b,
                   float* c);
void gather_matmul_tn_acc(int e, int k, int n, const float* x, const int* idx,
                          const float* g, float* dw);
void scatter_matmul_nt_acc(int e, int k, int n, const float* g, const float* w,
                           const int* idx, float* dx);

void segment_sum(int rows, int cols, const float* x, const int* seg,
                 int num_segs, float* out);
void segment_sum_backward(int rows, int cols, const float* g, const int* seg,
                          float* dx);

} // namespace powergear::nn::kernels::ref
