// The zero-skip matmul path, both ways (test-only).
//
// Each ISA translation unit (axpy_ref_generic.cpp, axpy_ref_avx2.cpp)
// includes the library's src/nn/kernels_cpu_tiles.inl under the same
// codegen flags as the library's own table, and next to it a verbatim copy
// of the memory-accumulating matmul_axpy the register blocks replaced (C
// read-modified-written per nonzero A value). The AVX2 table may contract
// multiply-adds into FMAs, so the copy must be compiled per ISA too for a
// bit-for-bit comparison to mean anything.
#pragma once

namespace powergear::nn::kernels::axpy_ref {

using Plain = void (*)(int m, int k, int n, const float* a, const float* b,
                       float* c);
using Gathered = void (*)(int e, int k, int n, const float* x, const int* idx,
                          const float* w, float* c);

/// Index [0] overwrites C, [1] accumulates into it (the Acc template flag).
struct AxpyPaths {
    Plain plain[2];          ///< register-block path, library source
    Gathered gathered[2];    ///< same, A rows gathered through idx
    Plain plain_mem[2];      ///< memory-accumulating copy
    Gathered gathered_mem[2];
};

/// Compiled at the build's baseline ISA, like blocked_ops_generic().
const AxpyPaths& paths_generic();

#if defined(__x86_64__)
/// Compiled with -mavx2 -mfma, like blocked_ops_avx2(); same CPUID caveat.
const AxpyPaths& paths_avx2();
#endif

} // namespace powergear::nn::kernels::axpy_ref
