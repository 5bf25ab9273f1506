// axpy_ref paths compiled with -mavx2 -mfma (flags set in
// tests/CMakeLists.txt, x86-64 builds only), the same codegen as the
// library's src/nn/kernels_cpu_avx2.cpp.
#if defined(__x86_64__)
#define PG_BLOCKED_OPS_FACTORY blocked_ops_avx2_axpy_ref
#define PG_AXPY_REF_PATHS paths_avx2
#include "axpy_ref.inl"
#endif
