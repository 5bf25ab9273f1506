// axpy_ref paths at the build's baseline ISA (no extra codegen flags).
#define PG_BLOCKED_OPS_FACTORY blocked_ops_generic_axpy_ref
#define PG_AXPY_REF_PATHS paths_generic
#include "axpy_ref.inl"
