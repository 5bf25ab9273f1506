#include "kernels_ref.hpp"

#include <cstddef>
#include <cstring>

namespace powergear::nn::kernels::ref {

namespace {

std::size_t row(int r, int stride) {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(stride);
}

// memset on a null pointer is UB even for zero bytes, and empty shapes hand
// us exactly that (data() of an empty buffer) — so guard the count.
void zero_fill(float* p, std::size_t count) {
    if (count != 0) std::memset(p, 0, count * sizeof(float));
}

} // namespace

// --- reference kernels -------------------------------------------------------
// Byte-for-byte the pre-kernel-layer tensor.cpp loops (including the
// skip-zero fast path), each in the one overwrite or accumulate form the
// library has. This translation unit is compiled at the baseline ISA with
// default FP flags, so the oracle's results match the original
// implementation on every host.

void matmul(int m, int k, int n, const float* a, const float* b, float* c) {
    zero_fill(c, row(m, n));
    for (int i = 0; i < m; ++i) {
        float* crow = c + row(i, n);
        const float* arow = a + row(i, k);
        for (int p = 0; p < k; ++p) {
            const float av = arow[p];
            if (av == 0.0f) continue;
            const float* brow = b + row(p, n);
            for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
    }
}

void gather_matmul(int e, int k, int n, const float* x, const int* idx,
                   const float* w, float* out) {
    zero_fill(out, row(e, n));
    for (int i = 0; i < e; ++i) {
        float* crow = out + row(i, n);
        const float* arow = x + row(idx[i], k);
        for (int p = 0; p < k; ++p) {
            const float av = arow[p];
            if (av == 0.0f) continue;
            const float* brow = w + row(p, n);
            for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
    }
}

void matmul_tn_acc(int m, int k, int n, const float* a, const float* b,
                   float* c) {
    for (int i = 0; i < m; ++i) {
        const float* arow = a + row(i, k);
        const float* brow = b + row(i, n);
        for (int p = 0; p < k; ++p) {
            const float av = arow[p];
            if (av == 0.0f) continue;
            float* crow = c + row(p, n);
            for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
    }
}

void matmul_nt_acc(int m, int k, int n, const float* a, const float* b,
                   float* c) {
    for (int i = 0; i < m; ++i) {
        const float* arow = a + row(i, k);
        float* crow = c + row(i, n);
        for (int j = 0; j < n; ++j) {
            const float* brow = b + row(j, k);
            float acc = 0.0f;
            for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
            crow[j] += acc;
        }
    }
}

void gather_matmul_tn_acc(int e, int k, int n, const float* x, const int* idx,
                          const float* g, float* dw) {
    for (int r = 0; r < e; ++r) {
        const float* xrow = x + row(idx[r], k);
        const float* grow = g + row(r, n);
        for (int p = 0; p < k; ++p) {
            const float xv = xrow[p];
            if (xv == 0.0f) continue;
            float* dwrow = dw + row(p, n);
            for (int j = 0; j < n; ++j) dwrow[j] += xv * grow[j];
        }
    }
}

void scatter_matmul_nt_acc(int e, int k, int n, const float* g, const float* w,
                           const int* idx, float* dx) {
    for (int r = 0; r < e; ++r) {
        const float* grow = g + row(r, n);
        float* drow = dx + row(idx[r], k);
        for (int p = 0; p < k; ++p) {
            const float* wrow = w + row(p, n);
            float acc = 0.0f;
            for (int j = 0; j < n; ++j) acc += grow[j] * wrow[j];
            drow[p] += acc;
        }
    }
}

// --- segmented sum -----------------------------------------------------------
// Ascending-row accumulation into the destination segment row. With one
// segment this is exactly a plain vacc loop over all rows: the readout of a
// single graph.

void segment_sum(int rows, int cols, const float* x, const int* seg,
                 int num_segs, float* out) {
    zero_fill(out, row(num_segs, cols));
    for (int r = 0; r < rows; ++r) {
        const float* xr = x + row(r, cols);
        float* dst = out + row(seg[r], cols);
        for (int c = 0; c < cols; ++c) dst[c] += xr[c];
    }
}

void segment_sum_backward(int rows, int cols, const float* g, const int* seg,
                          float* dx) {
    for (int r = 0; r < rows; ++r) {
        const float* gr = g + row(seg[r], cols);
        float* dr = dx + row(r, cols);
        for (int c = 0; c < cols; ++c) dr[c] += gr[c];
    }
}

} // namespace powergear::nn::kernels::ref
