#include "kernels_ref.hpp"

#include <cstddef>
#include <cstring>
#include <vector>

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

// --- reference kernels -------------------------------------------------------
// Byte-for-byte the pre-kernel-layer tensor.cpp loops (including the
// skip-zero fast path), templated only on overwrite-vs-accumulate. This
// translation unit is compiled at the baseline ISA with default FP flags,
// so the oracle's results match the original implementation on every host.

template <bool Acc>
void matmul_ref_impl(int m, int k, int n, const float* a, const float* b,
                     float* c) {
    if (!Acc) zero_fill(c, row(m, n));
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

template <bool Acc>
void matmul_tn_ref_impl(int m, int k, int n, const float* a, const float* b,
                        float* c) {
    if (!Acc) zero_fill(c, row(k, n));
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

template <bool Acc>
void matmul_nt_ref_impl(int m, int k, int n, const float* a, const float* b,
                        float* c) {
    for (int i = 0; i < m; ++i) {
        const float* arow = a + row(i, k);
        float* crow = c + row(i, n);
        for (int j = 0; j < n; ++j) {
            const float* brow = b + row(j, k);
            float acc = 0.0f;
            for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
            if (Acc) crow[j] += acc;
            else crow[j] = acc;
        }
    }
}

template <bool Acc>
void gather_matmul_ref_impl(int e, int k, int n, const float* x,
                            const int* idx, const float* w, float* out) {
    if (!Acc) zero_fill(out, row(e, n));
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

// --- segmented reductions ----------------------------------------------------
// Ascending-row accumulation into the destination segment row. With one
// segment this is exactly a plain vacc loop over all rows: the readout of a
// single graph.

void segment_sum_ref_impl(int rows, int cols, const float* x, const int* seg,
                          int num_segs, float* out) {
    zero_fill(out, row(num_segs, cols));
    for (int r = 0; r < rows; ++r) {
        const float* xr = x + row(r, cols);
        float* dst = out + row(seg[r], cols);
        for (int c = 0; c < cols; ++c) dst[c] += xr[c];
    }
}

void segment_sum_backward_ref_impl(int rows, int cols, const float* g,
                                   const int* seg, float* dx) {
    for (int r = 0; r < rows; ++r) {
        const float* gr = g + row(seg[r], cols);
        float* dr = dx + row(r, cols);
        for (int c = 0; c < cols; ++c) dr[c] += gr[c];
    }
}

void segment_mean_ref_impl(int rows, int cols, const float* x, const int* seg,
                           int num_segs, float* out) {
    segment_sum_ref_impl(rows, cols, x, seg, num_segs, out);
    std::vector<int> count(static_cast<std::size_t>(num_segs), 0);
    for (int r = 0; r < rows; ++r) ++count[seg[r]];
    for (int s = 0; s < num_segs; ++s) {
        if (count[s] == 0) continue;  // empty segment rows stay exactly zero
        const float inv = 1.0f / static_cast<float>(count[s]);
        float* dst = out + row(s, cols);
        for (int c = 0; c < cols; ++c) dst[c] *= inv;
    }
}

void segment_mean_backward_ref_impl(int rows, int cols, const float* g,
                                    const int* seg, int num_segs, float* dx) {
    std::vector<int> count(static_cast<std::size_t>(num_segs), 0);
    for (int r = 0; r < rows; ++r) ++count[seg[r]];
    for (int r = 0; r < rows; ++r) {
        const float inv = 1.0f / static_cast<float>(count[seg[r]]);
        const float* gr = g + row(seg[r], cols);
        float* dr = dx + row(r, cols);
        for (int c = 0; c < cols; ++c) dr[c] += gr[c] * inv;
    }
}

} // namespace

void matmul(int m, int k, int n, const float* a, const float* b, float* c) {
    matmul_ref_impl<false>(m, k, n, a, b, c);
}

void matmul_tn(int m, int k, int n, const float* a, const float* b, float* c) {
    matmul_tn_ref_impl<false>(m, k, n, a, b, c);
}

void matmul_nt(int m, int k, int n, const float* a, const float* b, float* c) {
    matmul_nt_ref_impl<false>(m, k, n, a, b, c);
}

void gather_matmul(int e, int k, int n, const float* x, const int* idx,
                   const float* w, float* out) {
    gather_matmul_ref_impl<false>(e, k, n, x, idx, w, out);
}

void matmul_acc(int m, int k, int n, const float* a, const float* b, float* c) {
    matmul_ref_impl<true>(m, k, n, a, b, c);
}

void matmul_tn_acc(int m, int k, int n, const float* a, const float* b,
                   float* c) {
    matmul_tn_ref_impl<true>(m, k, n, a, b, c);
}

void matmul_nt_acc(int m, int k, int n, const float* a, const float* b,
                   float* c) {
    matmul_nt_ref_impl<true>(m, k, n, a, b, c);
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

void segment_sum(int rows, int cols, const float* x, const int* seg,
                 int num_segs, float* out) {
    segment_sum_ref_impl(rows, cols, x, seg, num_segs, out);
}

void segment_sum_backward(int rows, int cols, const float* g, const int* seg,
                          float* dx) {
    segment_sum_backward_ref_impl(rows, cols, g, seg, dx);
}

void segment_mean(int rows, int cols, const float* x, const int* seg,
                  int num_segs, float* out) {
    segment_mean_ref_impl(rows, cols, x, seg, num_segs, out);
}

void segment_mean_backward(int rows, int cols, const float* g, const int* seg,
                           int num_segs, float* dx) {
    segment_mean_backward_ref_impl(rows, cols, g, seg, num_segs, dx);
}

} // namespace powergear::nn::kernels::ref
