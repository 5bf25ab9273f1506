#include "nn/autograd.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "nn/kernels_cpu.hpp"

namespace powergear::nn {

namespace k = kernels;

int Tape::push(Tensor val, std::function<void(Tape&, int)> backprop) {
    // Growing nodes_ must move, never copy, a node: the storage of an owned
    // input() leaf then stays put, so spans over it (scale_rows weights)
    // stay valid until reset().
    static_assert(std::is_nothrow_move_constructible_v<Node>);
    Node n;
    n.val = std::move(val);
    n.backprop = std::move(backprop);
    nodes_.push_back(std::move(n));
    return static_cast<int>(nodes_.size()) - 1;
}

Tensor Tape::make(int rows, int cols) {
    return Tensor::borrowed(
        rows, cols,
        arena_.alloc(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols)));
}

Tensor& Tape::grad_buf(int node) {
    Node& n = nodes_[static_cast<std::size_t>(node)];
    if (n.grad.empty()) n.grad = make(n.val.rows(), n.val.cols());
    return n.grad;
}

void Tape::reset() {
    nodes_.clear();
    arena_.reset();
}

int Tape::input(Tensor v) { return push(std::move(v)); }

int Tape::input_view(const Tensor& v) {
    // The node never writes through the view (only grad buffers are written),
    // so dropping const on the caller's storage is safe.
    return push(
        Tensor::borrowed(v.rows(), v.cols(), const_cast<float*>(v.data())));
}

int Tape::param(Param* p) {
    const int id =
        push(Tensor::borrowed(p->w.rows(), p->w.cols(), p->w.data()));
    nodes_[static_cast<std::size_t>(id)].external = p;
    return id;
}

int Tape::matmul(int a, int b) {
    const Tensor& av = value(a);
    const Tensor& bv = value(b);
    if (av.cols() != bv.rows()) throw std::invalid_argument("matmul: inner dim");
    const int m = av.rows(), kk = av.cols(), n = bv.cols();
    Tensor out = make(m, n);
    k::matmul(m, kk, n, av.data(), bv.data(), out.data());
    return push(std::move(out), [a, b, m, kk, n](Tape& t, int self) {
        const Tensor& g = t.nodes_[static_cast<std::size_t>(self)].grad;
        if (g.empty()) return;
        // ga(m,kk) += g(m,n) · b(kk,n)ᵀ ; gb(kk,n) += a(m,kk)ᵀ · g(m,n)
        k::matmul_nt_acc(m, n, kk, g.data(), t.value(b).data(),
                         t.grad_buf(a).data());
        k::matmul_tn_acc(m, kk, n, t.value(a).data(), g.data(),
                         t.grad_buf(b).data());
    });
}

int Tape::gather_matmul(int x, std::span<const int> idx, int w) {
    const Tensor& xv = value(x);
    const Tensor& wv = value(w);
    if (xv.cols() != wv.rows()) throw std::invalid_argument("matmul: inner dim");
    const int e = static_cast<int>(idx.size()), kk = xv.cols(), n = wv.cols();
    Tensor out = make(e, n);
    k::gather_matmul(e, kk, n, xv.data(), idx.data(), wv.data(), out.data());
    const int* ip = idx.data();
    return push(std::move(out), [x, w, ip, e, kk, n](Tape& t, int self) {
        const Tensor& g = t.nodes_[static_cast<std::size_t>(self)].grad;
        if (g.empty()) return;
        k::gather_matmul_tn_acc(e, kk, n, t.value(x).data(), ip, g.data(),
                                t.grad_buf(w).data());
        k::scatter_matmul_nt_acc(e, kk, n, g.data(), t.value(w).data(), ip,
                                 t.grad_buf(x).data());
    });
}

int Tape::add(int a, int b) {
    const Tensor& av = value(a);
    const Tensor& bv = value(b);
    if (av.rows() != bv.rows() || av.cols() != bv.cols())
        throw std::invalid_argument("Tape::add: shape mismatch");
    Tensor out = make(av.rows(), av.cols());
    k::vadd(av.size(), av.data(), bv.data(), out.data());
    return push(std::move(out), [a, b](Tape& t, int self) {
        const Tensor& g = t.nodes_[static_cast<std::size_t>(self)].grad;
        if (g.empty()) return;
        k::vacc(g.size(), g.data(), t.grad_buf(a).data());
        k::vacc(g.size(), g.data(), t.grad_buf(b).data());
    });
}

int Tape::add_bias(int x, int bias) {
    const Tensor& xv = value(x);
    const Tensor& bv = value(bias);
    if (bv.rows() != 1 || bv.cols() != xv.cols())
        throw std::invalid_argument("Tape::add_bias: bias shape");
    const int rows = xv.rows(), cols = xv.cols();
    Tensor out = make(rows, cols);
    k::add_bias(rows, cols, xv.data(), bv.data(), out.data());
    return push(std::move(out), [x, bias](Tape& t, int self) {
        const Tensor& g = t.nodes_[static_cast<std::size_t>(self)].grad;
        if (g.empty()) return;
        k::add_bias_backward(g.rows(), g.cols(), g.data(),
                             t.grad_buf(x).data(),
                             t.grad_buf(bias).data());
    });
}

int Tape::add_bias_relu(int x, int bias) {
    const Tensor& xv = value(x);
    const Tensor& bv = value(bias);
    if (bv.rows() != 1 || bv.cols() != xv.cols())
        throw std::invalid_argument("Tape::add_bias: bias shape");
    Tensor out = make(xv.rows(), xv.cols());
    k::add_bias_relu(xv.rows(), xv.cols(), xv.data(), bv.data(), out.data());
    return push(std::move(out), [x, bias](Tape& t, int self) {
        const Tensor& g = t.nodes_[static_cast<std::size_t>(self)].grad;
        if (g.empty()) return;
        const Tensor& y = t.value(self);
        k::add_bias_relu_backward(g.rows(), g.cols(), y.data(), g.data(),
                                  t.grad_buf(x).data(),
                                  t.grad_buf(bias).data());
    });
}

int Tape::relu(int x) {
    const Tensor& xv = value(x);
    Tensor out = make(xv.rows(), xv.cols());
    k::relu_forward(xv.size(), xv.data(), out.data());
    return push(std::move(out), [x](Tape& t, int self) {
        const Tensor& g = t.nodes_[static_cast<std::size_t>(self)].grad;
        if (g.empty()) return;
        const Tensor& y = t.value(self);
        k::relu_backward(g.size(), y.data(), g.data(), t.grad_buf(x).data());
    });
}

int Tape::dropout(int x, float p, util::Rng& rng, bool training) {
    if (!training || p <= 0.0f) return x;
    const float keep = 1.0f - p;
    const Tensor& xv = value(x);
    const std::size_t n = xv.size();
    float* mask = arena_.alloc(n);
    Tensor out = make(xv.rows(), xv.cols());
    const float* xd = xv.data();
    float* outd = out.data();
    for (std::size_t i = 0; i < n; ++i) {
        mask[i] = rng.next_double() < keep ? 1.0f / keep : 0.0f;
        outd[i] = xd[i] * mask[i];
    }
    return push(std::move(out), [x, mask](Tape& t, int self) {
        const Tensor& g = t.nodes_[static_cast<std::size_t>(self)].grad;
        if (g.empty()) return;
        float* xg = t.grad_buf(x).data();
        const float* gd = g.data();
        for (std::size_t i = 0; i < g.size(); ++i) xg[i] += gd[i] * mask[i];
    });
}

int Tape::gather_rows(int x, std::span<const int> idx) {
    const Tensor& xv = value(x);
    const int e = static_cast<int>(idx.size()), cols = xv.cols();
    Tensor out = make(e, cols);
    for (int r = 0; r < e; ++r)
        std::memcpy(out.row(r), xv.row(idx[static_cast<std::size_t>(r)]),
                    static_cast<std::size_t>(cols) * sizeof(float));
    const int* ip = idx.data();
    return push(std::move(out), [x, ip, e](Tape& t, int self) {
        const Tensor& g = t.nodes_[static_cast<std::size_t>(self)].grad;
        if (g.empty()) return;
        Tensor& xg = t.grad_buf(x);
        const std::size_t c = static_cast<std::size_t>(g.cols());
        for (int r = 0; r < e; ++r)
            k::vacc(c, g.row(r), xg.row(ip[r]));
    });
}

int Tape::scatter_add_rows(int x, std::span<const int> idx, int out_rows) {
    const Tensor& xv = value(x);
    if (static_cast<int>(idx.size()) != xv.rows())
        throw std::invalid_argument("Tape::scatter_add_rows: index count");
    const int e = xv.rows();
    const std::size_t cols = static_cast<std::size_t>(xv.cols());
    Tensor out = make(out_rows, xv.cols()); // arena zeroes it
    for (int r = 0; r < e; ++r)
        k::vacc(cols, xv.row(r), out.row(idx[static_cast<std::size_t>(r)]));
    const int* ip = idx.data();
    return push(std::move(out), [x, ip, e](Tape& t, int self) {
        const Tensor& g = t.nodes_[static_cast<std::size_t>(self)].grad;
        if (g.empty()) return;
        Tensor& xg = t.grad_buf(x);
        const std::size_t c = static_cast<std::size_t>(g.cols());
        for (int r = 0; r < e; ++r)
            k::vacc(c, g.row(ip[r]), xg.row(r));
    });
}

int Tape::scale_rows(int x, std::span<const float> weights) {
    const Tensor& xv = value(x);
    if (static_cast<int>(weights.size()) != xv.rows())
        throw std::invalid_argument("Tape::scale_rows: weight count");
    const int rows = xv.rows(), cols = xv.cols();
    Tensor out = make(rows, cols);
    for (int r = 0; r < rows; ++r) {
        const float wr = weights[static_cast<std::size_t>(r)];
        const float* xr = xv.row(r);
        float* outr = out.row(r);
        for (int c = 0; c < cols; ++c) outr[c] = xr[c] * wr;
    }
    const float* wp = weights.data();
    return push(std::move(out), [x, wp](Tape& t, int self) {
        const Tensor& g = t.nodes_[static_cast<std::size_t>(self)].grad;
        if (g.empty()) return;
        Tensor& xg = t.grad_buf(x);
        for (int r = 0; r < g.rows(); ++r) {
            const float wr = wp[r];
            const float* gr = g.row(r);
            float* xr = xg.row(r);
            for (int c = 0; c < g.cols(); ++c) xr[c] += gr[c] * wr;
        }
    });
}

int Tape::concat_cols(int a, int b) {
    const Tensor& av = value(a);
    const Tensor& bv = value(b);
    if (av.rows() != bv.rows())
        throw std::invalid_argument("Tape::concat_cols: row mismatch");
    const int rows = av.rows(), ac = av.cols(), bc = bv.cols();
    Tensor out = make(rows, ac + bc);
    for (int r = 0; r < rows; ++r) {
        std::memcpy(out.row(r), av.row(r),
                    static_cast<std::size_t>(ac) * sizeof(float));
        std::memcpy(out.row(r) + ac, bv.row(r),
                    static_cast<std::size_t>(bc) * sizeof(float));
    }
    return push(std::move(out), [a, b, ac, bc](Tape& t, int self) {
        const Tensor& g = t.nodes_[static_cast<std::size_t>(self)].grad;
        if (g.empty()) return;
        Tensor& ag = t.grad_buf(a);
        Tensor& bg = t.grad_buf(b);
        for (int r = 0; r < g.rows(); ++r) {
            k::vacc(static_cast<std::size_t>(ac), g.row(r), ag.row(r));
            k::vacc(static_cast<std::size_t>(bc), g.row(r) + ac, bg.row(r));
        }
    });
}

int Tape::segment_sum(int x, std::span<const int> seg, int num_segs) {
    const Tensor& xv = value(x);
    if (static_cast<int>(seg.size()) != xv.rows())
        throw std::invalid_argument("Tape::segment_sum: segment id count");
    for (const int s : seg)
        if (s < 0 || s >= num_segs)
            throw std::invalid_argument("Tape::segment_sum: id out of range");
    const int rows = xv.rows(), cols = xv.cols();
    Tensor out = make(num_segs, cols);
    k::segment_sum(rows, cols, xv.data(), seg.data(), num_segs, out.data());
    const int* sp = seg.data();
    return push(std::move(out), [x, sp, rows](Tape& t, int self) {
        const Tensor& g = t.nodes_[static_cast<std::size_t>(self)].grad;
        if (g.empty()) return;
        k::segment_sum_backward(rows, g.cols(), g.data(), sp,
                                t.grad_buf(x).data());
    });
}

int Tape::scale(int x, float s) {
    const Tensor& xv = value(x);
    Tensor out = make(xv.rows(), xv.cols());
    const float* xd = xv.data();
    float* outd = out.data();
    for (std::size_t i = 0; i < xv.size(); ++i) outd[i] = xd[i] * s;
    return push(std::move(out), [x, s](Tape& t, int self) {
        const Tensor& g = t.nodes_[static_cast<std::size_t>(self)].grad;
        if (g.empty()) return;
        float* xd = t.grad_buf(x).data();
        const float* gd = g.data();
        for (std::size_t i = 0; i < g.size(); ++i) xd[i] += gd[i] * s;
    });
}

int Tape::mape_loss_rows(int preds, std::span<const float> targets) {
    const Tensor& pv = value(preds);
    if (pv.cols() != 1 || pv.rows() != static_cast<int>(targets.size()) ||
        targets.empty())
        throw std::invalid_argument("Tape::mape_loss_rows: shape mismatch");
    const int b = pv.rows();
    double loss = 0.0;
    for (int i = 0; i < b; ++i) {
        const float p = pv.at(i, 0);
        const float y = targets[static_cast<std::size_t>(i)];
        if (std::abs(y) < 1e-9f)
            throw std::invalid_argument("Tape::mape_loss_rows: zero target");
        loss += std::abs(p - y) / std::abs(y);
    }
    Tensor out = make(1, 1);
    out.at(0, 0) = static_cast<float>(loss / static_cast<double>(b));
    return push(std::move(out), [preds, b, targets](Tape& t, int self) {
        const Tensor& g = t.nodes_[static_cast<std::size_t>(self)].grad;
        if (g.empty()) return;
        const float gs = g.at(0, 0) / static_cast<float>(b);
        const Tensor& pv = t.value(preds);
        Tensor& pg = t.grad_buf(preds);
        for (int i = 0; i < b; ++i) {
            const float p = pv.at(i, 0);
            const float y = targets[static_cast<std::size_t>(i)];
            const float sign = p >= y ? 1.0f : -1.0f;
            pg.at(i, 0) += gs * sign / std::abs(y);
        }
    });
}

void Tape::backward(int node) {
    grad_buf(node).fill(1.0f);
    for (int i = node; i >= 0; --i) {
        Node& n = nodes_[static_cast<std::size_t>(i)];
        if (n.grad.empty()) continue;
        if (n.backprop) n.backprop(*this, i);
        if (n.external) n.external->g.add_inplace(n.grad);
    }
}

} // namespace powergear::nn
