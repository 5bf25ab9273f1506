// Tensor and autograd tests, including finite-difference gradient checks for
// every tape operation — the foundation all model results rest on.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "nn/autograd.hpp"
#include "nn/kernels_cpu.hpp"
#include "nn/layers.hpp"
#include "nn/optimizer.hpp"

using namespace powergear::nn;
using powergear::util::Rng;

namespace {

/// Numerically check d(scalar out)/d(param) against the tape's gradient.
/// `run` must build a fresh tape from the current param values and return the
/// scalar output node value plus the analytic gradient for entry (r, c).
void check_gradient(Param& p,
                    const std::function<double()>& scalar_forward,
                    const std::function<double(int, int)>& analytic,
                    float eps = 1e-3f, float tol = 2e-2f) {
    for (int r = 0; r < p.w.rows(); ++r) {
        for (int c = 0; c < p.w.cols(); ++c) {
            const float orig = p.w.at(r, c);
            p.w.at(r, c) = orig + eps;
            const double up = scalar_forward();
            p.w.at(r, c) = orig - eps;
            const double down = scalar_forward();
            p.w.at(r, c) = orig;
            const double numeric = (up - down) / (2.0 * eps);
            EXPECT_NEAR(analytic(r, c), numeric,
                        tol * std::max(1.0, std::abs(numeric)))
                << "entry (" << r << "," << c << ")";
        }
    }
}

/// Segment ids putting all of `rows` rows in segment 0. The storage is
/// static, so the span a tape borrows outlives any later backward().
std::span<const int> one_segment(int rows) {
    static const std::vector<int> zeros(4096, 0);
    if (rows < 0 || static_cast<std::size_t>(rows) > zeros.size())
        throw std::length_error("one_segment: too many rows");
    return std::span<const int>(zeros).first(static_cast<std::size_t>(rows));
}

/// Sum all entries of a node to a scalar via a one-segment segment_sum + a
/// fixed column mix, so every gradient check also covers segment_sum's
/// backward.
int to_scalar(Tape& t, int x) {
    int row = t.segment_sum(x, one_segment(t.value(x).rows()), 1); // (1, d)
    Tensor mix(t.value(row).cols(), 1);
    for (int i = 0; i < mix.rows(); ++i) mix.at(i, 0) = 0.3f + 0.1f * i;
    return t.matmul(row, t.input(mix));
}

} // namespace

TEST(Tensor, MatmulMatchesManual) {
    const Tensor a = Tensor::from(2, 3, {1, 2, 3, 4, 5, 6});
    const Tensor b = Tensor::from(3, 2, {7, 8, 9, 10, 11, 12});
    Tensor c(2, 2);
    kernels::matmul(2, 3, 2, a.data(), b.data(), c.data());
    EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Tensor, TransposedVariantsAgree) {
    Rng rng(5);
    const Tensor a = Tensor::xavier(4, 3, rng);
    const Tensor b = Tensor::xavier(4, 5, rng);
    // matmul_tn_acc(a, b) accumulates a^T b into zeros
    Tensor tn(3, 5);
    kernels::matmul_tn_acc(4, 3, 5, a.data(), b.data(), tn.data());
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 5; ++j) {
            float expect = 0.0f;
            for (int k = 0; k < 4; ++k) expect += a.at(k, i) * b.at(k, j);
            EXPECT_NEAR(tn.at(i, j), expect, 1e-5f);
        }
    // matmul_nt_acc(a, c) accumulates a c^T into zeros
    const Tensor c = Tensor::xavier(6, 3, rng);
    Tensor nt(4, 6);
    kernels::matmul_nt_acc(4, 3, 6, a.data(), c.data(), nt.data());
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 6; ++j) {
            float expect = 0.0f;
            for (int k = 0; k < 3; ++k) expect += a.at(i, k) * c.at(j, k);
            EXPECT_NEAR(nt.at(i, j), expect, 1e-5f);
        }
}

TEST(Tensor, ShapeMismatchThrows) {
    Tape t;
    EXPECT_THROW(t.matmul(t.input(Tensor(2, 3)), t.input(Tensor(2, 3))),
                 std::invalid_argument);
    Tensor a(2, 2);
    EXPECT_THROW(a.add_inplace(Tensor(3, 2)), std::invalid_argument);
    EXPECT_THROW(Tensor::from(2, 2, {1.0f}), std::invalid_argument);
}

TEST(Autograd, MatmulGradient) {
    Rng rng(7);
    Param w(Tensor::xavier(3, 2, rng));
    const Tensor x = Tensor::xavier(4, 3, rng);

    auto forward = [&]() {
        Tape t;
        return static_cast<double>(
            t.value(to_scalar(t, t.matmul(t.input(x), t.param(&w)))).at(0, 0));
    };
    Tape t;
    const int out = to_scalar(t, t.matmul(t.input(x), t.param(&w)));
    w.zero_grad();
    t.backward(out);
    check_gradient(w, forward,
                   [&](int r, int c) { return w.g.at(r, c); });
}

TEST(Autograd, ReluAndBiasGradient) {
    Rng rng(11);
    Param w(Tensor::xavier(3, 4, rng));
    Param b(Tensor::xavier(1, 4, rng));
    const Tensor x = Tensor::xavier(5, 3, rng);

    auto build = [&](Tape& t) {
        return to_scalar(
            t, t.relu(t.add_bias(t.matmul(t.input(x), t.param(&w)), t.param(&b))));
    };
    auto forward = [&]() {
        Tape t;
        return static_cast<double>(t.value(build(t)).at(0, 0));
    };
    Tape t;
    const int out = build(t);
    w.zero_grad();
    b.zero_grad();
    t.backward(out);
    check_gradient(w, forward, [&](int r, int c) { return w.g.at(r, c); });
    check_gradient(b, forward, [&](int r, int c) { return b.g.at(r, c); });
}

TEST(Autograd, GatherScatterGradient) {
    Rng rng(13);
    Param w(Tensor::xavier(4, 3, rng));
    const std::vector<int> gather_idx = {0, 2, 2, 3, 1};
    const std::vector<int> scatter_idx = {1, 1, 0, 2, 0};

    auto build = [&](Tape& t) {
        const int g = t.gather_rows(t.param(&w), gather_idx);
        const int s = t.scatter_add_rows(g, scatter_idx, 3);
        return to_scalar(t, s);
    };
    auto forward = [&]() {
        Tape t;
        return static_cast<double>(t.value(build(t)).at(0, 0));
    };
    Tape t;
    const int out = build(t);
    w.zero_grad();
    t.backward(out);
    check_gradient(w, forward, [&](int r, int c) { return w.g.at(r, c); });
}

TEST(Autograd, ScaleRowsConcatGradient) {
    Rng rng(17);
    Param w(Tensor::xavier(3, 2, rng));
    const std::vector<float> row_w = {0.5f, -1.25f, 2.0f};
    const Tensor other = Tensor::xavier(3, 2, rng);

    auto build = [&](Tape& t) {
        const int scaled = t.scale_rows(t.param(&w), row_w);
        const int cat = t.concat_cols(scaled, t.input(other));
        return to_scalar(t, t.scale(cat, 0.7f));
    };
    auto forward = [&]() {
        Tape t;
        return static_cast<double>(t.value(build(t)).at(0, 0));
    };
    Tape t;
    const int out = build(t);
    w.zero_grad();
    t.backward(out);
    check_gradient(w, forward, [&](int r, int c) { return w.g.at(r, c); });
}

TEST(Autograd, MapeLossGradient) {
    // Three prediction rows on both sides of their targets, away from the
    // |.| kink, so every row's sign branch is exercised.
    Rng rng(19);
    Param w(Tensor::xavier(3, 1, rng));
    w.w.at(0, 0) = 2.0f;
    w.w.at(1, 0) = 5.0f;
    w.w.at(2, 0) = -1.0f;
    const std::vector<float> targets = {3.0f, 4.0f, -2.5f};

    auto build = [&](Tape& t) {
        return t.mape_loss_rows(t.param(&w), targets);
    };
    auto forward = [&]() {
        Tape t;
        return static_cast<double>(t.value(build(t)).at(0, 0));
    };
    Tape t;
    const int loss = build(t);
    w.zero_grad();
    t.backward(loss);
    check_gradient(w, forward, [&](int r, int c) { return w.g.at(r, c); });
}

TEST(Autograd, MapeLossRejectsZeroTargets) {
    Tape t;
    Tensor one(2, 1, 1.0f);
    const int p = t.input(one);
    EXPECT_THROW(t.mape_loss_rows(p, {1.0f, 0.0f}), std::invalid_argument);
    EXPECT_THROW(t.mape_loss_rows(p, {1.0f}), std::invalid_argument);
}

TEST(Autograd, DropoutEvalIsIdentity) {
    Rng rng(23);
    Tape t;
    const Tensor x = Tensor::xavier(4, 4, rng);
    const int a = t.input(x);
    EXPECT_EQ(t.dropout(a, 0.5f, rng, /*training=*/false), a);
}

TEST(Autograd, DropoutTrainZerosRoughlyPFraction) {
    Rng rng(29);
    Tape t;
    Tensor x(50, 50, 1.0f);
    const int d = t.dropout(t.input(x), 0.4f, rng, true);
    int zeros = 0;
    for (int r = 0; r < 50; ++r)
        for (int c = 0; c < 50; ++c)
            if (t.value(d).at(r, c) == 0.0f) ++zeros;
    EXPECT_NEAR(zeros / 2500.0, 0.4, 0.05);
}

TEST(Optimizer, AdamSolvesLinearRegression) {
    // Learn y = x * W_true + 10 by minimizing MAPE over strictly positive
    // targets — the same loss family the power models train with.
    Rng rng(31);
    const Tensor w_true = Tensor::from(3, 1, {1.5f, -2.0f, 0.5f});
    const Tensor x = Tensor::xavier(64, 3, rng);
    Tensor y(64, 1);
    kernels::matmul(64, 3, 1, x.data(), w_true.data(), y.data());
    std::vector<float> targets;
    for (int r = 0; r < y.rows(); ++r) targets.push_back(y.at(r, 0) + 10.0f);

    Param w(Tensor::xavier(3, 1, rng));
    Param b(Tensor(1, 1, 0.0f));
    Adam adam({&w, &b}, 0.05);
    double first_loss = 0.0, last_loss = 0.0;
    for (int step = 0; step < 400; ++step) {
        Tape t;
        const int preds =
            t.add_bias(t.matmul(t.input_view(x), t.param(&w)), t.param(&b));
        const int loss = t.mape_loss_rows(preds, targets);
        if (step == 0) first_loss = t.value(loss).at(0, 0);
        last_loss = t.value(loss).at(0, 0);
        adam.zero_grad();
        t.backward(loss);
        adam.step();
    }
    EXPECT_LT(last_loss, 0.25 * first_loss);
    EXPECT_NEAR(b.w.at(0, 0), 10.0f, 2.5f);
}

TEST(Tensor, FromMovesStorageWithoutCopy) {
    std::vector<float> values = {1.0f, 2.0f, 3.0f, 4.0f};
    const float* storage = values.data();
    Tensor t = Tensor::from(2, 2, std::move(values));
    EXPECT_EQ(t.data(), storage);
    // Tensor moves transfer the buffer too (push()-friendly).
    Tensor u = std::move(t);
    EXPECT_EQ(u.data(), storage);
}

TEST(Tensor, BorrowedViewCopiesDeeply) {
    float buf[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    Tensor view = Tensor::borrowed(2, 2, buf);
    EXPECT_TRUE(view.is_view());
    EXPECT_EQ(view.data(), buf);
    Tensor copy = view; // must materialize owned storage
    EXPECT_FALSE(copy.is_view());
    buf[0] = 99.0f;
    EXPECT_FLOAT_EQ(view.at(0, 0), 99.0f);
    EXPECT_FLOAT_EQ(copy.at(0, 0), 1.0f);
}

TEST(Autograd, TapeArenaGrowsOnceAcrossResets) {
    Rng rng(67);
    Linear lin(8, 8, rng);
    const Tensor x = Tensor::xavier(16, 8, rng);
    Tape t;
    std::size_t cap_after_first = 0;
    for (int it = 0; it < 4; ++it) {
        t.reset();
        const int out = to_scalar(t, lin.forward_relu(t, t.input_view(x)));
        lin.weight.zero_grad();
        lin.bias.zero_grad();
        t.backward(out);
        if (it == 0) cap_after_first = t.arena_capacity();
    }
    EXPECT_GT(cap_after_first, 0u);
    EXPECT_EQ(t.arena_capacity(), cap_after_first)
        << "steady-state batches must reuse the grown-once arena";
}

TEST(Autograd, FusedBiasReluMatchesUnfusedBitExactly) {
    Rng rng(71);
    Param w(Tensor::xavier(6, 5, rng));
    Param b(Tensor::xavier(1, 5, rng));
    const Tensor x = Tensor::xavier(9, 6, rng);
    Tape t;
    const int mm = t.matmul(t.input_view(x), t.param(&w));
    const int fused = t.add_bias_relu(mm, t.param(&b));
    const int unfused = t.relu(t.add_bias(mm, t.param(&b)));
    for (int r = 0; r < 9; ++r)
        for (int c = 0; c < 5; ++c)
            EXPECT_EQ(t.value(fused).at(r, c), t.value(unfused).at(r, c));
}

// Central-difference check of the full matmul → bias → relu chain on the
// dispatched kernels, exercising the fused add_bias_relu backward — the one
// place a fused-epilogue bug would hide from the forward parity tests.
TEST(Autograd, LinearReluGradient) {
    Rng rng(73);
    Param w(Tensor::xavier(4, 3, rng));
    Param b(Tensor::xavier(1, 3, rng));
    const Tensor x = Tensor::xavier(6, 4, rng);

    auto build = [&](Tape& t) {
        return to_scalar(
            t, t.add_bias_relu(t.matmul(t.input_view(x), t.param(&w)),
                               t.param(&b)));
    };
    auto forward = [&]() {
        Tape t;
        return static_cast<double>(t.value(build(t)).at(0, 0));
    };
    Tape t;
    const int out = build(t);
    w.zero_grad();
    b.zero_grad();
    t.backward(out);
    check_gradient(w, forward, [&](int r, int c) { return w.g.at(r, c); });
    check_gradient(b, forward, [&](int r, int c) { return b.g.at(r, c); });
}

// Same discipline for the fused gather+matmul node (HecConv's w/o-e.f. path).
TEST(Autograd, GatherMatmulGradient) {
    const std::vector<int> idx = {0, 2, 2, 1, 3, 0};
    Rng rng(79);
    Param x(Tensor::xavier(4, 3, rng));
    Param w(Tensor::xavier(3, 5, rng));

    auto build = [&](Tape& t) {
        return to_scalar(
            t, t.gather_matmul(t.param(&x), std::span<const int>(idx),
                               t.param(&w)));
    };
    auto forward = [&]() {
        Tape t;
        return static_cast<double>(t.value(build(t)).at(0, 0));
    };
    Tape t;
    const int out = build(t);
    x.zero_grad();
    w.zero_grad();
    t.backward(out);
    check_gradient(x, forward, [&](int r, int c) { return x.g.at(r, c); });
    check_gradient(w, forward, [&](int r, int c) { return w.g.at(r, c); });
}

TEST(Layers, SnapshotRestoreRoundTrips) {
    Rng rng(37);
    Linear lin(4, 3, rng);
    std::vector<Param*> params;
    lin.collect(params);
    const auto snap = snapshot_params(params);
    const float before = lin.weight.w.at(1, 1);
    lin.weight.w.at(1, 1) = 99.0f;
    restore_params(params, snap);
    EXPECT_FLOAT_EQ(lin.weight.w.at(1, 1), before);
}
