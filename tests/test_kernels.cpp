// Polybench kernel builders: structural checks and functional correctness of
// the interpreter output against straightforward C++ reference computations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ir/verifier.hpp"
#include "kernels/polybench.hpp"
#include "kernels/synthetic.hpp"
#include "sim/interpreter.hpp"

using namespace powergear;
using kernels::build_polybench;

namespace {

constexpr int N = 5;
using Mat = std::vector<std::uint32_t>;

/// Fill an array with a small deterministic pattern.
Mat pattern(std::size_t n, std::uint32_t scale) {
    Mat m(n);
    for (std::size_t i = 0; i < n; ++i)
        m[i] = static_cast<std::uint32_t>((i * 7 + 3) * scale % 97);
    return m;
}

int count_opcode(const ir::Function& fn, ir::Opcode op) {
    return static_cast<int>(std::count_if(
        fn.instrs.begin(), fn.instrs.end(),
        [op](const ir::Instr& in) { return in.op == op; }));
}

int array_id(const ir::Function& fn, const std::string& name) {
    for (int a = 0; a < static_cast<int>(fn.arrays.size()); ++a)
        if (fn.arrays[static_cast<std::size_t>(a)].name == name) return a;
    ADD_FAILURE() << "array not found: " << name;
    return -1;
}

} // namespace

class PolybenchStructure : public ::testing::TestWithParam<std::string> {};

TEST_P(PolybenchStructure, VerifiesAndHasLoops) {
    const ir::Function fn = build_polybench(GetParam(), 6);
    const ir::VerifyResult r = ir::verify(fn);
    EXPECT_TRUE(r.ok) << r.message;
    EXPECT_FALSE(fn.loops.empty());
    EXPECT_FALSE(fn.innermost_loops().empty());
    EXPECT_GT(count_opcode(fn, ir::Opcode::Mul), 0);
    EXPECT_GT(count_opcode(fn, ir::Opcode::Load), 0);
    EXPECT_GT(count_opcode(fn, ir::Opcode::Store), 0);
}

TEST_P(PolybenchStructure, SizeScalesTripCounts) {
    const ir::Function small = build_polybench(GetParam(), 4);
    const ir::Function big = build_polybench(GetParam(), 8);
    for (std::size_t l = 0; l < small.loops.size(); ++l)
        EXPECT_EQ(2 * small.loops[l].trip_count, big.loops[l].trip_count);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, PolybenchStructure,
                         ::testing::ValuesIn(kernels::polybench_names()));

TEST(PolybenchSemantics, GemmMatchesReference) {
    const ir::Function fn = build_polybench("gemm", N);
    sim::Interpreter interp(fn);
    const Mat A = pattern(N * N, 1), B = pattern(N * N, 2), C = pattern(N * N, 3);
    interp.set_array(array_id(fn, "A"), A);
    interp.set_array(array_id(fn, "B"), B);
    interp.set_array(array_id(fn, "C"), C);
    interp.run(false);

    // Reference: C = 2*C + sum_k 3*A[i][k]*B[k][j] (alpha=3, beta=2).
    for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j) {
            std::uint32_t acc = C[static_cast<std::size_t>(i * N + j)] * 2u;
            for (int k = 0; k < N; ++k)
                acc += 3u * A[static_cast<std::size_t>(i * N + k)] *
                       B[static_cast<std::size_t>(k * N + j)];
            EXPECT_EQ(interp.array(array_id(fn, "C"))[static_cast<std::size_t>(
                          i * N + j)],
                      acc)
                << "C[" << i << "][" << j << "]";
        }
}

TEST(PolybenchSemantics, AtaxMatchesReference) {
    const ir::Function fn = build_polybench("atax", N);
    sim::Interpreter interp(fn);
    const Mat A = pattern(N * N, 1), x = pattern(N, 5);
    interp.set_array(array_id(fn, "A"), A);
    interp.set_array(array_id(fn, "x"), x);
    interp.run(false);

    std::vector<std::uint32_t> tmp(N, 0), y(N, 0);
    for (int i = 0; i < N; ++i) {
        std::uint32_t acc = 0;
        for (int j = 0; j < N; ++j)
            acc += A[static_cast<std::size_t>(i * N + j)] *
                   x[static_cast<std::size_t>(j)];
        tmp[static_cast<std::size_t>(i)] = acc;
        for (int j = 0; j < N; ++j)
            y[static_cast<std::size_t>(j)] +=
                A[static_cast<std::size_t>(i * N + j)] * acc;
    }
    for (int j = 0; j < N; ++j)
        EXPECT_EQ(interp.array(array_id(fn, "y"))[static_cast<std::size_t>(j)],
                  y[static_cast<std::size_t>(j)]);
}

TEST(PolybenchSemantics, MvtMatchesReference) {
    const ir::Function fn = build_polybench("mvt", N);
    sim::Interpreter interp(fn);
    const Mat A = pattern(N * N, 1), x1 = pattern(N, 2), x2 = pattern(N, 3),
              y1 = pattern(N, 4), y2 = pattern(N, 5);
    interp.set_array(array_id(fn, "A"), A);
    interp.set_array(array_id(fn, "x1"), x1);
    interp.set_array(array_id(fn, "x2"), x2);
    interp.set_array(array_id(fn, "y1"), y1);
    interp.set_array(array_id(fn, "y2"), y2);
    interp.run(false);

    for (int i = 0; i < N; ++i) {
        std::uint32_t e1 = x1[static_cast<std::size_t>(i)];
        std::uint32_t e2 = x2[static_cast<std::size_t>(i)];
        for (int j = 0; j < N; ++j) {
            e1 += A[static_cast<std::size_t>(i * N + j)] *
                  y1[static_cast<std::size_t>(j)];
            e2 += A[static_cast<std::size_t>(j * N + i)] *
                  y2[static_cast<std::size_t>(j)];
        }
        EXPECT_EQ(interp.array(array_id(fn, "x1"))[static_cast<std::size_t>(i)], e1);
        EXPECT_EQ(interp.array(array_id(fn, "x2"))[static_cast<std::size_t>(i)], e2);
    }
}

TEST(PolybenchSemantics, GesummvMatchesReference) {
    const ir::Function fn = build_polybench("gesummv", N);
    sim::Interpreter interp(fn);
    const Mat A = pattern(N * N, 1), B = pattern(N * N, 2), x = pattern(N, 3);
    interp.set_array(array_id(fn, "A"), A);
    interp.set_array(array_id(fn, "B"), B);
    interp.set_array(array_id(fn, "x"), x);
    interp.run(false);

    for (int i = 0; i < N; ++i) {
        std::uint32_t a1 = 0, a2 = 0;
        for (int j = 0; j < N; ++j) {
            a1 += A[static_cast<std::size_t>(i * N + j)] * x[static_cast<std::size_t>(j)];
            a2 += B[static_cast<std::size_t>(i * N + j)] * x[static_cast<std::size_t>(j)];
        }
        EXPECT_EQ(interp.array(array_id(fn, "y"))[static_cast<std::size_t>(i)],
                  3u * a1 + 2u * a2);
    }
}

TEST(PolybenchSemantics, SyrkMatchesReference) {
    const ir::Function fn = build_polybench("syrk", N);
    sim::Interpreter interp(fn);
    const Mat A = pattern(N * N, 1), C = pattern(N * N, 2);
    interp.set_array(array_id(fn, "A"), A);
    interp.set_array(array_id(fn, "C"), C);
    interp.run(false);

    for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j) {
            std::uint32_t acc = 2u * C[static_cast<std::size_t>(i * N + j)];
            for (int k = 0; k < N; ++k)
                acc += 3u * A[static_cast<std::size_t>(i * N + k)] *
                       A[static_cast<std::size_t>(j * N + k)];
            EXPECT_EQ(interp.array(array_id(fn, "C"))[static_cast<std::size_t>(
                          i * N + j)],
                      acc);
        }
}

TEST(PolybenchSemantics, ThreeMmMatchesReference) {
    const ir::Function fn = build_polybench("k3mm", N);
    sim::Interpreter interp(fn);
    const Mat A = pattern(N * N, 1), B = pattern(N * N, 2), C = pattern(N * N, 3),
              D = pattern(N * N, 4);
    interp.set_array(array_id(fn, "A"), A);
    interp.set_array(array_id(fn, "B"), B);
    interp.set_array(array_id(fn, "C"), C);
    interp.set_array(array_id(fn, "D"), D);
    interp.run(false);

    auto mm = [](const Mat& l, const Mat& r) {
        Mat out(N * N, 0);
        for (int i = 0; i < N; ++i)
            for (int j = 0; j < N; ++j) {
                std::uint32_t acc = 0;
                for (int k = 0; k < N; ++k)
                    acc += l[static_cast<std::size_t>(i * N + k)] *
                           r[static_cast<std::size_t>(k * N + j)];
                out[static_cast<std::size_t>(i * N + j)] = acc;
            }
        return out;
    };
    const Mat G = mm(mm(A, B), mm(C, D));
    EXPECT_EQ(interp.array(array_id(fn, "G")), G);
}

TEST(PolybenchBuilders, RejectsBadInput) {
    EXPECT_THROW(build_polybench("nope", 8), std::invalid_argument);
    EXPECT_THROW(build_polybench("gemm", 1), std::invalid_argument);
    EXPECT_NO_THROW(build_polybench("2mm", 4)); // alias accepted
}


class ExtendedKernels : public ::testing::TestWithParam<std::string> {};

TEST_P(ExtendedKernels, VerifyAndFullPipeline) {
    const ir::Function fn = kernels::build_polybench(GetParam(), 6);
    EXPECT_TRUE(ir::verify(fn).ok);
    sim::Interpreter interp(fn);
    const sim::Trace trace = interp.run();
    EXPECT_GT(trace.executed_ops, 0);
}

INSTANTIATE_TEST_SUITE_P(Extras, ExtendedKernels,
                         ::testing::ValuesIn(kernels::extended_kernel_names()));

TEST(ExtendedKernels, DoitgenMatchesReference) {
    constexpr int M = 4;
    const ir::Function fn = kernels::build_polybench("doitgen", M);
    sim::Interpreter interp(fn);
    const Mat A = pattern(M * M * M, 1), C4 = pattern(M * M, 2);
    interp.set_array(array_id(fn, "A"), A);
    interp.set_array(array_id(fn, "C4"), C4);
    interp.run(false);
    const auto& sum = interp.array(array_id(fn, "sum"));
    for (int r = 0; r < M; ++r)
        for (int q = 0; q < M; ++q)
            for (int p = 0; p < M; ++p) {
                std::uint32_t acc = 0;
                for (int s = 0; s < M; ++s)
                    acc += A[static_cast<std::size_t>((r * M + q) * M + s)] *
                           C4[static_cast<std::size_t>(s * M + p)];
                EXPECT_EQ(sum[static_cast<std::size_t>((r * M + q) * M + p)], acc);
            }
}

TEST(ExtendedKernels, Jacobi2dInteriorOnly) {
    constexpr int M = 6;
    const ir::Function fn = kernels::build_polybench("jacobi2d", M);
    sim::Interpreter interp(fn);
    const Mat B = pattern(M * M, 3);
    interp.set_array(array_id(fn, "B"), B);
    interp.run(false);
    const auto& A = interp.array(array_id(fn, "A"));
    // Border untouched (zero); interior = 5-point average.
    for (int i = 0; i < M; ++i)
        for (int j = 0; j < M; ++j) {
            const std::size_t idx = static_cast<std::size_t>(i * M + j);
            if (i == 0 || j == 0 || i == M - 1 || j == M - 1) {
                EXPECT_EQ(A[idx], 0u);
            } else {
                const std::uint32_t expect =
                    (B[idx] + B[idx - 1] + B[idx + 1] +
                     B[idx - static_cast<std::size_t>(M)] +
                     B[idx + static_cast<std::size_t>(M)]) / 5u;
                EXPECT_EQ(A[idx], expect);
            }
        }
}

class SyntheticKernels : public ::testing::TestWithParam<int> {};

TEST_P(SyntheticKernels, AlwaysVerifyAndSimulate) {
    util::Rng rng(static_cast<std::uint64_t>(GetParam()));
    kernels::SyntheticSpec spec;
    const ir::Function fn = kernels::build_synthetic(spec, rng, GetParam());
    EXPECT_TRUE(ir::verify(fn).ok);
    sim::Interpreter interp(fn);
    const sim::Trace trace = interp.run();
    EXPECT_GT(trace.executed_ops, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticKernels, ::testing::Range(0, 25));
