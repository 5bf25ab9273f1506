// Property-based parity suite for the CPU kernels.
//
// The blocked kernels change float summation order, so they cannot be
// bit-identical to the reference loops (kernels_ref.hpp) — the contract
// (DESIGN.md §10) is agreement within 1e-5 relative error on every shape,
// including degenerate ones, plus bit-identical results at any
// POWERGEAR_JOBS value. Both halves are locked in here over seeded random
// shapes, for every ISA table compiled into the library, not only the one
// this host's CPUID picks for dispatch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "axpy_ref.hpp"
#include "kernels_ref.hpp"
#include "nn/autograd.hpp"
#include "nn/kernels_cpu.hpp"
#include "nn/kernels_cpu_isa.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace powergear::nn::kernels;
using powergear::nn::Csr;
using powergear::util::Rng;

namespace {

struct IsaTable {
    const char* name;
    const BlockedOps* ops;
};

/// Every table this host can execute: the baseline one always, the AVX2+FMA
/// one when CPUID reports both features.
std::vector<IsaTable> compiled_tables() {
    std::vector<IsaTable> tables = {{"generic", &blocked_ops_generic()}};
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        tables.push_back({"avx2", &blocked_ops_avx2()});
#endif
    return tables;
}

/// The table the dispatched kernels route through: the same CPUID rule as
/// nn/kernels_cpu.cpp, i.e. the last (widest) table compiled_tables() lists.
const BlockedOps& cpuid_picked_table() { return *compiled_tables().back().ops; }

std::vector<float> random_values(Rng& rng, std::size_t n) {
    std::vector<float> v(n);
    for (auto& x : v) {
        x = rng.next_float(-1.0f, 1.0f);
        // Sprinkle exact zeros: the reference kernels take a skip-zero fast
        // path that must not change parity.
        if (rng.next_double() < 0.15) x = 0.0f;
    }
    return v;
}

std::vector<int> random_indices(Rng& rng, std::size_t n, int upper) {
    std::vector<int> idx(n);
    for (auto& i : idx)
        i = static_cast<int>(rng.next_double() * upper) % upper;
    return idx;
}

void expect_close(const std::vector<float>& ref, const std::vector<float>& got,
                  const std::string& what, int m, int k, int n) {
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const float tol =
            1e-5f * std::max(1.0f, std::max(std::abs(ref[i]), std::abs(got[i])));
        ASSERT_NEAR(ref[i], got[i], tol)
            << what << " diverges at flat index " << i << " for shape m=" << m
            << " k=" << k << " n=" << n;
    }
}

struct Shape {
    int m, k, n;
};

/// Degenerate shapes first, then seeded random ones — ~200 total.
std::vector<Shape> parity_shapes() {
    std::vector<Shape> shapes = {
        {0, 0, 0}, {0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {1, 1, 1},
        {1, 64, 1}, {4, 16, 16}, {5, 17, 33}, {16, 16, 16},
    };
    Rng rng(20260806);
    while (shapes.size() < 200) {
        shapes.push_back({static_cast<int>(rng.next_double() * 40),
                          static_cast<int>(rng.next_double() * 48),
                          static_cast<int>(rng.next_double() * 64)});
    }
    return shapes;
}

/// The public dispatched entry points, packed in table form so they can be
/// driven exactly like a compiled table.
const BlockedOps kDispatched = {
    .matmul = matmul,
    .matmul_tn_acc = matmul_tn_acc,
    .matmul_nt_acc = matmul_nt_acc,
    .gather_matmul = gather_matmul,
    .gather_matmul_tn_acc = gather_matmul_tn_acc,
    .scatter_matmul_nt_acc = scatter_matmul_nt_acc,
    .add_bias = add_bias,
    .add_bias_backward = add_bias_backward,
    .add_bias_relu = add_bias_relu,
    .add_bias_relu_backward = add_bias_relu_backward,
    .relu_forward = relu_forward,
    .relu_backward = relu_backward,
    .vadd = vadd,
    .vacc = vacc,
    .segment_sum = segment_sum,
    .segment_sum_backward = segment_sum_backward,
    .aggregate_relu = aggregate_relu,
    .aggregate_relu_backward = aggregate_relu_backward,
};

/// Call the kernels of `o` on fixed random inputs and return every output.
/// Outputs start nonzero so the accumulate (+=) forms are visible.
/// `fma_free_only` keeps to the kernels without multiply-adds — the
/// elementwise epilogues and the segment sums — whose results
/// kernels_cpu_isa.hpp promises are identical in every table.
std::vector<std::vector<float>> exercise(const BlockedOps& o,
                                         bool fma_free_only) {
    Rng rng(3);
    const int m = 9, k = 21, n = 34, segs = 4;
    const std::size_t mn = static_cast<std::size_t>(m) * n;
    const std::size_t kn = static_cast<std::size_t>(k) * n;
    const std::size_t mk = static_cast<std::size_t>(m) * k;
    const auto a = random_values(rng, mk);
    const auto b = random_values(rng, kn);
    const auto bm = random_values(rng, mn);
    const auto bt = random_values(rng, static_cast<std::size_t>(n) * k);
    const auto bias = random_values(rng, static_cast<std::size_t>(n));
    const auto idx = random_indices(rng, static_cast<std::size_t>(m), m);
    const auto seg = random_indices(rng, static_cast<std::size_t>(m), segs);

    // Moving a vector keeps its buffer, so earlier pointers stay valid.
    std::vector<std::vector<float>> outs;
    auto out = [&outs](std::size_t len) {
        std::vector<float> v(len);
        for (std::size_t i = 0; i < len; ++i)
            v[i] = 0.125f * static_cast<float>(i % 5);
        outs.push_back(std::move(v));
        return outs.back().data();
    };
    const std::size_t sn = static_cast<std::size_t>(segs) * n;

    o.add_bias(m, n, bm.data(), bias.data(), out(mn));
    float* dx = out(mn);
    o.add_bias_backward(m, n, bm.data(), dx, out(n));
    float* y = out(mn);
    o.add_bias_relu(m, n, bm.data(), bias.data(), y);
    dx = out(mn);
    o.add_bias_relu_backward(m, n, y, bm.data(), dx, out(n));
    o.relu_forward(mn, bm.data(), out(mn));
    o.relu_backward(mn, y, bm.data(), out(mn));
    o.vadd(mn, bm.data(), y, out(mn));
    o.vacc(mn, bm.data(), out(mn));
    o.segment_sum(m, n, bm.data(), seg.data(), segs, out(sn));
    o.segment_sum_backward(m, k, bt.data(), seg.data(), out(mk));
    // Two relations over the m rows of a and bm as messages (34 columns:
    // two full 16-wide blocks plus a tail), the second one undirected.
    const Csr by_seg = Csr::group(seg, m);
    const Csr by_idx = Csr::group(idx, m);
    const AggRelation rels[2] = {
        {by_seg.ptr.data(), by_seg.ids.data(), nullptr, nullptr},
        {by_idx.ptr.data(), by_idx.ids.data(), by_seg.ptr.data(),
         by_seg.ids.data()}};
    const float* msgs[2] = {bm.data(), y};
    float* agg = out(mn);
    o.aggregate_relu(m, n, bm.data(), 2, rels, msgs, agg);
    float* dmsg[2] = {out(mn), out(mn)};
    o.aggregate_relu_backward(m, n, agg, bm.data(), 2, rels, out(mn), dmsg);
    if (fma_free_only) return outs;

    o.matmul(m, k, n, a.data(), b.data(), out(mn));
    o.matmul_tn_acc(m, k, n, a.data(), bm.data(), out(kn));
    o.matmul_nt_acc(m, k, n, a.data(), bt.data(), out(mn));
    o.gather_matmul(m, k, n, a.data(), idx.data(), b.data(), out(mn));
    o.gather_matmul_tn_acc(m, k, n, a.data(), idx.data(), bm.data(), out(kn));
    o.scatter_matmul_nt_acc(m, k, n, bm.data(), b.data(), idx.data(),
                            out(mk));
    return outs;
}

} // namespace

// The dispatched entry points are thin forwards into one table: pin that
// every one of them reaches the table CPUID picks, argument order included.
TEST(KernelsCpu, DispatchMatchesCpuidPickedTableBitExactly) {
    EXPECT_EQ(exercise(kDispatched, false),
              exercise(cpuid_picked_table(), false));
}

// kernels_cpu_isa.hpp promises that the kernels without multiply-adds give
// identical results in both translation units (only the matmuls may
// FMA-contract). Hold the two tables to it.
TEST(KernelsCpu, IsaTablesAgreeBitExactlyOnEpiloguesAndSegmentKernels) {
    const std::vector<IsaTable> tables = compiled_tables();
    if (tables.size() < 2)
        GTEST_SKIP() << "only the generic table runs on this host";
    const auto want = exercise(*tables.front().ops, true);
    for (const IsaTable& t : tables)
        EXPECT_EQ(exercise(*t.ops, true), want) << t.name;
}

TEST(KernelsCpu, MatmulParityOverRandomShapes) {
    for (const IsaTable& t : compiled_tables()) {
        Rng rng(41);
        for (const Shape& s : parity_shapes()) {
            const auto a =
                random_values(rng, static_cast<std::size_t>(s.m) * s.k);
            const auto b =
                random_values(rng, static_cast<std::size_t>(s.k) * s.n);
            std::vector<float> want(static_cast<std::size_t>(s.m) * s.n, 7.0f);
            std::vector<float> got(want.size(), -7.0f); // poisoned: overwrite
            ref::matmul(s.m, s.k, s.n, a.data(), b.data(), want.data());
            t.ops->matmul(s.m, s.k, s.n, a.data(), b.data(), got.data());
            expect_close(want, got, std::string("matmul/") + t.name, s.m, s.k,
                         s.n);
        }
    }
}

// The transposed products exist only in accumulate form (the backward
// pass), so their parity runs start both outputs from the same nonzero
// values.
TEST(KernelsCpu, MatmulTnParityOverRandomShapes) {
    for (const IsaTable& t : compiled_tables()) {
        Rng rng(43);
        for (const Shape& s : parity_shapes()) {
            const auto a =
                random_values(rng, static_cast<std::size_t>(s.m) * s.k);
            const auto b =
                random_values(rng, static_cast<std::size_t>(s.m) * s.n);
            std::vector<float> want(static_cast<std::size_t>(s.k) * s.n, 0.5f);
            std::vector<float> got(want);
            ref::matmul_tn_acc(s.m, s.k, s.n, a.data(), b.data(), want.data());
            t.ops->matmul_tn_acc(s.m, s.k, s.n, a.data(), b.data(),
                                 got.data());
            expect_close(want, got, std::string("matmul_tn/") + t.name, s.m,
                         s.k, s.n);
        }
    }
}

TEST(KernelsCpu, MatmulNtParityOverRandomShapes) {
    for (const IsaTable& t : compiled_tables()) {
        Rng rng(47);
        for (const Shape& s : parity_shapes()) {
            const auto a =
                random_values(rng, static_cast<std::size_t>(s.m) * s.k);
            const auto b =
                random_values(rng, static_cast<std::size_t>(s.n) * s.k);
            std::vector<float> want(static_cast<std::size_t>(s.m) * s.n, 0.5f);
            std::vector<float> got(want);
            ref::matmul_nt_acc(s.m, s.k, s.n, a.data(), b.data(), want.data());
            t.ops->matmul_nt_acc(s.m, s.k, s.n, a.data(), b.data(),
                                 got.data());
            expect_close(want, got, std::string("matmul_nt/") + t.name, s.m,
                         s.k, s.n);
        }
    }
}

TEST(KernelsCpu, GatherMatmulParityOverRandomShapes) {
    for (const IsaTable& t : compiled_tables()) {
        Rng rng(53);
        for (const Shape& s : parity_shapes()) {
            const int rows = std::max(1, s.m); // gather source needs >= 1 row
            const auto x =
                random_values(rng, static_cast<std::size_t>(rows) * s.k);
            const auto w =
                random_values(rng, static_cast<std::size_t>(s.k) * s.n);
            const int e = s.m; // edge count may be 0
            const auto idx =
                random_indices(rng, static_cast<std::size_t>(e), rows);
            std::vector<float> want(static_cast<std::size_t>(e) * s.n, 7.0f);
            std::vector<float> got(want.size(), -7.0f);
            ref::gather_matmul(e, s.k, s.n, x.data(), idx.data(), w.data(),
                               want.data());
            t.ops->gather_matmul(e, s.k, s.n, x.data(), idx.data(), w.data(),
                                 got.data());
            expect_close(want, got, std::string("gather_matmul/") + t.name, e,
                         s.k, s.n);
        }
    }
}

TEST(KernelsCpu, AccumulateVariantsParity) {
    Rng rng(59);
    const int m = 13, k = 29, n = 37;
    const auto a = random_values(rng, static_cast<std::size_t>(m) * k);
    const auto b = random_values(rng, static_cast<std::size_t>(k) * n);
    const auto bt = random_values(rng, static_cast<std::size_t>(n) * k);
    const auto g = random_values(rng, static_cast<std::size_t>(m) * n);
    const auto idx = random_indices(rng, static_cast<std::size_t>(m), m);

    // The oracle and a table fill the same slots through the same-shaped
    // calls; outputs start nonzero so the accumulate contract is visible.
    struct AccOps {
        decltype(&ref::matmul_tn_acc) matmul_tn_acc, matmul_nt_acc;
        decltype(&ref::gather_matmul_tn_acc) gather_matmul_tn_acc;
        decltype(&ref::scatter_matmul_nt_acc) scatter_matmul_nt_acc;
    };
    auto run = [&](const AccOps& o) {
        auto start = [](std::size_t len) {
            std::vector<float> v(len);
            for (std::size_t i = 0; i < len; ++i)
                v[i] = 0.25f * static_cast<float>(i % 7);
            return v;
        };
        std::vector<float> tn = start(static_cast<std::size_t>(k) * n);
        std::vector<float> nt = start(static_cast<std::size_t>(m) * k);
        std::vector<float> gtn = start(static_cast<std::size_t>(k) * n);
        std::vector<float> snt = start(static_cast<std::size_t>(m) * k);
        o.matmul_tn_acc(m, k, n, a.data(), g.data(), tn.data());
        o.matmul_nt_acc(m, n, k, g.data(), b.data(), nt.data());
        o.gather_matmul_tn_acc(m, k, n, a.data(), idx.data(), g.data(),
                               gtn.data());
        o.scatter_matmul_nt_acc(m, k, n, g.data(), b.data(), idx.data(),
                                snt.data());
        std::vector<float> all;
        for (const auto* v : {&tn, &nt, &gtn, &snt})
            all.insert(all.end(), v->begin(), v->end());
        return all;
    };
    const std::vector<float> want =
        run({ref::matmul_tn_acc, ref::matmul_nt_acc, ref::gather_matmul_tn_acc,
             ref::scatter_matmul_nt_acc});
    for (const IsaTable& t : compiled_tables())
        expect_close(want,
                     run({t.ops->matmul_tn_acc, t.ops->matmul_nt_acc,
                          t.ops->gather_matmul_tn_acc,
                          t.ops->scatter_matmul_nt_acc}),
                     std::string("acc-kernels/") + t.name, m, k, n);
}

TEST(KernelsCpu, FusedEpiloguesMatchManualLoops) {
    Rng rng(61);
    const int rows = 7, cols = 19;
    const auto x = random_values(rng, static_cast<std::size_t>(rows) * cols);
    const auto bias = random_values(rng, static_cast<std::size_t>(cols));
    std::vector<float> y(x.size());
    add_bias_relu(rows, cols, x.data(), bias.data(), y.data());
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c) {
            const float want = std::max(
                0.0f, x[static_cast<std::size_t>(r) * cols + c] + bias[c]);
            EXPECT_FLOAT_EQ(y[static_cast<std::size_t>(r) * cols + c], want);
        }

    const auto g = random_values(rng, x.size());
    std::vector<float> dx(x.size(), 0.5f);
    std::vector<float> dbias(bias.size(), 0.25f);
    add_bias_relu_backward(rows, cols, y.data(), g.data(), dx.data(),
                           dbias.data());
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c) {
            const std::size_t i = static_cast<std::size_t>(r) * cols + c;
            const float gv = y[i] > 0.0f ? g[i] : 0.0f;
            EXPECT_FLOAT_EQ(dx[i], 0.5f + gv);
        }
    for (int c = 0; c < cols; ++c) {
        float want = 0.25f;
        for (int r = 0; r < rows; ++r) {
            const std::size_t i = static_cast<std::size_t>(r) * cols + c;
            if (y[i] > 0.0f) want += g[i];
        }
        EXPECT_FLOAT_EQ(dbias[c], want);
    }
}

// Every kernel is single-threaded by contract (parallelism lives one level
// up, across tape-owning tasks), so results must be byte-identical whether
// the process pool runs 1 or 4 workers — including when the kernels execute
// *inside* pool tasks.
TEST(KernelsCpu, JobsCountDoesNotChangeResultsPerBackend) {
    namespace util = powergear::util;
    const int m = 11, k = 23, n = 31;
    auto run_tasks = [&]() {
        std::vector<std::vector<float>> outs(8);
        util::parallel_for(outs.size(), [&](std::size_t task) {
            Rng rng(900 + task);
            const auto a = random_values(rng, static_cast<std::size_t>(m) * k);
            const auto b = random_values(rng, static_cast<std::size_t>(k) * n);
            const auto bm = random_values(rng, static_cast<std::size_t>(m) * n);
            const auto bt = random_values(rng, static_cast<std::size_t>(n) * k);
            const auto idx =
                random_indices(rng, static_cast<std::size_t>(m), m);
            std::vector<float> out(3 * static_cast<std::size_t>(m) * n +
                                   static_cast<std::size_t>(k) * n);
            float* p = out.data();
            matmul(m, k, n, a.data(), b.data(), p);
            p += static_cast<std::size_t>(m) * n;
            matmul_tn_acc(m, k, n, a.data(), bm.data(), p);
            p += static_cast<std::size_t>(k) * n;
            matmul_nt_acc(m, k, n, a.data(), bt.data(), p);
            p += static_cast<std::size_t>(m) * n;
            gather_matmul(m, k, n, a.data(), idx.data(), b.data(), p);
            outs[task] = std::move(out);
        });
        return outs;
    };
    util::set_parallel_jobs(1);
    const auto serial = run_tasks();
    util::set_parallel_jobs(4);
    const auto pooled = run_tasks();
    util::set_parallel_jobs(0); // back to env/default sizing
    for (std::size_t t = 0; t < serial.size(); ++t)
        EXPECT_EQ(serial[t], pooled[t]) << "task " << t;
}

// --- segmented reductions (graph-batch readout, DESIGN.md §13) ---------------

namespace {

/// Random segment map over `rows` rows into [0, num_segs), biased so some
/// segments stay empty and runs of equal ids appear (the batched-readout
/// shape: ascending graph_id runs).
std::vector<int> random_segments(Rng& rng, int rows, int num_segs) {
    std::vector<int> seg(static_cast<std::size_t>(rows));
    int cur = 0;
    for (auto& s : seg) {
        if (rng.next_double() < 0.3)
            cur = static_cast<int>(rng.next_double() * num_segs) % num_segs;
        s = cur;
    }
    return seg;
}

} // namespace

TEST(KernelsCpu, SegmentSumMatchesHandComputedOracle) {
    // 5 rows x 3 cols into 3 segments, segment 2 left empty.
    const std::vector<float> x = {1, 2, 3,  //
                                  4, 5, 6,  //
                                  7, 8, 9,  //
                                  -1, -2, -3,  //
                                  10, 20, 30};
    const std::vector<int> seg = {0, 1, 0, 1, 0};
    std::vector<float> sum(9, 99.0f); // poisoned: must overwrite
    ref::segment_sum(5, 3, x.data(), seg.data(), 3, sum.data());
    const std::vector<float> want_sum = {18, 30, 42, 3, 3, 3, 0, 0, 0};
    EXPECT_EQ(sum, want_sum);
}

// segment_sum contains no multiply-adds, so every ISA table must agree with
// the reference oracle bit-for-bit — not just within 1e-5. Shapes include
// rows=0, cols=0, single segment, and all-empty segments.
TEST(KernelsCpu, SegmentForwardParityIsBitExactOverRandomShapes) {
    for (const IsaTable& t : compiled_tables()) {
        Rng rng(67);
        for (const Shape& s : parity_shapes()) {
            const int rows = s.m, cols = s.k;
            const int num_segs = 1 + s.n % 7;
            const auto x =
                random_values(rng, static_cast<std::size_t>(rows) * cols);
            const auto seg = random_segments(rng, rows, num_segs);
            const std::size_t out_n = static_cast<std::size_t>(num_segs) * cols;
            std::vector<float> want(out_n, 7.0f), got(out_n, -7.0f);
            ref::segment_sum(rows, cols, x.data(), seg.data(), num_segs,
                             want.data());
            t.ops->segment_sum(rows, cols, x.data(), seg.data(), num_segs,
                               got.data());
            EXPECT_EQ(want, got) << t.name << " segment_sum rows=" << rows
                                 << " cols=" << cols << " segs=" << num_segs;
        }
    }
}

TEST(KernelsCpu, SegmentSumSingleSegmentMatchesVaccOverRows) {
    Rng rng(71);
    const int rows = 23, cols = 17;
    const auto x = random_values(rng, static_cast<std::size_t>(rows) * cols);
    const std::vector<int> seg(static_cast<std::size_t>(rows), 0);
    std::vector<float> got(static_cast<std::size_t>(cols), 5.0f);
    segment_sum(rows, cols, x.data(), seg.data(), 1, got.data());
    std::vector<float> want(static_cast<std::size_t>(cols), 0.0f);
    for (int r = 0; r < rows; ++r)
        vacc(static_cast<std::size_t>(cols),
             x.data() + static_cast<std::size_t>(r) * cols, want.data());
    EXPECT_EQ(got, want); // contract: same ascending accumulation order
}

TEST(KernelsCpu, SegmentBackwardsMatchFiniteStructure) {
    // segment_sum_backward broadcasts g[seg[r]] into row r and accumulates
    // (+=), preserving prior gradient contents. Checked for the reference
    // oracle and every table.
    Rng rng(73);
    const int rows = 9, cols = 5, num_segs = 4;
    const auto seg = random_segments(rng, rows, num_segs);
    const auto g =
        random_values(rng, static_cast<std::size_t>(num_segs) * cols);
    struct Impl {
        std::string name;
        decltype(&ref::segment_sum_backward) sum_backward;
    };
    std::vector<Impl> impls = {{"ref", ref::segment_sum_backward}};
    for (const IsaTable& t : compiled_tables())
        impls.push_back({t.name, t.ops->segment_sum_backward});
    for (const Impl& be : impls) {
        std::vector<float> dsum(static_cast<std::size_t>(rows) * cols, 0.5f);
        be.sum_backward(rows, cols, g.data(), seg.data(), dsum.data());
        for (int r = 0; r < rows; ++r)
            for (int c = 0; c < cols; ++c) {
                const std::size_t i = static_cast<std::size_t>(r) * cols + c;
                const std::size_t gi =
                    static_cast<std::size_t>(seg[static_cast<std::size_t>(r)]) *
                        cols +
                    static_cast<std::size_t>(c);
                EXPECT_FLOAT_EQ(dsum[i], 0.5f + g[gi])
                    << be.name << " sum r=" << r << " c=" << c;
            }
    }
}

TEST(KernelsCpu, SegmentKernelsJobsCountInvariant) {
    namespace util = powergear::util;
    const int rows = 31, cols = 13, num_segs = 5;
    auto run_tasks = [&]() {
        std::vector<std::vector<float>> outs(6);
        util::parallel_for(outs.size(), [&](std::size_t task) {
            Rng rng(1700 + task);
            const auto x =
                random_values(rng, static_cast<std::size_t>(rows) * cols);
            const auto seg = random_segments(rng, rows, num_segs);
            // The segment sums, then their rows broadcast back as a
            // gradient: forward and backward in one output.
            const std::size_t sums = static_cast<std::size_t>(num_segs) * cols;
            std::vector<float> out(sums +
                                   static_cast<std::size_t>(rows) * cols);
            segment_sum(rows, cols, x.data(), seg.data(), num_segs,
                        out.data());
            segment_sum_backward(rows, cols, out.data(), seg.data(),
                                 out.data() + sums);
            outs[task] = std::move(out);
        });
        return outs;
    };
    util::set_parallel_jobs(1);
    const auto serial = run_tasks();
    util::set_parallel_jobs(4);
    const auto pooled = run_tasks();
    util::set_parallel_jobs(0);
    for (std::size_t t = 0; t < serial.size(); ++t)
        EXPECT_EQ(serial[t], pooled[t]) << "task " << t;
}

// --- zero-skip register blocks (DESIGN.md §10) --------------------------------

namespace {

/// (m, k) values in [-1, 1] with exactly round(zero_frac * k) exact zeros
/// per row — at least half, so the library's zero scan takes the axpy path —
/// and a sprinkle of -0.0f among the rest.
std::vector<float> zero_heavy(Rng& rng, int m, int k, double zero_frac) {
    std::vector<float> a(static_cast<std::size_t>(m) * k);
    const int zeros = static_cast<int>(std::lround(zero_frac * k));
    for (int i = 0; i < m; ++i) {
        std::vector<int> cols(static_cast<std::size_t>(k));
        for (int p = 0; p < k; ++p) cols[static_cast<std::size_t>(p)] = p;
        rng.shuffle(cols);
        for (int q = 0; q < k; ++q) {
            float v = rng.next_float(-1.0f, 1.0f);
            if (q < zeros) v = 0.0f;
            else if (rng.next_double() < 0.05) v = -0.0f;
            a[static_cast<std::size_t>(i) * k +
              static_cast<std::size_t>(cols[static_cast<std::size_t>(q)])] = v;
        }
    }
    return a;
}

/// Nonzero starting C, with -0.0f entries, so the Acc forms are visible.
std::vector<float> start_values(std::size_t len) {
    std::vector<float> c(len);
    for (std::size_t i = 0; i < len; ++i)
        c[i] = i % 11 == 0 ? -0.0f : 0.25f * static_cast<float>(i % 7) - 0.5f;
    return c;
}

void expect_bits(const std::vector<float>& want, const std::vector<float>& got,
                 const std::string& what) {
    ASSERT_EQ(want.size(), got.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(std::memcmp(&want[i], &got[i], sizeof(float)), 0)
            << what << " differs at flat index " << i << ": " << want[i]
            << " vs " << got[i];
}

struct IsaPaths {
    IsaTable table;
    const powergear::nn::kernels::axpy_ref::AxpyPaths* paths;
};

/// Each compiled library table paired with the axpy_ref paths built under
/// the same ISA flags.
std::vector<IsaPaths> tables_with_axpy_paths() {
    namespace ar = powergear::nn::kernels::axpy_ref;
    std::vector<IsaPaths> out;
    for (const IsaTable& t : compiled_tables()) {
        const ar::AxpyPaths* p = &ar::paths_generic();
#if defined(__x86_64__)
        if (std::string(t.name) == "avx2") p = &ar::paths_avx2();
#endif
        out.push_back({t, p});
    }
    return out;
}

} // namespace

// The zero-skip path keeps each 16-column block of a C row in registers and
// stores it once. Per element it runs the same ascending-p multiply-add
// sequence as the memory accumulator it replaced, so it must match a copy of
// that accumulator compiled under the same ISA flags bit for bit — plain
// and gathered A, overwrite and accumulate, full blocks and column tails —
// and so must every library table that routes a mostly-zero A through it.
TEST(KernelsCpu, ZeroSkipRegisterBlocksMatchMemoryAccumulatorBitExactly) {
    const int m = 37, k = 33, e = 45;
    for (const IsaPaths& ip : tables_with_axpy_paths()) {
        const auto& paths = *ip.paths;
        const std::string isa = ip.table.name;
        Rng rng(71);
        for (const int n : {16, 32, 20, 5}) {
            for (const double zf : {0.5, 0.7, 0.95}) {
                const std::string tag = isa + " n=" + std::to_string(n) +
                                        " zeros=" + std::to_string(zf);
                const auto a = zero_heavy(rng, m, k, zf);
                auto b = random_values(rng, static_cast<std::size_t>(k) * n);
                b[3] = -0.0f;
                const auto idx =
                    random_indices(rng, static_cast<std::size_t>(e), m);
                const std::size_t mn = static_cast<std::size_t>(m) * n;
                const std::size_t en = static_cast<std::size_t>(e) * n;

                for (const int acc : {0, 1}) {
                    const std::string what =
                        tag + (acc ? " acc" : " overwrite");
                    auto want = start_values(mn), got = start_values(mn);
                    paths.plain_mem[acc](m, k, n, a.data(), b.data(),
                                         want.data());
                    paths.plain[acc](m, k, n, a.data(), b.data(), got.data());
                    expect_bits(want, got, "plain " + what);

                    auto gwant = start_values(en), ggot = start_values(en);
                    paths.gathered_mem[acc](e, k, n, a.data(), idx.data(),
                                            b.data(), gwant.data());
                    paths.gathered[acc](e, k, n, a.data(), idx.data(),
                                        b.data(), ggot.data());
                    expect_bits(gwant, ggot, "gathered " + what);
                }

                // The shipped table: matmul and gather_matmul overwrite,
                // matmul_nt_acc accumulates a·btᵀ through the same path.
                std::vector<float> want(mn), got(mn, 9.0f);
                paths.plain_mem[0](m, k, n, a.data(), b.data(), want.data());
                ip.table.ops->matmul(m, k, n, a.data(), b.data(), got.data());
                expect_bits(want, got, "table matmul " + tag);

                std::vector<float> gwant(en), ggot(en, 9.0f);
                paths.gathered_mem[0](e, k, n, a.data(), idx.data(), b.data(),
                                      gwant.data());
                ip.table.ops->gather_matmul(e, k, n, a.data(), idx.data(),
                                            b.data(), ggot.data());
                expect_bits(gwant, ggot, "table gather_matmul " + tag);

                std::vector<float> bt(static_cast<std::size_t>(n) * k);
                for (int p = 0; p < k; ++p)
                    for (int j = 0; j < n; ++j)
                        bt[static_cast<std::size_t>(j) * k +
                           static_cast<std::size_t>(p)] =
                            b[static_cast<std::size_t>(p) * n +
                              static_cast<std::size_t>(j)];
                auto nwant = start_values(mn), ngot = start_values(mn);
                paths.plain_mem[1](m, k, n, a.data(), b.data(), nwant.data());
                ip.table.ops->matmul_nt_acc(m, k, n, a.data(), bt.data(),
                                            ngot.data());
                expect_bits(nwant, ngot, "table matmul_nt_acc " + tag);
            }
        }
    }
}
