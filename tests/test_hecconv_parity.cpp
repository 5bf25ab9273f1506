// HecConv parity against the unfused reference chain (tests/hecconv_ref).
//
// The library's HecConv runs the Eq. 4/5 node update as one fused
// Tape::aggregate_relu over the in-edge CSR. The reference runs the chain it
// replaced: per-relation scatter_add_rows, an add fold, add(self, agg),
// relu. The fused op promises the chain's arithmetic exactly, so every
// comparison here is bit for bit: forward values, every parameter
// gradient and the input gradient, for all 8 (edge_features x directed x
// heterogeneous) switch combinations, then a whole 2-member ensemble fit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "gnn/batch.hpp"
#include "gnn/convs.hpp"
#include "gnn/ensemble.hpp"
#include "gnn/model.hpp"
#include "hecconv_ref.hpp"
#include "nn/autograd.hpp"
#include "util/rng.hpp"

using namespace powergear;
using gnn::GraphBatch;
using gnn::GraphTensors;
using nn::Tensor;
using util::Rng;

namespace {

constexpr int kSkippedRelation = 2; ///< never drawn: empty in every batch

/// Random graph built to hit the aggregation's corner cases: relation 2 is
/// never used, only the first half of the nodes receive edges (the rest
/// have no in-edges), some edges repeat an earlier (src, dst) pair, some
/// edge-feature rows and node rows are all zero (exactly-zero messages in
/// both the e.f. and w/o e.f. variants), and values are signed (negative
/// messages). `edges` = false yields an edge-less graph.
graphgen::Graph corner_graph(Rng& rng, bool edges = true) {
    graphgen::Graph g;
    g.num_nodes = 2 + static_cast<int>(rng.next_double() * 30);
    g.node_dim = 12;
    g.x.assign(static_cast<std::size_t>(g.num_nodes * g.node_dim), 0.0f);
    for (int v = 0; v < g.num_nodes; ++v) {
        if (v % 5 == 4) continue; // an all-zero node row
        for (int c = 0; c < g.node_dim; ++c)
            if (rng.next_double() < 0.4)
                g.x[static_cast<std::size_t>(v * g.node_dim + c)] =
                    rng.next_float(-1.0f, 1.0f);
    }
    if (!edges) return g;
    const int sinks = std::max(1, g.num_nodes / 2);
    const int count =
        1 + static_cast<int>(rng.next_double() * 3 * g.num_nodes);
    for (int e = 0; e < count; ++e) {
        graphgen::Graph::Edge ed;
        const std::size_t made = g.edges.size();
        if (made > 0 && rng.next_double() < 0.15) {
            ed = g.edges[static_cast<std::size_t>(
                             rng.next_double() * static_cast<double>(made)) %
                         made];
        } else {
            ed.src =
                static_cast<int>(rng.next_double() * g.num_nodes) % g.num_nodes;
            ed.dst = static_cast<int>(rng.next_double() * sinks) % sinks;
            do {
                ed.relation = static_cast<int>(rng.next_double() * 4) % 4;
            } while (ed.relation == kSkippedRelation);
            if (rng.next_double() >= 0.2)
                for (float& f : ed.feat) f = rng.next_float(-1.0f, 1.0f);
        }
        g.edges.push_back(ed);
    }
    return g;
}

/// Owns the per-graph tensors a GraphBatch borrows from.
struct Batch {
    std::vector<GraphTensors> graphs;
    GraphBatch batch;

    Batch(Rng& rng, int n, bool edges = true) {
        graphs.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            graphs.push_back(GraphTensors::from(
                corner_graph(rng, edges), std::vector<double>(10, 1.0)));
        std::vector<const GraphTensors*> ptrs;
        for (const GraphTensors& g : graphs) ptrs.push_back(&g);
        batch = GraphBatch::assemble(ptrs);
    }
};

bool same_bits(const Tensor& a, const Tensor& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// First differing flat index of two same-shape tensors, for messages.
std::string first_diff(const Tensor& a, const Tensor& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return "shape " + std::to_string(a.rows()) + "x" +
               std::to_string(a.cols()) + " vs " + std::to_string(b.rows()) +
               "x" + std::to_string(b.cols());
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0)
            return "index " + std::to_string(i) + ": " +
                   std::to_string(a.data()[i]) + " vs " +
                   std::to_string(b.data()[i]);
    return "none";
}

/// Everything one conv forward + backward produces.
struct ConvRun {
    Tensor out;
    std::vector<Tensor> param_grads; ///< collect() order
    Tensor input_grad;
    Tensor probe_grad;
};

/// Forward the conv over b with the node features as a trainable leaf, then
/// backpropagate from scale_rows(out · probe, row_weights): upstream
/// gradients that vary by row and column and include exact zeros and
/// negative values.
ConvRun run_conv(gnn::Conv& conv, const GraphBatch& b, int hidden) {
    std::vector<nn::Param*> params;
    conv.collect(params);
    for (nn::Param* p : params) p->zero_grad();
    nn::Param x(b.g.x);
    Rng rng(5);
    nn::Param probe(Tensor::xavier(hidden, hidden, rng));
    std::vector<float> row_w(static_cast<std::size_t>(b.g.num_nodes));
    for (std::size_t r = 0; r < row_w.size(); ++r)
        row_w[r] = r % 7 == 3 ? 0.0f : rng.next_float(-1.0f, 1.0f);

    nn::Tape t;
    const int out = conv.forward(t, b.g, t.param(&x));
    const int loss = t.scale_rows(t.matmul(out, t.param(&probe)),
                                  std::span<const float>(row_w));
    t.backward(loss);

    ConvRun run;
    run.out = t.value(out);
    for (nn::Param* p : params) run.param_grads.push_back(p->g);
    run.input_grad = x.g;
    run.probe_grad = probe.g;
    return run;
}

struct Switches {
    bool edge_features, directed, heterogeneous;
};

std::vector<Switches> all_switches() {
    std::vector<Switches> out;
    for (const bool ef : {true, false})
        for (const bool dir : {true, false})
            for (const bool het : {true, false}) out.push_back({ef, dir, het});
    return out;
}

std::string label(const Switches& s, int hidden, int graphs) {
    return std::string(s.edge_features ? "ef" : "no-ef") +
           (s.directed ? "/dir" : "/undir") +
           (s.heterogeneous ? "/het" : "/hom") +
           " hidden=" + std::to_string(hidden) +
           " graphs=" + std::to_string(graphs);
}

void expect_conv_parity(const GraphBatch& b, int hidden) {
    for (const Switches& s : all_switches()) {
        const std::string what = label(s, hidden, b.num_graphs);
        Rng lib_rng(17), ref_rng(17);
        gnn::HecConv lib(b.g.x.cols(), hidden, graphgen::Graph::kEdgeDim,
                         s.edge_features, s.directed, s.heterogeneous, lib_rng);
        gnn::ref::HecConv ref(b.g.x.cols(), hidden, graphgen::Graph::kEdgeDim,
                              s.edge_features, s.directed, s.heterogeneous,
                              ref_rng);
        const ConvRun want = run_conv(ref, b, hidden);
        const ConvRun got = run_conv(lib, b, hidden);

        EXPECT_TRUE(same_bits(want.out, got.out))
            << what << " forward: " << first_diff(want.out, got.out);
        ASSERT_EQ(want.param_grads.size(), got.param_grads.size()) << what;
        for (std::size_t p = 0; p < want.param_grads.size(); ++p)
            EXPECT_TRUE(same_bits(want.param_grads[p], got.param_grads[p]))
                << what << " param " << p << " grad: "
                << first_diff(want.param_grads[p], got.param_grads[p]);
        EXPECT_TRUE(same_bits(want.input_grad, got.input_grad))
            << what << " input grad: "
            << first_diff(want.input_grad, got.input_grad);
        EXPECT_TRUE(same_bits(want.probe_grad, got.probe_grad))
            << what << " upstream param grad: "
            << first_diff(want.probe_grad, got.probe_grad);
    }
}

} // namespace

TEST(HecConvParity, BatchCsrEqualsGroupingOfMergedEdgeArrays) {
    Rng rng(3);
    const Batch b(rng, 9);
    const GraphTensors& m = b.batch.g;
    auto same = [](const nn::Csr& x, const nn::Csr& y) {
        return x.ptr == y.ptr && x.ids == y.ids;
    };
    auto group = [&m](const std::vector<int>& key) {
        return nn::Csr::group(key, m.num_nodes);
    };
    for (std::size_t r = 0; r < m.rel_src.size(); ++r) {
        EXPECT_TRUE(same(m.rel_by_dst[r], group(m.rel_dst[r])))
            << "relation " << r;
        EXPECT_TRUE(same(m.rel_by_src[r], group(m.rel_src[r])))
            << "relation " << r;
    }
    EXPECT_TRUE(same(m.by_dst, group(m.dst)));
    EXPECT_TRUE(same(m.by_src, group(m.src)));
    EXPECT_TRUE(m.rel_src[kSkippedRelation].empty());
}

TEST(HecConvParity, ForwardAndGradientsBitIdenticalOnCornerCaseBatch) {
    Rng rng(11);
    const Batch b(rng, 6);
    for (const int hidden : {16, 29}) expect_conv_parity(b.batch, hidden);
}

TEST(HecConvParity, ForwardAndGradientsBitIdenticalAboveBatchChunk) {
    Rng rng(13);
    const Batch b(rng, gnn::kBatchChunk + 8);
    ASSERT_GT(b.batch.num_graphs, gnn::kBatchChunk);
    for (const int hidden : {16, 8}) expect_conv_parity(b.batch, hidden);
}

TEST(HecConvParity, EdgelessBatchIsReluOfSelfTerm) {
    Rng rng(19);
    const Batch b(rng, 3, /*edges=*/false);
    ASSERT_TRUE(b.batch.g.src.empty());
    expect_conv_parity(b.batch, 16);
}

// The fused op writes one (n, hidden) buffer per layer where the chain
// materialized a scatter buffer per relation, the add fold, the self add and
// the relu; a 32-graph model forward's arena high-water mark must show it.
TEST(HecConvParity, ModelForwardArenaBelowReferenceChain) {
    Rng rng(23);
    const Batch b(rng, gnn::kBatchChunk);
    gnn::ModelConfig cfg;
    cfg.node_dim = b.batch.g.x.cols();
    gnn::PowerModel lib(cfg);
    gnn::ref::PowerModel ref(cfg);
    nn::Tape lib_t, ref_t;
    const std::vector<float> got = lib.predict_batch(b.batch, lib_t);
    const std::vector<float> want = ref.predict_batch(b.batch, ref_t);
    ASSERT_EQ(want.size(), got.size());
    EXPECT_EQ(
        std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0);
    EXPECT_LT(lib_t.arena_capacity(), ref_t.arena_capacity());
}

TEST(HecConvParity, EnsembleFitWeightsMatchFitThroughReferenceConv) {
    Rng rng(29);
    std::vector<GraphTensors> graphs;
    std::vector<float> targets;
    for (int i = 0; i < 20; ++i) {
        graphs.push_back(GraphTensors::from(corner_graph(rng),
                                            std::vector<double>(10, 1.0)));
        targets.push_back(rng.next_float(0.5f, 2.0f));
    }
    std::vector<const GraphTensors*> ptrs;
    for (const GraphTensors& g : graphs) ptrs.push_back(&g);

    gnn::EnsembleConfig cfg;
    cfg.model.node_dim = graphs.front().x.cols();
    cfg.folds = 2;
    cfg.seeds = 1;
    cfg.epochs = 10;
    cfg.batch_size = 8;
    gnn::Ensemble lib;
    lib.fit(ptrs, targets, cfg);
    const std::vector<std::vector<Tensor>> want =
        gnn::ref::fit_ensemble(ptrs, targets, cfg);

    const std::vector<gnn::PowerModel*> members = lib.members();
    ASSERT_EQ(members.size(), 2u);
    ASSERT_EQ(want.size(), members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
        const std::vector<nn::Param*> params = members[m]->params();
        ASSERT_EQ(params.size(), want[m].size());
        for (std::size_t p = 0; p < params.size(); ++p)
            EXPECT_TRUE(same_bits(want[m][p], params[p]->w))
                << "member " << m << " param " << p << ": "
                << first_diff(want[m][p], params[p]->w);
    }
}
