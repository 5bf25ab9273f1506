// GNN layer and model tests: GraphTensors packaging, forward shapes for
// every conv kind, overfitting sanity (the model can learn), ablation
// switches, and ensemble behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "estimate_one.hpp"
#include "gnn/ensemble.hpp"
#include "ir/ir.hpp"
#include "gnn/model.hpp"
#include "util/stats.hpp"

using namespace powergear;
using gnn::ConvKind;
using gnn::GraphTensors;
using gnn::ModelConfig;
using gnn::PowerModel;

namespace {

/// Hand-built 4-node heterogeneous graph with all relation types.
graphgen::Graph tiny_graph(float activity = 1.0f) {
    graphgen::Graph g;
    g.num_nodes = 4;
    g.node_dim = graphgen::node_feature_dim(ir::opcode_count() + 1);
    g.x.assign(static_cast<std::size_t>(g.num_nodes * g.node_dim), 0.0f);
    for (int v = 0; v < 4; ++v) {
        g.x[static_cast<std::size_t>(v * g.node_dim + (v % 2))] = 1.0f; // class
        g.x[static_cast<std::size_t>(v * g.node_dim + g.node_dim - 1)] =
            activity * static_cast<float>(v);
        g.labels.push_back("n" + std::to_string(v));
    }
    auto edge = [&](int s, int d, int rel, float f) {
        graphgen::Graph::Edge e;
        e.src = s;
        e.dst = d;
        e.relation = rel;
        e.feat = {f, f / 2, f / 3, f / 4};
        g.edges.push_back(e);
    };
    edge(0, 1, 0, activity);
    edge(1, 2, 1, 2 * activity);
    edge(2, 3, 2, 3 * activity);
    edge(3, 0, 3, 4 * activity);
    edge(0, 2, 3, activity);
    return g;
}

/// One inference on a fresh tape.
float predict(PowerModel& model, const GraphTensors& g) {
    nn::Tape t;
    return test::predict_one(model, g, t);
}

/// Ensemble means of every graph, in order.
std::vector<float> ensemble_means(const gnn::Ensemble& ens,
                                  std::span<const GraphTensors* const> graphs) {
    std::vector<float> means;
    for (const gnn::Ensemble::Stats& st : ens.predict_stats_batch(graphs))
        means.push_back(st.mean);
    return means;
}

GraphTensors tiny_tensors(float activity = 1.0f, double meta = 1.0) {
    return GraphTensors::from(tiny_graph(activity),
                              std::vector<double>(10, meta));
}

ModelConfig tiny_config(ConvKind kind) {
    ModelConfig cfg;
    cfg.kind = kind;
    cfg.node_dim = graphgen::node_feature_dim(ir::opcode_count() + 1);
    cfg.hidden = 8;
    cfg.layers = 2;
    cfg.dropout = 0.0f;
    cfg.learning_rate = 5e-3;
    cfg.seed = 17;
    return cfg;
}

} // namespace

TEST(GraphTensors, SplitsEdgesByRelation) {
    const GraphTensors t = tiny_tensors();
    EXPECT_EQ(t.num_nodes, 4);
    EXPECT_EQ(t.src.size(), 5u);
    EXPECT_EQ(t.rel_src[0].size(), 1u);
    EXPECT_EQ(t.rel_src[3].size(), 2u);
    EXPECT_EQ(t.rel_edge_feat[3].rows(), 2);
    EXPECT_EQ(t.edge_feat.cols(), graphgen::Graph::kEdgeDim);
    EXPECT_EQ(t.metadata.cols(), 10);
}

TEST(GraphTensors, GcnViewHasSelfLoopsAndSymmetry) {
    const GraphTensors t = tiny_tensors();
    // 5 edges * 2 directions + 4 self loops.
    EXPECT_EQ(t.gcn_src.size(), 14u);
    for (float n : t.gcn_norm) {
        EXPECT_GT(n, 0.0f);
        EXPECT_LE(n, 1.0f);
    }
}

TEST(GraphTensors, InDegreeInverseComputed) {
    const GraphTensors t = tiny_tensors();
    // Node 2 has in-edges from 1 and 0 => 1/2.
    EXPECT_FLOAT_EQ(t.inv_in_degree[2], 0.5f);
    // Node 1 has one in-edge.
    EXPECT_FLOAT_EQ(t.inv_in_degree[1], 1.0f);
}

class EveryConvKind : public ::testing::TestWithParam<ConvKind> {};

TEST_P(EveryConvKind, ForwardBackwardRunAndImprove) {
    const GraphTensors g1 = tiny_tensors(1.0f, 1.0);
    const GraphTensors g2 = tiny_tensors(3.0f, 2.0);
    std::vector<const GraphTensors*> graphs = {&g1, &g2};
    const std::vector<float> targets = {0.4f, 0.9f};

    PowerModel model(tiny_config(GetParam()));
    model.set_output_bias(0.65f);
    const double before = model.evaluate_mape(graphs, targets);
    for (int e = 0; e < 150; ++e) model.train_epoch(graphs, targets, 2);
    const double after = model.evaluate_mape(graphs, targets);
    EXPECT_LT(after, before);
    EXPECT_LT(after, 10.0) << conv_kind_name(GetParam());
    EXPECT_TRUE(std::isfinite(predict(model, g1)));
}

INSTANTIATE_TEST_SUITE_P(Kinds, EveryConvKind,
                         ::testing::Values(ConvKind::HecGnn, ConvKind::Gcn,
                                           ConvKind::Sage, ConvKind::GraphConv,
                                           ConvKind::Gine));

TEST(PowerModel, AblationSwitchesChangeParameterCount) {
    auto count_params = [](ModelConfig cfg) {
        PowerModel m(cfg);
        std::size_t total = 0;
        for (const nn::Param* p : m.params()) total += p->w.size();
        return total;
    };
    ModelConfig base = tiny_config(ConvKind::HecGnn);
    ModelConfig homo = base;
    homo.heterogeneous = false; // one W_r instead of four
    EXPECT_LT(count_params(homo), count_params(base));
    ModelConfig no_meta = base;
    no_meta.metadata = false; // no metadata MLP, smaller head
    EXPECT_LT(count_params(no_meta), count_params(base));
}

TEST(PowerModel, DirectionalityChangesPrediction) {
    ModelConfig cfg = tiny_config(ConvKind::HecGnn);
    PowerModel directed(cfg);
    cfg.directed = false;
    PowerModel undirected(cfg); // same seed, same init
    const GraphTensors g = tiny_tensors();
    EXPECT_NE(predict(directed, g), predict(undirected, g));
}

TEST(PowerModel, EdgeFeatureAblationIgnoresEdgeFeatures) {
    ModelConfig cfg = tiny_config(ConvKind::HecGnn);
    cfg.edge_features = false;
    PowerModel model(cfg);
    // Two graphs identical except for edge feature values.
    graphgen::Graph a = tiny_graph();
    graphgen::Graph b = tiny_graph();
    for (auto& e : b.edges) e.feat = {9.0f, 9.0f, 9.0f, 9.0f};
    const GraphTensors ta = GraphTensors::from(a, std::vector<double>(10, 1.0));
    const GraphTensors tb = GraphTensors::from(b, std::vector<double>(10, 1.0));
    EXPECT_FLOAT_EQ(predict(model, ta), predict(model, tb));
    // The full model does see them.
    PowerModel full(tiny_config(ConvKind::HecGnn));
    EXPECT_NE(predict(full, ta), predict(full, tb));
}

TEST(PowerModel, MetadataAblationIgnoresMetadata) {
    ModelConfig cfg = tiny_config(ConvKind::HecGnn);
    cfg.metadata = false;
    PowerModel model(cfg);
    EXPECT_FLOAT_EQ(predict(model, tiny_tensors(1.0f, 1.0)),
                    predict(model, tiny_tensors(1.0f, 5.0)));
}

TEST(PowerModel, DeterministicForSeed) {
    const GraphTensors g = tiny_tensors();
    PowerModel m1(tiny_config(ConvKind::HecGnn));
    PowerModel m2(tiny_config(ConvKind::HecGnn));
    EXPECT_FLOAT_EQ(predict(m1, g), predict(m2, g));
}

// A model/sample width mismatch throws from the forward's shape checks
// (Tape::matmul's inner dimension) instead of computing garbage.
TEST(PowerModel, WidthMismatchThrowsFromForward) {
    const GraphTensors g = tiny_tensors();
    for (const ConvKind kind : {ConvKind::HecGnn, ConvKind::Gcn,
                                ConvKind::Sage, ConvKind::GraphConv,
                                ConvKind::Gine}) {
        ModelConfig wide_nodes = tiny_config(kind);
        wide_nodes.node_dim += 1;
        PowerModel a(wide_nodes);
        EXPECT_THROW(predict(a, g), std::invalid_argument)
            << conv_kind_name(kind);
        ModelConfig wide_meta = tiny_config(kind);
        wide_meta.metadata_dim += 1;
        PowerModel b(wide_meta);
        EXPECT_THROW(predict(b, g), std::invalid_argument)
            << conv_kind_name(kind);
    }
}

TEST(PowerModel, RejectsUnsetNodeDim) {
    ModelConfig cfg;
    EXPECT_THROW(PowerModel m(cfg), std::invalid_argument);
}

TEST(Ensemble, AveragesMembersAndEvaluates) {
    std::vector<GraphTensors> storage;
    std::vector<float> targets;
    for (int i = 0; i < 10; ++i) {
        storage.push_back(tiny_tensors(0.5f + 0.3f * i, 1.0 + 0.2 * i));
        targets.push_back(0.3f + 0.07f * i);
    }
    std::vector<const GraphTensors*> graphs;
    for (const auto& g : storage) graphs.push_back(&g);

    gnn::EnsembleConfig cfg;
    cfg.model = tiny_config(ConvKind::HecGnn);
    cfg.folds = 2;
    cfg.seeds = 2;
    cfg.epochs = 30;
    cfg.batch_size = 4;
    gnn::Ensemble ens;
    ens.fit(std::span<const GraphTensors* const>(graphs),
            std::span<const float>(targets), cfg);
    EXPECT_EQ(ens.num_members(), 4); // 2 folds x 2 seeds
    EXPECT_LT(util::mape(ensemble_means(ens, graphs), targets), 60.0);

    // The mean is the member average; four members disagree a little.
    const gnn::Ensemble::Stats st = test::stats_one(ens, *graphs[0]);
    double mean = 0.0;
    for (PowerModel* m : ens.members()) mean += predict(*m, *graphs[0]);
    EXPECT_FLOAT_EQ(st.mean, static_cast<float>(mean / ens.num_members()));
    EXPECT_GE(st.spread, 0.0f);
}

TEST(Ensemble, VectorsConvertToSpans) {
    // Pointer vectors flow into the span-based fit/predict_stats_batch
    // through std::span's range constructor.
    std::vector<GraphTensors> storage;
    std::vector<float> targets;
    for (int i = 0; i < 6; ++i) {
        storage.push_back(tiny_tensors(0.5f + 0.3f * i, 1.0 + 0.2 * i));
        targets.push_back(0.3f + 0.07f * i);
    }
    std::vector<const GraphTensors*> graphs;
    for (const auto& g : storage) graphs.push_back(&g);
    gnn::EnsembleConfig cfg;
    cfg.model = tiny_config(ConvKind::HecGnn);
    cfg.folds = 2;
    cfg.seeds = 1;
    cfg.epochs = 5;
    gnn::Ensemble ens;
    ens.fit(graphs, targets, cfg);
    EXPECT_EQ(ens.num_members(), 2);
    const std::vector<gnn::Ensemble::Stats> stats =
        ens.predict_stats_batch(graphs);
    ASSERT_EQ(stats.size(), graphs.size());
    EXPECT_TRUE(std::isfinite(stats[0].mean));
}

// The Table I/II MAPE numbers are util::mape over predict_stats_batch means
// against float labels. Pin that, to the bit, to the float-term loop the
// ensemble scored with before util::mape was its one MAPE:
// 100/n * sum |mean - y| / max(1e-9f, |y|), each term in float, summed in
// double in sample order.
TEST(Ensemble, EvaluateMapeIsMeanRelativeErrorOfPredictStats) {
    std::vector<GraphTensors> storage;
    std::vector<float> targets;
    for (int i = 0; i < 7; ++i) {
        storage.push_back(tiny_tensors(0.4f + 0.5f * i, 1.0 + 0.3 * i));
        targets.push_back(0.35f + 0.09f * i);
    }
    std::vector<const GraphTensors*> graphs;
    for (const auto& g : storage) graphs.push_back(&g);
    gnn::EnsembleConfig cfg;
    cfg.model = tiny_config(ConvKind::HecGnn);
    cfg.folds = 2;
    cfg.seeds = 1;
    cfg.epochs = 5;
    gnn::Ensemble ens;
    ens.fit(graphs, targets, cfg);

    const std::vector<float> means = ensemble_means(ens, graphs);
    double sum = 0.0;
    for (std::size_t i = 0; i < graphs.size(); ++i)
        sum += std::abs(means[i] - targets[i]) /
               std::max(1e-9f, std::abs(targets[i]));
    const double want = 100.0 * sum / static_cast<double>(graphs.size());
    EXPECT_EQ(util::mape(means, targets), want);
}

TEST(Ensemble, SingleModelModeUsesValidationSplit) {
    std::vector<GraphTensors> storage;
    std::vector<float> targets;
    for (int i = 0; i < 8; ++i) {
        storage.push_back(tiny_tensors(1.0f + i, 1.0));
        targets.push_back(0.5f + 0.1f * i);
    }
    std::vector<const GraphTensors*> graphs;
    for (const auto& g : storage) graphs.push_back(&g);
    gnn::EnsembleConfig cfg;
    cfg.model = tiny_config(ConvKind::Sage);
    cfg.folds = 1;
    cfg.seeds = 1;
    cfg.epochs = 10;
    gnn::Ensemble ens;
    ens.fit(std::span<const GraphTensors* const>(graphs),
            std::span<const float>(targets), cfg);
    EXPECT_EQ(ens.num_members(), 1);
    // A single member cannot disagree with itself.
    EXPECT_FLOAT_EQ(test::stats_one(ens, *graphs[0]).spread, 0.0f);
}

TEST(Ensemble, PredictBeforeFitThrows) {
    gnn::Ensemble ens;
    const GraphTensors g = tiny_tensors();
    EXPECT_THROW(test::stats_one(ens, g), std::logic_error);
}
