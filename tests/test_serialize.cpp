// Model persistence tests: bit-exact round trips of every conv kind and of
// trained ensembles through the model artifact codec (io::encode_ensemble /
// io::decode_ensemble) and its file form.
#include <gtest/gtest.h>

#include <cstdio>
#include <span>

#include "estimate_one.hpp"
#include "io/serial.hpp"
#include "ir/ir.hpp"

using namespace powergear;
using gnn::ConvKind;
using gnn::GraphTensors;
using gnn::ModelConfig;
using gnn::PowerModel;

namespace {

ModelConfig small_config(ConvKind kind = ConvKind::HecGnn) {
    ModelConfig cfg;
    cfg.kind = kind;
    cfg.node_dim = graphgen::node_feature_dim(ir::opcode_count() + 1);
    cfg.hidden = 6;
    cfg.layers = 2;
    cfg.dropout = 0.0f;
    cfg.seed = 99;
    return cfg;
}

GraphTensors probe_graph() {
    graphgen::Graph g;
    g.num_nodes = 3;
    g.node_dim = graphgen::node_feature_dim(ir::opcode_count() + 1);
    g.x.assign(static_cast<std::size_t>(g.num_nodes * g.node_dim), 0.25f);
    graphgen::Graph::Edge e;
    e.src = 0;
    e.dst = 1;
    e.relation = 2;
    e.feat = {0.5f, 0.25f, 0.125f, 1.5f};
    g.edges.push_back(e);
    e.src = 1;
    e.dst = 2;
    e.relation = 1;
    g.edges.push_back(e);
    g.labels = {"a", "b", "c"};
    return GraphTensors::from(g, std::vector<double>(10, 0.7));
}

} // namespace

class EveryKindRoundTrip : public ::testing::TestWithParam<ConvKind> {};

TEST_P(EveryKindRoundTrip, ModelPredictionsSurviveSaveLoad) {
    gnn::Ensemble ens;
    std::vector<std::unique_ptr<PowerModel>> members;
    members.push_back(std::make_unique<PowerModel>(small_config(GetParam())));
    ens.adopt(std::move(members));
    const GraphTensors g = probe_graph();
    const float before = test::stats_one(ens, g).mean;

    const gnn::Ensemble loaded = io::decode_ensemble(io::encode_ensemble(ens));
    ASSERT_EQ(loaded.num_members(), 1);
    EXPECT_EQ(test::stats_one(loaded, g).mean, before); // bit-exact weights
    const ModelConfig& want = ens.members().front()->config();
    const ModelConfig& got = loaded.members().front()->config();
    EXPECT_EQ(static_cast<int>(got.kind), static_cast<int>(GetParam()));
    EXPECT_EQ(got.node_dim, want.node_dim);
    EXPECT_EQ(got.edge_dim, want.edge_dim);
    EXPECT_EQ(got.metadata_dim, want.metadata_dim);
    EXPECT_EQ(got.hidden, 6);
    EXPECT_EQ(got.layers, want.layers);
    EXPECT_EQ(got.dropout, want.dropout);
    EXPECT_EQ(got.learning_rate, want.learning_rate);
    EXPECT_EQ(got.edge_features, want.edge_features);
    EXPECT_EQ(got.directed, want.directed);
    EXPECT_EQ(got.heterogeneous, want.heterogeneous);
    EXPECT_EQ(got.metadata, want.metadata);
    EXPECT_EQ(got.jumping_knowledge, want.jumping_knowledge);
    EXPECT_EQ(got.seed, want.seed);
}

INSTANTIATE_TEST_SUITE_P(Kinds, EveryKindRoundTrip,
                         ::testing::Values(ConvKind::HecGnn, ConvKind::Gcn,
                                           ConvKind::Sage, ConvKind::GraphConv,
                                           ConvKind::Gine));

TEST(Serialize, EnsembleRoundTripAveragesIdentically) {
    std::vector<GraphTensors> storage;
    std::vector<float> targets;
    for (int i = 0; i < 6; ++i) {
        storage.push_back(probe_graph());
        targets.push_back(0.4f + 0.1f * i);
    }
    std::vector<const GraphTensors*> graphs;
    for (auto& g : storage) graphs.push_back(&g);

    gnn::EnsembleConfig cfg;
    cfg.model = small_config();
    cfg.folds = 2;
    cfg.seeds = 1;
    cfg.epochs = 5;
    gnn::Ensemble ens;
    ens.fit(std::span<const GraphTensors* const>(graphs),
            std::span<const float>(targets), cfg);

    const GraphTensors g = probe_graph();
    const float before = test::stats_one(ens, g).mean;
    const gnn::Ensemble loaded = io::decode_ensemble(io::encode_ensemble(ens));
    EXPECT_EQ(loaded.num_members(), ens.num_members());
    EXPECT_EQ(test::stats_one(loaded, g).mean, before);
}

TEST(Serialize, FileRoundTrip) {
    gnn::Ensemble ens;
    std::vector<std::unique_ptr<PowerModel>> members;
    members.push_back(std::make_unique<PowerModel>(small_config()));
    ens.adopt(std::move(members));

    const std::string path = "test_serialize_roundtrip.pgm";
    io::save_ensemble_file(path, ens);
    const gnn::Ensemble loaded = io::load_ensemble_file(path);
    EXPECT_EQ(loaded.num_members(), 1);
    const GraphTensors g = probe_graph();
    EXPECT_EQ(test::stats_one(loaded, g).mean, test::stats_one(ens, g).mean);
    std::remove(path.c_str());
    EXPECT_THROW(io::load_ensemble_file(path), std::runtime_error);
}
