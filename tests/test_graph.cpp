/**
 * @file
 * Unit tests for the preprocessing DAG container.
 */

#include <gtest/gtest.h>

#include "data/criteo.hpp"
#include "preproc/graph.hpp"
#include "preproc/plan.hpp"

namespace rap::preproc {
namespace {

using data::FeatureKind;

OpNode
makeNode(OpType type, int feature, std::vector<int> deps,
         std::size_t column = 0,
         FeatureKind kind = FeatureKind::Sparse)
{
    OpNode node;
    node.type = type;
    node.featureId = feature;
    node.deps = std::move(deps);
    node.inputs = {ColumnRef{kind, column}};
    node.output = node.inputs.front();
    return node;
}

PreprocGraph
diamondGraph()
{
    // 0 -> {1, 2} -> 3 on one feature.
    PreprocGraph graph(
        data::makePresetSchema(data::DatasetPreset::CriteoKaggle));
    const int a = graph.addNode(makeNode(OpType::FillNull, 13, {}));
    const int b =
        graph.addNode(makeNode(OpType::SigridHash, 13, {a}));
    const int c = graph.addNode(makeNode(OpType::Clamp, 13, {a}));
    graph.addNode(makeNode(OpType::FirstX, 13, {b, c}));
    return graph;
}

TEST(PreprocGraph, AddNodeAssignsSequentialIds)
{
    auto graph = diamondGraph();
    EXPECT_EQ(graph.nodeCount(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(graph.node(i).id, i);
}

TEST(PreprocGraph, TopoOrderRespectsDeps)
{
    auto graph = diamondGraph();
    const auto order = graph.topoOrder();
    std::vector<int> position(order.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        position[static_cast<std::size_t>(order[i])] =
            static_cast<int>(i);
    for (const auto &node : graph.nodes()) {
        for (int dep : node.deps) {
            EXPECT_LT(position[static_cast<std::size_t>(dep)],
                      position[static_cast<std::size_t>(node.id)]);
        }
    }
}

TEST(PreprocGraphDeath, ForwardDependencyRejected)
{
    PreprocGraph graph(
        data::makePresetSchema(data::DatasetPreset::CriteoKaggle));
    EXPECT_DEATH(graph.addNode(makeNode(OpType::FillNull, 13, {3})),
                 "earlier node");
}

TEST(PreprocGraph, FeatureNodesFiltersByFeature)
{
    auto graph = diamondGraph();
    graph.addNode(makeNode(OpType::FillNull, 14, {}, 1));
    EXPECT_EQ(graph.featureNodes(13).size(), 4u);
    EXPECT_EQ(graph.featureNodes(14).size(), 1u);
    EXPECT_TRUE(graph.featureNodes(99).empty());
}

/** featureChains() is exactly featureNodes() for every featureId. */
void
expectChainsMatchFeatureNodes(const PreprocGraph &graph)
{
    const auto chains = graph.featureChains();
    std::vector<int> keys;
    for (const auto &[feature_id, nodes] : chains)
        keys.push_back(feature_id);
    EXPECT_EQ(keys, graph.featureIds());
    for (int f : graph.featureIds())
        EXPECT_EQ(chains.at(f), graph.featureNodes(f)) << "feature " << f;
}

TEST(PreprocGraph, FeatureChainsMatchFeatureNodes)
{
    for (int plan_id = 0; plan_id <= 3; ++plan_id) {
        SCOPED_TRACE("plan " + std::to_string(plan_id));
        expectChainsMatchFeatureNodes(makePlan(plan_id).graph);
    }
    {
        SCOPED_TRACE("skewed plan");
        expectChainsMatchFeatureNodes(makeSkewedPlan(0, 4, 50).graph);
    }
    {
        SCOPED_TRACE("n-gram stress");
        auto plan = makePlan(1);
        addNgramStress(plan, 200);
        expectChainsMatchFeatureNodes(plan.graph);
    }

    // Feature 13's first node (id 1) waits on feature 14's root, so
    // Kahn's order visits 13's second node (id 2) first: the chain
    // order is not id order.
    PreprocGraph graph(
        data::makePresetSchema(data::DatasetPreset::CriteoKaggle));
    const int other = graph.addNode(makeNode(OpType::FillNull, 14, {},
                                             1));
    auto ngram = makeNode(OpType::Ngram, 13, {other});
    ngram.inputs.push_back(ColumnRef{FeatureKind::Sparse, 1});
    const int late = graph.addNode(std::move(ngram));
    const int early = graph.addNode(makeNode(OpType::FillNull, 13, {}));
    EXPECT_EQ(graph.featureChains().at(13),
              (std::vector<int>{early, late}));
    expectChainsMatchFeatureNodes(graph);
}

TEST(PreprocGraph, FeatureIdsSortedUnique)
{
    auto graph = diamondGraph();
    graph.addNode(makeNode(OpType::FillNull, 20, {}, 1));
    graph.addNode(makeNode(OpType::FillNull, 14, {}, 2));
    EXPECT_EQ(graph.featureIds(), (std::vector<int>{13, 14, 20}));
}

TEST(PreprocGraph, ReachabilityIsTransitive)
{
    auto graph = diamondGraph();
    const auto reach = graph.reachability();
    EXPECT_TRUE(reach[3][0]); // via either branch
    EXPECT_TRUE(reach[3][1]);
    EXPECT_TRUE(reach[3][2]);
    EXPECT_TRUE(reach[1][0]);
    EXPECT_FALSE(reach[0][3]);
    EXPECT_FALSE(reach[1][2]); // branches independent
    EXPECT_FALSE(reach[2][1]);
}

TEST(PreprocGraph, OpsPerFeature)
{
    auto graph = diamondGraph();
    EXPECT_DOUBLE_EQ(graph.opsPerFeature(), 4.0);
    graph.addNode(makeNode(OpType::FillNull, 14, {}, 1));
    EXPECT_DOUBLE_EQ(graph.opsPerFeature(), 2.5);
}

TEST(PreprocGraph, SubgraphExtractsFeatureWithDeps)
{
    auto graph = diamondGraph();
    graph.addNode(makeNode(OpType::FillNull, 14, {}, 1));
    const auto sub = graph.subgraphForFeatures({13});
    EXPECT_EQ(sub.nodeCount(), 4u);
    sub.validate();
    const auto sub2 = graph.subgraphForFeatures({14});
    EXPECT_EQ(sub2.nodeCount(), 1u);
}

TEST(PreprocGraph, SubgraphPullsCrossFeaturePrerequisites)
{
    PreprocGraph graph(
        data::makePresetSchema(data::DatasetPreset::CriteoKaggle));
    const int other = graph.addNode(makeNode(OpType::FillNull, 14, {},
                                             1));
    auto ngram = makeNode(OpType::Ngram, 13, {other});
    ngram.inputs.push_back(ColumnRef{FeatureKind::Sparse, 1});
    graph.addNode(std::move(ngram));
    const auto sub = graph.subgraphForFeatures({13});
    // The feature-14 prerequisite is pulled in by dependency closure.
    EXPECT_EQ(sub.nodeCount(), 2u);
}

TEST(PreprocGraph, OpTypeHistogramCounts)
{
    auto graph = diamondGraph();
    const auto histogram = graph.opTypeHistogram();
    EXPECT_EQ(histogram[static_cast<std::size_t>(OpType::FillNull)],
              1u);
    EXPECT_EQ(histogram[static_cast<std::size_t>(OpType::SigridHash)],
              1u);
    EXPECT_EQ(histogram[static_cast<std::size_t>(OpType::Ngram)], 0u);
}

TEST(PreprocGraphDeath, ValidateRejectsInputlessNodes)
{
    PreprocGraph graph(
        data::makePresetSchema(data::DatasetPreset::CriteoKaggle));
    OpNode node;
    node.type = OpType::FillNull;
    node.featureId = 0;
    graph.addNode(std::move(node));
    EXPECT_DEATH(graph.validate(), "no inputs");
}

} // namespace
} // namespace rap::preproc
