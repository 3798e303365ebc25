/**
 * @file
 * Tests for preprocessing-graph mapping strategies (§3, §7.2).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "core/mapping.hpp"

namespace rap::core {
namespace {

struct Fixture
{
    explicit Fixture(int gpus = 4, int plan_id = 0)
        : plan(preproc::makePlan(plan_id)),
          clusterSpec(sim::dgxA100Spec(gpus)),
          sharding(dlrm::EmbeddingSharding::balanced(plan.schema,
                                                     gpus)),
          mapper(plan, sharding, clusterSpec, 4096)
    {
    }
    /** Capacity profiles of every GPU, for mapRap. */
    std::vector<CapacityProfile>
    profiles() const
    {
        OverlappingCapacityEstimator estimator(
            clusterSpec,
            dlrm::makeDlrmConfig(plan.spec.dataset, plan.schema),
            sharding);
        return estimator.profileAll();
    }

    preproc::PreprocPlan plan;
    sim::ClusterSpec clusterSpec;
    dlrm::EmbeddingSharding sharding;
    GraphMapper mapper;
};

TEST(Mapping, StrategyNames)
{
    EXPECT_EQ(mappingStrategyName(MappingStrategy::DataParallel), "DP");
    EXPECT_EQ(mappingStrategyName(MappingStrategy::DataLocality), "DL");
    EXPECT_EQ(mappingStrategyName(MappingStrategy::Rap), "RAP");
}

TEST(Mapping, ConsumerRouting)
{
    Fixture f;
    // Dense items are consumed by their batch's GPU.
    EXPECT_EQ(f.mapper.consumer(WorkItem{0, 2}), 2);
    // Sparse items are consumed by the table owner, batch-independent.
    const int fid = preproc::sparseFeatureId(f.plan.schema, 0);
    const int owner = f.sharding.owner(0);
    EXPECT_EQ(f.mapper.consumer(WorkItem{fid, 0}), owner);
    EXPECT_EQ(f.mapper.consumer(WorkItem{fid, 3}), owner);
}

TEST(Mapping, DataParallelAssignsBatchesWholesale)
{
    Fixture f;
    const auto mapping = f.mapper.map(MappingStrategy::DataParallel);
    ASSERT_EQ(mapping.gpuCount(), 4);
    const std::size_t features = f.plan.schema.featureCount();
    for (int g = 0; g < 4; ++g) {
        EXPECT_EQ(mapping.itemsPerGpu[static_cast<std::size_t>(g)]
                      .size(),
                  features);
        for (const auto &item :
             mapping.itemsPerGpu[static_cast<std::size_t>(g)]) {
            EXPECT_EQ(item.batch, g);
        }
    }
    EXPECT_EQ(mapping.totalItems(), features * 4);
}

TEST(Mapping, DataParallelHasCommunication)
{
    Fixture f;
    const auto mapping = f.mapper.map(MappingStrategy::DataParallel);
    Bytes total = 0.0;
    for (Bytes b : mapping.commOutBytes)
        total += b;
    EXPECT_GT(total, 0.0);
}

TEST(Mapping, DataLocalityHasZeroCommunication)
{
    Fixture f;
    const auto mapping = f.mapper.map(MappingStrategy::DataLocality);
    for (Bytes b : mapping.commOutBytes)
        EXPECT_DOUBLE_EQ(b, 0.0);
    EXPECT_EQ(mapping.totalItems(),
              f.plan.schema.featureCount() * 4);
}

TEST(Mapping, DataLocalityPlacesItemsOnConsumers)
{
    Fixture f;
    const auto mapping = f.mapper.map(MappingStrategy::DataLocality);
    for (int g = 0; g < mapping.gpuCount(); ++g) {
        for (const auto &item :
             mapping.itemsPerGpu[static_cast<std::size_t>(g)]) {
            EXPECT_EQ(f.mapper.consumer(item), g);
        }
    }
}

TEST(Mapping, BuildGpuGraphReplicatesChains)
{
    Fixture f;
    const auto mapping = f.mapper.map(MappingStrategy::DataParallel);
    const auto graph = f.mapper.buildGpuGraph(mapping, 0);
    // GPU 0 preprocesses one full batch: the whole plan once.
    EXPECT_EQ(graph.nodeCount(), f.plan.graph.nodeCount());
    graph.validate();
}

TEST(Mapping, BuildGpuGraphCoversAllNodesAcrossGpus)
{
    Fixture f(4, 2); // plan 2: random chains incl. Ngram
    const auto mapping = f.mapper.map(MappingStrategy::DataLocality);
    std::size_t total = 0;
    for (int g = 0; g < 4; ++g) {
        const auto graph = f.mapper.buildGpuGraph(mapping, g);
        graph.validate();
        total += graph.nodeCount();
    }
    // Every feature chain appears once per batch (4 batches total).
    EXPECT_EQ(total, f.plan.graph.nodeCount() * 4);
}

TEST(Mapping, BuildGpuGraphCopiesEachItemsFeatureNodes)
{
    // Each item contributes its feature's featureNodes(), in order,
    // under every strategy.
    Fixture f(8, 3);
    HorizontalFusionPlanner planner(f.clusterSpec.gpu);
    std::map<int, std::vector<int>> expected;
    for (int feature : f.plan.graph.featureIds())
        expected[feature] = f.plan.graph.featureNodes(feature);

    const std::vector<std::pair<std::string, GraphMapping>> mappings = {
        {"DP", f.mapper.map(MappingStrategy::DataParallel)},
        {"DL", f.mapper.map(MappingStrategy::DataLocality)},
        {"RAP", f.mapper.mapRap(f.profiles(), planner)},
    };
    for (const auto &[name, mapping] : mappings) {
        for (int g = 0; g < mapping.gpuCount(); ++g) {
            SCOPED_TRACE(name + " gpu " + std::to_string(g));
            const auto graph = f.mapper.buildGpuGraph(mapping, g);
            int next = 0;
            for (const auto &item :
                 mapping.itemsPerGpu[static_cast<std::size_t>(g)]) {
                for (int id : expected.at(item.featureId)) {
                    ASSERT_LT(static_cast<std::size_t>(next),
                              graph.nodeCount());
                    const auto &copy = graph.node(next++);
                    const auto &source = f.plan.graph.node(id);
                    EXPECT_EQ(copy.type, source.type);
                    EXPECT_EQ(copy.featureId, source.featureId);
                }
            }
            EXPECT_EQ(static_cast<std::size_t>(next), graph.nodeCount());
        }
    }
}

TEST(Mapping, UnknownFeatureHasNoOutputBytes)
{
    Fixture f;
    EXPECT_EQ(f.mapper.featureOutputBytes(9999), 0.0);
    EXPECT_EQ(f.mapper.featureChainLatency(9999), 0.0);
}

TEST(Mapping, PooledRapSearchMatchesSerial)
{
    // Pool workers price GPUs concurrently through one const mapper.
    // Kept fast and unlabelled so the TSan job race-checks it.
    Fixture f(4, 1);
    HorizontalFusionPlanner planner(f.clusterSpec.gpu);
    const auto profiles = f.profiles();
    const auto serial = f.mapper.mapRap(profiles, planner);
    ThreadPool pool(4);
    const auto pooled = f.mapper.mapRap(profiles, planner, 64, &pool);

    ASSERT_EQ(pooled.gpuCount(), serial.gpuCount());
    for (std::size_t g = 0; g < serial.itemsPerGpu.size(); ++g) {
        const auto &want = serial.itemsPerGpu[g];
        const auto &got = pooled.itemsPerGpu[g];
        ASSERT_EQ(got.size(), want.size()) << "gpu " << g;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].featureId, want[i].featureId);
            EXPECT_EQ(got[i].batch, want[i].batch);
        }
    }
    EXPECT_EQ(pooled.commOutBytes, serial.commOutBytes);
}

TEST(Mapping, FeatureByteHelpers)
{
    Fixture f;
    const int dense_id = 0;
    const int sparse_id = preproc::sparseFeatureId(f.plan.schema, 0);
    EXPECT_GT(f.mapper.featureOutputBytes(dense_id), 0.0);
    EXPECT_GT(f.mapper.featureOutputBytes(sparse_id), 0.0);
    EXPECT_GT(f.mapper.featureRawBytes(dense_id), 0.0);
    EXPECT_GT(f.mapper.featureRawBytes(sparse_id),
              f.mapper.featureRawBytes(dense_id));
    EXPECT_GT(f.mapper.featureChainLatency(sparse_id), 0.0);
}

TEST(Mapping, RapKeepsLocalityWhenBalanced)
{
    // With a balanced plan nothing is exposed, so the joint search
    // should stay at the zero-communication data-locality mapping.
    Fixture f;
    HorizontalFusionPlanner planner(f.clusterSpec.gpu);
    const auto mapping = f.mapper.mapRap(f.profiles(), planner);
    for (Bytes b : mapping.commOutBytes)
        EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(Mapping, RapRebalancesSkewedPlan)
{
    // Fig. 12 scenario: the features owned by GPU 0 carry far more
    // preprocessing work under data locality. The skew is made strong
    // enough that DL's hot GPU exceeds its overlapping capacity.
    const auto plan = preproc::makeSkewedPlan(0, 4, 3000);
    const auto cluster_spec = sim::dgxA100Spec(4);
    const auto sharding =
        dlrm::EmbeddingSharding::balanced(plan.schema, 4);
    GraphMapper mapper(plan, sharding, cluster_spec, 4096);

    OverlappingCapacityEstimator estimator(
        cluster_spec,
        dlrm::makeDlrmConfig(plan.spec.dataset, plan.schema), sharding);
    const auto profiles = estimator.profileAll();
    HorizontalFusionPlanner planner(cluster_spec.gpu);

    CoRunningCostModel cost_model(cluster_spec);
    auto worstDelta = [&](const GraphMapping &mapping) {
        Seconds worst = -1e9;
        for (int g = 0; g < 4; ++g) {
            const auto kernels = planner.plan(
                mapper.buildGpuGraph(mapping, g), 4096);
            worst = std::max(
                worst,
                cost_model
                    .evaluate(kernels,
                              profiles[static_cast<std::size_t>(g)],
                              mapping.commOutBytes[
                                  static_cast<std::size_t>(g)])
                    .delta());
        }
        return worst;
    };

    const auto dl = mapper.map(MappingStrategy::DataLocality);
    const auto rap = mapper.mapRap(profiles, planner);
    EXPECT_EQ(rap.totalItems(), dl.totalItems());

    const Seconds dl_worst = worstDelta(dl);
    const Seconds rap_worst = worstDelta(rap);
    // DL must actually be overloaded for the scenario to bite.
    ASSERT_GT(dl_worst, 0.0);
    // The joint search strictly improves the worst-case exposure and
    // pays for it with some communication.
    EXPECT_LT(rap_worst, dl_worst);
    Bytes rap_comm = 0.0;
    for (Bytes b : rap.commOutBytes)
        rap_comm += b;
    EXPECT_GT(rap_comm, 0.0);
}

TEST(MappingDeath, MismatchedShardingPanics)
{
    const auto plan = preproc::makePlan(0);
    const auto sharding =
        dlrm::EmbeddingSharding::balanced(plan.schema, 2);
    EXPECT_DEATH(GraphMapper(plan, sharding, sim::dgxA100Spec(4), 4096),
                 "does not match");
}

} // namespace
} // namespace rap::core
