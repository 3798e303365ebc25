/**
 * @file
 * Tests for the observability layer (src/obs): label canonicalisation,
 * histogram bucket-edge semantics, span nesting (including under the
 * thread pool), snapshot determinism across worker counts, the CSV
 * exporter, a golden-file check of the full metrics snapshot for a
 * tiny end-to-end run, and golden files pinning the report and
 * metrics of every simulation path.
 *
 * Regenerate the golden files after an intentional schema,
 * instrumentation or model change with:
 *
 *   RAP_REGEN_GOLDEN=1 ./build/tests/test_obs \
 *       --gtest_filter='ObsGolden.*:RunGolden.*'
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "core/rap.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"
#include "sim/fault.hpp"

namespace rap::obs {
namespace {

TEST(Labels, RenderIsSortedAndOrderInsensitive)
{
    Labels forward{{"gpu", "3"}, {"phase", "corun"}};
    Labels reversed{{"phase", "corun"}, {"gpu", "3"}};
    EXPECT_EQ(forward.render(), "{gpu=3,phase=corun}");
    EXPECT_EQ(forward, reversed);
    EXPECT_EQ(Labels{}.render(), "");

    Labels mutated = forward;
    mutated.set("gpu", "5");
    EXPECT_EQ(mutated.render(), "{gpu=5,phase=corun}");
    EXPECT_EQ(mutated.pairs().size(), 2u);
}

TEST(Metrics, CounterAndGauge)
{
    Counter counter;
    counter.inc();
    counter.inc(41);
    EXPECT_EQ(counter.value(), 42u);

    Gauge gauge;
    gauge.set(1.5);
    EXPECT_EQ(gauge.value(), 1.5);
    gauge.max(0.5); // lower value must not win
    EXPECT_EQ(gauge.value(), 1.5);
    gauge.max(3.0);
    EXPECT_EQ(gauge.value(), 3.0);
}

TEST(Metrics, HistogramBucketEdges)
{
    Histogram histogram({1.0, 2.0, 5.0});
    ASSERT_EQ(histogram.bucketCounts().size(), 4u);

    histogram.observe(0.5);  // bucket 0: v < 1
    histogram.observe(1.0);  // exactly on an edge -> upper bucket
    histogram.observe(1.99); // bucket 1: 1 <= v < 2
    histogram.observe(2.0);  // bucket 2: 2 <= v < 5
    histogram.observe(5.0);  // edges.back() lands in overflow
    histogram.observe(7.25); // overflow: v >= 5

    const auto &counts = histogram.bucketCounts();
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 2u);
    EXPECT_EQ(histogram.count(), 6u);
    EXPECT_DOUBLE_EQ(histogram.sum(),
                     0.5 + 1.0 + 1.99 + 2.0 + 5.0 + 7.25);
}

TEST(Metrics, RegistryLookupIsIdentityPerNameAndLabels)
{
    MetricRegistry registry;
    Counter &a = registry.counter("hits", {{"gpu", "0"}});
    Counter &b = registry.counter("hits", {{"gpu", "0"}});
    Counter &c = registry.counter("hits", {{"gpu", "1"}});
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);

    // Second histogram lookup ignores the (different) edges argument.
    Histogram &h1 = registry.histogram("lat", {1.0, 2.0});
    Histogram &h2 = registry.histogram("lat", {9.0});
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h2.edges(), (std::vector<double>{1.0, 2.0}));
}

TEST(Metrics, VisitorsAreSortedByNameThenLabels)
{
    MetricRegistry registry;
    registry.counter("zeta");
    registry.counter("alpha", {{"gpu", "1"}});
    registry.counter("alpha", {{"gpu", "0"}});

    const auto counters = registry.counters();
    ASSERT_EQ(counters.size(), 3u);
    EXPECT_EQ(counters[0].first.first, "alpha");
    EXPECT_EQ(counters[0].first.second.render(), "{gpu=0}");
    EXPECT_EQ(counters[1].first.first, "alpha");
    EXPECT_EQ(counters[1].first.second.render(), "{gpu=1}");
    EXPECT_EQ(counters[2].first.first, "zeta");
}

TEST(Span, NestsWithinAThreadAndRecordsOnClose)
{
    MetricRegistry registry;
    {
        Span outer(&registry, "phase.outer");
        EXPECT_EQ(outer.depth(), 0);
        {
            Span inner(&registry, "phase.inner");
            EXPECT_EQ(inner.depth(), 1);
        }
        Span sibling(&registry, "phase.sibling");
        EXPECT_EQ(sibling.depth(), 1);
    }
    Span after(&registry, "phase.after");
    EXPECT_EQ(after.depth(), 0); // depth unwound after the scope

    // Three of the four spans have closed at this point.
    EXPECT_EQ(registry.spanRecords().size(), 3u);
}

TEST(Span, NullRegistryIsANoOp)
{
    Span span(nullptr, "ignored");
    span.annotateSim(0.0, 1.0);
    EXPECT_EQ(span.depth(), 0);
}

TEST(Span, DepthIsPerThreadUnderThePool)
{
    MetricRegistry registry;
    ThreadPool pool(2);
    {
        Span outer(&registry, "pool.outer");
        const auto depths =
            pool.parallelMap<int>(8, [&](std::size_t) {
                Span task(&registry, "pool.task");
                return task.depth();
            });
        // Depth is thread-local: tasks picked up by the calling
        // thread nest under the outer span (depth 1), tasks on pool
        // workers are outermost on their thread (depth 0).
        for (int depth : depths) {
            EXPECT_GE(depth, 0);
            EXPECT_LE(depth, 1);
        }
    }
    // Without an open scope anywhere, every task is outermost.
    const auto depths = pool.parallelMap<int>(8, [&](std::size_t) {
        Span task(&registry, "pool.task2");
        return task.depth();
    });
    for (int depth : depths)
        EXPECT_EQ(depth, 0);
}

TEST(Snapshot, SimSpansAndWallOptIn)
{
    MetricRegistry registry;
    registry.recordSimSpan("train.iteration", {}, 1.0, 1.5);
    registry.recordSimSpan("train.iteration", {}, 2.0, 2.25);
    {
        Span wall_only(&registry, "plan.offline");
    }

    const Json snapshot = snapshotJson(registry);
    const Json &spans = snapshot.at("spans");
    ASSERT_EQ(spans.size(), 2u);
    // Sorted by name: plan.offline before train.iteration.
    EXPECT_EQ(spans.at(std::size_t{0}).at("name").asString(),
              "plan.offline");
    EXPECT_TRUE(
        spans.at(std::size_t{0}).at("simSeconds").isNull());
    // No wallSeconds member in the deterministic snapshot.
    EXPECT_EQ(spans.at(std::size_t{0}).find("wallSeconds"), nullptr);

    const Json &iteration = spans.at(std::size_t{1});
    EXPECT_EQ(iteration.at("name").asString(), "train.iteration");
    EXPECT_EQ(iteration.at("count").asDouble(), 2.0);
    EXPECT_DOUBLE_EQ(iteration.at("simSeconds").asDouble(), 0.75);

    SnapshotOptions with_wall;
    with_wall.includeWallTime = true;
    const Json wall_snapshot = snapshotJson(registry, with_wall);
    const Json &offline =
        wall_snapshot.at("spans").at(std::size_t{0});
    ASSERT_NE(offline.find("wallSeconds"), nullptr);
    EXPECT_FALSE(offline.at("wallSeconds").isNull());
}

/** Record an identical workload through a pool of @p threads. */
std::string
snapshotForPoolSize(int threads)
{
    MetricRegistry registry;
    ThreadPool pool(threads);
    pool.parallelMap<int>(16, [&](std::size_t i) {
        const Labels labels{{"mod", std::to_string(i % 4)}};
        registry.counter("work.items", labels).inc();
        registry.gauge("work.max_index", labels)
            .max(static_cast<double>(i));
        Span outer(&registry, "work.outer", labels);
        Span inner(&registry, "work.inner", labels);
        inner.annotateSim(static_cast<double>(i),
                          static_cast<double>(i) + 0.5);
        return 0;
    });
    return snapshotJson(registry).dump(2);
}

TEST(Snapshot, ByteIdenticalAcrossThreadCounts)
{
    const std::string serial = snapshotForPoolSize(1);
    EXPECT_EQ(snapshotForPoolSize(4), serial);
    EXPECT_EQ(snapshotForPoolSize(8), serial);
    // Sanity: the workload actually recorded something.
    EXPECT_NE(serial.find("work.items"), std::string::npos);
}

TEST(Snapshot, SeriesCsvFormat)
{
    MetricRegistry registry;
    Series &series =
        registry.series("fleet.queue_depth", {{"policy", "shared"}});
    series.append(1.0, 2.5);
    series.append(2.0, 3.0);
    registry.series("alpha").append(0.5, 1.0);

    EXPECT_EQ(seriesCsv(registry),
              "name,labels,x,y\n"
              "alpha,\"\",0.5,1\n"
              "fleet.queue_depth,\"{policy=shared}\",1,2.5\n"
              "fleet.queue_depth,\"{policy=shared}\",2,3\n");
}

// tests/fixtures/metrics_label_prefix.json, which the ValidateMetrics
// ctest feeds to tools/validate_metrics, is exactly what the exporter
// writes for one counter under a label set and an extension of it.
TEST(Snapshot, LabelPrefixFixtureIsExporterOutput)
{
    MetricRegistry registry;
    const Labels scoped{{"policy", "rap_shared"}, {"run", "a"}};
    registry.counter("fleet.placements", scoped).inc(8);
    registry.counter("fleet.placements", {{"policy", "rap_shared"}}).inc(8);
    const Json fixture = readJsonFile(
        std::string(RAP_TESTS_DIR) + "/fixtures/metrics_label_prefix.json");
    EXPECT_EQ(snapshotJson(registry).dump(2), fixture.dump(2));
}

/**
 * Compare @p text with tests/golden/@p file, or rewrite the file (and
 * skip) when RAP_REGEN_GOLDEN is set.
 */
void
expectMatchesGolden(const std::string &text, const std::string &file)
{
    const std::string golden_path =
        std::string(RAP_TESTS_DIR) + "/golden/" + file;

    if (std::getenv("RAP_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        out << text;
        GTEST_SKIP() << "golden file regenerated";
    }

    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << golden_path
        << " (regenerate with RAP_REGEN_GOLDEN=1)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(text, expected.str())
        << golden_path << " drifted; if the change is intentional, "
        << "regenerate with RAP_REGEN_GOLDEN=1";
}

/** The 2-GPU, 4-iteration configuration every golden run starts from. */
core::SystemConfig
tinyConfig(core::System system)
{
    core::SystemConfig config;
    config.system = system;
    config.gpuCount = 2;
    config.batchPerGpu = 1024;
    config.iterations = 4;
    config.warmup = 1;
    return config;
}

TEST(ObsGolden, TinyRunSnapshotMatchesGoldenFile)
{
    MetricRegistry registry;
    core::SystemConfig config = tinyConfig(core::System::Rap);
    config.metrics = &registry;
    config.metricsScope = "golden";
    core::runSystem(config, preproc::makePlan(0));

    expectMatchesGolden(renderSnapshot(registry), "metrics_tiny.json");
}

/**
 * Pin one run's RunReport::toJson() and metrics snapshot together in
 * tests/golden/run_<name>.json, so an output-changing edit to any
 * simulation path (Ideal, TorchArrow, every GPU system, ingest
 * gating, checkpoint + crash recovery, online replanning, envelope
 * co-location) fails here instead of passing unnoticed.
 */
void
expectRunMatchesGolden(core::SystemConfig config, const std::string &name,
                       const preproc::PreprocPlan &plan =
                           preproc::makePlan(0))
{
    MetricRegistry registry;
    config.metrics = &registry;
    config.metricsScope = name;
    Json pinned = Json::object();
    pinned.set("report", core::runSystem(config, plan).toJson());
    pinned.set("metrics", snapshotJson(registry));
    expectMatchesGolden(pinned.dump(2) + "\n", "run_" + name + ".json");
}

TEST(RunGolden, EverySystemMatchesGoldenFile)
{
    const std::pair<core::System, const char *> systems[] = {
        {core::System::Ideal, "ideal"},
        {core::System::Rap, "rap"},
        {core::System::RapNoMapping, "rap_no_mapping"},
        {core::System::RapNoFusion, "rap_no_fusion"},
        {core::System::HorizontalFusionOnly, "horizontal_fusion"},
        {core::System::HybridRap, "hybrid_rap"},
        {core::System::CudaStream, "cuda_stream"},
        {core::System::Mps, "mps"},
        {core::System::SequentialGpu, "sequential"},
        {core::System::TorchArrowCpu, "torcharrow"},
    };
    for (const auto &[system, name] : systems) {
        SCOPED_TRACE(name);
        expectRunMatchesGolden(tinyConfig(system), name);
    }
}

TEST(RunGolden, OverloadedHybridRunMatchesGoldenFile)
{
    // Enough n-gram work to overflow the co-run capacity, so the
    // hybrid path actually segments kernels off to the host CPU.
    auto plan = preproc::makePlan(1);
    preproc::addNgramStress(plan, 6656);
    expectRunMatchesGolden(tinyConfig(core::System::HybridRap),
                           "hybrid_rap_overload", plan);
}

TEST(RunGolden, IngestGatedRunsMatchGoldenFiles)
{
    // A stream slow enough that the 4-iteration run is input-bound.
    ingest::IngestConfig stream;
    stream.streams = 2;
    stream.duration = 0.02;
    stream.profile.eventsPerSec = 20000.0;
    stream.stagingEventsPerSec = 100000.0;
    stream.batchRows = 64;
    for (const auto system : {core::System::Ideal, core::System::Rap}) {
        auto config = tinyConfig(system);
        config.ingest = stream;
        expectRunMatchesGolden(config, core::systemId(system) + "_ingest");
    }
}

TEST(RunGolden, CheckpointedCrashRunMatchesGoldenFile)
{
    auto config = tinyConfig(core::System::Rap);
    config.checkpoint.mode = core::CheckpointMode::FixedInterval;
    config.checkpoint.interval = 2;
    config.checkpoint.jobIterations = 40;
    config.checkpoint.restartOverhead = 0.05;
    sim::FaultSpec faults;
    faults.events.push_back(sim::FaultEvent::deviceCrash(1, 0.05));
    config.faults = faults;
    expectRunMatchesGolden(config, "rap_checkpoint_crash");
}

TEST(RunGolden, ReplannedRunMatchesGoldenFile)
{
    auto config = tinyConfig(core::System::Rap);
    config.iterations = 12;
    config.replanOnDrift = true;
    sim::FaultSpec faults;
    faults.events.push_back(sim::FaultEvent::smDegrade(0, 0.01, 0.5));
    config.faults = faults;
    expectRunMatchesGolden(config, "rap_replan");
}

// The replan fans its per-GPU scheduling out over the planning pool;
// a pooled run must reproduce the serial run's report and snapshot.
TEST(RunGolden, PooledReplanMatchesSerialGoldenFile)
{
    auto config = tinyConfig(core::System::Rap);
    config.iterations = 12;
    config.planningThreads = 4;
    config.replanOnDrift = true;
    sim::FaultSpec faults;
    faults.events.push_back(sim::FaultEvent::smDegrade(0, 0.01, 0.5));
    config.faults = faults;
    expectRunMatchesGolden(config, "rap_replan");
}

// The "RAP w/o mapping" ablation keeps its data-parallel mapping when
// it replans: only the co-run schedule follows the degraded device.
TEST(RunGolden, ReplannedAblationKeepsItsMapping)
{
    auto config = tinyConfig(core::System::RapNoMapping);
    config.iterations = 12;
    config.replanOnDrift = true;
    sim::FaultSpec faults;
    faults.events.push_back(sim::FaultEvent::smDegrade(0, 0.01, 0.5));
    config.faults = faults;
    expectRunMatchesGolden(config, "rap_no_mapping_replan");
}

TEST(RunGolden, EnvelopedSubsetRunMatchesGoldenFile)
{
    auto config = tinyConfig(core::System::Rap);
    config.clusterSpec = sim::subsetSpec(sim::dgxA100Spec(8), 2);
    config.gpuSubset = {3, 5};
    config.envelopes = {{0.5, 0.5}, {0.75, 0.6}};
    expectRunMatchesGolden(config, "rap_envelopes");
}

} // namespace
} // namespace rap::obs
