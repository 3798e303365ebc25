#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "dlrm/trainer.hpp"
#include "ingest/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "preproc/executor.hpp"
#include "sim/trace_export.hpp"

namespace rap::core {

namespace {

/** TorchArrow baseline: preprocessing workers per GPU (paper §1). */
constexpr int kTorchArrowWorkersPerGpu = 8;
/** TorchArrow baseline: CPU cores per worker. */
constexpr int kCoresPerWorker = 4;
/** Relative iteration-latency drift that triggers a replan. */
constexpr double kReplanDriftThreshold = 0.15;
/** Batches pushed ahead of the trainer; a replan splices in after them. */
constexpr int kPushAhead = 3;
/** Iterations after a replan before drift may trigger another. */
constexpr int kReplanCooldown = 3;

/**
 * Labels for this run's instruments: the configured `run=` scope, when
 * set. Sweep benches sharing one registry across pool workers rely on
 * the scope to keep instruments single-strand.
 */
obs::Labels
runLabels(const SystemConfig &config)
{
    obs::Labels labels;
    if (!config.metricsScope.empty())
        labels.set("run", config.metricsScope);
    return labels;
}

/** Fatal (user error) when @p config fails structured validation. */
void
requireValid(const SystemConfig &config)
{
    const auto result = config.validate();
    if (!result.ok())
        RAP_FATAL("invalid run configuration:\n", result.render());
}

/** Fires a set of events once all expected parties have arrived. */
class InputBarrier
{
  public:
    InputBarrier(sim::Engine &engine, int expected)
        : engine_(engine), expected_(expected)
    {
    }

    void addTarget(sim::SimEventPtr event)
    {
        targets_.push_back(std::move(event));
    }

    void
    arrive()
    {
        RAP_ASSERT(arrived_ < expected_, "barrier over-arrived");
        if (++arrived_ == expected_) {
            for (auto &event : targets_)
                event->fire(engine_);
        }
    }

  private:
    sim::Engine &engine_;
    int expected_;
    int arrived_ = 0;
    std::vector<sim::SimEventPtr> targets_;
};

/** Result of the streaming-ingest pre-pass. */
struct IngestPhase
{
    /** Virtual time staged batch j became available (monotone). */
    std::vector<Seconds> readyAt;
    ingest::IngestReport report;
};

/**
 * Streaming-ingest pre-pass: when the run is configured with an
 * ingest front-end, drive the whole stream (producers, lock-free
 * transport, staging) to completion and record each staged batch's
 * virtual ready time. The training simulation then gates iteration j
 * on readyAt[j] — input-bound stretches of the stream surface as
 * iteration-latency stalls. Fatal when the stream stages fewer
 * batches than the run consumes.
 */
std::optional<IngestPhase>
runIngestPhase(const SystemConfig &config)
{
    if (!config.ingest)
        return std::nullopt;
    IngestPhase phase;
    ingest::IngestPipeline pipeline(*config.ingest);
    phase.report = pipeline.run(
        [&phase](ingest::StagedBatch &&batch) {
            phase.readyAt.push_back(batch.readyAt);
        },
        config.metrics, runLabels(config));
    if (phase.readyAt.size() <
        static_cast<std::size_t>(config.iterations)) {
        RAP_FATAL("ingest staged ", phase.readyAt.size(),
                  " batches but the run consumes ",
                  config.iterations,
                  " (one per iteration); raise ingest.duration or "
                  "shrink ingest.batchRows");
    }
    return phase;
}

/** Per-system behavioural knobs shared by all GPU-preprocessing runs. */
struct GpuSystemTraits
{
    MappingStrategy mapping = MappingStrategy::Rap;
    bool fusion = true;
    bool capacityScheduling = true;
    bool sequential = false;
    /** Launch group of preprocessing streams (0 = training process). */
    int preprocLaunchGroup = 0;
    /** Stream priority of preprocessing (1 = CUDA low priority). */
    int preprocPriority = 1;
    /**
     * Host dispatch gap before every kernel launch. The handcrafted
     * baselines drive their kernels eagerly from the Python input
     * pipeline; RAP's generated code launches fused kernels directly.
     */
    Seconds hostDispatch = 0.0;
};

GpuSystemTraits
traitsFor(System system)
{
    GpuSystemTraits traits;
    switch (system) {
      case System::Rap:
        return traits;
      case System::RapNoMapping:
        traits.mapping = MappingStrategy::DataParallel;
        return traits;
      case System::RapNoFusion:
        traits.fusion = false;
        return traits;
      case System::HybridRap:
        return traits; // RAP traits; the CPU segmentation is applied
                       // after scheduling (see runGpuSystem).
      case System::HorizontalFusionOnly:
        // Generated fused kernels, launched back-to-back from the
        // iteration start with no capacity awareness; the naive
        // co-run contends with training at fair share, so oversized
        // fused kernels stretch the trainer (the Fig. 11 effect).
        traits.mapping = MappingStrategy::DataParallel;
        traits.capacityScheduling = false;
        traits.preprocPriority = 0;
        return traits;
      case System::CudaStream:
        traits.mapping = MappingStrategy::DataParallel;
        traits.fusion = false;
        traits.capacityScheduling = false;
        traits.preprocLaunchGroup = 0;
        // Same-process eager dispatch contends with the training
        // loop's host thread, so it is slower than a dedicated
        // preprocessing process.
        traits.hostDispatch = 20e-6;
        return traits;
      case System::Mps:
        traits.mapping = MappingStrategy::DataParallel;
        traits.fusion = false;
        traits.capacityScheduling = false;
        traits.preprocLaunchGroup = 1;
        // A separate MPS process shares the SMs fairly with training.
        traits.preprocPriority = 0;
        traits.hostDispatch = 12e-6;
        return traits;
      case System::SequentialGpu:
        traits.mapping = MappingStrategy::DataParallel;
        traits.fusion = false;
        traits.capacityScheduling = false;
        traits.sequential = true;
        traits.hostDispatch = 12e-6;
        return traits;
      default:
        RAP_PANIC("system has no GPU-preprocessing traits");
    }
}

/**
 * Resolve the hardware description for @p config: the explicit
 * subset-cluster override when the fleet passed one, otherwise the
 * default DGX-A100 node sized to gpuCount (validate() has already
 * checked it against the GPU count).
 */
sim::ClusterSpec
clusterSpecFor(const SystemConfig &config)
{
    return config.clusterSpec ? *config.clusterSpec
                              : sim::dgxA100Spec(config.gpuCount);
}

/**
 * Build the DLRM model configuration for @p config over @p plan,
 * carrying the system-level inference flag into the model so every
 * run path (ideal, TorchArrow, GPU systems, offline planning) builds
 * the same forward-only iteration when serving.
 */
dlrm::DlrmConfig
modelConfigFor(const SystemConfig &config, const preproc::PreprocPlan &plan)
{
    auto model = dlrm::makeDlrmConfig(plan.spec.dataset, plan.schema,
                                      config.batchPerGpu);
    model.inferenceOnly = config.inference;
    return model;
}

/** Embedding-table placement shared by every system variant. */
dlrm::EmbeddingSharding
makeSharding(const SystemConfig &config,
             const preproc::PreprocPlan &plan)
{
    return config.rowWiseThreshold > 0
               ? dlrm::EmbeddingSharding::balancedWithRowWise(
                     plan.schema, config.gpuCount,
                     config.rowWiseThreshold)
               : dlrm::EmbeddingSharding::balanced(plan.schema,
                                                   config.gpuCount);
}

/**
 * Arm in-DES calibration checkpoints on @p driver. FixedInterval
 * drains at its configured cadence; YoungDaly pushes one trailing
 * calibration drain to *measure* the per-checkpoint cost (the
 * composed interval is derived from that measurement afterwards).
 * @return True when checkpoints were armed.
 */
bool
armCheckpoints(const SystemConfig &sys, const dlrm::DlrmConfig &model,
               const dlrm::EmbeddingSharding &sharding,
               dlrm::TrainingDriver &driver)
{
    const auto &ckpt = sys.checkpoint;
    if (ckpt.mode == CheckpointMode::None)
        return false;
    std::vector<Bytes> bytes;
    bytes.reserve(static_cast<std::size_t>(sys.gpuCount));
    for (int g = 0; g < sys.gpuCount; ++g)
        bytes.push_back(checkpointBytesPerGpu(model, sharding, g));
    // Cap the cadence at the run length so at least one drain executes
    // and the cost measurement always has a sample.
    const int cadence =
        ckpt.mode == CheckpointMode::FixedInterval
            ? std::min(std::max(1, ckpt.interval), sys.iterations)
            : sys.iterations;
    driver.setCheckpoint(std::move(bytes), cadence);
    return true;
}

/**
 * Compose the analytic crash/restore timeline over the job length and
 * fill the report's recovery fields. The DES measured the
 * checkpoint-free iteration interval and the per-checkpoint cost;
 * realistic MTBFs dwarf the simulated horizon, so crashes and
 * checkpoints are extrapolated in O(crashes + checkpoints)
 * (core/checkpoint.hpp). When composition runs, RunReport::makespan is
 * the composed end-to-end completion of the full job, not the DES
 * drain time.
 */
void
applyRecovery(const SystemConfig &sys, RunReport &report,
              Seconds iter_interval, Seconds checkpoint_cost,
              const std::vector<Seconds> &crash_times)
{
    const auto &ckpt = sys.checkpoint;
    if (ckpt.mode == CheckpointMode::None && crash_times.empty())
        return;
    const long long job_iters =
        ckpt.jobIterations > 0 ? ckpt.jobIterations : sys.iterations;
    long long interval_iters = 0;
    switch (ckpt.mode) {
      case CheckpointMode::None:
        break;
      case CheckpointMode::FixedInterval:
        interval_iters = std::max(1, ckpt.interval);
        break;
      case CheckpointMode::YoungDaly:
        interval_iters = std::max<long long>(
            1, std::llround(
                   youngDalyInterval(checkpoint_cost, ckpt.mtbf) /
                   iter_interval));
        break;
    }
    // Restore reads the image back over the same host link, so it
    // costs one checkpoint drain on top of the process restart.
    const auto outcome = composeRecovery(
        iter_interval, checkpoint_cost, checkpoint_cost,
        ckpt.restartOverhead, job_iters, interval_iters, crash_times);
    report.lostWork = outcome.lostWork;
    report.checkpointOverhead = outcome.checkpointOverhead;
    report.recoveries = outcome.recoveries;
    report.makespan = outcome.completion;
    if (sys.metrics != nullptr) {
        sys.metrics->counter("train.checkpoints", runLabels(sys))
            .inc(static_cast<std::uint64_t>(
                std::max<long long>(0, outcome.checkpoints)));
        sys.metrics->counter("train.lost_batches", runLabels(sys))
            .inc(static_cast<std::uint64_t>(
                std::max<long long>(0, outcome.lostBatches)));
        for (const auto &window : outcome.recoveryWindows) {
            sys.metrics->recordSimSpan("train.recovery", runLabels(sys),
                                       window.first, window.second);
        }
    }
}

/** @return Iteration @p j's interval on GPU @p g, from j - 1's end. */
Seconds
iterationInterval(const dlrm::TrainingDriver &driver, int g, int j)
{
    const auto &span = driver.iterationSpan(g, j);
    return j >= 1 ? span.end - driver.iterationSpan(g, j - 1).end
                  : span.end - span.start;
}

/**
 * Record the run's per-iteration observability after the simulation
 * drained: iteration-interval series + fixed-bucket histogram, exposed
 * latency against @p predicted (when the system has a prediction), and
 * one sim-time span per iteration (rendered into the Chrome trace).
 * Runs on the single calling strand, so double accumulation is
 * deterministic.
 */
void
recordIterationMetrics(const SystemConfig &config, sim::Cluster &cluster,
                       dlrm::TrainingDriver &driver,
                       const std::vector<Seconds> *predicted)
{
    obs::MetricRegistry *metrics = config.metrics;
    if (metrics == nullptr)
        return;
    // Edges are fixed so snapshots from different runs line up
    // bucket-for-bucket (1 ms .. 1 s, the simulated iteration range).
    static const std::vector<double> kIterationEdges{
        0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0};
    auto &histogram =
        metrics->histogram("train.iteration_interval_seconds",
                           kIterationEdges, runLabels(config));
    for (int g = 0; g < config.gpuCount; ++g) {
        obs::Labels labels = runLabels(config);
        labels.set("gpu", std::to_string(cluster.globalGpuId(g)));
        auto &intervals =
            metrics->series("train.iteration_interval", labels);
        for (int j = 0; j < config.iterations; ++j) {
            const auto &span = driver.iterationSpan(g, j);
            const Seconds interval = iterationInterval(driver, g, j);
            intervals.append(j, interval);
            histogram.observe(interval);
            metrics->recordSimSpan("train.iteration", labels,
                                   span.start, span.end);
            if (predicted != nullptr) {
                const Seconds expected =
                    (*predicted)[static_cast<std::size_t>(g)];
                metrics->series("train.exposed_latency", labels)
                    .append(j, std::max(0.0, interval - expected));
            }
        }
    }
    cluster.exportMetrics(*metrics, runLabels(config));
}

/**
 * The simulated node a run executes on: the cluster shrunk to its
 * configured envelopes, with the DES engine's worker count, and the
 * optional seeded fault scenario (degraded SM/HBM envelopes, slow
 * links, transient kernel-launch failures; sim/fault.hpp) split in
 * two. Degradations are armed on the cluster. Fail-stop events become
 * crashTimes: the DES measures the checkpoint-free steady state on
 * live devices, and the crash/restore timeline is composed
 * analytically afterwards (applyRecovery) — realistic MTBFs dwarf the
 * simulated horizon.
 */
struct SimNode
{
    explicit SimNode(const SystemConfig &config)
        : cluster(clusterSpecFor(config), config.gpuSubset)
    {
        // Co-location: shrink each device to its envelope share.
        for (std::size_t g = 0; g < config.envelopes.size(); ++g) {
            auto &device = cluster.device(static_cast<int>(g));
            if (config.envelopes[g].sm < 1.0)
                device.degradeSm(config.envelopes[g].sm);
            if (config.envelopes[g].bw < 1.0)
                device.degradeBw(config.envelopes[g].bw);
        }
        // Training runs keep a single time zone — every iteration is
        // synchronised by all-GPU collectives at sub-lookahead
        // granularity, so a conservative partition would degenerate
        // into one zone per barrier — which makes the worker count a
        // validated no-op today; partitioned simulations (bench_scale's
        // synthetic fleets, via Cluster::partitionZones) consume it.
        cluster.engine().setJobs(config.engineJobs == 0
                                     ? ThreadPool::hardwareThreads()
                                     : config.engineJobs);
        if (config.faults) {
            crashTimes = config.faults->failStopTimes();
            injector.emplace(config.faults->degradationOnly());
            injector->arm(cluster);
        }
    }

    sim::Cluster cluster;
    std::optional<sim::FaultInjector> injector;
    std::vector<Seconds> crashTimes;
};

/** One event per GPU per iteration, indexed [g][j]. */
using GpuEvents = std::vector<std::vector<sim::SimEventPtr>>;

/** @return Fresh events named "<prefix>.g<g>.<j>". */
GpuEvents
makeGpuEvents(const std::string &prefix, int gpus, int iterations)
{
    GpuEvents events(static_cast<std::size_t>(gpus));
    for (int g = 0; g < gpus; ++g) {
        for (int j = 0; j < iterations; ++j) {
            events[static_cast<std::size_t>(g)].push_back(
                sim::makeEvent(prefix + ".g" + std::to_string(g) + "." +
                               std::to_string(j)));
        }
    }
    return events;
}

/**
 * Per-iteration input gates: ready[g][j] releases iteration j on GPU g
 * once barriers[j] has heard from all its parties — @p gpu_parties
 * preprocessing completions, plus one party arriving at staged batch
 * j's ready time when the run streams its input through @p ingest.
 */
struct InputGates
{
    InputGates(sim::Engine &engine, int gpus, int iterations,
               int gpu_parties, const std::optional<IngestPhase> &ingest)
        : ready(makeGpuEvents("input", gpus, iterations))
    {
        for (int j = 0; j < iterations; ++j) {
            barriers.push_back(std::make_unique<InputBarrier>(
                engine, gpu_parties + (ingest ? 1 : 0)));
        }
        for (const auto &per_gpu : ready) {
            for (std::size_t j = 0; j < barriers.size(); ++j)
                barriers[j]->addTarget(per_gpu[j]);
        }
        for (std::size_t j = 0; ingest && j < barriers.size(); ++j) {
            auto *barrier = barriers[j].get();
            engine.schedule(ingest->readyAt[j],
                            [barrier] { barrier->arrive(); });
        }
    }

    // Trainer input gates hold the address of `ready`.
    InputGates(const InputGates &) = delete;
    InputGates &operator=(const InputGates &) = delete;

    GpuEvents ready;
    std::vector<std::unique_ptr<InputBarrier>> barriers;
};

/**
 * The skeleton every system path shares. Construction builds the
 * simulated node, runs the streaming-ingest pre-pass (when
 * configured) and places the trainer. A path then gates the trainer's
 * iterations on its inputs (start), adds its own preprocessing
 * streams, drains the simulation, and hands its system-specific report
 * fields to finish().
 */
struct SimulatedRun
{
    SimulatedRun(const SystemConfig &run_config,
                 const preproc::PreprocPlan &plan)
        : config(run_config), node(config), ingest(runIngestPhase(config)),
          model(modelConfigFor(config, plan)),
          sharding(makeSharding(config, plan)),
          driver(node.cluster, model, sharding)
    {
    }

    /**
     * Gate iteration j on GPU g on (*ready)[g][j] (ungated when null),
     * arm calibration checkpoints, and push every iteration. @p ready
     * must outlive the simulation.
     */
    void
    start(const GpuEvents *ready)
    {
        if (ready != nullptr) {
            driver.setInputGate([ready](int g, int i) {
                return (*ready)[static_cast<std::size_t>(g)][
                    static_cast<std::size_t>(i)];
            });
        }
        checkpointing = armCheckpoints(config, model, sharding, driver);
        driver.pushIterations(config.iterations);
    }

    /** Drain the simulation and fix the steady-state window. */
    void
    simulate()
    {
        node.cluster.run();
        windowStart = driver.iterationSpan(0, config.warmup).start;
        windowEnd = driver.iterationSpan(0, config.iterations - 1).end;
    }

    /**
     * Effective iteration interval over the steady-state window (the
     * pipeline is input-bound when supply trails demand). Calibration
     * checkpoint drains inside the window (slowest GPU per drain) are
     * subtracted, so it stays the checkpoint-free interval: the
     * recovery composition adds checkpoint cost back explicitly at its
     * own cadence.
     */
    Seconds
    steadyInterval() const
    {
        Seconds ckpt_window = 0.0;
        for (int j = config.warmup; j < config.iterations - 1; ++j) {
            Seconds worst = 0.0;
            for (int g = 0; g < config.gpuCount; ++g) {
                const auto &span = driver.checkpointSpan(g, j);
                if (span.valid())
                    worst = std::max(worst, span.duration());
            }
            ckpt_window += worst;
        }
        return (windowEnd - windowStart - ckpt_window) /
               static_cast<double>(config.iterations - config.warmup);
    }

    /**
     * Complete @p report (its avgIterationLatency and system-specific
     * fields already set) with what every path reports alike — header,
     * throughput, utilisation over the steady-state window, makespan,
     * fault, recovery and ingest stats — then record the per-iteration
     * metrics (exposed latency against @p predicted, when given) and
     * dump the Chrome trace when the config asked for one.
     */
    RunReport
    finish(RunReport report, const std::vector<Seconds> *predicted = nullptr)
    {
        auto &cluster = node.cluster;
        report.system = systemName(config.system);
        report.gpuCount = config.gpuCount;
        report.batchPerGpu = config.batchPerGpu;
        report.throughput = static_cast<double>(config.batchPerGpu) *
                            config.gpuCount / report.avgIterationLatency;
        RunningStat sm, bw, busy;
        for (int g = 0; g < cluster.gpuCount(); ++g) {
            auto &device = cluster.device(g);
            sm.add(device.trace().avgSmUsage(windowStart, windowEnd));
            bw.add(device.trace().avgBwUsage(windowStart, windowEnd));
            busy.add(device.trace().busyFraction(windowStart, windowEnd));
            report.p2pBytes += device.p2pLink().totalBytes();
            report.kernelRetries += device.kernelRetries();
            report.retryBackoffSeconds += device.retryBackoffSeconds();
        }
        report.avgSmUtil = sm.mean();
        report.avgBwUtil = bw.mean();
        report.avgGpuBusy = busy.mean();
        report.makespan = cluster.engine().now();
        applyRecovery(config, report, report.avgIterationLatency,
                      checkpointing ? driver.avgCheckpointCost() : 0.0,
                      node.crashTimes);
        if (ingest) {
            report.ingestEvents = ingest->report.events;
            report.ingestDropped = ingest->report.dropped;
            report.ingestSpilled = ingest->report.spilled;
            report.ingestBatches = ingest->report.batches;
            report.ingestStagingP99 = ingest->report.p99;
            report.ingestLastReadyAt = ingest->readyAt[
                static_cast<std::size_t>(config.iterations) - 1];
        }
        recordIterationMetrics(config, cluster, driver, predicted);
        if (!config.tracePath.empty()) {
            sim::TraceExportOptions options;
            // Recorded spans (planner phases, per-iteration sim spans)
            // render into the trace alongside the kernel tracks.
            options.spans = config.metrics;
            sim::writeChromeTrace(cluster, config.tracePath, options);
        }
        return report;
    }

    const SystemConfig &config;
    SimNode node;
    std::optional<IngestPhase> ingest;
    dlrm::DlrmConfig model;
    dlrm::EmbeddingSharding sharding;
    dlrm::TrainingDriver driver;
    bool checkpointing = false;
    /** GPU 0's steady-state window: warmup start to last end. */
    Seconds windowStart = 0.0;
    Seconds windowEnd = 0.0;
};

} // namespace

std::string
systemName(System system)
{
    switch (system) {
      case System::Ideal: return "Ideal";
      case System::Rap: return "RAP";
      case System::RapNoMapping: return "RAP w/o mapping";
      case System::RapNoFusion: return "RAP w/o fusion";
      case System::HorizontalFusionOnly: return "Horizontal Fusion";
      case System::HybridRap: return "RAP hybrid (GPU+CPU)";
      case System::CudaStream: return "CUDA stream";
      case System::Mps: return "MPS";
      case System::SequentialGpu: return "Sequential";
      case System::TorchArrowCpu: return "TorchArrow";
    }
    RAP_PANIC("unknown system");
}

namespace {

/**
 * The planning chain of a GPU-preprocessing run (paper Algorithm 1 plus
 * the §6-§7 searches): the mapping search, then per GPU the fusion MILP
 * and the co-run schedule. The offline pass and every drift replan run
 * this one chain, so a replan reruns the run's own mapping strategy.
 * Per-GPU work runs on the planning pool (serial when null) and is
 * reduced in GPU order, so plans are bit-identical at any thread count.
 */
struct Planner
{
    Planner(const SystemConfig &run_config, const preproc::PreprocPlan &plan,
            ThreadPool *planning_pool)
        : config(run_config), pool(planning_pool),
          traits(traitsFor(config.system)),
          clusterSpec(clusterSpecFor(config)),
          sharding(makeSharding(config, plan)),
          fusion(clusterSpec.gpu, config.predictor,
                 FusionOptions{config.solver, traits.fusion}),
          mapper(plan, sharding, clusterSpec, config.batchPerGpu)
    {
    }

    /** Map the preprocessing graph with the run's strategy. */
    GraphMapping
    map(const std::vector<CapacityProfile> &profiles,
        MappingSearchStats *stats = nullptr) const
    {
        const MappingStrategy strategy =
            config.forcedMapping.value_or(traits.mapping);
        return strategy == MappingStrategy::Rap
                   ? mapper.mapRap(profiles, fusion, /*max_moves=*/64, pool,
                                   stats)
                   : mapper.map(strategy);
    }

    /** Fuse and schedule each GPU's graph under @p mapping. */
    std::vector<CoRunSchedule>
    schedule(const GraphMapping &mapping,
             const std::vector<CapacityProfile> &profiles) const
    {
        CoRunScheduler scheduler(fusion);
        std::vector<CoRunSchedule> schedules(
            static_cast<std::size_t>(config.gpuCount));
        auto planGpu = [&](std::size_t g) {
            auto kernels = fusion.plan(
                mapper.buildGpuGraph(mapping, static_cast<int>(g)),
                config.batchPerGpu);
            if (traits.capacityScheduling) {
                schedules[g] =
                    scheduler.schedule(std::move(kernels), profiles[g]);
                return;
            }
            // Baselines launch kernels back-to-back from iteration
            // start without capacity awareness.
            for (auto &k : kernels) {
                schedules[g].totalPreprocLatency += k.predictedLatency;
                schedules[g].kernels.push_back(
                    ScheduledKernel{std::move(k), 0, false});
            }
        };
        if (pool != nullptr)
            pool->parallelFor(schedules.size(), planGpu);
        else
            for (std::size_t g = 0; g < schedules.size(); ++g)
                planGpu(g);
        return schedules;
    }

    const SystemConfig &config;
    ThreadPool *pool;
    GpuSystemTraits traits;
    sim::ClusterSpec clusterSpec;
    dlrm::EmbeddingSharding sharding;
    HorizontalFusionPlanner fusion;
    GraphMapper mapper;
};

/** The offline pass: profile capacities, then run @p planner's chain. */
OfflinePlan
planValidated(const Planner &planner, const preproc::PreprocPlan &plan)
{
    const SystemConfig &config = planner.config;
    obs::MetricRegistry *metrics = config.metrics;
    const auto labels = runLabels(config);
    obs::Span plan_span(metrics, "plan.offline", labels);

    OfflinePlan offline;
    {
        obs::Span span(metrics, "plan.profile", labels);
        OverlappingCapacityEstimator estimator(planner.clusterSpec,
                                               modelConfigFor(config, plan),
                                               planner.sharding);
        offline.profiles = estimator.profileAll();
    }
    // Envelope-shared co-location: the job only owns a slice of each
    // device, so every downstream search (mapping, fusion, co-run
    // scheduling) must plan against the degraded capacity profile —
    // the same transform the online replanning path applies when a
    // device's envelope shrinks mid-run.
    for (std::size_t g = 0; g < config.envelopes.size(); ++g) {
        offline.profiles[g] =
            degradeProfile(offline.profiles[g], config.envelopes[g].sm,
                           config.envelopes[g].bw);
    }

    MappingSearchStats mapping_stats;
    {
        obs::Span span(metrics, "plan.mapping", labels);
        offline.mapping = planner.map(offline.profiles, &mapping_stats);
    }
    {
        obs::Span span(metrics, "plan.schedule", labels);
        offline.schedules =
            planner.schedule(offline.mapping, offline.profiles);
    }

    if (metrics != nullptr) {
        metrics->counter("plan.milp.nodes_explored", labels)
            .inc(planner.fusion.milpNodesExplored());
        metrics->counter("plan.mapping.moves_accepted", labels)
            .inc(static_cast<std::uint64_t>(mapping_stats.movesAccepted));
        metrics->counter("plan.mapping.moves_evaluated", labels)
            .inc(static_cast<std::uint64_t>(mapping_stats.movesEvaluated));
        metrics->counter("plan.mapping.pricings", labels)
            .inc(mapping_stats.pricings);
    }
    return offline;
}

/**
 * Hybrid extension (§10): kernels whose latency exceeds the GPUs'
 * total overlapping capacity (the scheduler's overflow set) are
 * segmented off to host CPU workers, member by member, until each
 * GPU's budget of @p hybrid_cores host cores is spent.
 * @return Per-GPU core-seconds of preprocessing moved to the CPU.
 */
std::vector<Seconds>
offloadOverflowToCpu(OfflinePlan &offline,
                     const HorizontalFusionPlanner &planner,
                     int hybrid_cores)
{
    std::vector<Seconds> cpu_part_core_seconds(offline.schedules.size(),
                                               0.0);
    for (std::size_t g = 0; g < offline.schedules.size(); ++g) {
        auto &schedule = offline.schedules[g];
        // The CPU pipeline must itself keep up with the trainer:
        // offload only what this GPU's share of the host cores can
        // chew through within one iteration interval.
        const Seconds budget =
            offline.profiles[g].iterationLatency * 0.9 * hybrid_cores;
        auto &cpu_part = cpu_part_core_seconds[g];
        std::vector<ScheduledKernel> kept;
        for (auto &sk : schedule.kernels) {
            if (!sk.overflow) {
                kept.push_back(std::move(sk));
                continue;
            }
            // Offload members individually until the CPU budget is
            // spent; the rest stays on the GPU.
            std::vector<int> keep_ids;
            std::vector<preproc::OpShape> keep_shapes;
            for (std::size_t m = 0; m < sk.kernel.nodeIds.size(); ++m) {
                const Seconds member_cpu = preproc::opCpuSecondsOptimized(
                    sk.kernel.type, sk.kernel.memberShapes[m]);
                if (cpu_part + member_cpu <= budget) {
                    cpu_part += member_cpu;
                } else {
                    keep_ids.push_back(sk.kernel.nodeIds[m]);
                    keep_shapes.push_back(sk.kernel.memberShapes[m]);
                }
            }
            const Seconds before = sk.kernel.predictedLatency;
            const Seconds launch = planner.spec().kernelLaunchOverhead;
            if (keep_ids.empty()) {
                // A fully offloaded kernel also gives back its launch
                // overhead (both totals charge one launch per kernel).
                schedule.totalPreprocLatency -= before + launch;
                schedule.estimatedExposed -= before + launch;
                continue; // whole kernel offloaded
            }
            if (keep_ids.size() < sk.kernel.nodeIds.size()) {
                sk.kernel = planner.materialise(
                    sk.kernel.type, std::move(keep_ids),
                    std::move(keep_shapes), sk.kernel.step);
                schedule.totalPreprocLatency -=
                    before - sk.kernel.predictedLatency;
                schedule.estimatedExposed -=
                    before - sk.kernel.predictedLatency;
            }
            kept.push_back(std::move(sk));
        }
        schedule.kernels = std::move(kept);
        if (schedule.estimatedExposed < 0.0)
            schedule.estimatedExposed = 0.0;
    }
    return cpu_part_core_seconds;
}

RunReport
runIdeal(const SystemConfig &config, const preproc::PreprocPlan &plan)
{
    SimulatedRun run(config, plan);
    // Streaming ingest gates even the ideal system: iteration j's
    // input event fires when staged batch j is ready, so an
    // input-bound stream stretches the otherwise compute-bound run.
    std::optional<InputGates> gates;
    if (run.ingest) {
        gates.emplace(run.node.cluster.engine(), config.gpuCount,
                      config.iterations, /*gpu_parties=*/0, run.ingest);
    }
    run.start(gates ? &gates->ready : nullptr);
    run.simulate();

    RunReport report;
    report.avgIterationLatency =
        run.driver.avgIterationLatency(config.warmup);
    return run.finish(std::move(report));
}

RunReport
runTorchArrow(const SystemConfig &config, const preproc::PreprocPlan &plan)
{
    // Host cost of preprocessing one batch (all features).
    Seconds batch_core_seconds = 0.0;
    for (const auto &node : plan.graph.nodes()) {
        batch_core_seconds += preproc::opCpuSeconds(
            node.type,
            preproc::nodeShape(node, plan.schema, config.batchPerGpu));
    }
    Bytes batch_out_bytes = 0.0;
    for (const auto &[feature_id, nodes] : plan.graph.featureChains()) {
        const auto &tail = plan.graph.node(nodes.back());
        batch_out_bytes += preproc::opOutputBytes(
            tail.type,
            preproc::nodeShape(tail, plan.schema, config.batchPerGpu));
    }

    SimulatedRun run(config, plan);
    auto &cluster = run.node.cluster;
    const int n = config.iterations;
    const int gpus = config.gpuCount;
    const Seconds task_duration =
        batch_core_seconds / static_cast<double>(kCoresPerWorker);

    // Input-ready events gate the trainer.
    const auto ready = makeGpuEvents("input", gpus, n);
    const auto cpu_done = makeGpuEvents("cpu", gpus, n);
    run.start(&ready);

    // Worker pipelines: worker w of GPU g preprocesses batches
    // j === w (mod workers), then the batch crosses PCIe.
    for (int g = 0; g < gpus; ++g) {
        const auto gi = static_cast<std::size_t>(g);
        auto &copy_stream = cluster.device(g).newStream(
            "gpu" + std::to_string(g) + ".h2d_queue");
        for (int w = 0; w < kTorchArrowWorkersPerGpu; ++w) {
            auto &worker_stream = cluster.host().newStream(
                "ta.g" + std::to_string(g) + ".w" + std::to_string(w));
            for (int j = w; j < n; j += kTorchArrowWorkersPerGpu) {
                worker_stream.pushCpuTask(task_duration, kCoresPerWorker);
                worker_stream.pushRecord(
                    cpu_done[gi][static_cast<std::size_t>(j)]);
            }
        }
        for (std::size_t j = 0; j < ready[gi].size(); ++j) {
            copy_stream.pushWait(cpu_done[gi][j]);
            copy_stream.pushCopy(sim::CopyKind::HostToDevice,
                                 batch_out_bytes);
            copy_stream.pushRecord(ready[gi][j]);
        }
    }
    run.simulate();

    RunReport report;
    report.avgIterationLatency = run.steadyInterval();
    report.preprocLatencyPerIter = batch_core_seconds;
    return run.finish(std::move(report));
}

/**
 * The online phase's batch feeder. Each GPU keeps its host-prep, copy
 * and preprocessing streams across batches; batch work is pushed a few
 * batches ahead of the trainer, so a replan splices its plan in at the
 * next batch boundary. Iteration j's input barrier waits for every
 * GPU's batch j (plus staged batch j under streaming ingest). HybridRap
 * first moves the schedules' overflow to host CPU workers (§10) and
 * joins each batch's CPU half with its GPU half.
 */
struct BatchFeeder
{
    BatchFeeder(SimulatedRun &sim_run, const Planner &run_planner,
                OfflinePlan &plan)
        : run(sim_run), planner(run_planner), offline(plan),
          hybridCores(std::max(
              1, std::min(kTorchArrowWorkersPerGpu * kCoresPerWorker,
                          planner.clusterSpec.cpuCores /
                              run.config.gpuCount))),
          cpuPart(run.config.system == System::HybridRap
                      ? offloadOverflowToCpu(offline, planner.fusion,
                                             hybridCores)
                      : std::vector<Seconds>(offline.schedules.size(), 0.0)),
          gates(run.node.cluster.engine(), run.config.gpuCount,
                run.config.iterations, run.config.gpuCount, run.ingest),
          lanes(offline.schedules.size())
    {
        run.start(&gates.ready);
        auto &cluster = run.node.cluster;
        for (int g = 0; g < run.config.gpuCount; ++g) {
            auto &lane = lanes[static_cast<std::size_t>(g)];
            const std::string gpu = "gpu" + std::to_string(g);
            lane.prep = &cluster.host().newStream("prep.g" + std::to_string(g));
            lane.copy = &cluster.device(g).newStream(gpu + ".copy");
            lane.pre = &cluster.device(g).newStream(
                gpu + ".preproc", planner.traits.preprocLaunchGroup,
                planner.traits.preprocPriority);
        }
        reprice();
    }

    /**
     * Price host preparation (per-kernel argument assembly plus one
     * raw column staged over PCIe per mapped work item) and input
     * communication (one message per remote-consumer item) under the
     * current mapping and schedules.
     */
    void
    reprice()
    {
        for (std::size_t g = 0; g < lanes.size(); ++g) {
            auto &lane = lanes[g];
            lane.prepCpu = 0.0;
            lane.prepBytes = 0.0;
            for (const auto &sk : offline.schedules[g].kernels)
                lane.prepCpu += sk.kernel.prepCpuSeconds;
            for (const auto &item : offline.mapping.itemsPerGpu[g]) {
                // Column slicing + pinned-buffer staging is a
                // memcpy-rate pass over the raw column (the Fig. 8
                // preparation cost).
                const Bytes raw =
                    planner.mapper.featureRawBytes(item.featureId);
                lane.prepCpu += 4e-6 + raw / 5e9;
                lane.prepBytes += raw;
            }
            lane.messages = planner.mapper.remoteMessageSizes(
                offline.mapping, static_cast<int>(g));
        }
    }

    /** Push batch @p j on every GPU. */
    void
    push(int j)
    {
        for (int g = 0; g < run.config.gpuCount; ++g)
            pushBatch(g, j);
    }

    void
    pushBatch(int g, int j)
    {
        const auto &traits = planner.traits;
        auto &driver = run.driver;
        auto &engine = run.node.cluster.engine();
        auto &lane = lanes[static_cast<std::size_t>(g)];
        const std::string tag = std::to_string(g) + "." + std::to_string(j);

        // --- Host data preparation + H2D staging for batch j. ---
        auto prep_done = sim::makeEvent("prep.g" + tag);
        // Interleaving starts the next batch's preparation one
        // iteration early (§6.3); without it, preparation waits
        // for the iteration the kernels will co-run with.
        const int prep_gate_iter =
            run.config.interleave && traits.capacityScheduling ? j - 2
                                                                : j - 1;
        if (prep_gate_iter >= 0 && !traits.sequential)
            lane.prep->pushWait(driver.opStart(g, prep_gate_iter, 0));
        if (traits.sequential && j >= 1)
            lane.prep->pushWait(driver.iterEnd(g, j - 1));
        auto cpu_done = sim::makeEvent("prepcpu.g" + tag);
        lane.prep->pushCpuTask(lane.prepCpu, 1);
        lane.prep->pushRecord(cpu_done);
        lane.copy->pushWait(cpu_done);
        lane.copy->pushCopy(sim::CopyKind::HostToDevice, lane.prepBytes);
        lane.copy->pushRecord(prep_done);

        // --- Preprocessing kernels for batch j. ---
        lane.pre->pushWait(prep_done);
        const int corun_iter = j - 1;
        if (traits.sequential && j >= 1) {
            lane.pre->pushWait(driver.iterEnd(g, j - 1));
        } else if (!traits.capacityScheduling && corun_iter >= 0) {
            lane.pre->pushWait(driver.opStart(g, corun_iter, 0));
        }
        for (const auto &sk :
             offline.schedules[static_cast<std::size_t>(g)].kernels) {
            if (traits.capacityScheduling && corun_iter >= 0)
                lane.pre->pushWait(driver.opStart(g, corun_iter, sk.opIndex));
            if (traits.hostDispatch > 0.0)
                lane.pre->pushDelay(traits.hostDispatch);
            lane.pre->pushKernel(sk.kernel.kernel);
        }

        // --- Input communication + readiness barrier. ---
        auto batch_done = sim::makeEvent("batch.g" + tag);
        if (!lane.messages.empty()) {
            auto kernels_done = sim::makeEvent("kdone.g" + tag);
            lane.pre->pushRecord(kernels_done);
            lane.copy->pushWait(kernels_done);
            for (Bytes message : lane.messages)
                lane.copy->pushCopy(sim::CopyKind::PeerToPeer, message);
            lane.copy->pushRecord(batch_done);
        } else {
            lane.pre->pushRecord(batch_done);
        }
        auto *barrier = gates.barriers[static_cast<std::size_t>(j)].get();
        const Seconds cpu_part = cpuPart[static_cast<std::size_t>(g)];
        if (cpu_part <= 0.0) {
            batch_done->addWaiter(engine, [barrier] { barrier->arrive(); });
            return;
        }
        // Hybrid: the CPU segment runs on a dedicated worker pipeline;
        // batch readiness joins both halves.
        if (lane.hybrid == nullptr) {
            lane.hybrid = &run.node.cluster.host().newStream(
                "hybrid.g" + std::to_string(g));
        }
        auto hybrid_cpu_done = sim::makeEvent("hybridcpu.g" + tag);
        if (j >= 2)
            lane.hybrid->pushWait(driver.opStart(g, j - 2, 0));
        lane.hybrid->pushCpuTask(cpu_part / hybridCores, hybridCores);
        lane.hybrid->pushRecord(hybrid_cpu_done);
        lane.joins.push_back(std::make_unique<InputBarrier>(engine, 2));
        auto *join = lane.joins.back().get();
        // The joint completion reports to the global barrier.
        auto joined = sim::makeEvent("hybridjoin.g" + tag);
        join->addTarget(joined);
        batch_done->addWaiter(engine, [join] { join->arrive(); });
        hybrid_cpu_done->addWaiter(engine, [join] { join->arrive(); });
        joined->addWaiter(engine, [barrier] { barrier->arrive(); });
    }

    /** One GPU's persistent streams and per-batch costs. */
    struct Lane
    {
        sim::Stream *prep = nullptr;
        sim::Stream *copy = nullptr;
        sim::Stream *pre = nullptr;
        Seconds prepCpu = 0.0;
        Bytes prepBytes = 0.0;
        std::vector<Bytes> messages;
        /** Hybrid only: the CPU segment's worker and batch joins. */
        sim::Stream *hybrid = nullptr;
        std::vector<std::unique_ptr<InputBarrier>> joins;
    };

    SimulatedRun &run;
    const Planner &planner;
    OfflinePlan &offline;
    int hybridCores;
    /** Per-GPU core-seconds of each batch moved to the CPU (hybrid). */
    std::vector<Seconds> cpuPart;
    InputGates gates;
    std::vector<Lane> lanes;
};

/**
 * The online drift monitor (fault-tolerance extension; DESIGN §7). Once
 * every GPU has finished iteration j, a tick compares each GPU's
 * observed iteration interval with the prediction; past a 15% drift it
 * reruns the planning chain over capacity profiles degraded to the
 * devices' live envelopes. The tick then feeds batch j + kPushAhead,
 * which uses whatever plan is current: the splice point.
 */
struct DriftMonitor
{
    DriftMonitor(SimulatedRun &sim_run, const Planner &run_planner,
                 OfflinePlan &plan, BatchFeeder &batch_feeder)
        : run(sim_run), planner(run_planner), offline(plan),
          feeder(batch_feeder), labels(runLabels(run.config)),
          enabled(run.config.replanOnDrift &&
                  planner.traits.capacityScheduling &&
                  run.config.system != System::HybridRap)
    {
        auto &engine = run.node.cluster.engine();
        for (const auto &profile : offline.profiles)
            predicted.push_back(profile.iterationLatency);
        for (int j = 0; j < run.config.iterations - kPushAhead; ++j) {
            const int gpus = run.config.gpuCount;
            ticks.push_back(std::make_unique<InputBarrier>(engine, gpus));
            auto fired = sim::makeEvent("monitor." + std::to_string(j));
            ticks.back()->addTarget(fired);
            fired->addWaiter(engine, [this, j] { tick(j); });
            auto *bar = ticks.back().get();
            for (int g = 0; g < gpus; ++g)
                run.driver.iterEnd(g, j)->addWaiter(
                    engine, [bar] { bar->arrive(); });
        }
    }

    // Tick callbacks hold `this`.
    DriftMonitor(const DriftMonitor &) = delete;
    DriftMonitor &operator=(const DriftMonitor &) = delete;

    void
    tick(int j)
    {
        const SystemConfig &config = run.config;
        if (config.metrics != nullptr)
            config.metrics->counter("train.monitor.ticks", labels).inc();
        if (enabled && j >= config.warmup &&
            j >= lastReplanIter + kReplanCooldown) {
            std::vector<Seconds> observed(predicted.size(), 0.0);
            double drift = 0.0;
            for (int g = 0; g < config.gpuCount; ++g) {
                const auto gi = static_cast<std::size_t>(g);
                // The interval includes the input-gate wait, so the
                // monitor also sees faults that only starve the input
                // pipeline. A checkpoint drain between the two
                // iteration ends is planned-for overhead, not drift.
                observed[gi] = iterationInterval(run.driver, g, j);
                const auto &drain =
                    run.driver.checkpointSpan(g, std::max(0, j - 1));
                if (j >= 1 && drain.valid())
                    observed[gi] =
                        std::max(0.0, observed[gi] - drain.duration());
                if (predicted[gi] > 0.0) {
                    drift =
                        std::max(drift, observed[gi] / predicted[gi] - 1.0);
                }
            }
            if (config.metrics != nullptr)
                config.metrics->series("train.drift", labels).append(j, drift);
            if (drift > kReplanDriftThreshold) {
                replan(observed);
                lastReplanIter = j;
            }
        }
        feeder.push(j + kPushAhead);
    }

    void
    replan(const std::vector<Seconds> &observed)
    {
        const SystemConfig &config = run.config;
        auto &engine = run.node.cluster.engine();
        obs::Span replan_span(config.metrics, "train.replan", labels);
        replan_span.annotateSim(engine.now(), engine.now());
        // Re-derive every GPU's capacity profile from its current
        // (possibly degraded) resource envelopes and rerun the
        // planning chain over them on the offline phase's pool.
        std::vector<CapacityProfile> degraded(predicted.size());
        for (std::size_t g = 0; g < degraded.size(); ++g) {
            const auto &device =
                run.node.cluster.device(static_cast<int>(g));
            // Profiles already fold in the configured co-location
            // envelope, and so does the device's live capacity (it
            // started from the envelope share); degrade only by the
            // capacity lost since, or a faulted envelope-shared run
            // would double-count its envelope.
            const GpuEnvelope env = config.envelopes.empty()
                                        ? GpuEnvelope{}
                                        : config.envelopes[g];
            degraded[g] = degradeProfile(
                offline.profiles[g],
                std::min(1.0, device.smCapacity() / env.sm),
                std::min(1.0, device.bwCapacity() / env.bw));
        }
        offline.mapping = planner.map(degraded);
        offline.schedules = planner.schedule(offline.mapping, degraded);
        feeder.reprice();
        // Calibrate the monitor to the new plan so drift re-arms
        // relative to the degraded prediction (or the observation,
        // when the fault is invisible to the capacity envelopes).
        for (std::size_t g = 0; g < degraded.size(); ++g)
            predicted[g] =
                std::max(degraded[g].iterationLatency, observed[g]);
        ++replans;
    }

    SimulatedRun &run;
    const Planner &planner;
    OfflinePlan &offline;
    BatchFeeder &feeder;
    const obs::Labels labels;
    const bool enabled;
    /** Per-GPU predicted iteration interval the drift is measured on. */
    std::vector<Seconds> predicted;
    int replans = 0;
    int lastReplanIter = -1;
    std::vector<std::unique_ptr<InputBarrier>> ticks;
};

RunReport
runGpuSystem(const SystemConfig &config, const preproc::PreprocPlan &plan)
{
    // ---- Offline phase, fanned out over the planning pool (serial
    // when planningThreads == 1); a replan reuses pool and planner. ----
    std::unique_ptr<ThreadPool> pool;
    if (config.planningThreads != 1)
        pool = std::make_unique<ThreadPool>(config.planningThreads);
    const Planner planner(config, plan, pool.get());
    OfflinePlan offline = planValidated(planner, plan);
    const std::uint64_t offline_nodes = planner.fusion.milpNodesExplored();

    // ---- Online phase: co-running execution. ----
    SimulatedRun run(config, plan);
    BatchFeeder feeder(run, planner, offline);
    DriftMonitor monitor(run, planner, offline, feeder);
    // Prime the pipeline; the monitor's ticks keep it topped up.
    for (int j = 0; j < std::min(kPushAhead, config.iterations); ++j)
        feeder.push(j);
    run.simulate();

    RunReport report;
    report.avgIterationLatency = run.steadyInterval();
    RunningStat launches, exposed, pre_lat;
    for (const auto &schedule : offline.schedules) {
        launches.add(static_cast<double>(schedule.kernelCount()));
        exposed.add(schedule.estimatedExposed);
        pre_lat.add(schedule.totalPreprocLatency);
    }
    report.preprocKernelsPerIter = launches.mean();
    report.predictedExposed = exposed.mean();
    report.preprocLatencyPerIter = pre_lat.mean();
    report.replans = monitor.replans;
    if (config.metrics != nullptr) {
        const auto labels = runLabels(config);
        config.metrics->counter("train.replans", labels)
            .inc(static_cast<std::uint64_t>(monitor.replans));
        config.metrics->counter("replan.milp.nodes_explored", labels)
            .inc(planner.fusion.milpNodesExplored() - offline_nodes);
    }
    return run.finish(std::move(report), &monitor.predicted);
}

} // namespace

OfflinePlan
planOffline(const SystemConfig &config, const preproc::PreprocPlan &plan,
            ThreadPool *pool)
{
    requireValid(config);
    return planValidated(Planner(config, plan, pool), plan);
}

RunReport
runSystem(const SystemConfig &config, const preproc::PreprocPlan &plan)
{
    requireValid(config);
    switch (config.system) {
      case System::Ideal:
        return runIdeal(config, plan);
      case System::TorchArrowCpu:
        return runTorchArrow(config, plan);
      default:
        return runGpuSystem(config, plan);
    }
}

} // namespace rap::core
