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

/**
 * Labels for this run's instruments: the configured `run=` scope (when
 * set) plus any extra pairs. Sweep benches sharing one registry across
 * pool workers rely on the scope to keep instruments single-strand.
 */
obs::Labels
runLabels(const SystemConfig &config,
          std::initializer_list<std::pair<std::string, std::string>>
              extra = {})
{
    obs::Labels labels(extra);
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
            const auto span = driver.iterationSpan(g, j);
            const Seconds interval =
                j >= 1 ? span.end - driver.iterationSpan(g, j - 1).end
                       : span.end - span.start;
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

/** planOffline's body, for a configuration already validated. */
OfflinePlan
planValidated(const SystemConfig &config, const preproc::PreprocPlan &plan,
              ThreadPool *pool)
{
    obs::MetricRegistry *metrics = config.metrics;
    const auto labels = runLabels(config);
    obs::Span plan_span(metrics, "plan.offline", labels);

    const auto traits = traitsFor(config.system);
    const auto cluster_spec = clusterSpecFor(config);
    const auto dlrm_config = modelConfigFor(config, plan);
    const auto sharding = makeSharding(config, plan);

    OfflinePlan offline;
    {
        obs::Span span(metrics, "plan.profile", labels);
        OverlappingCapacityEstimator estimator(cluster_spec,
                                               dlrm_config, sharding);
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

    FusionOptions fusion_options;
    fusion_options.solver = config.solver;
    fusion_options.enableFusion = traits.fusion;
    HorizontalFusionPlanner planner(cluster_spec.gpu, config.predictor,
                                    fusion_options);
    GraphMapper mapper(plan, sharding, cluster_spec,
                       config.batchPerGpu);

    const MappingStrategy strategy =
        config.forcedMapping.value_or(traits.mapping);
    MappingSearchStats mapping_stats;
    {
        obs::Span span(metrics, "plan.mapping", labels);
        offline.mapping =
            strategy == MappingStrategy::Rap
                ? mapper.mapRap(offline.profiles, planner,
                                /*max_moves=*/64, pool, &mapping_stats)
                : mapper.map(strategy);
    }

    // Per-GPU plan + schedule: independent given the mapping and the
    // profiles (planner, mapper, and scheduler are all const here), so
    // each GPU runs as one pool task writing its own slot.
    CoRunScheduler scheduler(planner);
    const auto gpu_count = static_cast<std::size_t>(config.gpuCount);
    offline.schedules.resize(gpu_count);
    auto planGpu = [&](std::size_t g) {
        auto kernels = planner.plan(
            mapper.buildGpuGraph(offline.mapping, static_cast<int>(g)),
            config.batchPerGpu);
        if (traits.capacityScheduling) {
            offline.schedules[g] = scheduler.schedule(
                std::move(kernels), offline.profiles[g]);
        } else {
            // Baselines launch kernels back-to-back from iteration
            // start without capacity awareness.
            CoRunSchedule schedule;
            for (auto &k : kernels) {
                schedule.totalPreprocLatency += k.predictedLatency;
                schedule.kernels.push_back(
                    ScheduledKernel{std::move(k), 0, false});
            }
            offline.schedules[g] = std::move(schedule);
        }
    };
    {
        obs::Span span(metrics, "plan.schedule", labels);
        if (pool != nullptr)
            pool->parallelFor(gpu_count, planGpu);
        else
            for (std::size_t g = 0; g < gpu_count; ++g)
                planGpu(g);
    }

    if (metrics != nullptr) {
        metrics->counter("plan.milp.nodes_explored", labels)
            .inc(planner.milpNodesExplored());
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

RunReport
runGpuSystem(const SystemConfig &config, const preproc::PreprocPlan &plan)
{
    const auto traits = traitsFor(config.system);
    const auto cluster_spec = clusterSpecFor(config);

    // ---- Offline phase: capacity profiles + plan search, fanned out
    // over the planning pool (serial when planningThreads == 1). ----
    std::unique_ptr<ThreadPool> pool;
    if (config.planningThreads != 1)
        pool = std::make_unique<ThreadPool>(config.planningThreads);
    OfflinePlan offline = planValidated(config, plan, pool.get());
    const auto &profiles = offline.profiles;
    auto &mapping = offline.mapping; // replaced on a mapping replan
    auto &schedules = offline.schedules;

    FusionOptions fusion_options;
    fusion_options.solver = config.solver;
    fusion_options.enableFusion = traits.fusion;
    HorizontalFusionPlanner planner(cluster_spec.gpu, config.predictor,
                                    fusion_options);

    const int hybrid_cores = std::max(
        1, std::min(kTorchArrowWorkersPerGpu * kCoresPerWorker,
                    cluster_spec.cpuCores / config.gpuCount));
    const std::vector<Seconds> cpu_part_core_seconds =
        config.system == System::HybridRap
            ? offloadOverflowToCpu(offline, planner, hybrid_cores)
            : std::vector<Seconds>(
                  static_cast<std::size_t>(config.gpuCount), 0.0);

    // ---- Online phase: co-running execution. ----
    SimulatedRun run(config, plan);
    auto &cluster = run.node.cluster;
    auto &engine = cluster.engine();
    auto &driver = run.driver;
    const int n = config.iterations;
    const int gpus = config.gpuCount;
    obs::MetricRegistry *metrics = config.metrics;
    const auto labels = runLabels(config);
    GraphMapper mapper(plan, run.sharding, cluster_spec, config.batchPerGpu);

    // Iteration j's input barrier waits for every GPU's batch j (plus
    // staged batch j under streaming ingest).
    InputGates gates(engine, gpus, n, /*gpu_parties=*/gpus, run.ingest);
    run.start(&gates.ready);

    // Per-GPU streams persist across batches: batch work is pushed
    // incrementally (kPushAhead batches deep) so an online replan can
    // splice a new schedule in at the next batch boundary.
    struct GpuLane
    {
        sim::Stream *prep = nullptr;
        sim::Stream *copy = nullptr;
        sim::Stream *pre = nullptr;
        /** Hybrid only: the CPU segment's worker and batch joins. */
        sim::Stream *hybrid = nullptr;
        std::vector<std::unique_ptr<InputBarrier>> joins;
    };
    std::vector<GpuLane> lanes(static_cast<std::size_t>(gpus));
    for (int g = 0; g < gpus; ++g) {
        auto &device = cluster.device(g);
        auto &lane = lanes[static_cast<std::size_t>(g)];
        lane.prep =
            &cluster.host().newStream("prep.g" + std::to_string(g));
        lane.copy =
            &device.newStream("gpu" + std::to_string(g) + ".copy");
        lane.pre = &device.newStream(
            "gpu" + std::to_string(g) + ".preproc",
            traits.preprocLaunchGroup, traits.preprocPriority);
    }

    // Host preparation cost and input-communication messages follow
    // the current mapping and schedules; recomputed after a replan.
    std::vector<Seconds> prep_cpu(static_cast<std::size_t>(gpus), 0.0);
    std::vector<Bytes> prep_bytes(static_cast<std::size_t>(gpus), 0.0);
    std::vector<std::vector<Bytes>> comm_messages(
        static_cast<std::size_t>(gpus));
    auto refreshMappingCosts = [&] {
        for (int g = 0; g < gpus; ++g) {
            const auto gi = static_cast<std::size_t>(g);
            // Host preparation: per-kernel argument assembly plus one
            // raw column staged over PCIe per mapped work item.
            Seconds cpu = 0.0;
            Bytes bytes = 0.0;
            for (const auto &sk : schedules[gi].kernels)
                cpu += sk.kernel.prepCpuSeconds;
            for (const auto &item : mapping.itemsPerGpu[gi]) {
                // Column slicing + pinned-buffer staging is a
                // memcpy-rate pass over the raw column (the Fig. 8
                // preparation cost).
                const Bytes raw =
                    mapper.featureRawBytes(item.featureId);
                cpu += 4e-6 + raw / 5e9;
                bytes += raw;
            }
            prep_cpu[gi] = cpu;
            prep_bytes[gi] = bytes;
            // Input communication: one message per remote-consumer
            // item (per-feature tensors are shipped individually).
            comm_messages[gi] = mapper.remoteMessageSizes(mapping, g);
        }
    };
    refreshMappingCosts();

    auto pushBatch = [&](int g, int j) {
        const auto gi = static_cast<std::size_t>(g);
        const auto &schedule = schedules[gi];
        auto &prep_stream = *lanes[gi].prep;
        auto &copy_stream = *lanes[gi].copy;
        auto &pre_stream = *lanes[gi].pre;

        // --- Host data preparation + H2D staging for batch j. ---
        auto prep_done = sim::makeEvent(
            "prep.g" + std::to_string(g) + "." + std::to_string(j));
        // Interleaving starts the next batch's preparation one
        // iteration early (§6.3); without it, preparation waits
        // for the iteration the kernels will co-run with.
        const int prep_gate_iter =
            config.interleave && traits.capacityScheduling ? j - 2
                                                            : j - 1;
        if (prep_gate_iter >= 0 && !traits.sequential)
            prep_stream.pushWait(driver.opStart(g, prep_gate_iter, 0));
        if (traits.sequential && j >= 1)
            prep_stream.pushWait(driver.iterEnd(g, j - 1));
        auto cpu_done = sim::makeEvent(
            "prepcpu.g" + std::to_string(g) + "." + std::to_string(j));
        prep_stream.pushCpuTask(prep_cpu[gi], 1);
        prep_stream.pushRecord(cpu_done);
        copy_stream.pushWait(cpu_done);
        copy_stream.pushCopy(sim::CopyKind::HostToDevice,
                             prep_bytes[gi]);
        copy_stream.pushRecord(prep_done);

        // --- Preprocessing kernels for batch j. ---
        pre_stream.pushWait(prep_done);
        const int corun_iter = j - 1;
        if (traits.sequential && j >= 1) {
            pre_stream.pushWait(driver.iterEnd(g, j - 1));
        } else if (!traits.capacityScheduling && corun_iter >= 0) {
            pre_stream.pushWait(driver.opStart(g, corun_iter, 0));
        }
        for (const auto &sk : schedule.kernels) {
            if (traits.capacityScheduling && corun_iter >= 0) {
                pre_stream.pushWait(
                    driver.opStart(g, corun_iter, sk.opIndex));
            }
            if (traits.hostDispatch > 0.0)
                pre_stream.pushDelay(traits.hostDispatch);
            pre_stream.pushKernel(sk.kernel.kernel);
        }

        // --- Input communication + readiness barrier. ---
        auto batch_done = sim::makeEvent(
            "batch.g" + std::to_string(g) + "." + std::to_string(j));
        if (!comm_messages[gi].empty()) {
            auto kernels_done = sim::makeEvent(
                "kdone.g" + std::to_string(g) + "." +
                std::to_string(j));
            pre_stream.pushRecord(kernels_done);
            copy_stream.pushWait(kernels_done);
            for (Bytes message : comm_messages[gi]) {
                copy_stream.pushCopy(sim::CopyKind::PeerToPeer,
                                     message);
            }
            copy_stream.pushRecord(batch_done);
        } else {
            pre_stream.pushRecord(batch_done);
        }
        auto *barrier = gates.barriers[static_cast<std::size_t>(j)].get();
        const Seconds cpu_part = cpu_part_core_seconds[gi];
        if (cpu_part > 0.0) {
            // Hybrid: the CPU segment runs on a dedicated worker
            // pipeline; batch readiness joins both halves.
            auto &lane = lanes[gi];
            if (lane.hybrid == nullptr) {
                lane.hybrid = &cluster.host().newStream(
                    "hybrid.g" + std::to_string(g));
            }
            auto &worker = *lane.hybrid;
            auto hybrid_cpu_done = sim::makeEvent(
                "hybridcpu.g" + std::to_string(g) + "." +
                std::to_string(j));
            const int gate_iter = j - 2;
            if (gate_iter >= 0)
                worker.pushWait(driver.opStart(g, gate_iter, 0));
            worker.pushCpuTask(cpu_part / hybrid_cores, hybrid_cores);
            worker.pushRecord(hybrid_cpu_done);
            lane.joins.push_back(std::make_unique<InputBarrier>(engine, 2));
            auto *join = lane.joins.back().get();
            // The joint completion reports to the global barrier.
            auto joined = sim::makeEvent(
                "hybridjoin.g" + std::to_string(g) + "." +
                std::to_string(j));
            join->addTarget(joined);
            batch_done->addWaiter(engine, [join] { join->arrive(); });
            hybrid_cpu_done->addWaiter(engine,
                                       [join] { join->arrive(); });
            joined->addWaiter(engine,
                              [barrier] { barrier->arrive(); });
        } else {
            batch_done->addWaiter(engine,
                                  [barrier] { barrier->arrive(); });
        }
    };

    // ---- Online monitor: drift detection + incremental replanning
    // (fault-tolerance extension; see DESIGN.md). ----
    const bool replan_enabled = config.replanOnDrift &&
                                traits.capacityScheduling &&
                                config.system != System::HybridRap;
    std::vector<Seconds> predicted;
    for (const auto &profile : profiles)
        predicted.push_back(profile.iterationLatency);
    int replans = 0;
    int last_replan_iter = -1;
    constexpr int kPushAhead = 3;
    constexpr int kReplanCooldown = 3;

    auto replan = [&](const std::vector<Seconds> &observed) {
        obs::Span replan_span(metrics, "train.replan", labels);
        replan_span.annotateSim(engine.now(), engine.now());
        // Re-derive every GPU's capacity profile from its current
        // (possibly degraded) resource envelopes and reschedule the
        // co-run; with replanMapping the joint mapping search reruns
        // too. The offline phase's planning pool is reused.
        std::vector<CapacityProfile> degraded(profiles.size());
        for (int g = 0; g < gpus; ++g) {
            const auto gi = static_cast<std::size_t>(g);
            const auto &device = cluster.device(g);
            // Profiles already fold in the configured co-location
            // envelope, and so does the device's live capacity (it
            // started from the envelope share); degrade only by the
            // capacity lost since, or a faulted envelope-shared run
            // would double-count its envelope.
            const GpuEnvelope env = config.envelopes.empty()
                                        ? GpuEnvelope{}
                                        : config.envelopes[gi];
            degraded[gi] = degradeProfile(
                profiles[gi],
                std::min(1.0, device.smCapacity() / env.sm),
                std::min(1.0, device.bwCapacity() / env.bw));
        }
        if (config.replanMapping) {
            mapping = mapper.mapRap(degraded, planner, /*max_moves=*/64,
                                    pool.get());
        }
        CoRunScheduler scheduler(planner);
        const auto gpu_count = static_cast<std::size_t>(gpus);
        auto rescheduleGpu = [&](std::size_t g) {
            auto kernels = planner.plan(
                mapper.buildGpuGraph(mapping, static_cast<int>(g)),
                config.batchPerGpu);
            schedules[g] =
                scheduler.schedule(std::move(kernels), degraded[g]);
        };
        if (pool != nullptr)
            pool->parallelFor(gpu_count, rescheduleGpu);
        else
            for (std::size_t g = 0; g < gpu_count; ++g)
                rescheduleGpu(g);
        refreshMappingCosts();
        // Calibrate the monitor to the new plan so drift re-arms
        // relative to the degraded prediction (or the observation,
        // when the fault is invisible to the capacity envelopes).
        for (std::size_t g = 0; g < gpu_count; ++g)
            predicted[g] =
                std::max(degraded[g].iterationLatency, observed[g]);
        ++replans;
    };

    // One monitor tick per iteration: once every GPU has finished
    // iteration j, check observed-vs-predicted drift, then extend the
    // batch pipeline by one (batch j + kPushAhead uses whatever
    // schedule is current — the splice point).
    const int tick_count = std::max(0, n - kPushAhead);
    std::vector<std::unique_ptr<InputBarrier>> ticks;
    ticks.reserve(static_cast<std::size_t>(tick_count));
    for (int j = 0; j < tick_count; ++j) {
        auto tick = std::make_unique<InputBarrier>(engine, gpus);
        auto fired = sim::makeEvent("monitor." + std::to_string(j));
        tick->addTarget(fired);
        fired->addWaiter(engine, [&, j] {
            if (metrics != nullptr)
                metrics->counter("train.monitor.ticks", labels).inc();
            if (replan_enabled && j >= config.warmup &&
                j >= last_replan_iter + kReplanCooldown) {
                std::vector<Seconds> observed(
                    static_cast<std::size_t>(gpus), 0.0);
                double drift = 0.0;
                for (int g = 0; g < gpus; ++g) {
                    const auto gi = static_cast<std::size_t>(g);
                    // Iteration interval, not span: it includes the
                    // input-gate wait, so the monitor also sees
                    // faults that only starve the input pipeline.
                    const auto &span = driver.iterationSpan(g, j);
                    observed[gi] =
                        j >= 1 ? span.end -
                                     driver.iterationSpan(g, j - 1).end
                               : span.end - span.start;
                    // A checkpoint drain between the two iteration
                    // ends is planned-for overhead, not drift.
                    if (j >= 1 &&
                        driver.checkpointSpan(g, j - 1).valid()) {
                        observed[gi] = std::max(
                            0.0,
                            observed[gi] -
                                driver.checkpointSpan(g, j - 1)
                                    .duration());
                    }
                    if (predicted[gi] > 0.0) {
                        drift = std::max(
                            drift,
                            observed[gi] / predicted[gi] - 1.0);
                    }
                }
                if (metrics != nullptr)
                    metrics->series("train.drift", labels).append(j, drift);
                if (drift > kReplanDriftThreshold) {
                    replan(observed);
                    last_replan_iter = j;
                }
            }
            for (int g = 0; g < gpus; ++g)
                pushBatch(g, j + kPushAhead);
        });
        for (int g = 0; g < gpus; ++g) {
            auto *bar = tick.get();
            driver.iterEnd(g, j)->addWaiter(engine,
                                            [bar] { bar->arrive(); });
        }
        ticks.push_back(std::move(tick));
    }

    // Prime the pipeline with the first kPushAhead batches; the
    // monitor ticks keep it topped up from there.
    for (int j = 0; j < std::min(kPushAhead, n); ++j)
        for (int g = 0; g < gpus; ++g)
            pushBatch(g, j);

    run.simulate();

    RunReport report;
    report.avgIterationLatency = run.steadyInterval();
    RunningStat launches, exposed, pre_lat;
    for (const auto &schedule : schedules) {
        launches.add(static_cast<double>(schedule.kernelCount()));
        exposed.add(schedule.estimatedExposed);
        pre_lat.add(schedule.totalPreprocLatency);
    }
    report.preprocKernelsPerIter = launches.mean();
    report.predictedExposed = exposed.mean();
    report.preprocLatencyPerIter = pre_lat.mean();
    report.replans = replans;
    if (metrics != nullptr) {
        metrics->counter("train.replans", labels)
            .inc(static_cast<std::uint64_t>(replans));
        metrics->counter("replan.milp.nodes_explored", labels)
            .inc(planner.milpNodesExplored());
    }
    return run.finish(std::move(report), &predicted);
}

} // namespace

OfflinePlan
planOffline(const SystemConfig &config, const preproc::PreprocPlan &plan,
            ThreadPool *pool)
{
    requireValid(config);
    return planValidated(config, plan, pool);
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
