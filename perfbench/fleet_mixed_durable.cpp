/**
 * @file
 * Workload `fleet_mixed_durable`: one 8-GPU node fed a seeded arrival
 * trace that mixes training jobs with inference-serving jobs
 * (time-varying QPS, max-batch/max-wait batching, an SLO). Placement
 * is RapShared with a mid-run SM degrade on GPU 0; the run commits to
 * a durable catalog (fsync on every commit, periodic compaction) in a
 * per-run directory and fans reference simulations over a 2-worker
 * pool. After the uninterrupted run the same trace is stopped
 * in-process (StopMode::Abandon) at a seeded frame and finished with
 * fleet::resumeFleet.
 *
 * Why: the fleet event loop, placement, the inner-simulation memo,
 * serve replay and ctrl do their work here, and ctrl is both written
 * (commit, compact) and read (recover, resume). The planner and engine
 * see many small, envelope-degraded, memoised plans instead of a few
 * whole-node ones.
 *
 * The trace is a fixed job sequence whose arrival jitter and
 * request-trace seeds come from the seed, and the kill point is drawn
 * around the middle of the run, so the amount of work per run stays
 * close across seeds while every seed is a distinct input.
 */

#include <filesystem>
#include <set>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/rap.hpp"
#include "ctrl/catalog.hpp"
#include "fleet/fleet.hpp"
#include "harness.hpp"
#include "obs/snapshot.hpp"
#include "sim/cluster.hpp"

namespace rap::perfbench {
namespace {

/** Training shapes cycled through the trace: (gpus, plan, batch). */
struct Shape
{
    int gpus;
    int planId;
    std::int64_t batch;
};

const std::vector<Shape> kTrainingShapes = {
    {1, 0, 2048}, {1, 1, 4096}, {2, 2, 2048}, {2, 3, 4096},
    {4, 1, 2048}, {1, 2, 4096}, {2, 0, 4096}, {8, 3, 2048},
    {1, 3, 2048}, {4, 0, 4096}, {2, 1, 2048}, {1, 0, 4096},
};

constexpr int kTrainingJobs = 36;
constexpr int kInferenceJobs = 12;
/** Every kServeEvery-th arrival is an inference job. */
constexpr int kServeEvery = 4;
constexpr Seconds kMeanGap = 0.006;
constexpr int kCompactEvery = 16;
constexpr int kPoolWorkers = 2;

std::vector<fleet::JobSpec>
buildTrace(std::uint64_t seed)
{
    Rng rng(mixSeed(seed, 11));
    std::vector<fleet::JobSpec> jobs;
    Seconds clock = 0.0;
    int trained = 0;
    int served = 0;
    for (int id = 0; id < kTrainingJobs + kInferenceJobs; ++id) {
        fleet::JobSpec spec;
        spec.id = id;
        clock += kMeanGap * (0.75 + 0.5 * rng.uniform());
        spec.arrival = clock;
        spec.system = core::System::Rap;
        if (id % kServeEvery != kServeEvery - 1) {
            const Shape &shape = kTrainingShapes[static_cast<std::size_t>(
                trained++ % static_cast<int>(kTrainingShapes.size()))];
            spec.gpusRequested = shape.gpus;
            spec.planId = shape.planId;
            spec.batchPerGpu = shape.batch;
            spec.iterations = 12;
            spec.checkpointInterval = 4;
            spec.name = "job" + std::to_string(id);
        } else {
            spec.kind = fleet::JobKind::Inference;
            spec.gpusRequested = 1;
            spec.planId = served++ % 4;
            spec.batchPerGpu = 256;
            spec.iterations = 8;
            spec.requests.qps = 4000.0;
            spec.requests.qpsAmplitude = 0.5;
            spec.requests.qpsPeriod = 0.02;
            spec.requests.duration = 0.04;
            // Masked to 53 bits: the catalog stores specs as JSON
            // doubles and the resume must rebuild them exactly.
            spec.requests.seed = rng.next() & ((1ULL << 53) - 1);
            spec.window.maxBatch = 64;
            spec.window.maxWait = 0.0005;
            spec.sloLatency = 0.004;
            spec.name = "srv" + std::to_string(id);
        }
        jobs.push_back(std::move(spec));
    }
    return jobs;
}

fleet::FleetRequest
makeRequest(const std::vector<fleet::JobSpec> &jobs, const std::string &dir,
            obs::MetricRegistry *registry)
{
    fleet::FleetRequest request(jobs);
    request.policy(fleet::PlacementPolicy::RapShared)
        .addFault(sim::FaultEvent::smDegrade(
            0, 0.4 * jobs.back().arrival, 0.7))
        .catalogDir(dir)
        .fsyncOnCommit(true)
        .compactEvery(kCompactEvery)
        .metrics(registry);
    return request;
}

ctrl::CatalogOptions
catalogOptions(const std::string &dir, obs::MetricRegistry *registry)
{
    ctrl::CatalogOptions options;
    options.dir = dir;
    options.fsyncOnCommit = true;
    options.compactEvery = kCompactEvery;
    options.metrics = registry;
    return options;
}

/** Open @p dir read-only (inspection: no lock, no truncation). */
std::unique_ptr<ctrl::Catalog>
openReadOnly(const std::string &dir)
{
    ctrl::CatalogOptions options;
    options.dir = dir;
    options.readOnly = true;
    return ctrl::Catalog::open(options);
}

/** One uninterrupted + abandoned + resumed round. */
struct Round
{
    fleet::FleetReport full;
    fleet::FleetReport resumed;
    double runSeconds = 0.0;
    double killedSeconds = 0.0;
    double recoverSeconds = 0.0;
    double resumeSeconds = 0.0;
    /** The round's host seconds, host-reference ticks excluded. */
    double wallSeconds = 0.0;
    std::int64_t stopFrame = 0;
    /** Frames the uninterrupted run committed. */
    std::uint64_t fullFrames = 0;
    /** The killed run returned early, and the frames it committed. */
    bool killedStopped = false;
    std::uint64_t killedFrames = 0;
    /** Traced rounds: the uninterrupted run's fleet spans. */
    double precomputeSeconds = 0.0;
    double loopSeconds = 0.0;
};

Round
runRound(const std::vector<fleet::JobSpec> &jobs, const RunContext &ctx,
         const std::string &tag, ThreadPool &pool, Tracer &tracer,
         obs::MetricRegistry *registry, HostReference *reference)
{
    namespace fs = std::filesystem;
    Round round;
    const std::string full_dir = ctx.workDir + "/fleet-" + tag + "-full";
    const std::string killed_dir =
        ctx.workDir + "/fleet-" + tag + "-killed";
    fs::remove_all(full_dir);
    fs::remove_all(killed_dir);
    // Every fleet run owns its registry, as obs::MetricRegistry
    // expects: @p registry takes the uninterrupted run, the killed and
    // resumed runs get their own, and all three snapshots are
    // schema-checked.
    std::unique_ptr<obs::MetricRegistry> killed_registry;
    std::unique_ptr<obs::MetricRegistry> resume_registry;
    if (registry != nullptr) {
        killed_registry = std::make_unique<obs::MetricRegistry>();
        resume_registry = std::make_unique<obs::MetricRegistry>();
    }
    const double round_start = nowSeconds();
    double ticked = 0.0;

    {
        const std::size_t first_record =
            registry != nullptr ? registry->spanRecords().size() : 0;
        const double offset =
            registry != nullptr ? nowSeconds() - registry->wallNow() : 0;
        auto request = makeRequest(jobs, full_dir, registry);
        {
            Tracer::Scope scope(tracer, "fleet.FleetRequest.run",
                                "fleet/full");
            const double begin = nowSeconds();
            round.full = request.run(&pool);
            round.runSeconds = nowSeconds() - begin;
        }
        if (registry != nullptr) {
            tracer.adopt(*registry, first_record, offset, "fleet/full");
            const auto records = registry->spanRecords();
            double run_span = 0.0;
            for (std::size_t r = first_record; r < records.size(); ++r) {
                const double wall = records[r].wallEnd - records[r].wallBegin;
                if (records[r].name == "fleet.precompute")
                    round.precomputeSeconds += wall;
                else if (records[r].name == "fleet.run")
                    run_span += wall;
            }
            round.loopSeconds = run_span - round.precomputeSeconds;
        }
    }

    ticked += tick(reference);

    // The seeded kill point: a frame in the middle fifth of the run.
    round.fullFrames = openReadOnly(full_dir)->state().framesCommitted;
    const auto frames = static_cast<std::int64_t>(round.fullFrames);
    round.stopFrame =
        frames * 2 / 5 +
        static_cast<std::int64_t>(
            mixSeed(ctx.seed, 23) %
            static_cast<std::uint64_t>(std::max<std::int64_t>(frames / 5,
                                                              1)));
    {
        auto request = makeRequest(jobs, killed_dir, killed_registry.get());
        request.stopAfterEvents(round.stopFrame, fleet::StopMode::Abandon);
        Tracer::Scope scope(tracer, "fleet.FleetRequest.run",
                            "fleet/killed");
        const double begin = nowSeconds();
        request.run(&pool);
        round.killedSeconds = nowSeconds() - begin;
        round.killedStopped = request.stopped();
    }
    ticked += tick(reference);
    {
        const double offset = resume_registry != nullptr
                                  ? nowSeconds() - resume_registry->wallNow()
                                  : 0;
        const double begin = nowSeconds();
        std::unique_ptr<ctrl::Catalog> catalog;
        {
            Tracer::Scope scope(tracer, "ctrl.Catalog.open",
                                "fleet/resume");
            catalog = ctrl::Catalog::open(
                catalogOptions(killed_dir, resume_registry.get()));
        }
        round.recoverSeconds = nowSeconds() - begin;
        round.killedFrames = catalog->state().framesCommitted;
        {
            Tracer::Scope scope(tracer, "fleet.resumeFleet",
                                "fleet/resume");
            round.resumed = fleet::resumeFleet(*catalog, &pool);
        }
        round.resumeSeconds = nowSeconds() - begin;
        if (resume_registry != nullptr)
            tracer.adopt(*resume_registry, 0, offset, "fleet/resume");
    }
    round.wallSeconds = nowSeconds() - round_start - ticked;
    if (registry != nullptr) {
        obs::writeSnapshot(*killed_registry,
                           ctx.workDir + "/snapshot-killed.json");
        obs::writeSnapshot(*resume_registry,
                           ctx.workDir + "/snapshot-resume.json");
    }
    fs::remove_all(full_dir);
    fs::remove_all(killed_dir);
    return round;
}

/**
 * ctrl commit/compact cost from outside: capture every committed
 * transaction of one run (a catalog that never compacts keeps them all
 * in its WAL), then replay them into a fresh catalog with the run's
 * fsync setting, timing each commit and each compaction (every
 * kCompactEvery commits, as the run does).
 */
void
measureCatalogReplay(const std::vector<fleet::JobSpec> &jobs,
                     const RunContext &ctx, ThreadPool &pool,
                     Tracer &tracer, WorkloadResult &result)
{
    namespace fs = std::filesystem;
    const std::string capture_dir = ctx.workDir + "/fleet-capture";
    const std::string replay_dir = ctx.workDir + "/fleet-replay";
    fs::remove_all(capture_dir);
    fs::remove_all(replay_dir);
    {
        auto request = makeRequest(jobs, capture_dir, nullptr);
        request.compactEvery(0);
        request.run(&pool);
    }
    std::vector<Json> transactions;
    {
        auto capture = openReadOnly(capture_dir);
        for (const auto &[lsn, text] : capture->recoveredTail())
            transactions.push_back(Json::parse(text));
    }
    auto options = catalogOptions(replay_dir, nullptr);
    options.compactEvery = 0;
    auto replay = ctrl::Catalog::open(options);
    std::vector<double> commits;
    double compact_seconds = 0.0;
    for (std::size_t i = 0; i < transactions.size(); ++i) {
        {
            Tracer::Scope scope(tracer, "ctrl.Catalog.commit",
                                "fleet/replay");
            const double begin = nowSeconds();
            replay->commit(transactions[i]);
            commits.push_back(nowSeconds() - begin);
        }
        if ((i + 1) % kCompactEvery == 0) {
            Tracer::Scope scope(tracer, "ctrl.Catalog.compact",
                                "fleet/replay");
            const double begin = nowSeconds();
            replay->compact();
            compact_seconds += nowSeconds() - begin;
        }
    }
    replay.reset();
    result.checks.expect(!transactions.empty(),
                         "fleet catalog captured no transactions");
    result.metrics["ctrl.commit_s.p50"] = p50(commits);
    result.metrics["ctrl.commit_s.p99"] = p99(commits);
    result.metrics["ctrl.compact_s"] = compact_seconds;
    fs::remove_all(capture_dir);
    fs::remove_all(replay_dir);
}

/**
 * Planner cost of the trace's distinct job variants, replanned from
 * outside on whole devices: the fleet keeps its inner simulations'
 * instruments private, so core::planOffline is called directly. This
 * is a proxy. The fleet plans under envelope-degraded profiles and
 * memoises, so these readings are not the planning inside
 * fleet.run_s, and core.plan_calls counts variants, not the fleet's
 * planning calls.
 */
void
measurePlanner(const std::vector<fleet::JobSpec> &jobs, Tracer &tracer,
               obs::MetricRegistry &registry, WorkloadResult &result)
{
    std::set<std::string> variants;
    const auto node = sim::dgxA100Spec(8);
    for (const auto &spec : jobs) {
        if (!variants.insert(spec.variantKey()).second)
            continue;
        auto config = fleet::makeJobConfig(spec);
        config.gpuCount = spec.gpusRequested;
        config.clusterSpec = sim::subsetSpec(node, spec.gpusRequested);
        config.metrics = &registry;
        config.metricsScope = spec.variantKey() + ".rap";
        const auto plan = fleet::buildJobPlan(spec);
        const std::string call_id = "fleet/plan/" + spec.variantKey();
        const std::size_t first_record = registry.spanRecords().size();
        const double offset = nowSeconds() - registry.wallNow();
        {
            Tracer::Scope scope(tracer, "core.planOffline", call_id);
            core::planOffline(config, plan);
        }
        tracer.adopt(registry, first_record, offset, call_id);
    }
    auto &m = result.metrics;
    addPlannerMetrics(registry, ".rap", m);
    m["core.plan_calls"] = static_cast<double>(variants.size());
    m["core.plan_distinct_keys"] = static_cast<double>(variants.size());
    m["core.plan_reuse_ratio"] = 0.0;
}

} // namespace

WorkloadResult
runFleetMixedDurable(const RunContext &ctx, Tracer &tracer,
                     obs::MetricRegistry *registry)
{
    WorkloadResult result;
    ThreadPool pool(kPoolWorkers);

    // Set-up: the trace and a warm fleet run (with a catalog, so the
    // durable path is warm too) over a fixed eight-job trace, so set-up
    // cost does not depend on the seed.
    std::vector<fleet::JobSpec> jobs;
    timeSetup(ctx, [&] {
        jobs = buildTrace(ctx.seed);
        auto warm = buildTrace(0);
        warm.resize(8);
        const std::string warm_dir = ctx.workDir + "/fleet-warm";
        std::filesystem::remove_all(warm_dir);
        makeRequest(warm, warm_dir, nullptr).run(&pool);
        std::filesystem::remove_all(warm_dir);
    }, result);

    std::vector<Round> rounds;
    if (!ctx.traced) {
        const double start = nowSeconds();
        while (rounds.empty() || nowSeconds() - start < ctx.seconds) {
            rounds.push_back(runRound(jobs, ctx,
                                      std::to_string(rounds.size()), pool,
                                      tracer, nullptr, ctx.reference));
            tick(ctx.reference);
        }
        std::vector<double> runs;
        std::vector<double> resumes;
        std::vector<double> rates;
        for (const auto &round : rounds) {
            runs.push_back(round.runSeconds);
            resumes.push_back(round.resumeSeconds);
            rates.push_back(2.0 * static_cast<double>(jobs.size()) /
                            (round.runSeconds + round.killedSeconds +
                             round.resumeSeconds));
        }
        const auto &report = rounds.front().full;
        result.metrics["fleet.run_s"] = geoMean(runs);
        result.metrics["fleet.resume_s"] = geoMean(resumes);
        result.metrics["fleet.jobs_per_s"] = geoMean(rates);
        result.metrics["fleet.sim_mean_jct_s"] = report.meanJct;
        result.metrics["fleet.sim_slo_goodput_rps"] =
            report.serveGoodputRps.value_or(0.0);
        result.notes.push_back(
            "fleet_mixed_durable: " + std::to_string(jobs.size()) +
            " jobs, " + std::to_string(rounds.size()) +
            " rounds of run + kill at frame " +
            std::to_string(rounds.front().stopFrame) + " + resume");
        for (const auto &round : rounds) {
            result.notes.push_back(
                "  round: run " + std::to_string(round.runSeconds) +
                " s, killed " + std::to_string(round.killedSeconds) +
                " s, resume " + std::to_string(round.resumeSeconds) + " s");
        }
    } else {
        Tracer off(false);
        rounds.push_back(runRound(jobs, ctx, "untraced", pool, off,
                                  nullptr, nullptr));
        rounds.push_back(runRound(jobs, ctx, "traced", pool, tracer,
                                  registry, nullptr));
        const Round &traced = rounds.back();
        const auto &report = traced.full;
        // The registry holds only the uninterrupted run's instruments.
        auto count = [registry](const std::string &name) {
            return static_cast<double>(counterTotal(*registry, name));
        };
        auto &m = result.metrics;
        m["obs.tracing_overhead_ratio"] =
            (traced.wallSeconds - rounds[0].wallSeconds) /
            rounds[0].wallSeconds;
        m["fleet.precompute_s"] = traced.precomputeSeconds;
        m["fleet.loop_s"] = traced.loopSeconds;
        m["fleet.sims_run"] = report.simulationsRun;
        const double hits = count("fleet.memo.hit");
        const double misses = count("fleet.memo.miss");
        m["fleet.memo_hit_ratio"] = ratio(hits, hits + misses);
        m["fleet.placements"] = count("fleet.placements");
        m["fleet.requeues"] = count("fleet.requeues");
        m["fleet.slo_rejections"] = count("fleet.slo_rejections");
        m["serve.requests"] = static_cast<double>(report.serveRequests);
        m["serve.batches"] = static_cast<double>(report.serveBatches);
        m["serve.mean_batch_size"] =
            ratio(report.serveRequests, report.serveBatches);
        m["serve.slo_attained_ratio"] = report.serveAttainment.value_or(0);
        m["ctrl.recover_s"] = traced.recoverSeconds;
        m["ctrl.wal.bytes"] = count("ctrl.wal.bytes");
        m["ctrl.wal.syncs"] = count("ctrl.wal.syncs");
        m["ctrl.snapshot.writes"] = count("ctrl.snapshot.writes");
        m["ctrl.io.retries"] = count("ctrl.io.retries");
        measureCatalogReplay(jobs, ctx, pool, tracer, result);
        measurePlanner(jobs, tracer, *registry, result);
        result.notes.push_back(
            "serve host time is not reachable from outside the fleet "
            "loop; it waits for in-program serve spans");
    }

    // Output checks.
    auto &checks = result.checks;
    std::string reference = rounds.front().full.toJson().dump();
    if (ctx.injectDigestMismatch)
        reference += " ";
    checks.expect(fleet::FleetReport::fromJson(Json::parse(reference))
                          .toJson()
                          .dump() == rounds.front().full.toJson().dump(),
                  "FleetReport fromJson(toJson) does not round-trip");
    for (const auto &round : rounds) {
        // Without a real stop the resume check below would compare two
        // uninterrupted runs and test no recovery.
        checks.expect(round.killedStopped &&
                          round.killedFrames < round.fullFrames,
                      "killed fleet run did not stop at frame " +
                          std::to_string(round.stopFrame) + " (" +
                          std::to_string(round.killedFrames) + " of " +
                          std::to_string(round.fullFrames) +
                          " frames committed)");
        checks.expect(round.full.toJson().dump() == reference,
                      "FleetReport differs between repeated runs");
        checks.expect(round.resumed.toJson().dump() == reference,
                      "resumed FleetReport differs from the uninterrupted "
                      "one (kill at frame " +
                          std::to_string(round.stopFrame) + ")");
        checks.expect(!round.full.catalogDegraded,
                      "fleet catalog degraded on a healthy disk");
    }
    return result;
}

} // namespace rap::perfbench
