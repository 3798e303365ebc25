/**
 * @file
 * Workload `ingest_gated_train`: one RAP training run (4 GPUs, Plan 1)
 * whose iterations gate on a streaming ingest front-end
 * (SystemConfig::ingest): 8 logical streams on the burst rate profile,
 * SpillAndReplay backpressure, 2 producer threads plus the consumer,
 * about 10^5 events, the spill log under the per-run directory.
 *
 * Why: ingest merge, staging, the spill log (writes, then replay
 * reads) and the data row codec do most of the host work; the planner
 * runs once and fleet and ctrl do nothing.
 */

#include "common/stats.hpp"
#include "core/rap.hpp"
#include "harness.hpp"
#include "ingest/pipeline.hpp"
#include "preproc/plan.hpp"

namespace rap::perfbench {
namespace {

ingest::IngestConfig
ingestConfig(const RunContext &ctx, int producers, Seconds duration)
{
    ingest::IngestConfig config;
    config.streams = 8;
    config.producers = producers;
    config.seed = mixSeed(ctx.seed, 31);
    config.profile.kind = ingest::RateProfileKind::Burst;
    config.profile.eventsPerSec = 60000.0;
    config.duration = duration;
    config.batchRows = 4096;
    config.stagingQueueCap = 512;
    config.stagingEventsPerSec = 800000.0;
    config.policy = ingest::BackpressurePolicy::Spill;
    config.spillPath = ctx.workDir + "/ingest-spill.log";
    return config;
}

/** 8 streams x 60k ev/s x 0.12 s x 1.75 (mean burst lift) ~ 1e5. */
constexpr Seconds kDuration = 0.12;

/** Metrics scope of the gated run; the one RAP plan counts as fused. */
constexpr const char *kScope = "ingest_gated.rap";

core::SystemConfig
trainConfig(const RunContext &ctx, Seconds duration, int gpus,
            obs::MetricRegistry *registry)
{
    core::SystemConfig config;
    config.system = core::System::Rap;
    config.gpuCount = gpus;
    config.batchPerGpu = 4096;
    config.planningThreads = 1;
    config.ingest = ingestConfig(ctx, 2, duration);
    config.metrics = registry;
    config.metricsScope = registry != nullptr ? kScope : "";
    return config;
}

struct Rep
{
    core::RunReport report;
    std::string text;
    double seconds = 0.0;
    double planSeconds = 0.0;
};

Rep
runGated(const RunContext &ctx, const preproc::PreprocPlan &plan,
         Tracer &tracer, obs::MetricRegistry *registry)
{
    Rep rep;
    const auto config = trainConfig(ctx, kDuration, 4, registry);
    const std::size_t first_record =
        registry != nullptr ? registry->spanRecords().size() : 0;
    const double offset =
        registry != nullptr ? nowSeconds() - registry->wallNow() : 0;
    {
        Tracer::Scope scope(tracer, "core.runSystem", "ingest/gated");
        const double begin = nowSeconds();
        rep.report = core::runSystem(config, plan);
        rep.seconds = nowSeconds() - begin;
    }
    rep.text = rep.report.toJson().dump();
    if (registry != nullptr) {
        tracer.adopt(*registry, first_record, offset, "ingest/gated");
        const auto records = registry->spanRecords();
        for (std::size_t r = first_record; r < records.size(); ++r) {
            if (records[r].name == "plan.offline")
                rep.planSeconds += records[r].wallEnd - records[r].wallBegin;
        }
    }
    return rep;
}

} // namespace

WorkloadResult
runIngestGatedTrain(const RunContext &ctx, Tracer &tracer,
                    obs::MetricRegistry *registry)
{
    WorkloadResult result;

    // Set-up: the plan, the configs and a short warm gated run on two
    // GPUs.
    preproc::PreprocPlan plan;
    timeSetup(ctx, [&] {
        plan = preproc::makePlan(1);
        auto warm = trainConfig(ctx, kDuration / 4, 2, nullptr);
        warm.iterations = 4;
        warm.warmup = 1;
        core::runSystem(warm, plan);
    }, result);

    std::vector<Rep> reps;
    if (!ctx.traced) {
        const double start = nowSeconds();
        while (reps.size() < 2 || nowSeconds() - start < ctx.seconds) {
            reps.push_back(runGated(ctx, plan, tracer, nullptr));
            tick(ctx.reference);
        }
        std::vector<double> runs;
        std::vector<double> rates;
        for (const auto &rep : reps) {
            runs.push_back(rep.seconds);
            rates.push_back(static_cast<double>(rep.report.ingestEvents) /
                            rep.seconds);
        }
        result.metrics["ingest.run_s"] = geoMean(runs);
        result.metrics["ingest.events_per_s"] = geoMean(rates);
        result.metrics["ingest.sim_train_samples_per_s"] =
            reps.front().report.throughput;
        result.notes.push_back(
            "ingest_gated_train: " + std::to_string(reps.size()) +
            " gated runs of " +
            std::to_string(reps.front().report.ingestEvents) + " events");
    } else {
        Tracer off(false);
        reps.push_back(runGated(ctx, plan, off, nullptr));
        reps.push_back(runGated(ctx, plan, tracer, registry));
        const Rep &traced = reps.back();
        auto &m = result.metrics;
        m["obs.tracing_overhead_ratio"] =
            (traced.seconds - reps[0].seconds) / reps[0].seconds;
        addPlannerMetrics(*registry, kScope, m);
        m["core.plan_calls"] = 1.0;
        m["core.plan_distinct_keys"] = 1.0;
        m["core.plan_reuse_ratio"] = 0.0;
        m["core.online_s"] = traced.seconds - traced.planSeconds;
        m["sim.events_per_s"] = m["sim.events"] / m["core.online_s"];

        // The ingest layer alone, on the same config.
        const auto spill_failed_before =
            counterTotal(*registry, "ingest.spill_failed");
        ingest::IngestPipeline pipeline(ingestConfig(ctx, 2, kDuration));
        ingest::IngestReport alone;
        {
            Tracer::Scope scope(tracer, "ingest.IngestPipeline.run",
                                "ingest/pipeline");
            const double begin = nowSeconds();
            alone = pipeline.run({}, registry, {{"run", "pipeline"}});
            m["ingest.pipeline_s"] = nowSeconds() - begin;
        }
        m["ingest.spilled"] = static_cast<double>(alone.spilled);
        m["ingest.replayed"] = static_cast<double>(alone.replayed);
        m["ingest.dropped"] = static_cast<double>(alone.dropped);
        m["ingest.spill_failed"] = static_cast<double>(
            counterTotal(*registry, "ingest.spill_failed") -
            spill_failed_before);
        m["ingest.replay_ratio"] = ratio(alone.replayed, alone.spilled);
    }

    // Output checks.
    auto &checks = result.checks;
    std::string reference = reps.front().text;
    if (ctx.injectDigestMismatch)
        reference += " ";
    for (std::size_t r = 1; r < reps.size(); ++r) {
        checks.expect(reps[r].text == reference,
                      "gated RunReport differs on a repeated call");
    }
    checks.expect(core::RunReport::fromJson(Json::parse(reps.front().text))
                          .toJson()
                          .dump() == reps.front().text,
                  "gated RunReport fromJson(toJson) does not round-trip");
    const auto one = ingest::IngestPipeline(ingestConfig(ctx, 1, kDuration))
                         .run();
    const auto two = ingest::IngestPipeline(ingestConfig(ctx, 2, kDuration))
                         .run();
    checks.expect(one.checksum == two.checksum &&
                      one.toJson().dump() == two.toJson().dump(),
                  "IngestReport differs between 1 and 2 producers");
    checks.expect(two.events == reps.front().report.ingestEvents &&
                      two.spilled == reps.front().report.ingestSpilled,
                  "standalone ingest disagrees with the gated run");
    checks.expect(two.spilled > 0 && two.replayed == two.spilled,
                  "spill-and-replay lost or never spilled events");
    return result;
}

} // namespace rap::perfbench
