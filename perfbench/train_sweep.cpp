/**
 * @file
 * Workload `train_sweep`: the paper's Fig. 9 grid run serially through
 * core::runSystem — 2/4/8 GPUs x Plans 0-3 x batch 4096/8192 x five
 * systems = 120 calls per pass, in a seed-permuted order, one call at
 * a time (closed loop, one caller, no pool, planningThreads = 1).
 *
 * Why: this is RAP's core loop. The planner (profile, mapping search,
 * fusion MILP, co-run schedule) and the DES engine plus trainer do
 * almost all the work; fleet, serve, ingest and ctrl do none.
 * CudaStream, Mps and SequentialGpu share planning traits, so repeated
 * planning shows up in core.plan_reuse_ratio.
 */

#include <numeric>
#include <set>
#include <sstream>
#include <utility>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/rap.hpp"
#include "harness.hpp"
#include "preproc/plan.hpp"

namespace rap::perfbench {
namespace {

const std::vector<core::System> kSystems = {
    core::System::TorchArrowCpu, core::System::CudaStream,
    core::System::Mps,           core::System::SequentialGpu,
    core::System::Rap,
};

struct Cell
{
    int gpus = 0;
    int planId = 0;
    std::int64_t batch = 0;
    core::System system = core::System::Rap;

    /** Grid point without the system ("g4.p1.b8192"). */
    std::string
    point() const
    {
        return "g" + std::to_string(gpus) + ".p" +
               std::to_string(planId) + ".b" + std::to_string(batch);
    }

    std::string
    scope() const
    {
        return point() + "." + core::systemId(system);
    }

    /**
     * Planning key: the systems whose offline phase is identical
     * (data-parallel mapping, no fusion, no capacity scheduling) share
     * one trait class, so a repeated key is repeated planning work.
     */
    std::string
    planKey() const
    {
        const bool rap = system == core::System::Rap;
        return (rap ? "fused/" : "unfused/") + point();
    }
};

struct Inputs
{
    std::vector<preproc::PreprocPlan> plans;
    std::vector<Cell> cells;
};

Inputs
buildInputs()
{
    Inputs inputs;
    for (int plan_id = 0; plan_id < 4; ++plan_id)
        inputs.plans.push_back(preproc::makePlan(plan_id));
    for (int gpus : {2, 4, 8})
        for (int plan_id = 0; plan_id < 4; ++plan_id)
            for (std::int64_t batch : {4096, 8192})
                for (auto system : kSystems)
                    inputs.cells.push_back({gpus, plan_id, batch, system});
    return inputs;
}

core::SystemConfig
configFor(const Cell &cell, obs::MetricRegistry *registry)
{
    core::SystemConfig config;
    config.system = cell.system;
    config.gpuCount = cell.gpus;
    config.batchPerGpu = cell.batch;
    config.planningThreads = 1;
    config.engineJobs = 1;
    config.metrics = registry;
    config.metricsScope = registry != nullptr ? cell.scope() : "";
    return config;
}

std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed);
    for (std::size_t i = n; i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(i) - 1));
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

/** One pass over the grid: per-cell report text and call times. */
struct Pass
{
    std::vector<std::string> reports;
    std::vector<double> callSeconds;
    /** The pass's host seconds, host-reference ticks excluded. */
    double wallSeconds = 0.0;
    /** Traced passes only: per-call runSystem wall minus plan.offline. */
    double onlineSeconds = 0.0;
    std::uint64_t planCalls = 0;
    std::set<std::string> planKeys;
};

Pass
runPass(const Inputs &inputs, std::uint64_t order_seed, Tracer &tracer,
        obs::MetricRegistry *registry, HostReference *reference)
{
    Pass pass;
    pass.reports.resize(inputs.cells.size());
    const auto order = permutation(inputs.cells.size(), order_seed);
    for (std::size_t i : order) {
        tick(reference);
        const double iteration_start = nowSeconds();
        const Cell &cell = inputs.cells[i];
        const auto config = configFor(cell, registry);
        const auto &plan = inputs.plans[static_cast<std::size_t>(
            cell.planId)];
        const std::string call_id = "train_sweep/" + cell.scope();
        const std::size_t first_record =
            registry != nullptr ? registry->spanRecords().size() : 0;
        const double offset =
            registry != nullptr ? nowSeconds() - registry->wallNow() : 0;
        double begin = 0.0;
        double end = 0.0;
        core::RunReport report;
        {
            Tracer::Scope scope(tracer, "core.runSystem", call_id);
            begin = nowSeconds();
            report = core::runSystem(config, plan);
            end = nowSeconds();
        }
        pass.callSeconds.push_back(end - begin);
        pass.reports[i] = report.toJson().dump();
        if (registry != nullptr) {
            tracer.adopt(*registry, first_record, offset, call_id);
            const auto records = registry->spanRecords();
            double planned = 0.0;
            for (std::size_t r = first_record; r < records.size(); ++r) {
                if (records[r].name == "plan.offline") {
                    planned += records[r].wallEnd - records[r].wallBegin;
                    ++pass.planCalls;
                    pass.planKeys.insert(cell.planKey());
                }
            }
            pass.onlineSeconds += end - begin - planned;
        }
        pass.wallSeconds += nowSeconds() - iteration_start;
    }
    return pass;
}

/** Deterministic sim metrics of one pass (must repeat exactly). */
struct SimSummary
{
    double rapSamplesPerSec = 0.0;
    double rapOverMps = 0.0;

    bool operator==(const SimSummary &other) const = default;
};

SimSummary
summarize(const Inputs &inputs, const Pass &pass)
{
    std::map<std::string, double> rap;
    std::map<std::string, double> mps;
    for (std::size_t i = 0; i < inputs.cells.size(); ++i) {
        const auto &cell = inputs.cells[i];
        const double throughput = core::RunReport::fromJson(
                                      Json::parse(pass.reports[i]))
                                      .throughput;
        if (cell.system == core::System::Rap)
            rap[cell.point()] = throughput;
        else if (cell.system == core::System::Mps)
            mps[cell.point()] = throughput;
    }
    std::vector<double> throughputs;
    double ratio_sum = 0.0;
    for (const auto &[point, throughput] : rap) {
        throughputs.push_back(throughput);
        ratio_sum += throughput / mps.at(point);
    }
    return {geoMean(throughputs),
            ratio_sum / static_cast<double>(rap.size())};
}

std::string
fixed(double value, int digits)
{
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(digits);
    out << value;
    return out.str();
}

} // namespace

WorkloadResult
runTrainSweep(const RunContext &ctx, Tracer &tracer,
              obs::MetricRegistry *registry)
{
    WorkloadResult result;

    // Set-up: the plans, the 120 configs and one warm call per system
    // on a mid-size grid point.
    Inputs inputs;
    timeSetup(ctx, [&] {
        inputs = buildInputs();
        for (auto system : kSystems) {
            Cell warm{4, 1, 4096, system};
            core::runSystem(configFor(warm, nullptr), inputs.plans[1]);
        }
    }, result);

    std::vector<Pass> passes;
    if (!ctx.traced) {
        // Whole passes until the budget is spent, at least two so the
        // repeat check compares every cell.
        const double start = nowSeconds();
        while (passes.size() < 2 || nowSeconds() - start < ctx.seconds) {
            passes.push_back(runPass(inputs,
                                     mixSeed(ctx.seed, passes.size()),
                                     tracer, nullptr, ctx.reference));
        }
        double wall = 0.0;
        std::vector<double> calls;
        for (const auto &pass : passes) {
            wall += pass.wallSeconds;
            calls.insert(calls.end(), pass.callSeconds.begin(),
                         pass.callSeconds.end());
        }
        result.metrics["train.configs_per_s"] =
            static_cast<double>(calls.size()) / wall;
        result.metrics["train.config_s.geomean"] = geoMean(calls);
        result.metrics["train.config_s.p50"] = p50(calls);
        result.metrics["train.config_s.p90"] = percentile(calls, 90.0);
        for (const auto &pass : passes)
            result.notes.push_back("  pass wall " +
                                   std::to_string(pass.wallSeconds));
        result.notes.push_back(
            "train_sweep: " + std::to_string(passes.size()) +
            " passes, " + std::to_string(calls.size()) +
            " runSystem calls (p90 over that many samples)");
    } else {
        Tracer off(false);
        passes.push_back(runPass(inputs, mixSeed(ctx.seed, 0), off,
                                 nullptr, nullptr));
        passes.push_back(runPass(inputs, mixSeed(ctx.seed, 1), tracer,
                                 registry, nullptr));
        const Pass &traced = passes.back();
        auto &m = result.metrics;
        m["obs.tracing_overhead_ratio"] =
            (traced.wallSeconds - passes[0].wallSeconds) /
            passes[0].wallSeconds;
        addPlannerMetrics(*registry, ".rap", m);
        m["core.plan_calls"] = static_cast<double>(traced.planCalls);
        m["core.plan_distinct_keys"] =
            static_cast<double>(traced.planKeys.size());
        m["core.plan_reuse_ratio"] =
            1.0 - ratio(traced.planKeys.size(), traced.planCalls);
        m["core.online_s"] = traced.onlineSeconds;
        m["sim.events_per_s"] = m["sim.events"] / traced.onlineSeconds;
    }

    // Output checks.
    auto &checks = result.checks;
    std::vector<std::string> reference = passes[0].reports;
    if (ctx.injectDigestMismatch)
        reference[0] += " ";
    for (std::size_t p = 1; p < passes.size(); ++p) {
        for (std::size_t i = 0; i < reference.size(); ++i) {
            checks.expect(passes[p].reports[i] == reference[i],
                          "RunReport::toJson differs on a repeated call "
                          "for " + inputs.cells[i].scope());
        }
    }
    for (std::size_t i = 0; i < reference.size(); ++i) {
        const auto &text = passes[0].reports[i];
        checks.expect(
            core::RunReport::fromJson(Json::parse(text)).toJson().dump() ==
                text,
            "RunReport fromJson(toJson) does not round-trip for " +
                inputs.cells[i].scope());
    }
    const SimSummary sim = summarize(inputs, passes[0]);
    for (std::size_t p = 1; p < passes.size(); ++p) {
        checks.expect(summarize(inputs, passes[p]) == sim,
                      "train_sweep sim metrics depend on call order");
    }
    if (!ctx.traced) {
        result.metrics["train.sim_rap_samples_per_s"] =
            sim.rapSamplesPerSec;
        result.metrics["train.sim_rap_over_mps"] = sim.rapOverMps;
    }
    result.notes.push_back(
        "train.sim_rap_over_mps = " + fixed(sim.rapOverMps, 4) +
        "x (paper: 1.43x on real A100s; reference only - this simulator "
        "is not validated against hardware)");
    return result;
}

} // namespace rap::perfbench
