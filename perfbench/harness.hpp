/**
 * @file
 * Shared pieces of the repo benchmark harness: the run context each
 * workload receives, the output-check ledger, the benchmark's own span
 * tracer, and small timing/statistics helpers.
 *
 * The harness measures the library from outside only: it times calls
 * into public entry points (core::runSystem, fleet::FleetRequest,
 * ctrl::Catalog, ingest::IngestPipeline, ...) and, in traced runs,
 * reads the spans and counters the program already records through
 * obs::MetricRegistry. Nothing here reaches into src/ internals.
 */

#ifndef RAP_PERFBENCH_HARNESS_HPP
#define RAP_PERFBENCH_HARNESS_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace rap::perfbench {

/** Seconds on the benchmark's monotonic clock. */
double nowSeconds();

/** @return Peak resident set size of this process, in MiB. */
double peakRssMb();

/** @return @p num / @p den, or 0 when nothing was attempted. */
template <typename A, typename B>
double
ratio(A num, B den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

/** Deterministic 64-bit mix (splitmix64) for seed derivation. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/** One recorded span of the benchmark's own trace. */
struct TraceSpan
{
    std::string name;
    /** Workload/call id shared by every span of one public call. */
    std::string callId;
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span; -1 for a root. */
    int parent = -1;
    /** True when imported from the program's MetricRegistry. */
    bool fromProgram = false;
};

/**
 * The traced run's span recorder. Spans live in memory until the run
 * ends; toJson() dumps them and selfTimeByLayer() reduces them. A
 * disabled tracer records nothing, so workloads can wrap calls
 * unconditionally and the untraced run pays only a branch.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** RAII span around one call; parented to the open span. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string name, std::string call_id);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_ = -1;
    };

    /**
     * Import the wall spans @p registry recorded since span index
     * @p first_record as children of the innermost benchmark span
     * that contains them. @p offset converts registry wall time to
     * the benchmark clock (nowSeconds() - registry.wallNow() taken
     * at one instant).
     */
    void adopt(const obs::MetricRegistry &registry,
               std::size_t first_record, double offset,
               const std::string &call_id);

    /**
     * @return Self time per layer: each span's duration minus the
     * part of it its children cover, summed by layer (the span name
     * up to its first '.', with the program's `plan.*` spans
     * belonging to core).
     */
    std::map<std::string, double> selfTimeByLayer() const;

    /** @return The spans as a JSON document. */
    Json toJson() const;

  private:
    bool enabled_;
    std::vector<TraceSpan> spans_;
    std::vector<int> open_;
};

/** Tally of output checks; each failure raises ops_failed_ratio. */
class Checks
{
  public:
    /** Record one check; @p what names it when it fails. */
    void expect(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * The host's current speed: seconds for one fixed unit of
 * harness-owned host work that shares no code with the library.
 * Workloads tick() it between timed calls, so its samples spread over
 * the measured window; the median of all samples becomes ref_s.
 */
class HostReference
{
  public:
    /** Time the reference work once; @return its seconds. */
    double sample();

    /**
     * Take one sample when kTickSeconds have passed since the last.
     * @return The seconds it took (0 without a sample), which the
     * caller keeps out of its timed windows.
     */
    double tick();

    /** @return The median sample, in seconds. */
    double seconds() const;

    std::size_t samples() const { return times_.size(); }

  private:
    static constexpr double kTickSeconds = 0.5;
    std::vector<double> times_;
    double last_ = 0.0;
};

/** tick() @p reference when there is one; @return the seconds it took. */
inline double
tick(HostReference *reference)
{
    return reference != nullptr ? reference->tick() : 0.0;
}

/** Everything a workload needs from the command line. */
struct RunContext
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    /** Per-run scratch directory (catalogs, spill logs). */
    std::string workDir;
    /** Corrupt one digest before checking (the harness self-test). */
    bool injectDigestMismatch = false;
    /** Host speed; untraced workloads tick it between timed calls. */
    HostReference *reference = nullptr;
};

/** A workload's measured outcome. */
struct WorkloadResult
{
    /** Metric name -> value (units live in perfbench/metric_map.py). */
    std::map<std::string, double> metrics;
    Checks checks;
    /** Human-readable notes printed to stderr with the results. */
    std::vector<std::string> notes;
};

/**
 * Run @p setup seven times, each between two host-reference samples,
 * and record setup_raw_s, the median set-up seconds, and setup_ref,
 * the median of each set-up's seconds over the mean of the two samples
 * around it: the host's speed drifts within a second, so each set-up is
 * scaled by the speed it ran at.
 */
void timeSetup(const RunContext &ctx, const std::function<void()> &setup,
               WorkloadResult &result);

WorkloadResult runTrainSweep(const RunContext &ctx, Tracer &tracer,
                             obs::MetricRegistry *registry);
WorkloadResult runFleetMixedDurable(const RunContext &ctx,
                                    Tracer &tracer,
                                    obs::MetricRegistry *registry);
WorkloadResult runIngestGatedTrain(const RunContext &ctx,
                                   Tracer &tracer,
                                   obs::MetricRegistry *registry);

/** Sum a counter over every label set. */
std::uint64_t counterTotal(const obs::MetricRegistry &registry,
                           const std::string &name);

/**
 * Add the planner and simulator readings @p registry holds: the
 * `plan.*` wall spans (core.plan_*_s, with the schedule time counted
 * as fused for spans whose `run` label ends in @p fused_suffix), the
 * mapping-move, MILP-node, DES-event and kernel-launch counters.
 */
void addPlannerMetrics(const obs::MetricRegistry &registry,
                       const std::string &fused_suffix,
                       std::map<std::string, double> &metrics);

} // namespace rap::perfbench

#endif // RAP_PERFBENCH_HARNESS_HPP
