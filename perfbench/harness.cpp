/**
 * @file
 * Entry point of the repo benchmark harness.
 *
 *   perfbench --workload <train_sweep|fleet_mixed_durable|
 *                         ingest_gated_train>
 *             --seed N --seconds S --trace 0|1 --workdir DIR
 *             [--inject-digest-mismatch]
 *
 * Human-readable results go to stderr. The last stdout line is one
 * JSON object {"correct", "attempted", "failed", "metrics"} with raw
 * metric values; perfbench/run.py attaches units and enforces the
 * metric map. A traced run (--trace 1) also writes DIR/spans.json
 * (the benchmark's own spans) and DIR/snapshot.json (the program's
 * deterministic metrics snapshot, schema-checked by run.py). Exit
 * code 1 when any output check failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <queue>
#include <string>

#include "common/stats.hpp"
#include "harness.hpp"
#include "obs/snapshot.hpp"

namespace rap::perfbench {

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return std::chrono::duration<double>(clock::now() - epoch).count();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Tracer::Scope::Scope(Tracer &tracer, std::string name,
                     std::string call_id)
    : tracer_(tracer)
{
    if (!tracer_.enabled_)
        return;
    TraceSpan span;
    span.name = std::move(name);
    span.callId = std::move(call_id);
    span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
    span.start = nowSeconds();
    index_ = static_cast<int>(tracer_.spans_.size());
    tracer_.spans_.push_back(std::move(span));
    tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    tracer_.spans_[static_cast<std::size_t>(index_)].end = nowSeconds();
    tracer_.open_.pop_back();
}

void
Tracer::adopt(const obs::MetricRegistry &registry,
              std::size_t first_record, double offset,
              const std::string &call_id)
{
    if (!enabled_)
        return;
    const auto records = registry.spanRecords();
    for (std::size_t i = first_record; i < records.size(); ++i) {
        const auto &record = records[i];
        if (!record.hasWall)
            continue;
        TraceSpan span;
        span.name = record.name;
        span.callId = call_id;
        span.start = record.wallBegin + offset;
        span.end = record.wallEnd + offset;
        span.fromProgram = true;
        spans_.push_back(std::move(span));
    }
    // Parent every span by containment: the innermost span of the
    // same call whose interval covers it. Spans are few per call, so
    // the quadratic scan is cheap next to the calls it describes.
    for (auto &span : spans_) {
        if (!span.fromProgram || span.parent >= 0 ||
            span.callId != call_id)
            continue;
        double best = INFINITY;
        for (std::size_t j = 0; j < spans_.size(); ++j) {
            const auto &other = spans_[j];
            if (&other == &span || other.callId != call_id)
                continue;
            const double width = other.end - other.start;
            const bool covers = other.start <= span.start &&
                                span.end <= other.end &&
                                width > span.end - span.start;
            if (covers && width < best) {
                best = width;
                span.parent = static_cast<int>(j);
            }
        }
    }
}

namespace {

std::string
layerOf(const std::string &span_name)
{
    const std::string prefix = span_name.substr(0, span_name.find('.'));
    return prefix == "plan" ? "core" : prefix;
}

} // namespace

std::map<std::string, double>
Tracer::selfTimeByLayer() const
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const auto &span : spans_) {
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].push_back(
                {span.start, span.end});
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = spans_[i].start;
        for (const auto &[begin, end] : kids) {
            const double from = std::max(begin, reach);
            const double to = std::min(end, spans_[i].end);
            if (to > from)
                covered += to - from;
            reach = std::max(reach, to);
        }
        self[layerOf(spans_[i].name)] +=
            spans_[i].end - spans_[i].start - covered;
    }
    return self;
}

Json
Tracer::toJson() const
{
    Json spans = Json::array();
    for (const auto &span : spans_) {
        Json entry = Json::object();
        entry.set("name", Json(span.name));
        entry.set("call", Json(span.callId));
        entry.set("start", Json(span.start));
        entry.set("end", Json(span.end));
        entry.set("parent", Json(span.parent));
        entry.set("source", Json(span.fromProgram ? "program" : "bench"));
        spans.push(std::move(entry));
    }
    Json doc = Json::object();
    doc.set("schema", Json("rap.perfbench.spans.v1"));
    doc.set("spans", std::move(spans));
    return doc;
}

namespace {

volatile double referenceSink = 0.0;

constexpr int kReferenceSteps = 200000;

/**
 * Seconds for one fixed unit of host work in the style of the
 * simulator's hot paths: an event heap, an ordered map, a sort and
 * some floating point. It shares no code with the library, so no
 * library change can move it; only the machine can. The gated metrics
 * are expressed in these units, which cancels the host's speed drift
 * (this benchmark was written on a shared VM whose speed drifted by
 * 1.6x within an hour).
 */
double
referenceSeconds()
{
    const double begin = nowSeconds();
    std::uint64_t state = 1;
    std::priority_queue<std::pair<double, int>,
                        std::vector<std::pair<double, int>>, std::greater<>>
        heap;
    std::map<std::uint64_t, double> table;
    double acc = 0.0;
    for (int i = 0; i < kReferenceSteps; ++i) {
        state = mixSeed(state, static_cast<std::uint64_t>(i));
        const double t = static_cast<double>(state >> 11) * 0x1p-53;
        heap.push({t, i});
        table[state & 0xffff] += t;
        if (heap.size() > 512) {
            acc += std::sqrt(heap.top().first);
            heap.pop();
        }
    }
    std::vector<double> values;
    for (const auto &[key, value] : table)
        values.push_back(value * static_cast<double>(key));
    std::sort(values.begin(), values.end());
    referenceSink = acc + values[values.size() / 2];
    return nowSeconds() - begin;
}

} // namespace

double
HostReference::sample()
{
    times_.push_back(referenceSeconds());
    last_ = nowSeconds();
    return times_.back();
}

double
HostReference::tick()
{
    if (nowSeconds() - last_ < kTickSeconds)
        return 0.0;
    const double begin = nowSeconds();
    sample();
    return last_ - begin;
}

double
HostReference::seconds() const
{
    return p50(times_);
}

void
timeSetup(const RunContext &ctx, const std::function<void()> &setup,
          WorkloadResult &result)
{
    std::vector<double> seconds;
    std::vector<double> scaled;
    double before = ctx.reference->sample();
    for (int rep = 0; rep < 7; ++rep) {
        const double begin = nowSeconds();
        setup();
        seconds.push_back(nowSeconds() - begin);
        const double after = ctx.reference->sample();
        scaled.push_back(seconds.back() / (0.5 * (before + after)));
        before = after;
    }
    result.metrics["setup_raw_s"] = p50(seconds);
    result.metrics["setup_ref"] = p50(scaled);
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::cerr << "[perfbench] CHECK FAILED: " << what << "\n";
    }
}

std::uint64_t
counterTotal(const obs::MetricRegistry &registry, const std::string &name)
{
    std::uint64_t total = 0;
    for (const auto &[key, counter] : registry.counters()) {
        if (key.first == name)
            total += counter->value();
    }
    return total;
}

void
addPlannerMetrics(const obs::MetricRegistry &registry,
                  const std::string &fused_suffix,
                  std::map<std::string, double> &metrics)
{
    const auto records = registry.spanRecords();
    for (const std::string phase :
         {"offline", "profile", "mapping", "schedule"}) {
        double total = 0.0;
        for (const auto &record : records) {
            if (record.hasWall && record.name == "plan." + phase)
                total += record.wallEnd - record.wallBegin;
        }
        metrics["core.plan_" + phase + "_s"] = total;
    }
    double fused = 0.0;
    for (const auto &record : records) {
        if (!record.hasWall || record.name != "plan.schedule")
            continue;
        for (const auto &[key, value] : record.labels.pairs()) {
            if (key == "run" && value.ends_with(fused_suffix))
                fused += record.wallEnd - record.wallBegin;
        }
    }
    metrics["core.plan_schedule_fused_s"] = fused;
    metrics["core.plan_schedule_unfused_s"] =
        metrics["core.plan_schedule_s"] - fused;
    metrics["core.mapping_accept_ratio"] =
        ratio(counterTotal(registry, "plan.mapping.moves_accepted"),
              counterTotal(registry, "plan.mapping.moves_evaluated"));
    metrics["milp.nodes_explored"] = static_cast<double>(
        counterTotal(registry, "plan.milp.nodes_explored"));
    metrics["sim.events"] =
        static_cast<double>(counterTotal(registry, "sim.engine.events"));
    metrics["sim.kernels_launched"] = static_cast<double>(
        counterTotal(registry, "sim.device.kernels_launched"));
}

} // namespace rap::perfbench

namespace {

using namespace rap;
using namespace rap::perfbench;

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--inject-digest-mismatch]\n";
    std::exit(2);
}

std::string
formatNumber(double value)
{
    // Every digit, as measured: a rounded time could read the same on
    // every run and hide a change.
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

} // namespace

int
main(int argc, char **argv)
{
    RunContext ctx;
    std::string workload;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = value();
        } else if (arg == "--seed") {
            ctx.seed = std::strtoull(value().c_str(), nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            ctx.seconds = std::atof(value().c_str());
            have_seconds = true;
        } else if (arg == "--trace") {
            const std::string trace = value();
            if (trace != "0" && trace != "1")
                usage("--trace takes 0 or 1");
            ctx.traced = trace == "1";
            have_trace = true;
        } else if (arg == "--workdir") {
            ctx.workDir = value();
        } else if (arg == "--inject-digest-mismatch") {
            ctx.injectDigestMismatch = true;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!have_seed || !have_seconds || !have_trace || ctx.workDir.empty())
        usage("--seed, --seconds, --trace and --workdir are required");
    if (!(ctx.seconds > 0.0))
        usage("--seconds must be positive");
    std::filesystem::create_directories(ctx.workDir);

    Tracer tracer(ctx.traced);
    obs::MetricRegistry registry;
    obs::MetricRegistry *metrics = ctx.traced ? &registry : nullptr;

    // The machine's speed before, during (ticked by the workload) and
    // after the workload; the median of all samples becomes ref_s.
    HostReference reference;
    ctx.reference = &reference;
    for (int i = 0; i < 5; ++i)
        reference.sample();
    WorkloadResult result;
    if (workload == "train_sweep")
        result = runTrainSweep(ctx, tracer, metrics);
    else if (workload == "fleet_mixed_durable")
        result = runFleetMixedDurable(ctx, tracer, metrics);
    else if (workload == "ingest_gated_train")
        result = runIngestGatedTrain(ctx, tracer, metrics);
    else
        usage("unknown workload '" + workload + "'");

    const auto &checks = result.checks;
    for (int i = 0; i < 5; ++i)
        reference.sample();
    result.metrics["ref_s"] = reference.seconds();
    result.notes.push_back("ref_s: median of " +
                           std::to_string(reference.samples()) +
                           " reference samples");
    result.metrics["peak_rss_mb"] = peakRssMb();
    result.metrics["ops_failed_ratio"] =
        checks.attempted() == 0
            ? 1.0
            : static_cast<double>(checks.failed()) /
                  static_cast<double>(checks.attempted());

    if (ctx.traced) {
        for (const auto &[layer, seconds] : tracer.selfTimeByLayer())
            result.metrics["self." + layer + "_s"] = seconds;
        writeJsonFile(tracer.toJson(), ctx.workDir + "/spans.json");
        obs::writeSnapshot(registry, ctx.workDir + "/snapshot.json");
    }

    for (const auto &note : result.notes)
        std::cerr << "[perfbench] " << note << "\n";

    std::string out = "{\"correct\": ";
    out += checks.failed() == 0 && checks.attempted() > 0 ? "true"
                                                          : "false";
    out += ", \"attempted\": " + std::to_string(checks.attempted());
    out += ", \"failed\": " + std::to_string(checks.failed());
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : result.metrics) {
        out += first ? "" : ", ";
        out += "\"" + name + "\": " + formatNumber(value);
        first = false;
    }
    out += "}}";
    std::cout << out << std::endl;
    return checks.failed() == 0 && checks.attempted() > 0 ? 0 : 1;
}
