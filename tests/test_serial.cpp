/**
 * @file
 * Pinned JSON round trips for every serialized type: each type is
 * built with every field set to a distinct non-default value, its
 * compact toJson() must match its line in tests/golden/serial_fields.txt,
 * and fromJson() of that line must write the line back unchanged. A
 * field dropped from a type's field list fails here even when it is
 * dropped from both directions at once.
 *
 * Regenerate the golden file after an intentional format change with:
 *
 *   RAP_REGEN_GOLDEN=1 ./build/tests/test_serial
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "fleet/fleet.hpp"
#include "ingest/pipeline.hpp"
#include "sim/fault.hpp"
#include "sim/gpu_spec.hpp"

namespace rap {
namespace {

/** Hands out distinct values, so a swapped pair of fields shows. */
struct Distinct
{
    int n = 0;
    double real() { return ++n + 0.125; }
    int integer() { return ++n; }
};

core::RunReport
runReport(Distinct &d)
{
    core::RunReport r;
    r.system = "hybrid_rap";
    r.gpuCount = d.integer();
    r.batchPerGpu = 5000000000LL + d.integer();
    r.avgIterationLatency = d.real();
    r.throughput = d.real();
    r.avgSmUtil = d.real();
    r.avgBwUtil = d.real();
    r.avgGpuBusy = d.real();
    r.p2pBytes = d.real();
    r.preprocKernelsPerIter = d.real();
    r.predictedExposed = d.real();
    r.preprocLatencyPerIter = d.real();
    r.makespan = d.real();
    r.replans = d.integer();
    r.kernelRetries = static_cast<std::uint64_t>(d.integer());
    r.retryBackoffSeconds = d.real();
    r.lostWork = d.real();
    r.checkpointOverhead = d.real();
    r.recoveries = d.integer();
    r.ingestEvents = static_cast<std::uint64_t>(d.integer());
    r.ingestDropped = static_cast<std::uint64_t>(d.integer());
    r.ingestSpilled = static_cast<std::uint64_t>(d.integer());
    r.ingestBatches = static_cast<std::uint64_t>(d.integer());
    r.ingestStagingP99 = d.real();
    r.ingestLastReadyAt = d.real();
    r.submittedAt = d.real();
    r.startedAt = d.real();
    r.finishedAt = d.real();
    return r;
}

fleet::JobSpec
jobSpec(Distinct &d)
{
    fleet::JobSpec s;
    s.id = d.integer();
    s.name = "srv7.p2x4";
    s.arrival = d.real();
    s.gpusRequested = d.integer();
    s.planId = d.integer();
    s.ngramStress = d.integer();
    s.batchPerGpu = d.integer();
    s.iterations = d.integer();
    s.system = core::System::HybridRap;
    s.checkpointInterval = d.integer();
    s.kind = fleet::JobKind::Inference;
    s.requests.qps = d.real();
    s.requests.qpsAmplitude = d.real();
    s.requests.qpsPeriod = d.real();
    s.requests.duration = d.real();
    s.requests.seed = 0x1234567890abcULL; // request seeds fit 53 bits
    s.window.maxBatch = d.integer();
    s.window.maxWait = d.real();
    s.sloLatency = d.real();
    return s;
}

fleet::Placement
placement(Distinct &d)
{
    fleet::Placement p;
    p.gpuIds = {d.integer(), d.integer()};
    p.envelopes = {{d.real(), d.real()}, {d.real(), d.real()}};
    return p;
}

fleet::PlacementOptions
placementOptions(Distinct &d)
{
    fleet::PlacementOptions o;
    o.policy = fleet::PlacementPolicy::ExclusiveBestFit;
    o.headroom = d.real();
    o.minEnvelope = d.real();
    o.demandScale = d.real();
    return o;
}

sim::GpuSpec
gpuSpec(Distinct &d)
{
    sim::GpuSpec g;
    g.name = "H100-SXM5-80GB";
    g.peakFlops = d.real();
    g.dramBandwidth = d.real();
    g.smCount = d.integer();
    g.warpSlotsPerSm = d.integer();
    g.kernelLaunchOverhead = d.real();
    g.minKernelLatency = d.real();
    return g;
}

sim::ClusterSpec
clusterSpec(Distinct &d)
{
    sim::ClusterSpec c;
    c.gpu = gpuSpec(d);
    c.gpuCount = d.integer();
    c.nvlinkBandwidth = d.real();
    c.nvlinkLatency = d.real();
    c.pcieBandwidth = d.real();
    c.pcieLatency = d.real();
    c.cpuCores = d.integer();
    return c;
}

sim::RetryPolicy
retryPolicy(Distinct &d)
{
    sim::RetryPolicy p;
    p.maxAttempts = d.integer();
    p.backoffBase = d.real();
    p.backoffCap = d.real();
    p.detectFraction = d.real();
    return p;
}

sim::FaultEvent
faultEvent(Distinct &d)
{
    sim::FaultEvent e;
    e.kind = sim::FaultKind::TransientKernel;
    e.device = d.integer();
    e.time = d.real();
    e.until = d.real();
    e.factor = d.real();
    e.probability = d.real();
    e.link = sim::FaultLink::PeerLink;
    return e;
}

sim::FaultSpec
faultSpec(Distinct &d)
{
    sim::FaultSpec s;
    s.events = {faultEvent(d), faultEvent(d)};
    // The open-ended window travels as null.
    s.events[1].kind = sim::FaultKind::LinkSlow;
    s.events[1].until = std::numeric_limits<Seconds>::infinity();
    s.events[1].link = sim::FaultLink::HostLink;
    s.seed = 0xfedcba9876543210ULL; // beyond double's 53 bits
    s.retry = retryPolicy(d);
    return s;
}

fleet::FleetOptions
fleetOptions(Distinct &d)
{
    fleet::FleetOptions o;
    o.placement = placementOptions(d);
    o.node = clusterSpec(d);
    o.faults = faultSpec(d);
    o.requeueOnDegrade = false;
    o.restartOverhead = d.real();
    o.tracePrefix = "tenant-b";
    return o;
}

core::CheckpointManifest
checkpointManifest(Distinct &d)
{
    core::CheckpointManifest m;
    m.jobId = d.integer();
    m.sequence = d.integer();
    m.fraction = d.real();
    m.sealedAt = d.real();
    m.segment = d.integer();
    return m;
}

fleet::JobOutcome
jobOutcome(Distinct &d)
{
    fleet::JobOutcome o;
    o.spec = jobSpec(d);
    o.firstStart = d.real();
    o.finish = d.real();
    o.placements = d.integer();
    o.requeues = d.integer();
    o.crashRequeues = d.integer();
    o.serviceTime = d.real();
    o.lostWork = d.real();
    o.lastGpus = {d.integer(), d.integer()};
    o.demand = {d.real(), d.real()};
    o.report = runReport(d);
    serve::SloStats stats;
    stats.requests = static_cast<std::uint64_t>(d.integer());
    stats.batches = static_cast<std::uint64_t>(d.integer());
    stats.attained = static_cast<std::uint64_t>(d.integer());
    stats.sloLatency = d.real();
    stats.p50 = d.real();
    stats.p95 = d.real();
    stats.p99 = d.real();
    o.serve = stats;
    return o;
}

fleet::FleetReport
fleetReport(Distinct &d)
{
    fleet::FleetReport r;
    r.policy = fleet::PlacementPolicy::ExclusiveFirstFit;
    r.gpuCount = d.integer();
    // The second job has no serving stats: its `serve` is null.
    r.jobs = {jobOutcome(d), jobOutcome(d)};
    r.jobs[1].serve.reset();
    r.makespan = d.real();
    r.requeues = d.integer();
    r.crashRequeues = d.integer();
    r.simulationsRun = d.integer();
    r.busyGpuSeconds = d.real();
    r.catalogDegraded = true;
    r.meanJct = d.real();
    r.p50Jct = d.real();
    r.p95Jct = d.real();
    r.maxJct = d.real();
    r.meanQueueingDelay = d.real();
    r.clusterSmUtil = d.real();
    r.clusterBwUtil = d.real();
    r.gpuOccupancy = d.real();
    r.lostWork = d.real();
    r.goodputSeconds = d.real();
    r.serveRequests = static_cast<std::uint64_t>(d.integer());
    r.serveBatches = static_cast<std::uint64_t>(d.integer());
    r.serveAttained = static_cast<std::uint64_t>(d.integer());
    r.serveAttainment = d.real();
    r.serveGoodputRps = d.real();
    r.serveP50Latency = d.real();
    r.serveP95Latency = d.real();
    r.serveP99Latency = d.real();
    return r;
}

ingest::IngestReport
ingestReport(Distinct &d)
{
    ingest::IngestReport r;
    r.events = static_cast<std::uint64_t>(d.integer());
    r.dropped = static_cast<std::uint64_t>(d.integer());
    r.spilled = static_cast<std::uint64_t>(d.integer());
    r.replayed = static_cast<std::uint64_t>(d.integer());
    r.batches = static_cast<std::uint64_t>(d.integer());
    r.rowsStaged = static_cast<std::uint64_t>(d.integer());
    r.p50 = 0.000125;
    r.p95 = 0.0025;
    r.p99 = 0.005;
    r.maxQueueDepth = static_cast<std::size_t>(d.integer());
    r.lastReadyAt = d.real();
    r.checksum = 0xfedcba9876543210ULL;
    r.wallMs = d.real(); // never serialized
    return r;
}

/** One pinned type: its writer, and its reader when it has one. */
struct Case
{
    std::string name;
    Json written;
    std::function<Json(const Json &)> reread; // empty: write-only
};

template <class T>
Case
roundTrip(const std::string &name, const T &value)
{
    return {name, value.toJson(),
            [](const Json &json) { return T::fromJson(json).toJson(); }};
}

std::vector<Case>
cases()
{
    Distinct d;
    std::vector<Case> out;
    out.push_back(roundTrip("RunReport", runReport(d)));
    out.push_back(roundTrip("FleetReport", fleetReport(d)));
    out.push_back(roundTrip("JobSpec", jobSpec(d)));
    out.push_back(roundTrip("Placement", placement(d)));
    out.push_back(roundTrip("PlacementOptions", placementOptions(d)));
    out.push_back({"FleetOptions", fleet::fleetOptionsToJson(fleetOptions(d)),
                   [](const Json &json) {
                       return fleet::fleetOptionsToJson(
                           fleet::fleetOptionsFromJson(json));
                   }});
    out.push_back(roundTrip("CheckpointManifest", checkpointManifest(d)));
    out.push_back({"IngestReport", ingestReport(d).toJson(), {}});
    out.push_back(roundTrip("GpuSpec", gpuSpec(d)));
    out.push_back(roundTrip("ClusterSpec", clusterSpec(d)));
    out.push_back(roundTrip("FaultSpec", faultSpec(d)));
    out.push_back(roundTrip("FaultEvent", faultEvent(d)));
    out.push_back(roundTrip("RetryPolicy", retryPolicy(d)));
    return out;
}

const std::string kGoldenPath =
    std::string(RAP_TESTS_DIR) + "/golden/serial_fields.txt";

/** The golden file: one `<type> <compact json>` line per type. */
std::vector<std::pair<std::string, std::string>>
readGolden()
{
    std::vector<std::pair<std::string, std::string>> lines;
    std::ifstream in(kGoldenPath);
    std::string line;
    while (std::getline(in, line)) {
        const auto space = line.find(' ');
        lines.emplace_back(line.substr(0, space), line.substr(space + 1));
    }
    return lines;
}

TEST(SerialGolden, EveryTypeWritesItsPinnedLine)
{
    const auto all = cases();
    if (std::getenv("RAP_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(kGoldenPath);
        ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
        for (const auto &c : all)
            out << c.name << ' ' << c.written.dump() << '\n';
        GTEST_SKIP() << "golden file regenerated";
    }
    const auto golden = readGolden();
    ASSERT_EQ(golden.size(), all.size())
        << kGoldenPath << " (regenerate with RAP_REGEN_GOLDEN=1)";
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(golden[i].first, all[i].name);
        EXPECT_EQ(all[i].written.dump(), golden[i].second)
            << all[i].name << " drifted from " << kGoldenPath;
    }
}

TEST(SerialGolden, EveryPinnedLineReadsBackUnchanged)
{
    const auto all = cases();
    const auto golden = readGolden();
    ASSERT_EQ(golden.size(), all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (!all[i].reread)
            continue;
        std::string error;
        const Json parsed = Json::parse(golden[i].second, &error);
        ASSERT_TRUE(error.empty()) << all[i].name << ": " << error;
        EXPECT_EQ(all[i].reread(parsed).dump(), golden[i].second)
            << all[i].name;
    }
}

TEST(SerialReaderDeathTest, EveryListedKeyIsRequired)
{
    // No key is read as a default when absent: not the schema token,
    // not a field added after the type was first written.
    Distinct d;
    Json report = runReport(d).toJson();
    Json no_schema = Json::object();
    Json no_ingest = Json::object();
    for (const auto &[key, value] : report.members()) {
        if (key != "schema")
            no_schema.set(key, value);
        if (key != "ingestEvents")
            no_ingest.set(key, value);
    }
    EXPECT_DEATH(core::RunReport::fromJson(no_schema), "schema");
    EXPECT_DEATH(core::RunReport::fromJson(no_ingest), "ingestEvents");

    report.set("schema", Json("rap.run_report.v2"));
    EXPECT_DEATH(core::RunReport::fromJson(report),
                 "expected schema 'rap.run_report.v1'");
}

} // namespace
} // namespace rap
