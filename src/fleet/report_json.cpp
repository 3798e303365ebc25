/**
 * @file
 * FleetReport serialization: toJson()/fromJson() round-trip exactly
 * under the common/serial.hpp round-trip convention (schema token
 * "rap.fleet_report.v1"). The CI determinism job diffs these
 * artifacts across thread counts, and the resume gate diffs them
 * across kill/recover cycles, so every field — per-job specs,
 * outcomes, and the aggregates — is serialized from the exact doubles
 * the scheduler computed.
 *
 * Optional SLO columns serialize as explicit JSON null: "never
 * measured" round-trips as std::nullopt, distinct from a measured
 * zero.
 */

#include "fleet/report.hpp"

#include "common/serial.hpp"

namespace rap::fleet {

namespace {

constexpr auto kDemandFields = [](auto &d, auto &v) {
    v("sm", d.sm);
    v("bw", d.bw);
};

constexpr auto kServeFields = [](auto &s, auto &v) {
    v("requests", s.requests);
    v("batches", s.batches);
    v("attained", s.attained);
    v("sloLatency", s.sloLatency);
    v("p50", s.p50);
    v("p95", s.p95);
    v("p99", s.p99);
};

constexpr auto kOutcomeFields = [](auto &o, auto &v) {
    v("spec", o.spec);
    v("firstStart", o.firstStart);
    v("finish", o.finish);
    v("placements", o.placements);
    v("requeues", o.requeues);
    v("crashRequeues", o.crashRequeues);
    v("serviceTime", o.serviceTime);
    v("lostWork", o.lostWork);
    v("lastGpus", o.lastGpus);
    v("demand", o.demand, serial::Object{kDemandFields});
    v("report", o.report);
    v("serve", o.serve, serial::Object{kServeFields});
};

constexpr auto kFleetReportFields = [](auto &r, auto &v) {
    v.schema("rap.fleet_report.v1");
    v("policy", r.policy, serial::Token{policyId, policyFromId});
    v("gpuCount", r.gpuCount);
    v("jobs", r.jobs, serial::Object{kOutcomeFields});
    v("makespan", r.makespan);
    v("requeues", r.requeues);
    v("crashRequeues", r.crashRequeues);
    v("simulationsRun", r.simulationsRun);
    v("busyGpuSeconds", r.busyGpuSeconds);
    v("catalogDegraded", r.catalogDegraded);
    v("meanJct", r.meanJct);
    v("p50Jct", r.p50Jct);
    v("p95Jct", r.p95Jct);
    v("maxJct", r.maxJct);
    v("meanQueueingDelay", r.meanQueueingDelay);
    v("clusterSmUtil", r.clusterSmUtil);
    v("clusterBwUtil", r.clusterBwUtil);
    v("gpuOccupancy", r.gpuOccupancy);
    v("lostWork", r.lostWork);
    v("goodputSeconds", r.goodputSeconds);
    v("serveRequests", r.serveRequests);
    v("serveBatches", r.serveBatches);
    v("serveAttained", r.serveAttained);
    v("serveAttainment", r.serveAttainment);
    v("serveGoodputRps", r.serveGoodputRps);
    v("serveP50Latency", r.serveP50Latency);
    v("serveP95Latency", r.serveP95Latency);
    v("serveP99Latency", r.serveP99Latency);
};

} // namespace

Json
FleetReport::toJson() const
{
    return serial::write(*this, kFleetReportFields);
}

FleetReport
FleetReport::fromJson(const Json &json)
{
    return serial::read<FleetReport>(json, kFleetReportFields,
                                     "FleetReport");
}

} // namespace rap::fleet
