/**
 * @file
 * RunReport serialization: toJson()/fromJson() round-trip exactly
 * under the common/serial.hpp round-trip convention (schema token
 * "rap.run_report.v1") and are the single source of truth for report
 * artifacts (bench output, CI determinism diffs read these, never
 * scraped stdout).
 */

#include "core/pipeline.hpp"

#include "common/log.hpp"
#include "common/serial.hpp"

namespace rap::core {

namespace {

constexpr std::pair<System, const char *> kSystemIds[] = {
    {System::Ideal, "ideal"},
    {System::Rap, "rap"},
    {System::RapNoMapping, "rap_no_mapping"},
    {System::RapNoFusion, "rap_no_fusion"},
    {System::HorizontalFusionOnly, "horizontal_fusion"},
    {System::HybridRap, "hybrid_rap"},
    {System::CudaStream, "cuda_stream"},
    {System::Mps, "mps"},
    {System::SequentialGpu, "sequential_gpu"},
    {System::TorchArrowCpu, "torcharrow_cpu"},
};

constexpr auto kRunReportFields = [](auto &r, auto &v) {
    v.schema("rap.run_report.v1");
    v("system", r.system);
    v("gpuCount", r.gpuCount);
    v("batchPerGpu", r.batchPerGpu);
    v("avgIterationLatency", r.avgIterationLatency);
    v("throughput", r.throughput);
    v("avgSmUtil", r.avgSmUtil);
    v("avgBwUtil", r.avgBwUtil);
    v("avgGpuBusy", r.avgGpuBusy);
    v("p2pBytes", r.p2pBytes);
    v("preprocKernelsPerIter", r.preprocKernelsPerIter);
    v("predictedExposed", r.predictedExposed);
    v("preprocLatencyPerIter", r.preprocLatencyPerIter);
    v("makespan", r.makespan);
    v("replans", r.replans);
    v("kernelRetries", r.kernelRetries);
    v("retryBackoffSeconds", r.retryBackoffSeconds);
    v("lostWork", r.lostWork);
    v("checkpointOverhead", r.checkpointOverhead);
    v("recoveries", r.recoveries);
    v("ingestEvents", r.ingestEvents);
    v("ingestDropped", r.ingestDropped);
    v("ingestSpilled", r.ingestSpilled);
    v("ingestBatches", r.ingestBatches);
    v("ingestStagingP99", r.ingestStagingP99);
    v("ingestLastReadyAt", r.ingestLastReadyAt);
    v("submittedAt", r.submittedAt);
    v("startedAt", r.startedAt);
    v("finishedAt", r.finishedAt);
};

} // namespace

std::string
systemId(System system)
{
    for (const auto &[sys, id] : kSystemIds) {
        if (sys == system)
            return id;
    }
    RAP_PANIC("unknown system");
}

std::optional<System>
systemFromId(const std::string &id)
{
    for (const auto &[sys, token] : kSystemIds) {
        if (id == token)
            return sys;
    }
    return std::nullopt;
}

Json
RunReport::toJson() const
{
    return serial::write(*this, kRunReportFields);
}

RunReport
RunReport::fromJson(const Json &json)
{
    return serial::read<RunReport>(json, kRunReportFields, "RunReport");
}

} // namespace rap::core
