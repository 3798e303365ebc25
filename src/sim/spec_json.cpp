/**
 * @file
 * JSON round-trips for the hardware and fault vocabulary (the
 * common/serial.hpp round-trip convention). These are what lets
 * the durable fleet catalog persist a run's full configuration —
 * node spec and fault schedule included — and rebuild it bit-exactly
 * on resume: every double goes through the shortest-round-trip writer
 * and 64-bit seeds travel as decimal strings, so
 * fromJson(toJson(x)) == x for every field.
 */

#include <cmath>
#include <limits>

#include "common/log.hpp"
#include "common/serial.hpp"
#include "sim/fault.hpp"
#include "sim/gpu_spec.hpp"

namespace rap::sim {

namespace {

constexpr std::pair<FaultKind, const char *> kFaultKindIds[] = {
    {FaultKind::SmDegrade, "sm_degrade"},
    {FaultKind::HbmDegrade, "hbm_degrade"},
    {FaultKind::LinkSlow, "link_slow"},
    {FaultKind::TransientKernel, "transient_kernel"},
    {FaultKind::DeviceCrash, "device_crash"},
};

constexpr std::pair<FaultLink, const char *> kFaultLinkIds[] = {
    {FaultLink::HostLink, "host_link"},
    {FaultLink::PeerLink, "peer_link"},
    {FaultLink::Fabric, "fabric"},
};

/** JSON has no infinity literal; the open-ended window is null. */
struct InfinityAsNull
{
    Json write(Seconds value) const
    {
        return std::isinf(value) ? Json() : Json(value);
    }

    void read(const Json &json, Seconds &value) const
    {
        value = json.isNull() ? std::numeric_limits<Seconds>::infinity()
                              : json.asDouble();
    }
};

constexpr auto kRetryFields = [](auto &p, auto &v) {
    v("maxAttempts", p.maxAttempts);
    v("backoffBase", p.backoffBase);
    v("backoffCap", p.backoffCap);
    v("detectFraction", p.detectFraction);
};

constexpr auto kEventFields = [](auto &e, auto &v) {
    v("kind", e.kind, serial::Token{faultKindId, faultKindFromId});
    v("device", e.device);
    v("time", e.time);
    v("until", e.until, InfinityAsNull{});
    v("factor", e.factor);
    v("probability", e.probability);
    v("link", e.link, serial::Token{faultLinkId, faultLinkFromId});
};

constexpr auto kFaultSpecFields = [](auto &s, auto &v) {
    v("events", s.events);
    v("seed", s.seed, serial::Decimal{});
    v("retry", s.retry);
};

constexpr auto kGpuFields = [](auto &g, auto &v) {
    v("name", g.name);
    v("peakFlops", g.peakFlops);
    v("dramBandwidth", g.dramBandwidth);
    v("smCount", g.smCount);
    v("warpSlotsPerSm", g.warpSlotsPerSm);
    v("kernelLaunchOverhead", g.kernelLaunchOverhead);
    v("minKernelLatency", g.minKernelLatency);
};

constexpr auto kClusterFields = [](auto &c, auto &v) {
    v("gpu", c.gpu);
    v("gpuCount", c.gpuCount);
    v("nvlinkBandwidth", c.nvlinkBandwidth);
    v("nvlinkLatency", c.nvlinkLatency);
    v("pcieBandwidth", c.pcieBandwidth);
    v("pcieLatency", c.pcieLatency);
    v("cpuCores", c.cpuCores);
};

} // namespace

std::string
faultKindId(FaultKind kind)
{
    for (const auto &[k, id] : kFaultKindIds) {
        if (k == kind)
            return id;
    }
    RAP_PANIC("unknown fault kind");
}

FaultKind
faultKindFromId(const std::string &id)
{
    for (const auto &[k, token] : kFaultKindIds) {
        if (id == token)
            return k;
    }
    RAP_FATAL("unknown fault-kind id '", id, "'");
}

std::string
faultLinkId(FaultLink link)
{
    for (const auto &[l, id] : kFaultLinkIds) {
        if (l == link)
            return id;
    }
    RAP_PANIC("unknown fault link");
}

FaultLink
faultLinkFromId(const std::string &id)
{
    for (const auto &[l, token] : kFaultLinkIds) {
        if (id == token)
            return l;
    }
    RAP_FATAL("unknown fault-link id '", id, "'");
}

Json
RetryPolicy::toJson() const
{
    return serial::write(*this, kRetryFields);
}

RetryPolicy
RetryPolicy::fromJson(const Json &json)
{
    return serial::read<RetryPolicy>(json, kRetryFields, "RetryPolicy");
}

Json
FaultEvent::toJson() const
{
    return serial::write(*this, kEventFields);
}

FaultEvent
FaultEvent::fromJson(const Json &json)
{
    return serial::read<FaultEvent>(json, kEventFields, "FaultEvent");
}

Json
FaultSpec::toJson() const
{
    return serial::write(*this, kFaultSpecFields);
}

FaultSpec
FaultSpec::fromJson(const Json &json)
{
    return serial::read<FaultSpec>(json, kFaultSpecFields, "FaultSpec");
}

Json
GpuSpec::toJson() const
{
    return serial::write(*this, kGpuFields);
}

GpuSpec
GpuSpec::fromJson(const Json &json)
{
    return serial::read<GpuSpec>(json, kGpuFields, "GpuSpec");
}

Json
ClusterSpec::toJson() const
{
    return serial::write(*this, kClusterFields);
}

ClusterSpec
ClusterSpec::fromJson(const Json &json)
{
    return serial::read<ClusterSpec>(json, kClusterFields, "ClusterSpec");
}

} // namespace rap::sim
