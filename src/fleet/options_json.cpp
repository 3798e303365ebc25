/**
 * @file
 * FleetOptions <-> JSON for the catalog's genesis record. Only the
 * semantic fields travel: a resume rebuilt from this JSON must
 * re-execute the identical run, so everything that shapes scheduling
 * (or the report bytes — tracePrefix flips memoisation and therefore
 * simulationsRun) is here, and runtime attachments (metrics, catalog
 * pointer, stop knobs) are not.
 */

#include "common/serial.hpp"
#include "fleet/scheduler.hpp"

namespace rap::fleet {

namespace {

constexpr auto kFleetOptionsFields = [](auto &o, auto &v) {
    v("placement", o.placement);
    v("node", o.node);
    v("faults", o.faults);
    v("requeueOnDegrade", o.requeueOnDegrade);
    v("restartOverhead", o.restartOverhead);
    v("tracePrefix", o.tracePrefix);
};

} // namespace

Json
fleetOptionsToJson(const FleetOptions &options)
{
    return serial::write(options, kFleetOptionsFields);
}

FleetOptions
fleetOptionsFromJson(const Json &json)
{
    return serial::read<FleetOptions>(json, kFleetOptionsFields,
                                      "FleetOptions");
}

} // namespace rap::fleet
