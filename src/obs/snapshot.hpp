/**
 * @file
 * MetricRegistry exporters: the deterministic JSON snapshot (the
 * `--metrics` artifact CI diffs and schema-checks) and a CSV dump of
 * the recorded time-series.
 *
 * Snapshot schema ("rap.metrics.v1", mirrored in
 * schemas/metrics.schema.json and enforced by tools/validate_metrics):
 *
 *   {"schema": "rap.metrics.v1",
 *    "counters":   [{"name", "labels", "value"}...],
 *    "gauges":     [{"name", "labels", "value"}...],
 *    "histograms": [{"name", "labels", "edges", "counts",
 *                    "count", "sum"}...],
 *    "series":     [{"name", "labels", "points": [[x, y]...]}...],
 *    "spans":      [{"name", "labels", "count", "maxDepth",
 *                    "simSeconds", ("wallSeconds")?}...]}
 *
 * Entries are ordered by (name, rendered labels); spans are aggregated
 * per (name, labels). Wall-clock durations are emitted only when
 * SnapshotOptions::includeWallTime is set — the default snapshot
 * contains only simulation-derived and count-derived values, which is
 * what makes `--jobs 1` and `--jobs 4` runs byte-identical.
 */

#ifndef RAP_OBS_SNAPSHOT_HPP
#define RAP_OBS_SNAPSHOT_HPP

#include <string>

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace rap::obs {

/** Snapshot knobs. */
struct SnapshotOptions
{
    /**
     * Include aggregate wall-clock span durations. Off by default:
     * wall time is not reproducible, so it never belongs in an
     * artifact that CI diffs.
     */
    bool includeWallTime = false;
};

/** @return The snapshot as a Json document (schema above). */
Json snapshotJson(const MetricRegistry &registry,
                  SnapshotOptions options = {});

/** Render snapshotJson as pretty-printed text. */
std::string renderSnapshot(const MetricRegistry &registry,
                           SnapshotOptions options = {});

/** Write the snapshot to @p path; fatal on I/O failure. */
void writeSnapshot(const MetricRegistry &registry,
                   const std::string &path,
                   SnapshotOptions options = {});

/**
 * @return The recorded series as CSV text with header
 *         `name,labels,x,y`, one row per point, series ordered by
 *         (name, labels) and points in recording order.
 */
std::string seriesCsv(const MetricRegistry &registry);

} // namespace rap::obs

#endif // RAP_OBS_SNAPSHOT_HPP
