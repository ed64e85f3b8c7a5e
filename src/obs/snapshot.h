/**
 * @file
 * One-call export of the whole observability state: every metric in the
 * registry plus flight-recorder occupancy, as a single JSON document.
 * This is the machine-readable artifact a bench run leaves behind
 * (--metrics-out) and the object CI asserts required keys against.
 */

#ifndef PIMDL_OBS_SNAPSHOT_H
#define PIMDL_OBS_SNAPSHOT_H

#include <string>

namespace pimdl {
namespace obs {

/** Schema identifier embedded in every snapshot. */
inline constexpr const char *kSnapshotSchema = "pimdl.metrics.v1";

/**
 * Serializes the current process observability state:
 * {"schema":"pimdl.metrics.v1","counters":{...},"gauges":{...},
 *  "histograms":{name:{count,sum,min,max,mean,p50,p95,p99}},
 *  "trace":{"recorded":N,"retained":M,"dropped":D},
 *  "catalog":{mode:{"counters":[...],"gauges":[...],
 *             "histograms":[...]}}}.
 * The catalog section lists the names each check_metrics.py mode
 * requires (obs/metric_catalog.h).
 */
std::string snapshotJson();

/** Writes snapshotJson() to @p path; throws on I/O failure. */
void writeSnapshotJson(const std::string &path);

/** Writes the flight recorder's Chrome trace JSON to @p path. */
void writeChromeTrace(const std::string &path);

/** Zeroes all metrics and clears the flight recorder. */
void resetAll();

} // namespace obs
} // namespace pimdl

#endif // PIMDL_OBS_SNAPSHOT_H
