/**
 * @file
 * A run's counters as one plain list. Once a run is over, each
 * subsystem appends its samples to a std::vector<MetricSample>: the
 * aggregated SmStats/PartitionStats surface, the engine profiler, the
 * serving layer's SLO ledger and the process-wide harness counters.
 * The Prometheus writer and the run manifest (obs/manifest.hh) both
 * read that list.
 *
 * Counters that describe how the simulator ran rather than what the
 * machine did (phase times, ticks, scheduler scans, scan-memo hits,
 * audits) are all named wsl_engine_*; a run restored from a snapshot
 * matches the cold run on every other counter.
 */

#ifndef WSL_OBS_COUNTERS_HH
#define WSL_OBS_COUNTERS_HH

#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wsl {

struct GpuStats;

/** One counter or gauge value. */
struct MetricSample
{
    /** Prometheus-legal family name (e.g. "wsl_sm_warp_insts"). */
    std::string name;
    /** Label pairs, e.g. {{"kernel","0"},{"kind","MemLatency"}}. */
    std::vector<std::pair<std::string, std::string>> labels;
    double value = 0.0;
    /** "counter" (monotone) or "gauge". */
    const char *type = "counter";
    /** One-line help text (first sample of a family wins). */
    std::string help;
};

/** Sanitize an arbitrary metric name to [a-zA-Z_][a-zA-Z0-9_]*. */
std::string promSafeName(std::string_view raw);

/** Prometheus text exposition format: one # HELP / # TYPE header per
 *  family, its series grouped under it, families in first-seen order. */
void writePrometheus(std::ostream &os,
                     const std::vector<MetricSample> &samples);

/** Append the aggregated stats surface (flattenStats) as wsl_*
 *  counters, rates as gauges. */
void appendStatsCounters(std::vector<MetricSample> &out,
                         const GpuStats &stats);

/** Append the process-wide harness counters: solo cache hits, misses
 *  and size, batch jobs started and failed. */
void appendHarnessCounters(std::vector<MetricSample> &out);

} // namespace wsl

#endif // WSL_OBS_COUNTERS_HH
