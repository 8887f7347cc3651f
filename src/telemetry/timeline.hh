/**
 * @file
 * Chrome trace-event JSON export (the format ui.perfetto.dev and
 * chrome://tracing load). Converts a TelemetrySampler's lifecycle
 * events and interval series into a timeline: one slice track per
 * kernel, instant-event tracks per SM, and counter tracks (IPC, miss
 * rates, resident CTAs) per SM, kernel, and memory partition.
 * Timestamps are simulation cycles.
 */

#ifndef WSL_TELEMETRY_TIMELINE_HH
#define WSL_TELEMETRY_TIMELINE_HH

#include <ostream>

#include "common/types.hh"

namespace wsl {

class TelemetrySampler;

/**
 * Write a complete Chrome trace-event JSON document.
 *
 * @param os         destination stream
 * @param sampler    the run's sampler: its events give the slices and
 *                   instants, its interval series the counter tracks
 * @param end_cycle  cycle used to close slices still open at the end
 */
void writeChromeTrace(std::ostream &os, const TelemetrySampler &sampler,
                      Cycle end_cycle);

} // namespace wsl

#endif // WSL_TELEMETRY_TIMELINE_HH
