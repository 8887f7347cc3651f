/**
 * @file
 * Per-run manifest: the provenance record a result JSON needs to be
 * comparable later. PR 5's lesson motivated this — its throughput
 * baselines were recorded on a 1-thread box and the CI gate happily
 * compared multi-thread runs against them. A manifest pins down what
 * produced the numbers: tool name, git describe of the build,
 * hardware_threads of the recording host, the full config
 * fingerprint, a flat counter dump, and the names of the other files
 * in the run bundle it heads (`wslicer-sim --obs DIR`).
 * `wslicer-report check` validates a bundle; `wslicer-report diff`
 * compares two manifests and knows (via hardware_threads) which keys
 * are not comparable across hosts.
 */

#ifndef WSL_OBS_MANIFEST_HH
#define WSL_OBS_MANIFEST_HH

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "obs/counters.hh"
#include "snapshot/format.hh"

namespace wsl {

struct GpuConfig;

/** Version string of the build ("git describe --always --dirty" at
 *  configure time; "unknown" outside a git checkout). */
std::string gitDescribeString();

/** See file comment. */
struct RunManifest
{
    static constexpr const char *schema = "wslicer-manifest-v2";

    std::string tool;         //!< e.g. "wslicer-sim corun"
    std::string gitDescribe;
    unsigned hardwareThreads = 0;
    std::string configFingerprint;
    Cycle simulatedCycles = 0; //!< 0 when not applicable
    /**
     * Snapshot provenance when the run was restored from a
     * checkpoint (format version, capture cycle, canonicalized
     * machine fingerprint); default-invalid for cold runs, in which
     * case writeJson omits the "snapshot" object entirely so cold
     * manifests are unchanged.
     */
    SnapshotInfo snapshot;
    /** The bundle's other files, in the order they were written. */
    std::vector<std::string> files;
    /** Flat name -> value counter dump; labels fold into the name as
     *  ".label.value". */
    std::vector<std::pair<std::string, double>> counters;

    void writeJson(std::ostream &os) const;
};

/**
 * Assemble a manifest for the current process: fills gitDescribe and
 * hardwareThreads, fingerprints `cfg`, and copies `counters` into the
 * counter dump.
 */
RunManifest buildRunManifest(std::string tool, const GpuConfig &cfg,
                             const std::vector<MetricSample> &counters = {},
                             Cycle simulated_cycles = 0);

} // namespace wsl

#endif // WSL_OBS_MANIFEST_HH
