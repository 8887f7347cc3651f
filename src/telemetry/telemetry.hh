/**
 * @file
 * Interval telemetry: a sampler that snapshots the per-SM, per-
 * partition, and whole-GPU counters every N cycles and stores the
 * deltas as a bounded in-memory time series. The series exposes the
 * dynamics the aggregate counters hide — IPC, stall mix, miss rates,
 * occupancy, and the active CTA quota per kernel as the Warped-Slicer
 * controller re-partitions — and exports as tidy CSV/JSON or feeds the
 * Chrome-trace timeline exporter.
 *
 * The series is bounded: when `maxIntervals` fills up, adjacent
 * intervals merge pairwise and the sampling stride doubles, so memory
 * stays capped while interval sums remain exact (every per-interval
 * delta still totals the final cumulative counters).
 *
 * When no sampler is attached the simulator's only cost is one null-
 * pointer branch per GPU cycle.
 */

#ifndef WSL_TELEMETRY_TELEMETRY_HH
#define WSL_TELEMETRY_TELEMETRY_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "gpu/gpu.hh"

namespace wsl {

class Table;

/** Sampler controls. */
struct TelemetryConfig
{
    /** Cycles between snapshots; 0 disables the sampler entirely. */
    Cycle interval = 0;
    /** Series bound; reaching it merges interval pairs and doubles the
     *  effective stride. */
    std::size_t maxIntervals = 4096;
};

/** Counter deltas over one sampling interval. */
struct TelemetryInterval
{
    Cycle start = 0;  //!< first cycle covered (exclusive snapshot)
    Cycle end = 0;    //!< last cycle covered

    /** Whole-GPU deltas; `cycles` is the interval length. */
    GpuStats gpu;
    /** Per-SM deltas, indexed by SmId. */
    std::vector<SmStats> sms;
    /** Per-memory-partition deltas. */
    std::vector<PartitionStats> parts;

    /** CTA quota per kernel at the end of the interval (sampled on
     *  SM 0; -1 = unlimited / not launched). */
    std::array<int, maxConcurrentKernels> quotas;
    /** Resident CTAs per kernel summed over all SMs at interval end. */
    std::array<unsigned, maxConcurrentKernels> residentCtas{};

    TelemetryInterval() { quotas.fill(-1); }
};

/**
 * Interval sampler. Construct, hand to Gpu::attachTelemetry() (or
 * CoRunOptions::telemetry for harness runs), and read the series when
 * the run ends. Call finish() to flush the final partial interval so
 * the series sums exactly to the end-of-run aggregates.
 */
class TelemetrySampler
{
  public:
    explicit TelemetrySampler(const TelemetryConfig &config)
        : conf(config), sampleStride(config.interval)
    {
    }

    bool enabled() const { return conf.interval > 0; }

    /** Baseline snapshot; called by Gpu::attachTelemetry(). */
    void bind(const Gpu &gpu);

    /** Hot-path hook, called by Gpu::tick() once per cycle. */
    void
    onCycleEnd(const Gpu &gpu)
    {
        if (gpu.cycle() >= nextAt)
            capture(gpu);
    }

    /** Close the trailing partial interval (no-op on a boundary). */
    void finish(const Gpu &gpu);

    const std::vector<TelemetryInterval> &
    intervals() const
    {
        return series;
    }

    /** Current stride; > the configured interval after compactions. */
    Cycle stride() const { return sampleStride; }
    /** How many times the series was pairwise-merged to stay bounded. */
    unsigned compactions() const { return numCompactions; }
    /** Highest kernel id observed plus one. */
    std::size_t numKernels() const { return kernelsSeen; }

    /**
     * Tidy table of the series: one row per (interval, scope) with
     * scope "gpu", "sm<i>", or "part<i>". Derived rates (IPC, miss
     * rates, occupancy fractions) are computed per interval.
     */
    Table toTable() const;
    void writeCsv(std::ostream &os) const;
    void writeJson(std::ostream &os) const;

  private:
    void capture(const Gpu &gpu);
    void compact();

    TelemetryConfig conf;
    Cycle sampleStride;
    Cycle nextAt = 0;
    Cycle lastSampleCycle = 0;
    bool bound = false;
    unsigned numCompactions = 0;
    std::size_t kernelsSeen = 0;

    GpuConfig gcfg;
    std::vector<SmStats> prevSm;
    std::vector<PartitionStats> prevPart;
    std::vector<TelemetryInterval> series;
};

} // namespace wsl

#endif // WSL_TELEMETRY_TELEMETRY_HH
