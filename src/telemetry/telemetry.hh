/**
 * @file
 * Interval telemetry: a sampler that snapshots the per-SM, per-
 * partition, and whole-GPU counters every N cycles and stores the
 * deltas as a bounded in-memory time series. The series exposes the
 * dynamics the aggregate counters hide — IPC, stall mix, miss rates,
 * occupancy, and the active CTA quota per kernel as the Warped-Slicer
 * controller re-partitions — and exports as tidy CSV or feeds the
 * Chrome-trace timeline exporter.
 *
 * The series is bounded: when `maxIntervals` fills up, adjacent
 * intervals merge pairwise and the sampling stride doubles, so memory
 * stays capped while interval sums remain exact (every per-interval
 * delta still totals the final cumulative counters).
 *
 * The sampler also keeps the machine's lifecycle events for the
 * timeline: kernel and CTA launches and completions, recorded by the
 * Gpu it is attached to, and the Dynamic policy's profiling rounds and
 * decisions, recorded through that same Gpu.
 *
 * When no sampler is attached the simulator's only cost is one null-
 * pointer branch per GPU cycle and per lifecycle event.
 */

#ifndef WSL_TELEMETRY_TELEMETRY_HH
#define WSL_TELEMETRY_TELEMETRY_HH

#include <array>
#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
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

/** Lifecycle events the sampler records. */
enum class SimEvent : std::uint8_t
{
    CtaLaunch,     //!< a = CTA id, b = SM
    CtaComplete,   //!< a = the kernel's completed-CTA count, b = SM
    KernelLaunch,  //!< a = grid dim
    KernelFinish,  //!< a = 1 if halted at its target, 0 if grid done
    ProfileStart,  //!< a = profiling round
    Decision,      //!< quotas = the split, b = 1 on the spatial fallback
    Reprofile,     //!< a = profiling round
};

/** One recorded lifecycle event. */
struct SimEventRecord
{
    Cycle cycle = 0;
    SimEvent event = SimEvent::CtaLaunch;
    KernelId kernel = invalidKernel;  //!< invalidKernel: policy events
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    /** Decision only: CTA quota per live kernel, in live order; zero
     *  past the last live kernel (every live kernel gets >= 1). */
    std::array<std::uint16_t, maxConcurrentKernels> quotas{};
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
    /** Events kept; past this bound the oldest are dropped. */
    static constexpr std::size_t maxEvents = std::size_t{1} << 20;

    explicit TelemetrySampler(const TelemetryConfig &config)
        : conf(config), sampleStride(config.interval)
    {
    }

    bool enabled() const { return conf.interval > 0; }

    /**
     * Baseline snapshot; called by Gpu::attachTelemetry(). Kernels
     * already in the table are recorded as launched, so a sampler
     * attached after a snapshot restore still names every kernel.
     */
    void bind(const Gpu &gpu);

    // ---- Lifecycle events (recorded by the attached Gpu and its
    // policy) ----

    void
    record(Cycle cycle, SimEvent event, KernelId kernel,
           std::uint32_t a = 0, std::uint32_t b = 0)
    {
        if (log.size() >= maxEvents)
            log.pop_front();
        log.push_back({cycle, event, kernel, a, b, {}});
    }
    /** A KernelLaunch event; keeps the kernel table's name for it. */
    void recordLaunch(const KernelInstance &k);
    /** A Decision event carrying the per-live-kernel CTA quotas. */
    void recordDecision(Cycle cycle, const std::vector<int> &ctas,
                        bool spatial);

    const std::deque<SimEventRecord> &events() const { return log; }
    /** Name of a launched kernel, or "" for an unknown id. */
    const std::string &kernelName(KernelId kid) const;

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

    std::deque<SimEventRecord> log;
    std::vector<std::string> names;  //!< indexed by KernelId
};

} // namespace wsl

#endif // WSL_TELEMETRY_TELEMETRY_HH
