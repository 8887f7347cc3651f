/**
 * @file
 * Engine self-profiler: where does the *simulator's* wall-clock time
 * go? It wall-clock-times each of the four tick phases (SM compute,
 * request merge, partition compute, response delivery), counts ticks,
 * and — at harvest — folds in the schedulers' scan-vs-memo split and
 * the solo cache's hit rate.
 *
 * Guarantee: the profiler only *observes*. It accumulates wall-clock
 * durations and event counts; nothing it records ever feeds back into
 * a simulation decision, so an attached profiler cannot perturb
 * simulated cycles or statistics (a bit-identity test enforces this).
 * Detached (the Gpu's default), the hot-path cost is one null-pointer
 * branch per tick — the same pattern as the telemetry sampler.
 */

#ifndef WSL_OBS_ENGINE_PROFILER_HH
#define WSL_OBS_ENGINE_PROFILER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>

namespace wsl {

class CounterRegistry;
class Gpu;

/** The four phases of one Gpu::tick() (two compute phases, each
 *  followed by an ordered interconnect transfer). */
enum class EpochPhase : unsigned
{
    SmCompute,         //!< SmCore::tick over all SMs
    IcntMergeRequests, //!< ordered request merge
    PartitionCompute,  //!< MemPartition::tick over all partitions
    IcntDeliver,       //!< ordered response delivery
    NumPhases
};

const char *epochPhaseName(EpochPhase phase);

// Compatibility shims for the end-to-end benchmark, which still
// reports clock-skip rows: HorizonCap, EngineProfiler::capCount and
// EngineProfiler::skippedCycles here, and batchRetries() in
// harness/runner.hh. Every cycle is ticked, so they all read zero. A
// benchmark change that drops gpu.skipped_cycles, gpu.skip_ratio,
// gpu.horizon_cap.* and harness.retries deletes them.
enum class HorizonCap : unsigned
{
    PolicyDirty,
    Policy,
    Sm,
    Partition,
    RunEnd
};

/** See file comment. Attach via Gpu::attachEngineProfiler(). */
class EngineProfiler
{
  public:
    using Clock = std::chrono::steady_clock;

    // ---- Hot-path hooks (called by Gpu only while attached) ----

    /** Monotonic timestamp for phase bracketing. */
    static std::uint64_t
    timestampNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now().time_since_epoch())
                .count());
    }

    void
    onPhaseNs(EpochPhase phase, std::uint64_t ns)
    {
        phaseNsAcc[static_cast<unsigned>(phase)] += ns;
    }

    void onTick() { ++tickCount; }

    // ---- Harvest & export ----

    /**
     * Pull the cross-component engine counters out of a finished (or
     * paused) machine: scheduler scan/memo split, solo-cache hits.
     * Call before the Gpu is destroyed; safe to call repeatedly
     * (overwrites, no accumulation).
     */
    void harvest(const Gpu &gpu);

    // ---- Accessors (bench_hotpath, tests) ----

    std::uint64_t
    phaseNs(EpochPhase phase) const
    {
        return phaseNsAcc[static_cast<unsigned>(phase)];
    }
    std::uint64_t ticks() const { return tickCount; }
    std::uint64_t scanMemoHits() const { return memoHits; }
    std::uint64_t schedulerScans() const { return schedScans; }

    /** Shims: see HorizonCap. */
    std::uint64_t skippedCycles() const { return 0; }
    std::uint64_t capCount(HorizonCap) const { return 0; }

    /** Full profile as one JSON object. */
    void writeJson(std::ostream &os) const;

    /** Expose every profiler counter through a registry (wsl_engine_*
     *  families). The profiler must outlive the registry's exports. */
    void registerCounters(CounterRegistry &registry) const;

  private:
    std::array<std::uint64_t,
               static_cast<unsigned>(EpochPhase::NumPhases)>
        phaseNsAcc{};
    std::uint64_t tickCount = 0;

    // Harvested (see harvest()).
    std::uint64_t memoHits = 0;
    std::uint64_t schedScans = 0;
    std::uint64_t soloHits = 0;
    std::uint64_t soloMisses = 0;
};

} // namespace wsl

#endif // WSL_OBS_ENGINE_PROFILER_HH
