/**
 * @file
 * Engine self-profiler: where does the *simulator's* wall-clock time
 * go? It wall-clock-times each of the four tick phases (SM compute,
 * request merge, partition compute, response delivery), attributes
 * every clock-skip horizon to the component that capped it, counts
 * skip effectiveness, and — at harvest — folds in the schedulers'
 * scan-vs-memo split and the solo cache's hit rate.
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

#include "common/types.hh"

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

/** Who capped a clock-skip horizon (why the clock could not jump
 *  further — or at all). */
enum class HorizonCap : unsigned
{
    PolicyDirty,      //!< kernel-set change forced an un-skipped tick
    Policy,           //!< the policy's next decision boundary
    Telemetry,        //!< the sampler's next interval boundary
    Sm,               //!< some SM's next event
    Partition,        //!< some memory partition's next event
    WatchdogDeadline, //!< capped at the no-progress deadline
    RunEnd,           //!< capped at the caller's max_cycles
    NumCaps
};

const char *horizonCapName(HorizonCap cap);

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

    void
    onSkip(Cycle cycles)
    {
        ++skipCount;
        skippedCyclesAcc += cycles;
    }

    void
    onHorizonCap(HorizonCap cap)
    {
        ++capCounts[static_cast<unsigned>(cap)];
    }

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
    std::uint64_t skips() const { return skipCount; }
    std::uint64_t skippedCycles() const { return skippedCyclesAcc; }
    std::uint64_t
    capCount(HorizonCap cap) const
    {
        return capCounts[static_cast<unsigned>(cap)];
    }
    std::uint64_t scanMemoHits() const { return memoHits; }
    std::uint64_t schedulerScans() const { return schedScans; }

    /** Full profile as one JSON object. */
    void writeJson(std::ostream &os) const;

    /** Expose every profiler counter through a registry (wsl_engine_*
     *  families). The profiler must outlive the registry's exports. */
    void registerCounters(CounterRegistry &registry) const;

  private:
    std::array<std::uint64_t,
               static_cast<unsigned>(EpochPhase::NumPhases)>
        phaseNsAcc{};
    std::array<std::uint64_t,
               static_cast<unsigned>(HorizonCap::NumCaps)>
        capCounts{};
    std::uint64_t tickCount = 0;
    std::uint64_t skipCount = 0;
    std::uint64_t skippedCyclesAcc = 0;

    // Harvested (see harvest()).
    std::uint64_t memoHits = 0;
    std::uint64_t schedScans = 0;
    std::uint64_t soloHits = 0;
    std::uint64_t soloMisses = 0;
};

} // namespace wsl

#endif // WSL_OBS_ENGINE_PROFILER_HH
