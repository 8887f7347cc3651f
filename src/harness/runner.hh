/**
 * @file
 * Experiment harness implementing the paper's Section V-A methodology:
 * characterize each benchmark alone for a fixed cycle window to fix its
 * instruction target, then co-run benchmark sets under a policy until
 * every app reaches its own target, halting (and releasing the
 * resources of) each app as it finishes.
 */

#ifndef WSL_HARNESS_RUNNER_HH
#define WSL_HARNESS_RUNNER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/histogram.hh"
#include "common/stats.hh"
#include "core/warped_slicer.hh"
#include "gpu/gpu.hh"
#include "metrics/metrics.hh"
#include "workloads/benchmarks.hh"

namespace wsl {

class DecisionLog;
class EngineProfiler;

/** The multiprogramming approaches compared in the evaluation. */
enum class PolicyKind { LeftOver, Even, Spatial, Dynamic };

const char *policyName(PolicyKind kind);

/** Instantiate a policy object. */
std::unique_ptr<SlicingPolicy> makePolicy(
    PolicyKind kind, const WarpedSlicerOptions &slicer_opts = {});

/**
 * Characterization / solo-run window in cycles. The paper uses 2 M;
 * the default here is 100 K for laptop-scale turnaround and can be
 * overridden with the WSL_WINDOW environment variable.
 */
Cycle defaultWindow();

/** Result of running one kernel alone. */
struct SoloResult
{
    Cycle cycles = 0;
    std::uint64_t threadInsts = 0;
    std::uint64_t warpInsts = 0;
    GpuStats stats;

    double warpIpc() const
    {
        return cycles ? static_cast<double>(warpInsts) / cycles : 0.0;
    }
};

/**
 * Run a kernel alone for a fixed number of cycles (Table II style).
 * `cta_quota` caps resident CTAs per SM (-1 = unlimited), which is how
 * the Figure 3a occupancy sweep is produced.
 */
SoloResult runSoloForCycles(const KernelParams &params,
                            const GpuConfig &cfg, Cycle cycles,
                            int cta_quota = -1);

/** Run a kernel alone until it executes `target` thread instructions. */
SoloResult runSoloToTarget(const KernelParams &params,
                           const GpuConfig &cfg, std::uint64_t target,
                           Cycle max_cycles);

/**
 * Warped-Slicer options scaled to a characterization window. The paper
 * warms up 20 K and profiles 5 K cycles of a 2 M-cycle run (~1.25%);
 * shrunken windows keep those proportions so the one-time decision
 * overhead stays amortizable.
 */
WarpedSlicerOptions scaledSlicerOptions(Cycle window);

/** Co-run controls. */
struct CoRunOptions
{
    /** Absolute end cycle of the run (kernels may drain earlier).
     *  A run restored from a snapshot continues up to the same
     *  absolute cycle, so restored and cold runs cover the same
     *  simulated interval. */
    Cycle maxCycles = 8'000'000;
    WarpedSlicerOptions slicer{};
    /** Explicit per-kernel CTA quotas; non-empty selects the
     *  fixed-quota (oracle search) policy regardless of `kind`. */
    std::vector<int> fixedQuotas;
    /**
     * Optional interval sampler (owned by the caller, attached for the
     * run). When set, CoRunResult's histograms are populated and the
     * sampler's series covers the whole run.
     */
    TelemetrySampler *telemetry = nullptr;
    /**
     * Optional engine self-profiler (owned by the caller). Attached
     * for the run and harvested before the Gpu is destroyed; the
     * simulation itself is bit-identical with or without it.
     */
    EngineProfiler *profiler = nullptr;
    /**
     * Optional Dynamic-policy decision log (owned by the caller).
     * Only meaningful with PolicyKind::Dynamic; ignored otherwise.
     */
    DecisionLog *decisionLog = nullptr;

    // ---- Checkpoint controls (snapshot engine) ----

    /** Resume from this snapshot file instead of launching fresh
     *  kernels; the file's kernel set must match `apps`/`targets`. */
    std::string restorePath;

    /** Write a checkpoint to this path (atomically) when snapshotAt
     *  or checkpointEvery triggers. */
    std::string snapshotPath;
    /** One-shot checkpoint at this absolute cycle (0 = off). */
    Cycle snapshotAt = 0;
    /** Periodic checkpoints every N cycles so an interrupted sweep
     *  resumes from the last completed epoch (0 = off). */
    Cycle checkpointEvery = 0;
};

/**
 * Per-job failure record for fault-isolated sweeps. A SimError thrown
 * inside one job of runCoScheduleBatch is caught and recorded here
 * instead of tearing down the whole sweep; the job's CoRunResult keeps
 * its defaults and the remaining jobs run to completion.
 */
struct JobError
{
    bool failed = false;
    /** SimError kind ("internal", "invariant", "deadlock", "config"). */
    std::string kind;
    std::string message;
};

/** Process-wide runCoScheduleBatch telemetry, fed to the counter
 *  registry by registerHarnessCounters. Monotonic across all batches
 *  this process ran. */
std::uint64_t batchJobsRun();
std::uint64_t batchJobsFailed();
/** Shim that reads zero; see HorizonCap in obs/engine_profiler.hh. */
std::uint64_t batchRetries();

/** Result of one co-scheduled run. */
struct CoRunResult
{
    Cycle makespan = 0;
    std::vector<AppOutcome> apps;  //!< aloneCycles filled by caller
    GpuStats stats;
    double sysIpc = 0.0;  //!< total insts (warp) / makespan
    /** Dynamic-policy introspection (empty otherwise). */
    std::vector<int> chosenCtas;
    bool spatialFallback = false;
    bool completed = true;  //!< false if maxCycles hit first

    // Telemetry harvest (populated only when CoRunOptions::telemetry
    // is set; harvested before the Gpu is destroyed).
    /** Issue-to-writeback load latency per kernel, merged over SMs. */
    std::array<Histogram, maxConcurrentKernels> memLatency{};
    /** L2 MSHR occupancy per cycle, merged over partitions. */
    Histogram mshrOccupancy;
    /** DRAM scheduling-queue depth per cycle, merged over partitions. */
    Histogram dramQueueDepth;

    /** Failure record (batch runs only; default = job succeeded). */
    JobError error;
};

/**
 * Co-run `apps` under `kind`; each app halts at its thread-instruction
 * target from `targets`.
 */
CoRunResult runCoSchedule(const std::vector<KernelParams> &apps,
                          const std::vector<std::uint64_t> &targets,
                          PolicyKind kind, const GpuConfig &cfg,
                          const CoRunOptions &opts = {});

/**
 * Benchmark characterization: thread-instruction targets and solo
 * statistics from a `window`-cycle isolated run of each benchmark.
 * Results are memoized in the process-wide SoloCache, so concurrent
 * lookups are safe and repeated windows/configs never re-simulate.
 */
class Characterization
{
  public:
    Characterization(const GpuConfig &cfg, Cycle window);

    /** Thread-instruction target for a benchmark (computed lazily). */
    std::uint64_t target(const std::string &name);

    /** Full solo stats for the characterization run. */
    const SoloResult &solo(const std::string &name);

    /** Solo cycles to reach the benchmark's own target ( == window). */
    Cycle aloneCycles(const std::string &name);

    /**
     * Characterize `names` (duplicates welcome) up front, fanning the
     * solo runs out over `jobs` worker threads. Purely a warm-up: the
     * later lazy lookups then all hit the cache.
     */
    void prewarm(const std::vector<std::string> &names, unsigned jobs);

    Cycle window() const { return windowCycles; }
    const GpuConfig &config() const { return cfg; }

  private:
    GpuConfig cfg;
    Cycle windowCycles;
};

/** One entry of a parallel co-run sweep. */
struct CoRunJob
{
    std::vector<std::string> apps;  //!< benchmark names to co-run
    PolicyKind kind = PolicyKind::LeftOver;
    CoRunOptions opts{};  //!< per-job telemetry samplers must be distinct
};

/**
 * Evaluate a batch of co-run jobs on `jobs` worker threads: solo
 * characterizations for every referenced benchmark first (memoized, in
 * parallel), then the co-run matrix. Results come back in input order
 * and are bit-identical to running each job serially — every
 * simulation is self-contained and seeded from its own config.
 *
 * Jobs are fault-isolated: a SimError (bad config, invariant
 * violation, watchdog deadlock) in one job is recorded in that job's
 * CoRunResult::error and the remaining jobs still run.
 */
std::vector<CoRunResult> runCoScheduleBatch(
    Characterization &chars, const std::vector<CoRunJob> &batch,
    unsigned jobs);

/**
 * Enumerate feasible CTA-quota combinations (each kernel >= 1 CTA, all
 * four resource dimensions respected) for the oracle's exhaustive
 * search.
 */
std::vector<std::vector<int>> enumerateFeasibleCombos(
    const std::vector<KernelParams> &apps, const GpuConfig &cfg);

} // namespace wsl

#endif // WSL_HARNESS_RUNNER_HH
