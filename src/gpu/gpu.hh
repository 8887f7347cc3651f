/**
 * @file
 * Whole-GPU model: 16 SMs, 6 memory partitions, a kernel table with
 * Hyper-Q-style concurrent kernel launch, and a kernel-aware thread
 * block dispatcher driven by a pluggable slicing policy.
 */

#ifndef WSL_GPU_GPU_HH
#define WSL_GPU_GPU_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "check/auditor.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "gpu/kernel.hh"
#include "gpu/policy.hh"
#include "gpu/staging.hh"
#include "mem/partition.hh"
#include "sm/sm_core.hh"

namespace wsl {

class EngineProfiler;
class TelemetrySampler;
struct SnapshotAccess;

/**
 * The simulated GPU. Construct, launch kernels, then tick (or run()).
 * The policy owns all partitioning decisions; the GPU provides the
 * generic dispatch mechanism.
 */
class Gpu
{
  public:
    Gpu(const GpuConfig &cfg, std::unique_ptr<SlicingPolicy> policy);

    /**
     * Add a kernel to the kernel table.
     *
     * @param params       the kernel model
     * @param inst_target  thread instructions to execute before the
     *                     harness halts the kernel (0 = run the grid)
     */
    KernelId launchKernel(const KernelParams &params,
                          std::uint64_t inst_target = 0);

    /**
     * Preempt a kernel: forcibly retire its resident CTAs on every SM,
     * release its resources, and mark it done/halted as if it had hit
     * its instruction target. Legal between ticks (any cycle
     * boundary). The policy observes the shrunken kernel set exactly
     * as it does for an organic halt, so the survivors are
     * repartitioned on the next decision boundary. The serving layer
     * uses this for quota-driven preemption and for cutting a
     * quarantined tenant's kernel loose mid-batch; executed-work
     * accounting (kernelThreadInsts) survives the eviction, so a
     * preempted job resumes from its instruction-level checkpoint
     * rather than from scratch.
     */
    void haltKernel(KernelId kid);

    /** Advance one core cycle. */
    void tick();

    /**
     * Tick until every kernel is done or `max_cycles` elapse, and
     * return the cycles actually simulated (less than `max_cycles`
     * when the kernels drain early). Every cycle is ticked; the
     * auditor and the watchdog check the machine after each tick.
     */
    Cycle run(Cycle max_cycles);

    Cycle cycle() const { return now; }
    bool allKernelsDone() const;

    // ---- Component access (used by policies, tests, the harness) ----
    unsigned numSms() const { return static_cast<unsigned>(sms.size()); }
    SmCore &sm(SmId id) { return *sms[id]; }
    const SmCore &sm(SmId id) const { return *sms[id]; }
    std::size_t numKernels() const { return kernels.size(); }
    KernelInstance &kernel(KernelId kid) { return *kernels[kid]; }
    const KernelInstance &kernel(KernelId kid) const
    {
        return *kernels[kid];
    }
    const GpuConfig &config() const { return cfg; }
    SlicingPolicy &slicingPolicy() { return *policy; }
    const SlicingPolicy &slicingPolicy() const { return *policy; }
    MemPartition &partition(unsigned i) { return *partitions[i]; }
    const MemPartition &partition(unsigned i) const
    {
        return *partitions[i];
    }
    unsigned numPartitions() const
    {
        return static_cast<unsigned>(partitions.size());
    }

    /** Thread instructions kernel `kid` has executed (all SMs). */
    std::uint64_t kernelThreadInsts(KernelId kid) const;
    /** Warp instructions kernel `kid` has executed (all SMs). */
    std::uint64_t kernelWarpInsts(KernelId kid) const;

    /** Aggregate counters over all SMs and partitions. */
    GpuStats collectStats() const;

    /**
     * Attach (or with nullptr, detach) an interval telemetry sampler.
     * Attaching also switches on the latency/queue-depth histogram
     * recording in every SM and memory partition. With no sampler
     * attached the per-tick cost is a single null-pointer branch.
     */
    void attachTelemetry(TelemetrySampler *sampler);
    TelemetrySampler *telemetry() const { return telem; }

    /**
     * Attach (or with nullptr, detach) the engine self-profiler. While
     * attached, every tick phase is wall-clock-timed; the profiler
     * never feeds back into simulation decisions, so attaching it
     * cannot change simulated state.
     */
    void attachEngineProfiler(EngineProfiler *profiler);
    EngineProfiler *engineProfiler() const { return prof; }

    /** The invariant auditor, when cfg.auditCadence enabled one
     *  (nullptr otherwise). Exposed so tests and tools can register
     *  extra checks or read the audit count. */
    Auditor *integrityAuditor() { return auditor.get(); }
    const Auditor *integrityAuditor() const { return auditor.get(); }

    /** The ordered SM <-> partition traffic merge (conservation
     *  counters for the auditor's staging check). */
    const InterconnectStage &interconnect() const { return icnt; }

  private:
    friend struct SnapshotAccess;

    void dispatch();

    /**
     * Compute phases of a tick: every SM (then, after the request
     * merge, every partition) ticks in index order, touching only its
     * own state; cross-component traffic waits, staged, for the
     * interconnect stage.
     */
    void tickSms();
    void tickPartitions();

    void drainCtaEvents();
    void checkKernelProgress();

    /**
     * Monotone sum of the machine's forward-progress counters
     * (instruction issue, fetch, CTA launch, L1/L2/DRAM activity):
     * unchanged across a tick iff nothing observable happened. The
     * no-progress watchdog compares it against the last value.
     */
    std::uint64_t progressSignature() const;

    /** Throw DeadlockError when warps are resident but the progress
     *  signature has been flat for cfg.watchdogCycles cycles. */
    void checkWatchdog();

    const GpuConfig cfg;
    std::unique_ptr<SlicingPolicy> policy;
    std::vector<std::unique_ptr<SmCore>> sms;
    std::vector<std::unique_ptr<MemPartition>> partitions;
    std::vector<std::unique_ptr<KernelInstance>> kernels;
    TelemetrySampler *telem = nullptr;
    EngineProfiler *prof = nullptr;
    std::unique_ptr<Auditor> auditor;
    Cycle now = 0;

    /** Raw component pointers, built once: the interconnect stage
     *  iterates these without touching the unique_ptr vectors each
     *  cycle. */
    std::vector<SmCore *> smPtrs;
    std::vector<MemPartition *> partPtrs;
    InterconnectStage icnt;

    // No-progress watchdog state (used only when cfg.watchdogCycles).
    Cycle lastProgressCycle = 0;
    std::uint64_t lastProgressSig = 0;

    /** Pending-CTA scan re-arm: set on kernel launch, CTA completion,
     *  and kernel-set changes; quota writes are caught by comparing
     *  the SMs' quota generation sum. Cleared once every grid is
     *  fully issued (pending-ness is monotone between launches). */
    bool ctaDispatchDirty = true;
    std::uint64_t quotaGenSeen = ~std::uint64_t{0};

    /** Placement-saturation memo: the last dispatch scan placed
     *  nothing, and nothing can change that before the policy's next
     *  decision boundary — mayDispatch answers are time-invariant
     *  until then, and resource/quota/grid changes all clear the memo
     *  alongside setting ctaDispatchDirty. Skips the per-tick
     *  SM x kernel placement scan while every eligible SM is full. */
    bool dispatchBlocked = false;
    Cycle dispatchBlockedUntil = 0;
};

} // namespace wsl

#endif // WSL_GPU_GPU_HH
