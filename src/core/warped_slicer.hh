/**
 * @file
 * The Warped-Slicer dynamic intra-SM slicing policy (the paper's
 * proposal, "Dynamic" in the evaluation figures).
 *
 * Lifecycle per kernel-set change: a warm-up period, then a short
 * profiling window in which the SMs are split between kernels and SM i
 * of a kernel's group runs (i mod N)+1 CTAs (Figure 4); per-SM IPCs are
 * scaled for bandwidth imbalance (Equations 3-4), fed to the
 * water-filling partitioner (Algorithm 1), and the resulting CTA quotas
 * are enforced on every SM. If the predicted worst-case performance
 * loss exceeds (120/K)%, the policy falls back to spatial multitasking.
 * A phase monitor re-triggers profiling on sustained IPC shifts
 * (Section IV-B).
 */

#ifndef WSL_CORE_WARPED_SLICER_HH
#define WSL_CORE_WARPED_SLICER_HH

#include <cstdint>
#include <vector>

#include "core/profiler.hh"
#include "core/waterfill.hh"
#include "gpu/gpu.hh"
#include "gpu/policy.hh"

namespace wsl {

class DecisionLog;

/** Tunables for the dynamic policy (Figure 10a sensitivity knobs). */
struct WarpedSlicerOptions
{
    Cycle warmup = 20000;         //!< cycles before the first profile
    Cycle profileLength = 5000;   //!< sampling window length
    Cycle algorithmDelay = 0;     //!< extra delay before applying quotas
    double lossThresholdScale = 1.2;  //!< fallback when a kernel
        //!< would retain < scale/K of its solo performance
    /** Fraction of peak DRAM capacity an isolated memory-bound kernel
     *  sustains; sets the fair per-SM bandwidth share used by the
     *  Equation 3 scaling. */
    double bwUtilization = 0.55;
    /** Ablation: apply the Equation 3 bandwidth scaling to samples. */
    bool bwScaling = true;
    /** Ablation: apply the shared-bandwidth interference constraint
     *  inside the water-filling partitioner. */
    bool bwConstraint = true;
    /** Fraction of the SM's ALU-pipe capacity co-resident kernels can
     *  jointly be promised (a hard issue-interference constraint); 0
     *  (the default) disables it — pipes time-multiplex gracefully, so
     *  a hard budget over-constrains; kept as an ablation knob. */
    double aluUtilization = 0.0;
    bool phaseMonitor = true;
    Cycle monitorWindow = 5000;
    double phaseDelta = 0.30;     //!< relative IPC change that counts
    unsigned sustainedWindows = 2;  //!< windows before re-profiling
    /** Monitor windows discarded after a decision before the baseline
     *  IPC is captured (lets over-quota profile CTAs drain). */
    unsigned baselineSkipWindows = 2;
    /** Minimum cycles between a decision and the next re-profile. */
    Cycle reprofileCooldown = 20000;
};

/** The dynamic Warped-Slicer policy. */
class WarpedSlicerPolicy : public SlicingPolicy
{
  public:
    explicit WarpedSlicerPolicy(WarpedSlicerOptions opts = {});

    std::string name() const override { return "Dynamic"; }
    void onKernelSetChanged(Gpu &gpu, Cycle now) override;
    void tick(Gpu &gpu, Cycle now) override;
    bool mayDispatch(const Gpu &gpu, SmId sm,
                     KernelId kid) const override;
    bool timeInvariant() const override { return false; }
    Cycle nextDecisionAt(Cycle now) const override;
    std::string describeLastDecision() const override;

    // ---- Observability (tests, Table III reporting) ----

    enum class Phase { Idle, Profiling, Delay, Enforced, Spatial };
    Phase phase() const { return currentPhase; }

    /** One applied partitioning decision. */
    struct DecisionRecord
    {
        std::vector<KernelId> live;  //!< kernels partitioned
        std::vector<int> ctas;       //!< chosen quotas (if intra-SM)
        bool spatial = false;        //!< fell back to spatial
        Cycle at = 0;
    };

    /** Every decision applied during the run, in order. */
    const std::vector<DecisionRecord> &decisionHistory() const
    {
        return history;
    }

    /** Most recent partitioning decision (valid after the first
     *  enforcement; empty ctas otherwise). */
    const WaterFillResult &lastDecision() const { return decision; }
    bool usedSpatialFallback() const
    {
        return currentPhase == Phase::Spatial;
    }
    unsigned profileRounds() const { return rounds; }
    Cycle decisionCycle() const { return decidedAt; }

    /** Per-kernel scaled perf vectors from the last profile. */
    const std::vector<std::vector<double>> &lastPerfVectors() const
    {
        return perfVectors;
    }

    /**
     * Attach (or with nullptr, detach) an explainable decision log
     * (caller-owned). Every applied repartition from then on records
     * its water-filling inputs, candidate steps, chosen split, and
     * predicted-vs-realized IPC. Purely observational: attaching
     * cannot change any decision.
     */
    void attachDecisionLog(DecisionLog *log) { dlog = log; }

    /** Full profiling/monitor/decision state, including the attached
     *  decision log's entries (replayed into the restore-side log when
     *  one is attached). Both forward to state(). */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;

  private:
    /** The snapshot field list; `Self` is const when saving. */
    template <class Ar, class Self> static void state(Ar &ar, Self &self);

    void startProfiling(Gpu &gpu, Cycle now);
    void applyProfileConfig(Gpu &gpu);
    void takeSnapshot(Gpu &gpu);
    void collectSamples(Gpu &gpu);
    void computeDecision(Gpu &gpu);
    void applyDecision(Gpu &gpu, Cycle now);

    WarpedSlicerOptions opts;
    Phase currentPhase = Phase::Idle;

    std::vector<KernelId> live;      //!< kernels being partitioned
    std::vector<KernelId> smOwner;   //!< profile/spatial SM masks
    std::vector<unsigned> smProfileCtas;  //!< CTA count an SM samples

    Cycle profileStart = 0;
    Cycle profileEnd = 0;
    Cycle applyAt = 0;
    bool snapshotTaken = false;
    /** With >2 kernels an SM group is smaller than the CTA-count
     *  range, so profiling time-shares sub-windows, each sampling a
     *  different quota staircase (Section IV-A). */
    unsigned subWindow = 0;
    unsigned numSubWindows = 1;
    std::vector<std::vector<ProfileSample>> collected;

    struct SmSnapshot
    {
        std::uint64_t kernelInsts = 0;
        std::uint64_t memStalls = 0;
        std::uint64_t l1Misses = 0;
        std::uint64_t aluBusy = 0;
        unsigned resident = 0;  //!< owner's CTAs at window start
    };
    std::vector<SmSnapshot> snapshots;

    WaterFillResult decision;
    std::vector<DecisionRecord> history;
    std::vector<std::vector<double>> perfVectors;
    /** Measured shared-resource demand curves matching perfVectors
     *  (kept for the decision log's provenance record). */
    std::vector<std::vector<double>> bwVectors;
    std::vector<std::vector<double>> aluVectors;
    bool pendingSpatial = false;
    unsigned rounds = 0;
    Cycle decidedAt = 0;

    // Decision-log plumbing (nullptr = disabled).
    DecisionLog *dlog = nullptr;
    /** Index of the last recorded entry whose realized-IPC window has
     *  not closed yet; <0 when none pending. */
    std::ptrdiff_t pendingRealized = -1;

    // Phase monitor state.
    Cycle monitorStart = 0;
    std::vector<std::uint64_t> monitorInstSnapshot;
    std::vector<double> baselineIpc;
    unsigned deviatedWindows = 0;
    unsigned windowsSinceDecision = 0;
};

} // namespace wsl

#endif // WSL_CORE_WARPED_SLICER_HH
