/**
 * @file
 * Explainable decision log for the Dynamic (Warped-Slicer) policy.
 * The water-filling repartition is the paper's core contribution, yet
 * at runtime it has been a black box: a quota vector appears and the
 * inputs that produced it are gone. While a DecisionLog is attached
 * (WarpedSlicerPolicy::attachDecisionLog), every applied repartition
 * records its full provenance — the per-kernel scaled performance /
 * bandwidth / ALU curves fed to Algorithm 1, every candidate CTA
 * raise the algorithm considered (with the constraint that refused
 * the rejected ones), the chosen split or spatial fallback, the
 * predicted per-kernel IPC, and, once the post-decision monitor
 * window closes, the realized IPC over that window.
 *
 * Recording is strictly observational and fully deterministic (no
 * wall clock, no allocation-order dependence): two runs of the same
 * workload produce byte-identical logs at any --jobs setting, and a
 * run resumed from a checkpoint reproduces the cold run's log.
 */

#ifndef WSL_OBS_DECISION_LOG_HH
#define WSL_OBS_DECISION_LOG_HH

#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/waterfill.hh"
#include "snapshot/format.hh"

namespace wsl {

/** One applied repartition with its full provenance. */
struct DecisionLogEntry
{
    Cycle cycle = 0;      //!< cycle the decision was applied
    unsigned round = 0;   //!< profiling round that produced it
    bool feasible = false;
    bool spatial = false; //!< fell back to spatial multitasking
    double minNormPerf = 0.0;
    /** Fallback threshold the objective was compared against
     *  (lossThresholdScale / K). */
    double requiredPerf = 0.0;

    /** One partitioned kernel's inputs to Algorithm 1. */
    struct KernelInput
    {
        KernelId id = invalidKernel;
        std::string name;
        /** Scaled per-SM IPC at 1..N CTAs (Equations 3-4 applied). */
        std::vector<double> perf;
        std::vector<double> bwCurve;  //!< DRAM lines/cycle at 1..N
        std::vector<double> aluCurve; //!< ALU busy/cycle at 1..N
    };
    std::vector<KernelInput> kernels;

    /** Every candidate raise Algorithm 1 considered, in order. */
    std::vector<WaterFillStep> steps;

    std::vector<int> chosenCtas;
    std::vector<double> normPerf;

    /** Whole-GPU IPC each kernel was predicted to sustain under the
     *  decision (per-SM curve value x SMs it runs on). */
    std::vector<double> predictedIpc;
    /** Whole-GPU IPC measured over the first settled monitor window
     *  after the decision; -1 while unmeasured (or the kernel
     *  finished first). */
    std::vector<double> realizedIpc;
    /** Cycle the realized window closed (0 while unmeasured). */
    Cycle realizedAt = 0;
};

/** Append-only log of DecisionLogEntry; see file comment. */
class DecisionLog
{
  public:
    /** Append an entry; returns its index (for the later realized-IPC
     *  fill). */
    std::size_t
    record(DecisionLogEntry entry)
    {
        log.push_back(std::move(entry));
        return log.size() - 1;
    }

    std::vector<DecisionLogEntry> &entries() { return log; }
    const std::vector<DecisionLogEntry> &entries() const { return log; }

    /**
     * Record that this log belongs to a run restored from a snapshot
     * (the decisions before `info.captureCycle` were replayed from the
     * capture side's log, not recomputed). wslicer-sim sets it on
     * --restore; runCoSchedule does not, so a run it resumes keeps a
     * log byte-identical to the cold run's.
     */
    void setSnapshotProvenance(const SnapshotInfo &info)
    {
        snapshot = info;
    }
    const SnapshotInfo &snapshotProvenance() const { return snapshot; }

    /** Serialize as {"schema": "wslicer-decisions-v1", "decisions":
     *  [...]}; deterministic across thread counts. A "snapshot"
     *  provenance object is added only when setSnapshotProvenance was
     *  called. */
    void writeJson(std::ostream &os) const;

  private:
    std::vector<DecisionLogEntry> log;
    SnapshotInfo snapshot;
};

} // namespace wsl

#endif // WSL_OBS_DECISION_LOG_HH
