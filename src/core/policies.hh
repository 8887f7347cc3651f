/**
 * @file
 * The baseline multiprogramming policies the paper compares against:
 * Left-Over (current GPUs' CKE behavior), Even intra-SM partitioning,
 * and Spatial inter-SM multitasking, plus a fixed-quota policy used by
 * the oracle's exhaustive CTA-combination search.
 */

#ifndef WSL_CORE_POLICIES_HH
#define WSL_CORE_POLICIES_HH

#include <vector>

#include "gpu/gpu.hh"
#include "gpu/policy.hh"

namespace wsl {

/** Kernels that are launched and not yet done. */
std::vector<KernelId> liveKernels(const Gpu &gpu);

/**
 * Compute the even-split CTA quota for a kernel: the CTAs of `params`
 * that fit into a 1/k slice of every SM resource dimension.
 */
int evenQuota(const KernelParams &params, const GpuConfig &cfg,
              unsigned num_live);

/**
 * Assign `num_sms` SMs to `num_live` kernels as evenly as possible;
 * returns the group index for each SM.
 */
std::vector<unsigned> spatialGroups(unsigned num_sms, unsigned num_live);

/**
 * Left-Over policy: the first kernel takes every resource it can; later
 * kernels fill whatever remains. No quotas, no masks — the dispatcher's
 * table-order priority produces the left-over behavior.
 */
class LeftOverPolicy : public SlicingPolicy
{
  public:
    std::string name() const override { return "LeftOver"; }
};

/**
 * Even intra-SM slicing: every live kernel may use up to 1/K of each
 * resource in every SM (paper Figure 2c).
 */
class EvenPolicy : public SlicingPolicy
{
  public:
    std::string name() const override { return "Even"; }
    void onKernelSetChanged(Gpu &gpu, Cycle now) override;
};

/**
 * Spatial multitasking (inter-SM slicing): live kernels get disjoint,
 * equally sized SM groups.
 */
class SpatialPolicy : public SlicingPolicy
{
  public:
    std::string name() const override { return "Spatial"; }
    void onKernelSetChanged(Gpu &gpu, Cycle now) override;
    bool mayDispatch(const Gpu &gpu, SmId sm,
                     KernelId kid) const override;
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;

  private:
    /** The snapshot field list; `Self` is const when saving. */
    template <class Ar, class Self> static void state(Ar &ar, Self &self);

    std::vector<KernelId> smOwner;  //!< kernel owning each SM
};

/**
 * Fixed per-kernel CTA quotas on every SM. Used by the oracle harness
 * to exhaustively evaluate CTA combinations, and in tests. When only
 * one kernel remains live its quota is lifted (paper methodology: the
 * slower benchmark may then consume all resources).
 */
class FixedQuotaPolicy : public SlicingPolicy
{
  public:
    explicit FixedQuotaPolicy(std::vector<int> quotas)
        : quotas(std::move(quotas))
    {
    }

    std::string name() const override { return "FixedQuota"; }
    void onKernelSetChanged(Gpu &gpu, Cycle now) override;
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;

  private:
    /** The snapshot field list; `Self` is const when saving. */
    template <class Ar, class Self> static void state(Ar &ar, Self &self);

    std::vector<int> quotas;
};

/**
 * Temporal multitasking with draining switches (the preemptive
 * scheduling alternative the paper contrasts in Section VI, after
 * Tanasic et al.): kernels own the whole GPU in round-robin time
 * slices; at a slice boundary the owner stops receiving CTAs and the
 * next kernel moves in as resources drain. No context is saved or
 * dropped — the cost is the drain bubble.
 */
class TimeSlicePolicy : public SlicingPolicy
{
  public:
    explicit TimeSlicePolicy(Cycle slice_cycles = 20000)
        : slice(slice_cycles)
    {
    }

    std::string name() const override { return "TimeSlice"; }
    void tick(Gpu &gpu, Cycle now) override;
    bool mayDispatch(const Gpu &gpu, SmId sm,
                     KernelId kid) const override;
    bool timeInvariant() const override { return false; }

    /** The owner only rotates at slice boundaries (the live set is
     *  constant between kernel-set changes, which re-arm the GPU's
     *  dispatch scan). */
    Cycle
    nextDecisionAt(Cycle now) const override
    {
        return (now / slice + 1) * slice;
    }

    KernelId currentOwner() const { return owner; }

    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;

  private:
    /** The snapshot field list; `Self` is const when saving. */
    template <class Ar, class Self> static void state(Ar &ar, Self &self);

    Cycle slice;
    KernelId owner = invalidKernel;
};

} // namespace wsl

#endif // WSL_CORE_POLICIES_HH
