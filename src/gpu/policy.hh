/**
 * @file
 * Interface between the GPU's kernel-aware thread-block dispatcher and a
 * multiprogramming (slicing) policy. A policy controls dispatch through
 * two levers: per-SM/per-kernel CTA quotas (SmCore::setQuota) and the
 * mayDispatch() SM mask. Concrete policies live in src/core/.
 */

#ifndef WSL_GPU_POLICY_HH
#define WSL_GPU_POLICY_HH

#include <string>

#include "common/types.hh"

namespace wsl {

class Gpu;
class SnapReader;
class SnapWriter;

/** Base class for intra-/inter-SM slicing policies. */
class SlicingPolicy
{
  public:
    virtual ~SlicingPolicy() = default;

    /** Short identifier used in reports ("LeftOver", "Dynamic", ...). */
    virtual std::string name() const = 0;

    /** Invoked when a kernel is launched, halts, or completes. */
    virtual void onKernelSetChanged(Gpu &gpu, Cycle now)
    {
        (void)gpu;
        (void)now;
    }

    /** Invoked every cycle before CTA dispatch. */
    virtual void tick(Gpu &gpu, Cycle now)
    {
        (void)gpu;
        (void)now;
    }

    /** SM mask: may `kid` receive CTAs on `sm` right now? */
    virtual bool
    mayDispatch(const Gpu &gpu, SmId sm, KernelId kid) const
    {
        (void)gpu;
        (void)sm;
        (void)kid;
        return true;
    }

    /**
     * True when tick() is a no-op and dispatch decisions depend only
     * on GPU state, never on the cycle count. Policies with temporal
     * behavior — profiling windows, time slices — must override this
     * to false.
     */
    virtual bool timeInvariant() const { return true; }

    /**
     * One-line human-readable summary of the policy's most recent
     * partitioning decision, for stall reports and post-mortems; ""
     * when the policy has made no decision (or has none to explain —
     * the default for stateless policies).
     */
    virtual std::string describeLastDecision() const { return {}; }

    /**
     * Earliest future cycle at which tick() may act or a dispatch
     * decision (quotas, mayDispatch mask) may change with the passage
     * of time alone — that is, with no intervening kernel-set change.
     * Cycles strictly between `now` and the returned value are
     * guaranteed policy no-ops, which lets the GPU's dispatcher skip
     * its placement scan while every eligible SM is full (the
     * dispatch-saturation memo). The default is conservative:
     * neverCycle for time-invariant policies (their tick() is a no-op)
     * and `now` (rescan every cycle) for temporal ones that do not
     * override.
     */
    virtual Cycle
    nextDecisionAt(Cycle now) const
    {
        return timeInvariant() ? neverCycle : now;
    }

    /**
     * Serialize policy-internal state into a machine snapshot /
     * restore it. A policy whose decisions depend on anything beyond
     * the GPU state it can re-derive (profiling windows, rotation
     * owners, applied quota vectors) must override both, each
     * forwarding to one field list (see snapshot/io.hh); the defaults
     * write and read nothing (stateless policies). The restore-side
     * policy object is freshly constructed with the same options
     * before loadState() runs.
     */
    virtual void saveState(SnapWriter &w) const { (void)w; }
    virtual void loadState(SnapReader &r) { (void)r; }
};

} // namespace wsl

#endif // WSL_GPU_POLICY_HH
