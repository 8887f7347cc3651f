/**
 * @file
 * Cycle-level streaming multiprocessor model: dual warp schedulers
 * (GTO/LRR), per-warp scoreboard, i-buffer fetch stage, ALU/SFU/LDST
 * pipelines, an L1 data cache with MSHRs, CTA slots, and a barrier unit.
 * Multiple kernels may be resident simultaneously; per-kernel CTA quotas
 * are enforced by the dispatcher using setQuota().
 */

#ifndef WSL_SM_SM_CORE_HH
#define WSL_SM_SM_CORE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/histogram.hh"
#include "common/log.hh"
#include "common/ring.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/request.hh"
#include "sm/resources.hh"
#include "sm/warp.hh"
#include "sm/warp_soa.hh"

namespace wsl {

struct AuditAccess;
struct SnapshotAccess;

/**
 * A timing wheel of timingWheelSlots FIFO slots threaded through one
 * entry pool. Each slot is a head and a tail index into the pool, and
 * each entry links to the next one in its slot, so a slot drains in
 * push order. Drained entries go onto a free list that later pushes
 * reuse: once the pool has grown to the most entries ever in flight,
 * the wheel allocates nothing. An entry due at cycle `due` lives in
 * slot `due % slots` and is drained by the first drain(now) with
 * `now % slots` equal to it, so a latency must be 1 to slots - 1
 * (GpuConfig::validate() and Gpu::launchKernel enforce that).
 */
template <class T>
class TimingWheel
{
  public:
    using value_type = T;
    static constexpr unsigned slots = timingWheelSlots;
    /** Most live entries: indices are 16-bit and one value ends a
     *  list. */
    static constexpr std::size_t capacity = 0xffff;

    /** Live entries across all slots. */
    unsigned size() const { return live; }

    /** Append `v` to the slot of cycle `due`. */
    void
    push(Cycle due, const T &v)
    {
        std::uint16_t n = freeList;
        if (n != none) {
            freeList = pool[n].next;
            pool[n] = {v, none};
        } else {
            WSL_ASSERT(pool.size() < capacity, "timing wheel pool full");
            n = static_cast<std::uint16_t>(pool.size());
            pool.push_back({v, none});
        }
        Ends &e = ends[due % slots];
        if (e.head == none)
            e.head = n;
        else
            pool[e.tail].next = n;
        e.tail = n;
        ++live;
    }

    /** Remove the entries of cycle `now`'s slot and pass each, in push
     *  order, to `each`, which may push onto this wheel. */
    template <class F>
    void
    drain(Cycle now, F &&each)
    {
        Ends &e = ends[now % slots];
        const std::uint16_t first = e.head;
        if (first == none)
            return;
        e = {};
        std::uint16_t last = first;
        for (std::uint16_t n = first; n != none; n = pool[last].next) {
            last = n;
            --live;
            const T v = pool[n].value;
            each(v);
        }
        pool[last].next = freeList;
        freeList = first;
    }

    /** Pass the entries of slot `slot % slots`, in push order, to
     *  `each`. */
    template <class F>
    void
    forEachIn(Cycle slot, F &&each) const
    {
        for (std::uint16_t n = ends[slot % slots].head; n != none;
             n = pool[n].next)
            each(pool[n].value);
    }

    /** Every live entry, slot by slot. */
    template <class F>
    void
    forEach(F &&each) const
    {
        for (unsigned s = 0; s < slots; ++s)
            forEachIn(s, each);
    }

    /** Drop every entry. */
    void
    clear()
    {
        ends.fill({});
        pool.clear();
        freeList = none;
        live = 0;
    }

  private:
    static constexpr std::uint16_t none = 0xffff;

    struct Node
    {
        T value;
        std::uint16_t next;
    };
    struct Ends
    {
        std::uint16_t head = none;
        std::uint16_t tail = none;
    };

    std::array<Ends, slots> ends{};
    std::vector<Node> pool;
    std::uint16_t freeList = none;
    unsigned live = 0;
};

/**
 * One SM. The core is self-contained: the GPU object launches CTAs into
 * it, drains its outgoing memory requests, and delivers responses.
 */
class SmCore
{
  public:
    SmCore(const GpuConfig &cfg, SmId id);

    // ---- CTA / kernel management ----

    /** True if the resource pool can hold one more CTA of `params`. */
    bool canAcceptCta(const KernelParams &params) const;

    /**
     * Install a CTA. Returns false if resources or slots are exhausted.
     * `kernel_base` is the kernel's global-memory allocation base.
     */
    bool launchCta(KernelId kid, const KernelParams &params,
                   const KernelProgram &program, unsigned cta_global_id,
                   Addr kernel_base, Cycle now);

    /** Forcibly retire every CTA of a kernel and free its resources
     *  (used when a kernel reaches its instruction target). */
    void evictKernel(KernelId kid);

    /** Resident CTAs of one kernel. */
    unsigned residentCtas(KernelId kid) const;
    /** Resident CTAs of all kernels. */
    unsigned totalResidentCtas() const;

    /** Per-kernel CTA quota; -1 means unlimited. */
    void setQuota(KernelId kid, int max_ctas);
    int quota(KernelId kid) const;
    void clearQuotas();

    /** Bumped on every quota mutation; the GPU dispatcher re-arms its
     *  pending-CTA scan when the sum across SMs moves (policies write
     *  quotas directly, so there is no other signal). */
    std::uint32_t quotaGeneration() const { return quotaGen; }

    // ---- Simulation ----

    /** Advance one core cycle. */
    void tick(Cycle now);

    /** True if no live warps are resident. */
    bool idle() const { return liveWarps == 0; }

    /**
     * True when this core has no live warps and no in-flight work:
     * ticking it can only burn Idle scheduler slots. The GPU then
     * substitutes idleTick(), which accounts the identical counters
     * without running the pipeline.
     */
    bool
    quiescent(Cycle now) const
    {
        return liveWarps == 0 && activeLoads == 0 &&
               outRequests.empty() && respQueue.empty() &&
               ldstBusyUntil <= now;
    }

    /**
     * Account one cycle of a quiescent() core exactly as tick() would:
     * cycle counter, resource integrals, LDST busy accounting under
     * MSHR pressure, and an Idle charge on every scheduler.
     */
    void idleTick();

    // ---- Memory-system interface (driven by the GPU object) ----

    /** Requests awaiting routing to memory partitions, oldest first. */
    const std::vector<MemRequest> &
    outgoingRequests() const
    {
        return outRequests;
    }

    /** Bit `p % 64` of the home partition p of every staged request.
     *  Above 64 partitions it may cover partitions no staged request
     *  is bound for, never fewer. */
    std::uint64_t stagedPartitions() const { return stagedPartMask; }

    /** Append one request to the staging queue: the only way a
     *  request is staged, so stagedPartitions() always covers it. */
    void
    stageRequest(const MemRequest &req)
    {
        outRequests.push_back(req);
        stagedPartMask |=
            partitionBit(partitionOf(req.line, cfg.numMemPartitions));
    }

    /**
     * Offer every staged request, oldest first, to
     * `route(req, home_partition)`; the ones it refuses (returns false
     * for) stay staged in order. Recomputes stagedPartitions() from
     * the kept requests, and when any request left, invalidates the
     * memoized scheduler scans: the freed queue room can lift
     * miss-queue backpressure.
     */
    template <class Route>
    void
    routeStaged(Route &&route)
    {
        std::size_t kept = 0;
        std::uint64_t keptMask = 0;
        for (std::size_t i = 0; i < outRequests.size(); ++i) {
            const unsigned home =
                partitionOf(outRequests[i].line, cfg.numMemPartitions);
            if (!route(outRequests[i], home)) {
                keptMask |= partitionBit(home);
                outRequests[kept++] = outRequests[i];
            }
        }
        stagedPartMask = keptMask;
        if (kept < outRequests.size()) {
            outRequests.resize(kept);
            invalidateScanCache();
        }
    }

    /** Deliver a line fill from a memory partition. */
    void deliverResponse(const MemResponse &resp);

    // ---- Events & observability ----

    /** Kernel ids whose CTAs completed since the last drain. */
    std::vector<KernelId> &completedCtaEvents() { return ctaCompletions; }

    const SmStats &stats() const { return smStats; }
    SmStats &mutableStats() { return smStats; }
    const ResourcePool &pool() const { return resourcePool; }
    const Cache &l1Cache() const { return l1; }
    SmId id() const { return smId; }

    // Engine-meta counters: how the *simulator* ran, not what the
    // simulated machine did. Deliberately NOT in SmStats — a restored
    // run restarts them at zero, so folding them into the identity
    // surface would break the bit-identity gates.

    /** Scheduler scans answered by replaying the failed-scan memo. */
    std::uint64_t scanMemoHits() const { return engineScanMemoHits; }
    /** Full O(warps) scheduler issue scans executed. */
    std::uint64_t schedulerScans() const { return engineSchedScans; }

    /**
     * Switch the telemetry histogram recording (end-to-end memory
     * latency per kernel) on or off. Off (the default) keeps the load
     * completion path free of histogram work.
     */
    void
    setTelemetryRecording(bool on)
    {
        recordTelemetry = on;
        invalidateScanCache();
    }

    /** Issue-to-writeback global-load latency of one kernel's accesses
     *  (populated only while telemetry recording is on). */
    const Histogram &
    memLatencyHistogram(KernelId kid) const
    {
        return memLatency[kid];
    }

    /** Change the warp scheduler (Figure 10b sensitivity study). */
    void
    setScheduler(SchedulerKind kind)
    {
        schedKind = kind;
        invalidateScanCache();
    }

    /**
     * Test hook: park every live warp of every resident CTA at its
     * barrier *without* arming a release, emulating a lost-wakeup bug
     * (the barrier only re-evaluates on barrier issue or warp finish,
     * and parked warps do neither). Leaves all bookkeeping — masks,
     * barrierWaiting counts, scheduler lists — self-consistent, so
     * integrity audits pass while the machine makes no progress: the
     * exact state the no-progress watchdog exists to catch.
     */
    void injectBarrierHangForTest();

  private:
    friend struct AuditAccess;
    friend struct SnapshotAccess;

    struct PendingLoad
    {
        std::uint16_t warp = 0;
        std::uint32_t epoch = 0;
        std::uint32_t regMask = 0;
        std::uint16_t transLeft = 0;
        bool valid = false;
        /** Owning kernel, narrowed to keep the entry compact. */
        std::int8_t kernel = static_cast<std::int8_t>(invalidKernel);
        /** Truncated issue cycle; latency via modulo-2^32 subtraction
         *  (round trips are far below 2^32 cycles). */
        std::uint32_t issuedAt = 0;
    };

    struct WbEntry
    {
        std::uint16_t warp;
        std::uint32_t epoch;
        std::uint32_t regMask;
    };

    /**
     * Memoized outcome of a failed (nothing-issued) scheduler scan.
     * A failed scan mutates nothing but stall counters, so until an
     * event changes some warp's readiness — writeback, line fill,
     * i-buffer refill, CTA launch/finish, outgoing-queue drain — or
     * the simulation clock crosses a pipeline busy-until horizon, the
     * next scan provably charges the same stall to the same kernel.
     * Replaying the memo skips the O(warps) scan entirely.
     */
    struct ScanCacheEntry
    {
        bool valid = false;
        /** First cycle at which a time-dependent (busy-unit) outcome
         *  could flip; ~Cycle{0} when no pipeline was busy. */
        Cycle validUntil = 0;
        StallKind kind = StallKind::Idle;
        std::int8_t culprit = static_cast<std::int8_t>(invalidKernel);
    };

    void
    invalidateScanCache()
    {
        for (ScanCacheEntry &entry : scanCache)
            entry.valid = false;
    }

    void runFetch(Cycle now);
    void runScheduler(unsigned sched, Cycle now);
    void chargeStall(StallKind kind, int culprit);
    /**
     * The warps of `cand` that memory backpressure refuses: a
     * global-memory op while the miss queue cannot take its kernel's
     * transactions, and a global load while the L1 MSHRs cannot. The
     * scheduler counts refused warps as long-memory-latency stalls.
     */
    std::uint64_t backpressured(std::uint64_t cand) const;
    /** Issue a warp the scan picked. Its masks rule out every hazard,
     *  backpressure included, so issue never fails. */
    void issue(std::uint16_t widx, unsigned sched, Cycle now);
    void executeIssue(WarpHot &hw, WarpState &warp,
                      const Instruction &inst, std::uint16_t widx,
                      unsigned sched, Cycle now);
    void advanceWarp(std::uint16_t widx, Cycle now);
    void finishWarp(std::uint16_t widx);
    void maybeReleaseBarrier(CtaSlot &cta);
    void completeCta(int cta_idx);
    void completeLoadTransaction(std::uint16_t load_idx, Cycle now);
    std::uint16_t allocLoadEntry();

    /**
     * Recompute one warp's bits in the readiness, scoreboard, barrier
     * and next-unit masks. Called on every state transition that can
     * flip active/finished/atBarrier/ibuf or the next instruction's
     * operand-vs-scoreboard overlap (issue, writeback, line fill). The
     * scheduler scan reads only these masks: they pick its candidates
     * and, when nothing issues, give its stall counts.
     */
    void updateIssuable(std::uint16_t widx);

    /**
     * Recompute the masks the snapshot does not carry (gmemNextMask,
     * gloadNextMask, kernelLiveMask, kernelTrans, stagedPartMask) from
     * the restored warps, CTAs and staged requests.
     */
    void rebuildDerivedState();

    const GpuConfig cfg;
    const SmId smId;
    SchedulerKind schedKind;
    Rng rng;

    ResourcePool resourcePool;
    /** Scheduler-hot warp rows, one 32-byte entry per slot: the per-SM
     *  arena the readiness scan walks (see sm/warp_soa.hh). Parallel
     *  to `warps`, which keeps the cold remainder. */
    std::vector<WarpHot> hot;
    std::vector<WarpState> warps;
    std::vector<CtaSlot> ctas;
    std::vector<std::uint16_t> freeWarpSlots;
    unsigned liveWarps = 0;
    std::uint64_t ageCounter = 0;

    // Per-kernel dispatch bookkeeping.
    std::array<int, maxConcurrentKernels> quotas;
    std::array<unsigned, maxConcurrentKernels> resident{};
    std::uint32_t quotaGen = 0;

    // Warp masks, one bit per warp slot (GpuConfig::validate() caps an
    // SM at 64 warps, so every slot has a bit).
    /** Active, unfinished, not at a barrier, and holding a buffered
     *  instruction. */
    std::uint64_t issuableMask = 0;
    /** The next instruction's registers overlap the long-latency
     *  (memBlocked) or short-latency (shortBlocked) scoreboard; the
     *  scan counts such warps as memory or RAW failures, long first. */
    std::uint64_t memBlockedMask = 0;
    std::uint64_t shortBlockedMask = 0;
    /** Live warp waiting at a barrier. */
    std::uint64_t barrierMask = 0;
    /** Live warp whose next instruction targets the given execution
     *  unit; while that unit is busy the scan counts these warps as
     *  execution-resource failures without visiting them. */
    std::uint64_t aluNextMask = 0;
    std::uint64_t sfuNextMask = 0;
    std::uint64_t ldstNextMask = 0;
    /** Live warp whose next instruction is a global load or store
     *  (gmemNext), or a global load (gloadNext): the warps memory
     *  backpressure can refuse. */
    std::uint64_t gmemNextMask = 0;
    std::uint64_t gloadNextMask = 0;
    /** Live warps of each kernel, and the kernel's transactions per
     *  global access: the requests one access stages. */
    std::array<std::uint64_t, maxConcurrentKernels> kernelLiveMask{};
    std::array<unsigned, maxConcurrentKernels> kernelTrans{};

    // Schedulers.
    std::vector<std::vector<std::uint16_t>> schedLists;  //!< age order
    /** Warp-slot bit set per scheduler mirroring schedLists
     *  membership. */
    std::vector<std::uint64_t> schedListMask;
    std::vector<int> lastIssued;   //!< GTO greedy warp per scheduler
    std::vector<unsigned> rrPos;   //!< LRR rotation per scheduler

    // Execution pipelines.
    std::vector<Cycle> aluBusyUntil;  //!< one pipe per scheduler
    Cycle sfuBusyUntil = 0;
    Cycle ldstBusyUntil = 0;
    /** Kernel whose access last occupied the LDST unit; busy cycles
     *  are attributed to it. */
    KernelId ldstOwner = invalidKernel;

    struct FetchEntry
    {
        std::uint16_t warp;
        std::uint32_t epoch;
    };

    // Timing wheels: short-latency writebacks, L1-hit load
    // transactions (by load entry) and i-buffer refills. tick() skips
    // a wheel with no live entries, and the auditor reconciles the
    // L1-hit wheel with the outstanding loads.
    TimingWheel<WbEntry> wbWheel;
    TimingWheel<std::uint16_t> memWheel;
    TimingWheel<FetchEntry> fetchWheel;

    // Memory.
    Cache l1;
    std::vector<PendingLoad> loads;
    std::vector<std::uint16_t> freeLoads;
    unsigned activeLoads = 0;  //!< valid PendingLoad entries
    std::vector<MemRequest> outRequests;
    /** See stagedPartitions(). */
    std::uint64_t stagedPartMask = 0;
    std::vector<MemResponse> respQueue;
    Cache::FillResult fillScratch;  //!< scratch, reused per L1 fill

    // Front end: warps whose i-buffer drained and need a refill.
    RingQueue<FetchEntry> fetchQueue;

    // Per-scheduler memo of failed issue scans (see ScanCacheEntry).
    std::vector<ScanCacheEntry> scanCache;

    // Engine-meta counters (see the accessors above).
    std::uint64_t engineScanMemoHits = 0;
    std::uint64_t engineSchedScans = 0;

    std::vector<KernelId> ctaCompletions;
    SmStats smStats;

    // Telemetry (recorded only while recordTelemetry is set).
    bool recordTelemetry = false;
    std::array<Histogram, maxConcurrentKernels> memLatency{};
};

} // namespace wsl

#endif // WSL_SM_SM_CORE_HH
