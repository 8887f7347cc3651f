/**
 * @file
 * The serving engine: a long-lived multi-tenant front-end over the
 * co-scheduling machinery. Arrivals stream in from an ArrivalEngine,
 * pass admission control, wait in per-tenant bounded queues, and are
 * dispatched earliest-deadline-first onto a shared Gpu under the
 * chosen slicing policy; completions, deadline misses, rejections,
 * sheds, retries, and quarantines all land as structured outcomes in
 * the SloTracker.
 *
 * Residency model: the kernel table is append-only with a hard cap of
 * maxConcurrentKernels launches per Gpu instance, so the engine
 * launches new jobs live (the policy repartitions the enlarged set,
 * exactly the paper's dynamic-multiprogramming case) until the table
 * is exhausted, then rebuilds the machine around the survivors. A
 * rebuilt or preempted job resumes from its instruction-level
 * checkpoint: executed thread instructions are harvested before
 * teardown and the job relaunches with its remaining target.
 *
 * Fault tolerance: before any slice that a pending chaos fault could
 * hit, the engine captures a machine snapshot. An injected fault rolls
 * the machine back to that snapshot — co-runners lose only the
 * uncommitted partial slice — charges the victim a retry with capped
 * exponential backoff, and a tenant that keeps faulting past the
 * quarantine threshold is cut loose (its kernel halted, its backlog
 * shed, its future arrivals rejected) so the others keep their SLOs.
 * Organic SimErrors (invariant, deadlock) fail the resident jobs,
 * count as violations, and the service rebuilds and keeps serving.
 *
 * Everything is a pure function of ServeOptions: no wall clock, no
 * global state — two runs with equal options are byte-identical.
 */

#ifndef WSL_SERVE_ENGINE_HH
#define WSL_SERVE_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "harness/runner.hh"
#include "serve/arrival.hh"
#include "serve/chaos.hh"
#include "serve/slo.hh"
#include "serve/tenant.hh"

namespace wsl {

class DecisionLog;

/** Serving-run controls. Zero-valued cycle knobs are derived from the
 *  characterization window (see resolveServeOptions). */
struct ServeOptions
{
    GpuConfig cfg{};
    PolicyKind kind = PolicyKind::Dynamic;
    /** Characterization window (0 = defaultWindow()). Sizes jobs,
     *  service estimates, and the derived knobs below. */
    Cycle window = 0;
    /** Service closes to new arrivals at this cycle (0 = 6x window). */
    Cycle horizon = 0;
    /** Scheduling quantum: admission, dispatch, and preemption run at
     *  slice boundaries (0 = window / 4). */
    Cycle quantum = 0;
    /** Tenant-class mix (empty = defaultTenantClasses()). */
    std::vector<TenantClass> classes;
    ArrivalConfig arrivals{};
    /** Chaos schedule (empty = no fault injection). */
    FaultPlan chaos{};
    std::uint64_t seed = 1;
    /** Concurrent kernels on the GPU (clamped to
     *  [1, maxConcurrentKernels]). */
    unsigned maxBatch = 3;
    /** Fault retries per job before it is Failed. */
    unsigned maxRetries = 3;
    /** Capped exponential backoff: delay(n) = min(base << n, cap)
     *  (0 = quantum/8 and quantum respectively). */
    Cycle backoffBase = 0;
    Cycle backoffCap = 0;
    /** Faults attributed to one tenant before it is quarantined. */
    unsigned quarantineThreshold = 3;
    /** Extra service time a Stall fault costs beyond the rollback
     *  (watchdog detection latency; 0 = quantum). */
    Cycle stallPenalty = 0;
    /** How long past the horizon queued/running work may drain before
     *  the service stops (0 = horizon, i.e. stop at 2x horizon). */
    Cycle drainGrace = 0;
    /** Optional Dynamic-policy decision log, re-attached across
     *  machine rebuilds (cycles in entries are per-machine). */
    DecisionLog *decisionLog = nullptr;
};

/** Fill every derived default in `opts` (idempotent). */
ServeOptions resolveServeOptions(ServeOptions opts);

/** Everything a serving run produced. */
struct ServeResult
{
    explicit ServeResult(const std::vector<TenantClass> &classes)
        : slo(classes)
    {
    }

    /** Every request, in arrival order, with its terminal outcome
     *  (Pending/Running = still in flight when the service stopped). */
    std::vector<ServeJob> jobs;
    SloTracker slo;

    Cycle endCycle = 0;
    std::uint64_t slices = 0;
    std::uint64_t rebuilds = 0;     //!< machine teardown + relaunch
    std::uint64_t liveLaunches = 0; //!< jobs appended to a live machine
    std::uint64_t snapshots = 0;    //!< pre-slice chaos checkpoints
    std::uint64_t restores = 0;     //!< fault rollbacks
    std::uint64_t preemptions = 0;
    std::uint64_t retries = 0;
    std::uint64_t faultsInjected = 0;
    /** Organic SimErrors (invariant / deadlock / internal) survived by
     *  rebuilding; the chaos gate requires this to stay 0. */
    unsigned invariantViolations = 0;
    std::vector<std::string> quarantinedClasses;
    /** Thread instructions committed across all jobs. */
    std::uint64_t threadInsts = 0;
    double fairness = 1.0;  //!< Jain index over per-class goodput rates
};

/** Run the serving loop to completion; see file comment. */
ServeResult runServe(const ServeOptions &opts);

} // namespace wsl

#endif // WSL_SERVE_ENGINE_HH
