/**
 * @file
 * Per-tenant-class SLO accounting for the serving layer: latency and
 * queueing-delay histograms (the common/ log2-bucket Histogram),
 * deadline-miss and goodput counters, and the structured outcome
 * counts (rejected / shed / timed-out / failed) that make overload
 * and chaos behavior auditable. Exports as a deterministic JSON
 * report (schema wslicer-serve-v1), a human table, and labeled
 * counters (obs/counters.hh).
 */

#ifndef WSL_SERVE_SLO_HH
#define WSL_SERVE_SLO_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "serve/tenant.hh"

namespace wsl {

struct MetricSample;

/** One tenant class's SLO ledger. */
struct ClassSlo
{
    std::uint64_t arrivals = 0;   //!< every request, admitted or not
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t goodput = 0;    //!< completed within the deadline
    std::uint64_t deadlineMiss = 0; //!< completed late or timed out
    std::uint64_t rejectedQueueFull = 0;
    std::uint64_t rejectedQuarantined = 0;
    std::uint64_t rejectedMalformed = 0;
    std::uint64_t shed = 0;       //!< dropped by overload shedding
    std::uint64_t timedOut = 0;
    std::uint64_t failed = 0;     //!< fault retries exhausted
    std::uint64_t pendingAtEnd = 0; //!< still queued/running at horizon
    std::uint64_t retries = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t faultsStall = 0;
    bool quarantined = false;

    Histogram latency;     //!< arrival -> completion, completed jobs
    Histogram queueDelay;  //!< arrival -> first dispatch, started jobs
};

/** SLO ledger over all classes; see file comment. */
class SloTracker
{
  public:
    explicit SloTracker(const std::vector<TenantClass> &classes);

    /** Fold a job's terminal state in (call once per arrival). */
    void recordOutcome(const ServeJob &job);

    void recordRetry(unsigned tenant) { ++slos[tenant].retries; }
    void recordPreemption(unsigned tenant)
    {
        ++slos[tenant].preemptions;
    }
    void recordFault(unsigned tenant, bool stall)
    {
        ++slos[tenant].faultsInjected;
        if (stall)
            ++slos[tenant].faultsStall;
    }
    void markQuarantined(unsigned tenant)
    {
        slos[tenant].quarantined = true;
    }

    const ClassSlo &of(unsigned tenant) const { return slos[tenant]; }
    std::size_t numClasses() const { return slos.size(); }
    const std::vector<TenantClass> &classes() const { return names; }

    /**
     * Jain fairness index over per-class goodput rates
     * (goodput / arrivals); 1.0 = perfectly even, 1/n = one class
     * monopolizes. Classes with no arrivals are excluded.
     */
    double fairnessIndex() const;

    /** Deterministic JSON report, schema "wslicer-serve-v1". */
    void writeJson(std::ostream &os) const;

    /** Append wsl_serve_* counters, labeled by class. */
    void appendCounters(std::vector<MetricSample> &out) const;

  private:
    std::vector<TenantClass> names;
    std::vector<ClassSlo> slos;
};

} // namespace wsl

#endif // WSL_SERVE_SLO_HH
