#include "obs/engine_profiler.hh"

#include "check/auditor.hh"
#include "gpu/gpu.hh"
#include "obs/counters.hh"

namespace wsl {

const char *
epochPhaseName(EpochPhase phase)
{
    switch (phase) {
      case EpochPhase::SmCompute: return "sm_compute";
      case EpochPhase::IcntMergeRequests: return "icnt_merge_requests";
      case EpochPhase::PartitionCompute: return "partition_compute";
      case EpochPhase::IcntDeliver: return "icnt_deliver";
      case EpochPhase::NumPhases: break;
    }
    return "?";
}

void
EngineProfiler::harvest(const Gpu &gpu)
{
    memoHits = 0;
    schedScans = 0;
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        memoHits += gpu.sm(s).scanMemoHits();
        schedScans += gpu.sm(s).schedulerScans();
    }
    routed = gpu.interconnect().routedRequests();
    delivered = gpu.interconnect().deliveredResponses();
    const Auditor *auditor = gpu.integrityAuditor();
    audits = auditor ? auditor->auditsRun() : 0;
}

void
EngineProfiler::appendCounters(std::vector<MetricSample> &out) const
{
    for (unsigned p = 0;
         p < static_cast<unsigned>(EpochPhase::NumPhases); ++p)
        out.push_back({"wsl_engine_phase_ns",
                       {{"phase",
                         epochPhaseName(static_cast<EpochPhase>(p))}},
                       static_cast<double>(phaseNsAcc[p]),
                       "counter",
                       "wall-clock nanoseconds per tick phase"});
    const auto add = [&](const char *name, std::uint64_t value,
                         const char *help) {
        out.push_back(
            {name, {}, static_cast<double>(value), "counter", help});
    };
    add("wsl_engine_ticks", tickCount, "ticks executed");
    add("wsl_engine_sched_scans", schedScans,
        "full warp-scheduler issue scans");
    add("wsl_engine_scan_memo_hits", memoHits,
        "scheduler scans replayed from the memo");
    add("wsl_engine_audits", audits, "invariant audits executed");
    add("wsl_icnt_routed_requests", routed,
        "requests accepted into partition queues");
    add("wsl_icnt_delivered_responses", delivered,
        "responses handed back to SMs");
}

} // namespace wsl
