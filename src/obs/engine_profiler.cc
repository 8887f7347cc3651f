#include "obs/engine_profiler.hh"

#include "gpu/gpu.hh"
#include "harness/solo_cache.hh"
#include "obs/json.hh"
#include "obs/registry.hh"

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
    soloHits = SoloCache::global().hits();
    soloMisses = SoloCache::global().misses();
}

void
EngineProfiler::writeJson(std::ostream &os) const
{
    JsonValue root = JsonValue::makeObject();
    root.set("schema", JsonValue::makeString("wslicer-profile-v3"));

    JsonValue phases = JsonValue::makeObject();
    for (unsigned p = 0;
         p < static_cast<unsigned>(EpochPhase::NumPhases); ++p)
        phases.set(epochPhaseName(static_cast<EpochPhase>(p)),
                   JsonValue::makeNumber(
                       static_cast<double>(phaseNsAcc[p])));
    root.set("phase_ns", std::move(phases));
    root.set("ticks", JsonValue::makeNumber(
                          static_cast<double>(tickCount)));

    root.set("scan_memo_hits",
             JsonValue::makeNumber(static_cast<double>(memoHits)));
    root.set("scheduler_scans",
             JsonValue::makeNumber(static_cast<double>(schedScans)));
    root.set("solo_cache_hits",
             JsonValue::makeNumber(static_cast<double>(soloHits)));
    root.set("solo_cache_misses",
             JsonValue::makeNumber(static_cast<double>(soloMisses)));
    root.write(os);
    os << '\n';
}

void
EngineProfiler::registerCounters(CounterRegistry &registry) const
{
    registry.addProvider([this](std::vector<MetricSample> &out) {
        for (unsigned p = 0;
             p < static_cast<unsigned>(EpochPhase::NumPhases); ++p)
            out.push_back(
                {"wsl_engine_phase_ns",
                 {{"phase",
                   epochPhaseName(static_cast<EpochPhase>(p))}},
                 static_cast<double>(phaseNsAcc[p]),
                 "counter",
                 "wall-clock nanoseconds per tick phase"});
        out.push_back({"wsl_engine_ticks",
                       {},
                       static_cast<double>(tickCount),
                       "counter",
                       "ticks executed"});
    });
}

} // namespace wsl
