#include "bench_lib.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/log.hh"
#include "core/warped_slicer.hh"

namespace wsl::bench {

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::clamp(p, 0.0, 1.0) * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
gmeanOfRatios(const std::vector<double> &num,
              const std::vector<double> &den)
{
    WSL_ASSERT(num.size() == den.size(), "one denominator per ratio");
    std::vector<double> ratios;
    for (std::size_t i = 0; i < num.size(); ++i)
        ratios.push_back(den[i] > 0.0 ? num[i] / den[i] : 0.0);
    return geomean(ratios);
}

void
Digest::bytes(const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
}

void
Digest::f64(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Digest::str(std::string_view s)
{
    u64(s.size());
    bytes(s.data(), s.size());
}

std::string
Digest::hex() const
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

namespace {

void
digestCounter(Digest &d, std::uint64_t v)
{
    d.u64(v);
}

template <typename T, std::size_t N>
void
digestCounter(Digest &d, const std::array<T, N> &values)
{
    for (const T &v : values)
        digestCounter(d, v);
}

} // namespace

void
digestCoRun(Digest &d, const CoRunResult &r)
{
    d.u64(r.makespan);
    d.f64(r.sysIpc);
    d.u64(r.completed);
    d.u64(r.spatialFallback);
    d.u64(r.chosenCtas.size());
    for (const int c : r.chosenCtas)
        d.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(c)));
    d.u64(r.apps.size());
    for (const AppOutcome &a : r.apps) {
        d.u64(a.insts);
        d.u64(a.cycles);
    }
    auto field = [&](const char *name, auto member) {
        d.str(name);
        digestCounter(d, r.stats.*member);
    };
    SmStats::forEachField(field);
    PartitionStats::forEachField(field);
}

void
digestServe(Digest &d, const ServeResult &r)
{
    std::ostringstream json;
    r.slo.writeJson(json);
    d.str(json.str());
    d.u64(r.endCycle);
}

std::string
coRunError(const CoRunResult &r)
{
    if (r.error.failed)
        return detail::concat("job failed (", r.error.kind, "): ",
                              r.error.message);
    if (!r.completed)
        return "job hit maxCycles before every app reached its target";
    if (!std::isfinite(r.sysIpc) || r.sysIpc <= 0.0)
        return detail::concat("job has sysIpc ", r.sysIpc);
    return {};
}

std::string
ledgerError(const ClassSlo &s)
{
    const std::uint64_t rejected = s.rejectedQueueFull +
                                   s.rejectedQuarantined +
                                   s.rejectedMalformed;
    if (s.arrivals != s.admitted + rejected)
        return detail::concat("arrivals ", s.arrivals, " != admitted ",
                              s.admitted, " + rejected ", rejected);
    const std::uint64_t settled = s.completed + s.shed + s.timedOut +
                                  s.failed + s.pendingAtEnd;
    if (s.admitted != settled)
        return detail::concat(
            "admitted ", s.admitted, " != completed ", s.completed,
            " + shed ", s.shed, " + timedOut ", s.timedOut, " + failed ",
            s.failed, " + pendingAtEnd ", s.pendingAtEnd);
    return {};
}

std::string
serveError(const ServeResult &r)
{
    if (r.invariantViolations > 0)
        return detail::concat(r.invariantViolations,
                              " invariant violations");
    std::uint64_t arrivals = 0;
    for (std::size_t t = 0; t < r.slo.numClasses(); ++t) {
        const ClassSlo &s = r.slo.of(static_cast<unsigned>(t));
        const std::string why = ledgerError(s);
        if (!why.empty())
            return detail::concat("class ", r.slo.classes()[t].name,
                                  ": ", why);
        arrivals += s.arrivals;
    }
    if (arrivals != r.jobs.size())
        return detail::concat("ledger holds ", arrivals,
                              " arrivals but the run saw ",
                              r.jobs.size());
    return {};
}

double
selfSeconds(const std::vector<Span> &spans, std::size_t index)
{
    double self = spans[index].durS;
    for (const Span &s : spans)
        if (s.parent == static_cast<int>(index))
            self -= s.durS;
    return self;
}

void
writeTrace(std::ostream &os, const std::string &workload,
           std::uint64_t seed, const std::vector<Span> &spans)
{
    char buf[64];
    auto num = [&](double v) {
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        return std::string(buf);
    };
    os << "{\"schema\":\"wsl-bench-trace-v1\",\"workload\":\""
       << workload << "\",\"seed\":" << seed << ",\"spans\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"i\":" << i << ",\"name\":\""
           << s.name << "\",\"id\":" << s.id << ",\"parent\":"
           << s.parent << ",\"start_s\":" << num(s.startS)
           << ",\"dur_s\":" << num(s.durS)
           << ",\"self_s\":" << num(selfSeconds(spans, i))
           << ",\"aggregated\":" << (s.aggregated ? "true" : "false")
           << "}";
    }
    os << "\n]}\n";
}

TimedPolicy::TimedPolicy(std::unique_ptr<SlicingPolicy> wrapped_policy)
    : inner(std::move(wrapped_policy))
{
}

template <typename F>
auto
TimedPolicy::timed(F &&f) const
{
    struct Stopwatch
    {
        const TimedPolicy &self;
        std::uint64_t t0 = EngineProfiler::timestampNs();
        ~Stopwatch()
        {
            self.spentNs += EngineProfiler::timestampNs() - t0;
            ++self.callCount;
        }
    } watch{*this};
    return f();
}

std::string
TimedPolicy::name() const
{
    return inner->name();
}

void
TimedPolicy::onKernelSetChanged(Gpu &gpu, Cycle now)
{
    timed([&] { inner->onKernelSetChanged(gpu, now); });
}

void
TimedPolicy::tick(Gpu &gpu, Cycle now)
{
    timed([&] { inner->tick(gpu, now); });
}

bool
TimedPolicy::mayDispatch(const Gpu &gpu, SmId sm, KernelId kid) const
{
    return timed([&] { return inner->mayDispatch(gpu, sm, kid); });
}

bool
TimedPolicy::timeInvariant() const
{
    return timed([&] { return inner->timeInvariant(); });
}

Cycle
TimedPolicy::nextDecisionAt(Cycle now) const
{
    return timed([&] { return inner->nextDecisionAt(now); });
}

std::string
TimedPolicy::describeLastDecision() const
{
    return inner->describeLastDecision();
}

void
TimedPolicy::saveState(SnapWriter &w) const
{
    inner->saveState(w);
}

void
TimedPolicy::loadState(SnapReader &r)
{
    inner->loadState(r);
}

TracedJob
runTracedJob(const GpuConfig &cfg, const std::vector<KernelParams> &apps,
             const std::vector<std::uint64_t> &targets, PolicyKind kind,
             const WarpedSlicerOptions &slicer, Clock::time_point origin)
{
    WSL_ASSERT(apps.size() == targets.size(),
               "one instruction target per app");
    TracedJob t;
    EngineProfiler prof;  // outlives the Gpu that points at it
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<SlicingPolicy> inner = makePolicy(kind, slicer);
    SlicingPolicy *inner_raw = inner.get();
    auto timed_policy = std::make_unique<TimedPolicy>(std::move(inner));
    const TimedPolicy &policy = *timed_policy;
    Gpu gpu(cfg, std::move(timed_policy));
    const Clock::time_point t1 = Clock::now();

    for (std::size_t i = 0; i < apps.size(); ++i)
        gpu.launchKernel(apps[i], targets[i]);
    gpu.attachEngineProfiler(&prof);
    // Policy calls made while launching belong to the job, not to
    // Gpu::run, so only the calls during the run are its child span.
    const std::uint64_t policy_ns0 = policy.ns();
    const std::uint64_t policy_calls0 = policy.calls();
    const Clock::time_point t2 = Clock::now();
    gpu.run(CoRunOptions{}.maxCycles);
    const Clock::time_point t3 = Clock::now();
    prof.harvest(gpu);

    CoRunResult &r = t.result;
    r.completed = gpu.allKernelsDone();
    r.makespan = gpu.cycle();
    r.stats = gpu.collectStats();
    std::uint64_t total_warp_insts = 0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const KernelId kid = static_cast<KernelId>(i);
        AppOutcome app;
        app.insts = gpu.kernelThreadInsts(kid);
        app.cycles = gpu.kernel(kid).done ? gpu.kernel(kid).finishCycle
                                          : gpu.cycle();
        if (app.cycles == 0)
            app.cycles = 1;
        r.apps.push_back(app);
        total_warp_insts += gpu.kernelWarpInsts(kid);
    }
    r.sysIpc = r.makespan
        ? static_cast<double>(total_warp_insts) / r.makespan : 0.0;
    if (auto *dyn = dynamic_cast<WarpedSlicerPolicy *>(inner_raw)) {
        const auto &history = dyn->decisionHistory();
        for (const auto &record : history) {
            if (record.live.size() == apps.size()) {
                r.chosenCtas = record.ctas;
                r.spatialFallback = record.spatial;
                break;
            }
        }
        if (r.chosenCtas.empty() && !history.empty()) {
            r.chosenCtas = history.front().ctas;
            r.spatialFallback = history.front().spatial;
        }
        t.decisions = history.size();
        t.profileRounds = dyn->profileRounds();
    }

    auto ns_to_s = [](std::uint64_t ns) { return ns * 1e-9; };
    t.numSms = gpu.numSms();
    t.constructS = secondsBetween(t0, t1);
    t.runS = secondsBetween(t2, t3);
    t.smS = ns_to_s(prof.phaseNs(EpochPhase::SmCompute));
    t.icntS = ns_to_s(prof.phaseNs(EpochPhase::IcntMergeRequests) +
                      prof.phaseNs(EpochPhase::IcntDeliver));
    t.memS = ns_to_s(prof.phaseNs(EpochPhase::PartitionCompute));
    t.policyS = ns_to_s(policy.ns() - policy_ns0);
    t.policyCalls = policy.calls() - policy_calls0;
    t.ticks = prof.ticks();
    t.skippedCycles = prof.skippedCycles();
    for (std::size_t c = 0; c < reportedCaps.size(); ++c)
        t.caps[c] = prof.capCount(reportedCaps[c]);
    t.schedScans = prof.schedulerScans();
    t.scanMemoHits = prof.scanMemoHits();
    t.startS = secondsBetween(origin, t0);
    t.runStartS = secondsBetween(origin, t2);
    t.jobS = secondsBetween(t0, Clock::now());
    return t;
}

void
appendJobSpans(std::vector<Span> &spans, std::uint64_t id,
               const TracedJob &job)
{
    const int root = static_cast<int>(spans.size());
    spans.push_back({"job", id, -1, job.startS, job.jobS, false});
    spans.push_back({"gpu.construct", id, root, job.startS,
                     job.constructS, false});
    const int run = static_cast<int>(spans.size());
    spans.push_back({"gpu.run", id, root, job.runStartS, job.runS,
                     false});
    for (const auto &[name, dur] :
         {std::pair{"sm.tick", job.smS}, std::pair{"gpu.icnt", job.icntS},
          std::pair{"mem.tick", job.memS},
          std::pair{"core.policy", job.policyS}})
        spans.push_back({name, id, run, job.runStartS, dur, true});
}

} // namespace wsl::bench
