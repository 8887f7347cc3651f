#include "harness/runner.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/log.hh"
#include "core/policies.hh"
#include "harness/parallel.hh"
#include "harness/solo_cache.hh"
#include "obs/decision_log.hh"
#include "obs/engine_profiler.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/telemetry.hh"

namespace wsl {

const char *
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::LeftOver: return "LeftOver";
      case PolicyKind::Even:     return "Even";
      case PolicyKind::Spatial:  return "Spatial";
      case PolicyKind::Dynamic:  return "Dynamic";
      default:                   return "Unknown";
    }
}

std::unique_ptr<SlicingPolicy>
makePolicy(PolicyKind kind, const WarpedSlicerOptions &slicer_opts)
{
    switch (kind) {
      case PolicyKind::LeftOver:
        return std::make_unique<LeftOverPolicy>();
      case PolicyKind::Even:
        return std::make_unique<EvenPolicy>();
      case PolicyKind::Spatial:
        return std::make_unique<SpatialPolicy>();
      case PolicyKind::Dynamic:
        return std::make_unique<WarpedSlicerPolicy>(slicer_opts);
    }
    simBug("unknown policy kind ", static_cast<int>(kind));
}

Cycle
defaultWindow()
{
    constexpr Cycle fallback = 50000;
    const char *env = std::getenv("WSL_WINDOW");
    if (!env || !*env)
        return fallback;
    // Parse strictly: a decimal cycle count, nothing else. strtoull
    // skips whitespace and wraps negative input, so require the first
    // character to already be a digit.
    if (!std::isdigit(static_cast<unsigned char>(*env))) {
        warn("WSL_WINDOW='", env, "' must be a positive cycle count; ",
             "using default ", fallback);
        return fallback;
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0') {
        warn("WSL_WINDOW='", env, "' is not a number; using default ",
             fallback);
        return fallback;
    }
    if (errno == ERANGE || v > static_cast<unsigned long long>(
                                   std::numeric_limits<Cycle>::max())) {
        warn("WSL_WINDOW='", env, "' overflows; using default ",
             fallback);
        return fallback;
    }
    if (v == 0) {
        warn("WSL_WINDOW=0 would skip characterization; using default ",
             fallback);
        return fallback;
    }
    return static_cast<Cycle>(v);
}

WarpedSlicerOptions
scaledSlicerOptions(Cycle window)
{
    WarpedSlicerOptions opts;
    opts.warmup = std::max<Cycle>(1000, window / 20);
    // The paper's 5 K-cycle sampling window; shorter windows are too
    // noisy to resolve adjacent CTA counts on the perf curves.
    opts.profileLength = std::max<Cycle>(
        2000, std::min<Cycle>(5000, window / 8));
    opts.monitorWindow = opts.profileLength;
    // Stationary kernels: at shrunken windows a re-profile costs a
    // meaningful fraction of the run, so require a long quiet period.
    opts.reprofileCooldown = std::max<Cycle>(20000, window);
    return opts;
}

SoloResult
runSoloForCycles(const KernelParams &params, const GpuConfig &cfg,
                 Cycle cycles, int cta_quota)
{
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    const KernelId kid = gpu.launchKernel(params);
    if (cta_quota >= 0)
        for (unsigned s = 0; s < gpu.numSms(); ++s)
            gpu.sm(s).setQuota(kid, cta_quota);
    gpu.run(cycles);

    SoloResult r;
    r.cycles = gpu.cycle();
    r.threadInsts = gpu.kernelThreadInsts(kid);
    r.warpInsts = gpu.kernelWarpInsts(kid);
    r.stats = gpu.collectStats();
    return r;
}

SoloResult
runSoloToTarget(const KernelParams &params, const GpuConfig &cfg,
                std::uint64_t target, Cycle max_cycles)
{
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    const KernelId kid = gpu.launchKernel(params, target);
    gpu.run(max_cycles);

    SoloResult r;
    r.cycles = gpu.kernel(kid).done ? gpu.kernel(kid).finishCycle
                                    : gpu.cycle();
    r.threadInsts = gpu.kernelThreadInsts(kid);
    r.warpInsts = gpu.kernelWarpInsts(kid);
    r.stats = gpu.collectStats();
    return r;
}

namespace {

/** Validate and build the policy object a co-run uses (fixed quotas
 *  override `kind`). */
std::unique_ptr<SlicingPolicy>
makeCoRunPolicy(const std::vector<KernelParams> &apps, PolicyKind kind,
                const GpuConfig &cfg, const CoRunOptions &opts)
{
    if (opts.fixedQuotas.empty())
        return makePolicy(kind, opts.slicer);
    if (opts.fixedQuotas.size() != apps.size())
        throw ConfigError(detail::concat(
            "fixedQuotas has ", opts.fixedQuotas.size(),
            " entries for ", apps.size(), " apps"));
    const ResourceVec cap = ResourceVec::capacity(cfg);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const int q = opts.fixedQuotas[i];
        if (q < 0)
            throw ConfigError(detail::concat(
                "fixedQuotas[", i, "] = ", q, " is negative"));
        if (!ResourceVec::ofCta(apps[i]).scaled(q).fitsIn(cap))
            throw ConfigError(detail::concat(
                "fixedQuotas[", i, "] = ", q, " CTAs of '",
                apps[i].name, "' exceed one SM's resources"));
    }
    return std::make_unique<FixedQuotaPolicy>(opts.fixedQuotas);
}

} // namespace

CoRunResult
runCoSchedule(const std::vector<KernelParams> &apps,
              const std::vector<std::uint64_t> &targets, PolicyKind kind,
              const GpuConfig &cfg, const CoRunOptions &opts)
{
    WSL_ASSERT(apps.size() == targets.size(),
               "one instruction target per app");
    const bool wants_checkpoint =
        opts.snapshotAt > 0 || opts.checkpointEvery > 0;
    if (wants_checkpoint && opts.snapshotPath.empty())
        throw ConfigError(
            "snapshotAt/checkpointEvery need a snapshotPath");
    if (wants_checkpoint && opts.telemetry)
        throw ConfigError(
            "checkpointing is incompatible with a telemetry sampler "
            "(interval baselines are not serializable)");

    std::unique_ptr<SlicingPolicy> policy =
        makeCoRunPolicy(apps, kind, cfg, opts);
    SlicingPolicy *policy_raw = policy.get();

    Gpu gpu(cfg, std::move(policy));
    // The decision log attaches before any restore so replayed
    // entries from a snapshot's capture-side log land in it.
    if (opts.decisionLog)
        if (auto *dyn = dynamic_cast<WarpedSlicerPolicy *>(policy_raw))
            dyn->attachDecisionLog(opts.decisionLog);

    std::vector<KernelId> kids;
    for (std::size_t i = 0; i < apps.size(); ++i)
        kids.push_back(static_cast<KernelId>(i));

    if (!opts.restorePath.empty()) {
        restoreSnapshotFile(gpu, opts.restorePath);
        // The snapshot must describe this exact experiment; a stale
        // file (different apps or a different characterization
        // window) would otherwise silently resume the wrong run.
        if (gpu.numKernels() != apps.size())
            throw SnapshotError(detail::concat(
                "snapshot holds ", gpu.numKernels(), " kernels, this "
                "co-run has ", apps.size()));
        for (std::size_t i = 0; i < apps.size(); ++i) {
            const KernelInstance &k = gpu.kernel(kids[i]);
            if (k.params.name != apps[i].name)
                throw SnapshotError(detail::concat(
                    "snapshot kernel ", i, " is '", k.params.name,
                    "', expected '", apps[i].name, "'"));
            if (k.instTarget != targets[i])
                throw SnapshotError(detail::concat(
                    "snapshot kernel '", k.params.name,
                    "' has instruction target ", k.instTarget,
                    ", expected ", targets[i], " — was the snapshot "
                    "taken under a different characterization window "
                    "(--window)?"));
        }
        // The sampler's baseline is the restored state.
        if (opts.telemetry)
            gpu.attachTelemetry(opts.telemetry);
    } else {
        // Attached before the launches, so the sampler records them
        // and the policy's first profile start.
        if (opts.telemetry)
            gpu.attachTelemetry(opts.telemetry);
        for (std::size_t i = 0; i < apps.size(); ++i)
            gpu.launchKernel(apps[i], targets[i]);
    }

    if (opts.profiler)
        gpu.attachEngineProfiler(opts.profiler);

    // maxCycles is the run's absolute end cycle; a restored machine
    // only simulates the remainder.
    const Cycle end = opts.maxCycles;
    auto run_to = [&](Cycle target) {
        if (target > gpu.cycle())
            gpu.run(target - gpu.cycle());
    };
    if (opts.snapshotAt > 0) {
        run_to(std::min(opts.snapshotAt, end));
        writeSnapshotFile(gpu, opts.snapshotPath);
    }
    if (opts.checkpointEvery > 0) {
        while (gpu.cycle() < end && !gpu.allKernelsDone()) {
            run_to(std::min(gpu.cycle() + opts.checkpointEvery, end));
            writeSnapshotFile(gpu, opts.snapshotPath);
        }
    } else {
        run_to(end);
    }

    CoRunResult r;
    if (opts.profiler)
        opts.profiler->harvest(gpu);
    if (opts.telemetry && opts.telemetry->enabled()) {
        // Close the trailing partial interval and pull the histograms
        // out before the Gpu (and its SMs/partitions) is destroyed.
        opts.telemetry->finish(gpu);
        for (unsigned s = 0; s < gpu.numSms(); ++s)
            for (unsigned k = 0; k < maxConcurrentKernels; ++k)
                r.memLatency[k].merge(gpu.sm(s).memLatencyHistogram(
                    static_cast<KernelId>(k)));
        for (unsigned p = 0; p < gpu.numPartitions(); ++p) {
            r.mshrOccupancy.merge(
                gpu.partition(p).mshrOccupancyHistogram());
            r.dramQueueDepth.merge(
                gpu.partition(p).dramQueueHistogram());
        }
    }
    r.completed = gpu.allKernelsDone();
    r.makespan = gpu.cycle();
    r.stats = gpu.collectStats();
    std::uint64_t total_warp_insts = 0;
    for (KernelId kid : kids) {
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

    if (kind == PolicyKind::Dynamic && opts.fixedQuotas.empty()) {
        auto *dyn = dynamic_cast<WarpedSlicerPolicy *>(policy_raw);
        WSL_ASSERT(dyn != nullptr, "Dynamic policy of unexpected type");
        // Report the first decision that covered the full kernel set
        // (later re-profiles may only cover the surviving kernels).
        for (const auto &record : dyn->decisionHistory()) {
            if (record.live.size() == apps.size()) {
                r.chosenCtas = record.ctas;
                r.spatialFallback = record.spatial;
                break;
            }
        }
        if (r.chosenCtas.empty() && !dyn->decisionHistory().empty()) {
            r.chosenCtas = dyn->decisionHistory().front().ctas;
            r.spatialFallback = dyn->decisionHistory().front().spatial;
        }
    }
    return r;
}

Characterization::Characterization(const GpuConfig &c, Cycle window)
    : cfg(c), windowCycles(window)
{
}

const SoloResult &
Characterization::solo(const std::string &name)
{
    return SoloCache::global().get(benchmark(name), cfg, windowCycles);
}

void
Characterization::prewarm(const std::vector<std::string> &names,
                          unsigned jobs)
{
    std::vector<std::string> unique(names);
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()),
                 unique.end());
    // Prewarm is purely a warm-up: swallow per-name SimErrors here so
    // one broken benchmark doesn't take down the whole fan-out. The
    // jobs that actually reference it re-hit the same error in their
    // own lazy lookup and record it per-job.
    parallelFor(unique.size(), jobs, [&](std::size_t i) {
        try {
            SoloCache::global().get(benchmark(unique[i]), cfg,
                                    windowCycles);
        } catch (const SimError &) {
        }
    });
}

namespace {

// Process-wide batch telemetry; relaxed is fine — these are counters,
// not synchronization.
std::atomic<std::uint64_t> g_batch_jobs{0};
std::atomic<std::uint64_t> g_batch_failures{0};

} // namespace

std::uint64_t
batchJobsRun()
{
    return g_batch_jobs.load(std::memory_order_relaxed);
}

std::uint64_t
batchJobsFailed()
{
    return g_batch_failures.load(std::memory_order_relaxed);
}

std::uint64_t
batchRetries()
{
    return 0;
}

std::vector<CoRunResult>
runCoScheduleBatch(Characterization &chars,
                   const std::vector<CoRunJob> &batch, unsigned jobs)
{
    std::vector<std::string> names;
    for (const CoRunJob &job : batch)
        names.insert(names.end(), job.apps.begin(), job.apps.end());
    chars.prewarm(names, jobs);

    const GpuConfig &run_cfg = chars.config();

    return parallelMap<CoRunResult>(
        batch.size(), jobs, [&](std::size_t i) {
            const CoRunJob &job = batch[i];
            g_batch_jobs.fetch_add(1, std::memory_order_relaxed);
            CoRunResult failed;
            failed.completed = false;
            failed.error.failed = true;
            try {
                std::vector<KernelParams> apps;
                std::vector<std::uint64_t> targets;
                for (const std::string &name : job.apps) {
                    apps.push_back(benchmark(name));
                    targets.push_back(chars.target(name));
                }
                return runCoSchedule(apps, targets, job.kind, run_cfg,
                                     job.opts);
            } catch (const DeadlockError &e) {
                failed.error.kind = e.kindName();
                failed.error.message = detail::concat(
                    e.what(), "\n", e.report());
            } catch (const SimError &e) {
                failed.error.kind = e.kindName();
                failed.error.message = e.what();
            }
            g_batch_failures.fetch_add(1, std::memory_order_relaxed);
            return failed;
        });
}

std::size_t
reportFailedJobs(const std::vector<CoRunResult> &results)
{
    std::size_t failed = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JobError &e = results[i].error;
        if (!e.failed)
            continue;
        ++failed;
        std::fprintf(stderr, "job %zu failed (%s): %s\n", i,
                     e.kind.c_str(), e.message.c_str());
    }
    return failed;
}

std::uint64_t
Characterization::target(const std::string &name)
{
    return solo(name).threadInsts;
}

Cycle
Characterization::aloneCycles(const std::string &name)
{
    return solo(name).cycles;
}

std::vector<std::vector<int>>
enumerateFeasibleCombos(const std::vector<KernelParams> &apps,
                        const GpuConfig &cfg)
{
    const ResourceVec cap = ResourceVec::capacity(cfg);
    std::vector<unsigned> max_ctas;
    std::vector<ResourceVec> per_cta;
    for (const KernelParams &a : apps) {
        max_ctas.push_back(a.maxCtasPerSm(cfg));
        per_cta.push_back(ResourceVec::ofCta(a));
    }
    std::vector<std::vector<int>> combos;
    std::vector<int> combo(apps.size(), 1);
    // Odometer enumeration with per-dimension feasibility pruning.
    while (true) {
        ResourceVec used;
        bool fits = true;
        for (std::size_t i = 0; i < apps.size() && fits; ++i) {
            used = used + per_cta[i].scaled(combo[i]);
            fits = used.fitsIn(cap);
        }
        if (fits)
            combos.push_back(combo);
        // Advance the odometer.
        std::size_t pos = 0;
        while (pos < combo.size()) {
            if (combo[pos] < static_cast<int>(max_ctas[pos])) {
                ++combo[pos];
                break;
            }
            combo[pos] = 1;
            ++pos;
        }
        if (pos == combo.size())
            break;
    }
    return combos;
}

} // namespace wsl
