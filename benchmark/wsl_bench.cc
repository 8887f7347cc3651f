/**
 * @file
 * wsl-bench: one workload of the end-to-end benchmark per process.
 *
 *   wsl-bench --workload W --seed S [--seconds T] [--trace FILE]
 *
 * A single closed-loop caller sets up (characterizes every referenced
 * benchmark, several times), then runs whole passes of the workload
 * through the public layer APIs until at least T seconds have been
 * measured. Every workload's pass is longer than the default T, so a
 * default run makes its workload's minimum number of passes (two on
 * dc-corun, one elsewhere) and always measures the same work. With more
 * than one pass, each unit of a pass (a co-run job, the jobs4 batch, a
 * runServe call) keeps its fastest time; the reported pass time is their
 * sum.
 *
 * With --trace it instead runs one untraced pass and one traced pass,
 * writes the traced pass's spans to FILE, and reports the per-layer
 * table. Every line but the last is "workload metric value unit"; the
 * last line is one JSON object summarizing the run. Exit status
 * is 1 when any correctness check fails.
 *
 * Window sizes and thread counts are fixed here and never read from
 * the WSL_* environment, so every checkout measures the same work.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_lib.hh"
#include "common/rng.hh"
#include "harness/parallel.hh"
#include "harness/solo_cache.hh"

using namespace wsl;
using namespace wsl::bench;

namespace {

/** Characterizations run this many times; setup_s is their median. */
constexpr int setupRepeats = 3;
/** Characterization threads, as many as sweep-jobs4's batch uses. On
 *  one thread set-up took a third of every run. */
constexpr unsigned setupThreads = 4;

const Clock::time_point mainStart = Clock::now();

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 5.0;
    std::string tracePath;
};

/** Metrics in output order, plus the correctness tally. */
class Report
{
  public:
    explicit Report(std::string workload) : workload(std::move(workload))
    {
    }

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        if (!std::isfinite(value)) {
            fail(name + " is not finite");
            value = 0.0;
        }
        metrics.push_back({name, value, unit});
        std::printf("%s %s %.10g %s\n", workload.c_str(), name.c_str(),
                    value, unit.c_str());
    }

    /** A line that is not a metric (digest, sample counts). */
    void
    note(const std::string &name, const std::string &value,
         const std::string &unit)
    {
        std::printf("%s %s %s %s\n", workload.c_str(), name.c_str(),
                    value.c_str(), unit.c_str());
    }

    /** Count one operation; a non-empty error fails it. */
    void
    op(const std::string &error)
    {
        ++attempted;
        if (!error.empty()) {
            ++failed;
            fail(error);
        }
    }

    void
    fail(const std::string &why)
    {
        std::fprintf(stderr, "wsl-bench: %s: check failed: %s\n",
                     workload.c_str(), why.c_str());
        correct = false;
    }

    double
    errorRate() const
    {
        return attempted ? static_cast<double>(failed) / attempted : 0.0;
    }

    bool ok() const { return correct && attempted > 0; }

    /** Print the JSON summary line (the named metrics, or every
     *  metric) and return the exit status. */
    int
    finish(const std::vector<std::string> &only) const
    {
        std::string out = "{\"correct\": ";
        out += ok() ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted) +
               ", \"failed\": " + std::to_string(failed) +
               ", \"metrics\": {";
        bool first = true;
        for (const Metric &m : metrics) {
            if (!only.empty() &&
                std::find(only.begin(), only.end(), m.name) == only.end())
                continue;
            char value[64];
            std::snprintf(value, sizeof(value), "%.12g", m.value);
            out += (first ? "\"" : ", \"") + m.name +
                   "\": {\"value\": " + value + ", \"unit\": \"" +
                   m.unit + "\"}";
            first = false;
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
        std::fflush(stdout);
        return ok() ? 0 : 1;
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    std::string workload;
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
};

/** End-to-end metrics BENCHMARK.json gates (every workload has them). */
const std::vector<std::string> endToEndMetrics = {
    "wall_s", "sim_mcycles_per_s", "setup_s", "peak_rss_mb"};

double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/** Fisher-Yates permutation of [0, n) drawn from `seed`. */
std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    Rng rng(mixHash(seed));
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.range(i)]);
    return order;
}

/**
 * Run whole passes of `units` units, at least `min_passes` and more
 * until `seconds` have been measured, calling end_pass() after each.
 * Returns each unit's fastest time.
 */
template <typename RunUnit, typename EndPass>
std::vector<double>
fastestUnits(std::size_t units, std::size_t min_passes, double seconds,
             RunUnit &&run_unit, EndPass &&end_pass, std::size_t &passes)
{
    std::vector<double> best(units, std::numeric_limits<double>::max());
    const Clock::time_point start = Clock::now();
    for (passes = 0; passes < min_passes ||
                     secondsBetween(start, Clock::now()) < seconds;
         ++passes) {
        for (std::size_t u = 0; u < units; ++u) {
            const Clock::time_point t0 = Clock::now();
            run_unit(u);
            best[u] = std::min(best[u], secondsBetween(t0, Clock::now()));
        }
        end_pass();
    }
    return best;
}

/**
 * Characterize `names` setupRepeats times from an empty solo cache.
 * The first repeat is timed from static initialization, just before
 * main(), so it includes process start-up. Returns {setup times,
 * characterization-only times}.
 */
std::pair<std::vector<double>, std::vector<double>>
timedSetup(Characterization &chars, const std::vector<std::string> &names)
{
    std::vector<double> setup, characterize;
    for (int rep = 0; rep < setupRepeats; ++rep) {
        SoloCache::global().clear();
        const Clock::time_point t0 = Clock::now();
        chars.prewarm(names, setupThreads);
        const Clock::time_point t1 = Clock::now();
        setup.push_back(secondsBetween(rep == 0 ? mainStart : t0, t1));
        characterize.push_back(secondsBetween(t0, t1));
    }
    return {setup, characterize};
}

/** The end-to-end host metrics every workload reports. */
void
reportHost(Report &report, double wall, double sim_cycles,
           const std::vector<double> &setup, std::size_t passes)
{
    report.add("wall_s", wall, "s");
    report.add("sim_mcycles_per_s", ratio(sim_cycles / 1e6, wall),
               "Mcycles/s");
    report.add("setup_s", median(setup), "s");
    std::string reps;
    for (const double s : setup)
        reps += (reps.empty() ? "" : ",") + std::to_string(s);
    report.note("samples.setup_s", reps, "s");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    report.add("error_rate", report.errorRate(), "ratio");
    report.note("samples.passes", std::to_string(passes), "count");
    report.note("sim_cycles",
                std::to_string(static_cast<std::uint64_t>(sim_cycles)),
                "cycles");
}

/** Per-layer harness metrics shared by every traced run. */
void
reportHarness(Report &report, const std::vector<double> &characterize)
{
    const SoloCache &cache = SoloCache::global();
    report.add("harness.characterize_s", median(characterize), "s");
    report.add("harness.solo_hit_ratio",
               ratio(static_cast<double>(cache.hits()),
                     static_cast<double>(cache.hits() + cache.misses())),
               "ratio");
    report.add("harness.jobs_failed",
               static_cast<double>(batchJobsFailed()), "count");
    report.add("harness.retries", static_cast<double>(batchRetries()),
               "count");
}

/** Write the spans and finish a traced run. */
int
finishTrace(Report &report, const Args &args,
            const std::vector<Span> &spans, double untraced_wall,
            double traced_wall, const std::string &digest,
            const std::string &traced_digest)
{
    if (traced_digest != digest)
        report.fail("traced digest " + traced_digest + " != untraced " +
                    digest);
    report.add("trace.overhead", ratio(traced_wall, untraced_wall),
               "ratio");
    std::ofstream os(args.tracePath);
    writeTrace(os, args.workload, args.seed, spans);
    if (!os)
        report.fail("cannot write " + args.tracePath);
    report.note("digest", digest, "fnv1a");
    report.note("digest.traced", traced_digest, "fnv1a");
    return report.finish({});
}

// ---------------------------------------------------------------- co-run

struct CoRunWorkload
{
    GpuConfig cfg;
    Cycle window = 0;
    std::vector<WorkloadPair> pairs;
    std::vector<PolicyKind> kinds;
    unsigned jobs = 1;
    std::size_t minPasses = 1;
};

std::optional<CoRunWorkload>
coRunWorkload(const std::string &name)
{
    CoRunWorkload w;
    if (name == "sweep-serial") {
        // The paper's 30 pairs under the baseline and the proposal, at
        // sweep-jobs4's window so both report the same GMEANs.
        w.cfg = GpuConfig::baseline();
        w.window = 50'000;
        w.pairs = evaluationPairs();
        w.kinds = {PolicyKind::LeftOver, PolicyKind::Dynamic};
        return w;
    }
    if (name == "sweep-jobs4") {
        // Exactly bench_sweep's matrix and window, so the makespans
        // sum to its simulated_cycles.
        w.cfg = GpuConfig::baseline();
        w.window = 50'000;
        w.pairs = evaluationPairs();
        w.kinds = {PolicyKind::LeftOver, PolicyKind::Spatial,
                   PolicyKind::Even, PolicyKind::Dynamic};
        w.jobs = 4;
        return w;
    }
    if (name == "dc-corun") {
        w.cfg = GpuConfig::datacenter();
        w.window = 30'000;
        w.pairs = {{"MM", "LBM", "Compute+Memory"},
                   {"IMG", "NN", "Compute+Cache"},
                   {"HOT", "BLK", "Compute+Memory"},
                   {"DXT", "IMG", "Compute+Compute"}};
        w.kinds = {PolicyKind::LeftOver, PolicyKind::Dynamic};
        // Its working set lives in the shared last-level cache, so one
        // pass swings with co-tenant load: on a shared 4-vCPU VM the
        // wall_s IQR of ten one-pass runs reached 27 % of the median,
        // and 20 % when each job keeps the faster of two passes.
        w.minPasses = 2;
        return w;
    }
    return std::nullopt;
}

/** Category suffix of a pair, from its apps' Table II classes. */
std::string
categorySuffix(const std::vector<std::string> &apps)
{
    bool cache = false, memory = false;
    for (const std::string &a : apps) {
        cache |= benchmark(a).cls == AppClass::Cache;
        memory |= benchmark(a).cls == AppClass::Memory;
    }
    return memory ? "cmem" : cache ? "ccache" : "cc";
}

std::string
policySuffix(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::LeftOver: return "leftover";
      case PolicyKind::Dynamic:  return "dynamic";
      default:                   return "";
    }
}

/** The co-run matrix in canonical (pair-major) order. */
std::vector<CoRunJob>
canonicalBatch(const CoRunWorkload &w)
{
    std::vector<CoRunJob> batch;
    for (const WorkloadPair &pair : w.pairs) {
        for (const PolicyKind kind : w.kinds) {
            CoRunJob job;
            job.apps = {pair.first, pair.second};
            job.kind = kind;
            if (kind == PolicyKind::Dynamic)
                job.opts.slicer = scaledSlicerOptions(w.window);
            batch.push_back(job);
        }
    }
    return batch;
}

/** Digest of results in canonical order. */
std::string
coRunDigest(const std::vector<CoRunResult> &canonical)
{
    Digest d;
    for (const CoRunResult &r : canonical)
        digestCoRun(d, r);
    return d.hex();
}

/** GMEAN over pairs of Dynamic vs LeftOver system IPC and fairness. */
void
reportCoRunResults(Report &report, const CoRunWorkload &w,
                   Characterization &chars,
                   std::vector<CoRunResult> canonical)
{
    const std::size_t k = w.kinds.size();
    const std::size_t left = 0;     // LeftOver leads every kind list
    const std::size_t dyn = k - 1;  // and Dynamic closes it
    std::vector<double> ipc_dyn, ipc_left, fair_dyn, fair_left;
    for (std::size_t p = 0; p < w.pairs.size(); ++p) {
        CoRunResult &l = canonical[p * k + left];
        CoRunResult &d = canonical[p * k + dyn];
        if (l.apps.size() != 2 || d.apps.size() != 2)
            continue;  // a failed job, already counted by error_rate
        for (CoRunResult *r : {&l, &d}) {
            r->apps[0].aloneCycles = chars.aloneCycles(w.pairs[p].first);
            r->apps[1].aloneCycles = chars.aloneCycles(w.pairs[p].second);
        }
        ipc_left.push_back(l.sysIpc);
        ipc_dyn.push_back(d.sysIpc);
        fair_left.push_back(minimumSpeedup(l.apps));
        fair_dyn.push_back(minimumSpeedup(d.apps));
    }
    const double norm_ipc = gmeanOfRatios(ipc_dyn, ipc_left);
    report.add("sim_norm_ipc_gmean", norm_ipc, "ratio");
    report.add("sim_fairness_gmean", gmeanOfRatios(fair_dyn, fair_left),
               "ratio");
    // The paper's headline: Warped-Slicer beats Left-Over on GMEAN.
    if (!(norm_ipc > 1.0))
        report.fail("Dynamic does not beat LeftOver on GMEAN system IPC");
}

/** Per-layer sums over a set of traced jobs. */
struct LayerSums
{
    double run = 0, sm = 0, icnt = 0, mem = 0, policy = 0;

    void
    add(const TracedJob &t)
    {
        run += t.runS;
        sm += t.smS;
        icnt += t.icntS;
        mem += t.memS;
        policy += t.policyS;
    }
};

/** The co-run layers (harness jobs, gpu, sm, mem, core) of a traced
 *  pass; all zero when `traced` is empty. Appends the job spans. */
void
reportCoRunLayers(Report &report, unsigned jobs,
                  const std::vector<CoRunJob> &submitted,
                  const std::vector<TracedJob> &traced, double wall,
                  std::vector<Span> &spans)
{
    LayerSums all;
    std::map<std::string, LayerSums> split;
    std::vector<double> job_s;
    double construct = 0, glue = 0, sm_cycles = 0, cycles = 0;
    double ticks = 0, skipped = 0, scans = 0, memo = 0, warp = 0;
    double l2 = 0, dram = 0, calls = 0, decisions = 0, rounds = 0;
    std::array<double, reportedCaps.size()> caps{};
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const TracedJob &t = traced[i];
        const std::size_t run_span = spans.size() + 2;
        appendJobSpans(spans, i, t);
        glue += selfSeconds(spans, run_span);
        all.add(t);
        split[categorySuffix(submitted[i].apps)].add(t);
        const std::string pol = policySuffix(submitted[i].kind);
        if (!pol.empty())
            split[pol].add(t);
        job_s.push_back(t.jobS);
        construct += t.constructS;
        const double makespan = static_cast<double>(t.result.makespan);
        cycles += makespan;
        sm_cycles += makespan * t.numSms;
        ticks += static_cast<double>(t.ticks);
        skipped += static_cast<double>(t.skippedCycles);
        for (std::size_t c = 0; c < caps.size(); ++c)
            caps[c] += static_cast<double>(t.caps[c]);
        scans += static_cast<double>(t.schedScans);
        memo += static_cast<double>(t.scanMemoHits);
        warp += static_cast<double>(t.result.stats.warpInstsIssued);
        l2 += static_cast<double>(t.result.stats.l2Accesses);
        dram += static_cast<double>(t.result.stats.dramReads +
                                    t.result.stats.dramWrites);
        calls += static_cast<double>(t.policyCalls);
        decisions += static_cast<double>(t.decisions);
        rounds += static_cast<double>(t.profileRounds);
    }

    report.add("harness.job_s_p50", percentile(job_s, 0.5), "s");
    report.add("harness.job_s_p90", percentile(job_s, 0.9), "s");
    report.add("harness.parallel_efficiency",
               ratio(sum(job_s), jobs * wall), "ratio");
    report.note("samples.jobs", std::to_string(job_s.size()), "count");

    report.add("gpu.construct_s", construct, "s");
    report.add("gpu.run_s", all.run, "s");
    report.add("gpu.glue_self_s", glue, "s");
    if (glue < 0)
        report.fail("gpu.glue_self_s is negative");
    report.add("gpu.icnt_s", all.icnt, "s");
    report.add("gpu.ns_per_sm_cycle", ratio(all.run * 1e9, sm_cycles),
               "ns");
    report.add("gpu.ticks", ticks, "count");
    report.add("gpu.skipped_cycles", skipped, "count");
    report.add("gpu.skip_ratio", ratio(skipped, cycles), "ratio");
    const char *cap_names[] = {"policy_dirty", "policy", "sm",
                               "partition", "run_end"};
    for (std::size_t c = 0; c < caps.size(); ++c)
        report.add(std::string("gpu.horizon_cap.") + cap_names[c],
                   caps[c], "count");

    report.add("sm.tick_s", all.sm, "s");
    report.add("sm.share", ratio(all.sm, all.run), "ratio");
    report.add("sm.ns_per_sm_cycle", ratio(all.sm * 1e9, sm_cycles),
               "ns");
    report.add("sm.warp_insts", warp, "count");
    report.add("sm.ns_per_warp_inst", ratio(all.sm * 1e9, warp), "ns");
    report.add("sm.sched_scans", scans, "count");
    report.add("sm.scan_memo_hit_ratio", ratio(memo, memo + scans),
               "ratio");

    report.add("mem.tick_s", all.mem, "s");
    report.add("mem.share", ratio(all.mem, all.run), "ratio");
    report.add("mem.l2_accesses", l2, "count");
    report.add("mem.dram_accesses", dram, "count");
    report.add("mem.ns_per_l2_access", ratio(all.mem * 1e9, l2), "ns");

    report.add("core.policy_s", all.policy, "s");
    report.add("core.share", ratio(all.policy, all.run), "ratio");
    report.add("core.calls", calls, "count");
    report.add("core.ns_per_call", ratio(all.policy * 1e9, calls), "ns");
    report.add("core.decisions", decisions, "count");
    report.add("core.profile_rounds", rounds, "count");

    for (const char *suffix :
         {"cc", "ccache", "cmem", "leftover", "dynamic"}) {
        const LayerSums &s = split[suffix];
        const std::string sfx = std::string(".") + suffix;
        report.add("sm.share" + sfx, ratio(s.sm, s.run), "ratio");
        report.add("mem.share" + sfx, ratio(s.mem, s.run), "ratio");
        report.add("gpu.icnt_s" + sfx, s.icnt, "s");
        report.add("core.policy_s" + sfx, s.policy, "s");
    }
}

/** Serve-layer totals over the runServe calls of one traced pass. */
struct ServeLayer
{
    std::vector<double> callS;
    double cycles = 0, slices = 0, liveLaunches = 0, preemptions = 0;
    double snapshots = 0, restores = 0, retries = 0, completed = 0;

    void
    add(const ServeResult &r, double seconds)
    {
        callS.push_back(seconds);
        cycles += static_cast<double>(r.endCycle);
        slices += static_cast<double>(r.slices);
        liveLaunches += static_cast<double>(r.liveLaunches);
        preemptions += static_cast<double>(r.preemptions);
        snapshots += static_cast<double>(r.snapshots);
        restores += static_cast<double>(r.restores);
        retries += static_cast<double>(r.retries);
        for (std::size_t t = 0; t < r.slo.numClasses(); ++t)
            completed += r.slo.of(static_cast<unsigned>(t)).completed;
    }
};

/** The serve layer of a traced pass; all zero for co-run workloads. */
void
reportServeLayer(Report &report, const ServeLayer &s)
{
    report.add("serve.call_s_p50", percentile(s.callS, 0.5), "s");
    report.add("serve.ns_per_sim_cycle",
               ratio(sum(s.callS) * 1e9, s.cycles), "ns");
    report.add("serve.slices", s.slices, "count");
    report.add("serve.live_launches", s.liveLaunches, "count");
    report.add("serve.preemptions", s.preemptions, "count");
    report.add("serve.snapshots", s.snapshots, "count");
    report.add("serve.restores", s.restores, "count");
    report.add("serve.retries", s.retries, "count");
    report.add("serve.completed", s.completed, "count");
}

int
runCoRun(const Args &args, const CoRunWorkload &w)
{
    Report report(args.workload);
    Characterization chars(w.cfg, w.window);
    const std::vector<CoRunJob> batch = canonicalBatch(w);
    std::vector<std::string> names;
    for (const CoRunJob &job : batch)
        names.insert(names.end(), job.apps.begin(), job.apps.end());
    const auto [setup, characterize] = timedSetup(chars, names);

    // The seed permutes submission order; results are digested and
    // summarized in canonical order.
    const std::vector<std::size_t> order =
        permutation(batch.size(), args.seed);
    std::vector<CoRunJob> submitted;
    for (const std::size_t i : order)
        submitted.push_back(batch[i]);

    // A serial workload times each job as its own unit. The jobs4
    // batch is one unit: its fan-out and tail are what it measures.
    std::vector<std::vector<CoRunJob>> units;
    if (w.jobs == 1) {
        for (const CoRunJob &job : submitted)
            units.push_back({job});
    } else {
        units.push_back(submitted);
    }

    std::vector<CoRunResult> canonical(batch.size());
    std::string digest;
    auto run_unit = [&](std::size_t u) {
        std::vector<CoRunResult> results =
            runCoScheduleBatch(chars, units[u], w.jobs);
        const std::size_t first = w.jobs == 1 ? u : 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            report.op(coRunError(results[i]));
            canonical[order[first + i]] = std::move(results[i]);
        }
    };
    auto end_pass = [&] {
        const std::string d = coRunDigest(canonical);
        if (!digest.empty() && d != digest)
            report.fail("pass digest " + d + " != first pass " + digest);
        digest = d;
    };

    if (args.tracePath.empty()) {
        std::size_t passes = 0;
        const double wall =
            sum(fastestUnits(units.size(), w.minPasses, args.seconds,
                             run_unit, end_pass, passes));
        double sim_cycles = 0;
        for (const CoRunResult &r : canonical)
            sim_cycles += static_cast<double>(r.makespan);
        reportHost(report, wall, sim_cycles, setup, passes);
        reportCoRunResults(report, w, chars, canonical);
        report.note("samples.jobs", std::to_string(batch.size()),
                    "count");
        report.note("digest", digest, "fnv1a");
        return report.finish(endToEndMetrics);
    }

    // Traced run: one untraced pass for the reference digest and wall
    // time, then every job replayed with spans.
    const Clock::time_point u0 = Clock::now();
    for (std::size_t u = 0; u < units.size(); ++u)
        run_unit(u);
    end_pass();
    const double untraced_wall = secondsBetween(u0, Clock::now());

    const Clock::time_point origin = Clock::now();
    const std::vector<TracedJob> traced = parallelMap<TracedJob>(
        submitted.size(), w.jobs, [&](std::size_t i) {
            const CoRunJob &job = submitted[i];
            std::vector<KernelParams> apps;
            std::vector<std::uint64_t> targets;
            for (const std::string &name : job.apps) {
                apps.push_back(benchmark(name));
                targets.push_back(chars.target(name));
            }
            return runTracedJob(chars.config(), apps, targets, job.kind,
                                job.opts.slicer, origin);
        });
    const double traced_wall = secondsBetween(origin, Clock::now());
    std::vector<CoRunResult> traced_canonical(batch.size());
    for (std::size_t i = 0; i < traced.size(); ++i) {
        report.op(coRunError(traced[i].result));
        traced_canonical[order[i]] = traced[i].result;
    }

    std::vector<Span> spans;
    reportHarness(report, characterize);
    reportCoRunLayers(report, w.jobs, submitted, traced, traced_wall,
                      spans);
    reportServeLayer(report, {});
    return finishTrace(report, args, spans, untraced_wall, traced_wall,
                       digest, coRunDigest(traced_canonical));
}

// ----------------------------------------------------------------- serve

/** Nine open-loop Poisson calls (three rates x three arrival seeds) and
 *  one chaos call, all under the Dynamic policy. */
std::vector<ServeOptions>
serveCalls(std::uint64_t seed)
{
    std::vector<ServeOptions> calls;
    auto make = [&](double rate, std::uint64_t arrival_seed) {
        ServeOptions so;
        so.cfg = GpuConfig::baseline();
        so.kind = PolicyKind::Dynamic;
        so.window = 50'000;
        so.seed = arrival_seed;
        so.arrivals.mode = ArrivalConfig::Mode::OpenPoisson;
        so.arrivals.ratePer10k = rate;
        return resolveServeOptions(so);
    };
    for (const double rate : {0.25, 0.5, 2.0})
        for (std::uint64_t k = 0; k < 3; ++k)
            calls.push_back(make(rate, seed + k));
    ServeOptions chaos = make(0.5, seed);
    chaos.chaos = FaultPlan::seeded(
        seed + 10, 6, chaos.horizon,
        static_cast<unsigned>(chaos.classes.size()));
    calls.push_back(chaos);
    return calls;
}

/** Simulated SLO outcomes over the calls of one pass. */
void
reportServeResults(Report &report, const std::vector<ServeResult> &pass)
{
    double arrivals = 0, goodput = 0, jain = 0;
    std::vector<double> latency_k;
    for (const ServeResult &r : pass) {
        for (std::size_t t = 0; t < r.slo.numClasses(); ++t) {
            arrivals += r.slo.of(static_cast<unsigned>(t)).arrivals;
            goodput += r.slo.of(static_cast<unsigned>(t)).goodput;
        }
        for (const ServeJob &job : r.jobs)
            if (job.outcome == JobOutcome::Completed)
                latency_k.push_back(
                    static_cast<double>(job.finishCycle - job.arrival) /
                    1e3);
        jain += r.fairness;
    }
    report.add("serve_goodput_frac", ratio(goodput, arrivals), "ratio");
    report.add("serve_latency_p50_kcyc", percentile(latency_k, 0.5),
               "kcycles");
    report.add("serve_latency_p90_kcyc", percentile(latency_k, 0.9),
               "kcycles");
    report.add("serve_jain", ratio(jain, static_cast<double>(pass.size())),
               "index");
    report.note("samples.latency", std::to_string(latency_k.size()),
                "count");
}

int
runServeMix(const Args &args)
{
    Report report(args.workload);
    const std::vector<ServeOptions> calls = serveCalls(args.seed);
    Characterization chars(calls.front().cfg, calls.front().window);
    std::vector<std::string> names;
    for (const TenantClass &cls : calls.front().classes)
        names.push_back(cls.bench);
    const auto [setup, characterize] = timedSetup(chars, names);

    // The latest result of every call, and the digest over them.
    std::vector<ServeResult> results;
    for (const ServeOptions &so : calls)
        results.emplace_back(so.classes);
    std::string digest;
    auto run_unit = [&](std::size_t u) {
        results[u] = runServe(calls[u]);
        report.op(serveError(results[u]));
    };
    auto pass_digest = [&] {
        Digest d;
        for (const ServeResult &r : results)
            digestServe(d, r);
        return d.hex();
    };
    auto end_pass = [&] {
        const std::string d = pass_digest();
        if (!digest.empty() && d != digest)
            report.fail("pass digest " + d + " != first pass " + digest);
        digest = d;
    };

    if (args.tracePath.empty()) {
        std::size_t passes = 0;
        const double wall = sum(fastestUnits(calls.size(), 1, args.seconds,
                                             run_unit, end_pass, passes));
        double sim_cycles = 0;
        for (const ServeResult &r : results)
            sim_cycles += static_cast<double>(r.endCycle);
        reportHost(report, wall, sim_cycles, setup, passes);
        reportServeResults(report, results);
        report.note("samples.calls", std::to_string(calls.size()),
                    "count");
        report.note("digest", digest, "fnv1a");
        return report.finish(endToEndMetrics);
    }

    // Traced run: an untraced pass, then one span per runServe call
    // with its counts from ServeResult. The co-run layers are not
    // separable inside runServe until the program records its own
    // spans; they read 0 here.
    const Clock::time_point u0 = Clock::now();
    for (std::size_t u = 0; u < calls.size(); ++u)
        run_unit(u);
    end_pass();
    const double untraced_wall = secondsBetween(u0, Clock::now());

    std::vector<Span> spans;
    ServeLayer layer;
    const Clock::time_point origin = Clock::now();
    for (std::size_t u = 0; u < calls.size(); ++u) {
        const Clock::time_point t0 = Clock::now();
        run_unit(u);
        const double s = secondsBetween(t0, Clock::now());
        spans.push_back({"serve.call", u, -1, secondsBetween(origin, t0),
                         s, false});
        layer.add(results[u], s);
    }
    const double traced_wall = secondsBetween(origin, Clock::now());

    reportHarness(report, characterize);
    reportCoRunLayers(report, 1, {}, {}, traced_wall, spans);
    reportServeLayer(report, layer);
    return finishTrace(report, args, spans, untraced_wall, traced_wall,
                       digest, pass_digest());
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
            if (end == value || *end)
                return false;
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, &end);
            if (end == value || *end || !(args.seconds > 0))
                return false;
        } else if (flag == "--trace") {
            args.tracePath = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !args.workload.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload W --seed S [--seconds T] "
                     "[--trace FILE]\n", argv[0]);
        return 2;
    }
    try {
        if (args.workload == "serve-mix")
            return runServeMix(args);
        if (const std::optional<CoRunWorkload> w =
                coRunWorkload(args.workload))
            return runCoRun(args, *w);
    } catch (const std::exception &e) {
        // The traced replay has no per-job fault isolation; a
        // SimError there fails the whole run.
        std::fprintf(stderr, "wsl-bench: %s: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }
    std::fprintf(stderr, "wsl-bench: unknown workload '%s' (sweep-serial, "
                 "sweep-jobs4, dc-corun, serve-mix)\n",
                 args.workload.c_str());
    return 2;
}
