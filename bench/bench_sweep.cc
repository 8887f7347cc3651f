/**
 * @file
 * Wall-clock benchmark and correctness gate for the experiment engine:
 * runs the full 30-pair x 4-policy evaluation matrix three ways —
 * serially, on `--jobs` worker threads, and serially with the full
 * observability layer attached (engine profiler on every job, decision
 * log on the Dynamic jobs, counter writers exercised afterwards) —
 * verifies the three result sets are bit-identical, and reports the
 * thread speedup. This is the gate that lets batch parallelism claim
 * "pure performance toggle" and the observability layer "pure
 * observer".
 *
 * Usage: bench_sweep [--quick] [--jobs N] [--out FILE]
 *   --quick   evaluate only the first 6 pairs (CI-sized)
 *   --jobs N  worker threads for the parallel passes (default WSL_JOBS,
 *             0 = all hardware threads); a malformed N exits 2
 *   --out F   write the JSON report to F; without it no file is
 *             written (exit 1 if F cannot be written)
 *
 * The solo-characterization cache is cleared before each pass so every
 * pass measures the complete pipeline (characterization + co-run
 * matrix).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "harness/solo_cache.hh"
#include "obs/counters.hh"
#include "obs/decision_log.hh"
#include "obs/engine_profiler.hh"

using namespace wsl;

namespace {

bool
sameStats(const GpuStats &a, const GpuStats &b)
{
    bool same = true;
    SmStats::forEachField([&](const char *, auto member) {
        if (a.*member != b.*member)
            same = false;
    });
    PartitionStats::forEachField([&](const char *, auto member) {
        if (a.*member != b.*member)
            same = false;
    });
    return same;
}

bool
sameResult(const CoRunResult &a, const CoRunResult &b)
{
    if (a.makespan != b.makespan || a.sysIpc != b.sysIpc ||
        a.completed != b.completed ||
        a.spatialFallback != b.spatialFallback ||
        a.chosenCtas != b.chosenCtas || a.apps.size() != b.apps.size())
        return false;
    for (std::size_t i = 0; i < a.apps.size(); ++i) {
        if (a.apps[i].insts != b.apps[i].insts ||
            a.apps[i].cycles != b.apps[i].cycles)
            return false;
    }
    return sameStats(a.stats, b.stats);
}

double
timedRun(Characterization &chars, const std::vector<CoRunJob> &batch,
         unsigned jobs, std::vector<CoRunResult> &out)
{
    SoloCache::global().clear();
    const auto t0 = std::chrono::steady_clock::now();
    out = runCoScheduleBatch(chars, batch, jobs);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    unsigned jobs = defaultJobs();
    std::string out_path;
    for (int i = 1; i < argc; ++i) {
        std::optional<unsigned> flag_jobs;
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc &&
                   (flag_jobs = parseJobCount(argv[i + 1]))) {
            jobs = *flag_jobs;
            ++i;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--jobs N] [--out FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    const GpuConfig cfg = GpuConfig::baseline();
    const Cycle window = defaultWindow();
    Characterization chars(cfg, window);

    std::vector<WorkloadPair> pairs = evaluationPairs();
    if (quick && pairs.size() > 6)
        pairs.resize(6);

    std::vector<CoRunJob> batch;
    for (const WorkloadPair &pair : pairs) {
        for (PolicyKind kind :
             {PolicyKind::LeftOver, PolicyKind::Spatial,
              PolicyKind::Even, PolicyKind::Dynamic}) {
            CoRunJob job;
            job.apps = {pair.first, pair.second};
            job.kind = kind;
            if (kind == PolicyKind::Dynamic)
                job.opts.slicer = scaledSlicerOptions(window);
            batch.push_back(job);
        }
    }

    std::printf("sweep: %zu pairs, %zu jobs, window %llu cycles\n",
                pairs.size(), batch.size(),
                static_cast<unsigned long long>(window));

    std::vector<CoRunResult> serial, parallel;
    const double t_serial = timedRun(chars, batch, 1, serial);
    std::printf("serial:            %7.2fs (1 thread)\n", t_serial);
    const double t_parallel = timedRun(chars, batch, jobs, parallel);
    std::printf("parallel:          %7.2fs (%u threads)\n", t_parallel,
                jobs);
    // Third pass: full observability attached. The profiler and
    // decision log only observe, so simulated results must still be
    // bit-identical to the plain serial pass.
    std::vector<EngineProfiler> profilers(batch.size());
    std::vector<DecisionLog> decision_logs(batch.size());
    std::vector<CoRunJob> observed_batch = batch;
    for (std::size_t i = 0; i < observed_batch.size(); ++i) {
        observed_batch[i].opts.profiler = &profilers[i];
        if (observed_batch[i].kind == PolicyKind::Dynamic)
            observed_batch[i].opts.decisionLog = &decision_logs[i];
    }
    std::vector<CoRunResult> observed;
    const double t_observed =
        timedRun(chars, observed_batch, 1, observed);
    std::printf("observed serial:   %7.2fs (1 thread, profiler + "
                "decision log)\n", t_observed);
    // Exercise the counter writers on the first observed job.
    {
        std::vector<MetricSample> counters;
        appendStatsCounters(counters, observed.empty()
                                          ? GpuStats{}
                                          : observed.front().stats);
        if (!profilers.empty())
            profilers.front().appendCounters(counters);
        appendHarnessCounters(counters);
        std::ostringstream sink;
        writePrometheus(sink, counters);
    }

    // All three passes must agree byte for byte: batch parallelism
    // may not perturb results, and the observability layer must be a
    // pure observer.
    auto same_as_serial = [&](const std::vector<CoRunResult> &other) {
        if (other.size() != serial.size())
            return false;
        for (std::size_t i = 0; i < serial.size(); ++i)
            if (!sameResult(serial[i], other[i]))
                return false;
        return true;
    };
    const bool thread_identical = same_as_serial(parallel);
    const bool obs_identical = same_as_serial(observed);
    const bool identical = thread_identical && obs_identical;
    const double speedup = t_parallel > 0 ? t_serial / t_parallel : 0;
    std::printf("thread speedup:  %7.2fx   results %s\n", speedup,
                thread_identical ? "bit-identical" : "DIVERGED");
    std::printf("obs overhead:    %7.2fx   results %s\n",
                t_serial > 0 ? t_observed / t_serial : 0,
                obs_identical ? "bit-identical" : "DIVERGED");

    // Serial co-run throughput in simulated Mcycles/s: to first order
    // window- and pair-count-invariant, so a --quick CI run can be
    // compared against a full-sweep baseline (characterization time is
    // in the denominator for both, keeping the metric conservative).
    std::uint64_t sim_cycles = 0;
    for (const CoRunResult &r : serial)
        sim_cycles += r.makespan;
    const double mcps =
        t_serial > 0 ? static_cast<double>(sim_cycles) / t_serial / 1e6
                     : 0;
    std::printf("serial throughput: %.2f Mcyc/s\n", mcps);

    if (out_path.empty())
        return identical ? 0 : 1;
    std::ofstream os(out_path);
    os << "{\n"
       << "  \"pairs\": " << pairs.size() << ",\n"
       << "  \"sim_jobs\": " << batch.size() << ",\n"
       << "  \"window_cycles\": " << window << ",\n"
       << "  \"threads\": " << jobs << ",\n"
       << "  \"serial_seconds\": " << t_serial << ",\n"
       << "  \"parallel_seconds\": " << t_parallel << ",\n"
       << "  \"hardware_threads\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"observed_serial_seconds\": " << t_observed << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"simulated_cycles\": " << sim_cycles << ",\n"
       << "  \"serial_mcycles_per_sec\": " << mcps << ",\n"
       << "  \"identical\": " << (identical ? "true" : "false")
       << "\n}\n";
    if (!os.flush()) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::printf("(wrote %s)\n", out_path.c_str());
    return identical ? 0 : 1;
}
