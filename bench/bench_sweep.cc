/**
 * @file
 * Wall-clock benchmark and correctness gate for the experiment engine:
 * runs the full 30-pair x 4-policy evaluation matrix four ways —
 * {serial, `--jobs` worker threads} x {event-horizon clock skipping
 * on, off} — plus a fifth pass with the full observability layer
 * attached (engine profiler on every job, decision log on the Dynamic
 * jobs, registry exporters exercised afterwards) and two warm-start
 * passes (one populating the process-wide SnapshotCache with each
 * job's prefix snapshot, one replaying the whole matrix from those
 * cached snapshots), verifies all seven result sets are
 * bit-identical, and reports the speedups. This is the gate that lets
 * clock skipping, batch parallelism, the observability layer, and the
 * snapshot warm-start path all claim "pure performance toggle" /
 * "pure observer".
 *
 * Usage: bench_sweep [--quick] [--jobs N] [--out FILE]
 *   --quick   evaluate only the first 6 pairs (CI-sized)
 *   --jobs N  worker threads for the parallel passes (default WSL_JOBS,
 *             0 = all hardware threads)
 *   --out F   JSON report path (default BENCH_sweep.json)
 *
 * The solo-characterization cache is cleared before each pass so both
 * measure the complete pipeline (characterization + co-run matrix).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "harness/snapshot_cache.hh"
#include "harness/solo_cache.hh"
#include "obs/decision_log.hh"
#include "obs/engine_profiler.hh"
#include "obs/registry.hh"
#include "snapshot/format.hh"

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
    std::string out_path = "BENCH_sweep.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--jobs") == 0 &&
                   i + 1 < argc) {
            jobs = parseJobs(argv[++i], "--jobs");
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
    GpuConfig cfg_noskip = cfg;
    cfg_noskip.clockSkip = false;
    const Cycle window = defaultWindow();
    Characterization chars(cfg, window);
    Characterization chars_noskip(cfg_noskip, window);

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
    std::vector<CoRunResult> serial_ref, parallel_ref;
    const double t_serial = timedRun(chars, batch, 1, serial);
    std::printf("serial:            %7.2fs (1 thread)\n", t_serial);
    const double t_parallel = timedRun(chars, batch, jobs, parallel);
    std::printf("parallel:          %7.2fs (%u threads)\n", t_parallel,
                jobs);
    const double t_serial_ref =
        timedRun(chars_noskip, batch, 1, serial_ref);
    std::printf("serial no-skip:    %7.2fs (1 thread)\n", t_serial_ref);
    const double t_parallel_ref =
        timedRun(chars_noskip, batch, jobs, parallel_ref);
    std::printf("parallel no-skip:  %7.2fs (%u threads)\n",
                t_parallel_ref, jobs);
    // Fifth pass: full observability attached. The profiler and
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

    // Warm-start passes: every job forks from a snapshot of its own
    // launch-through-window/2 prefix. The capture pass populates the
    // process-wide SnapshotCache (each prefix simulated once, then
    // restored — roughly serial cost plus serialization overhead);
    // the second pass hits the cache for every job and skips the
    // prefix simulation outright. Both must stay bit-identical to the
    // cold serial pass — that is the snapshot engine's restore
    // guarantee under load.
    const Cycle warm_at = window / 2;
    std::vector<CoRunJob> warm_batch = batch;
    for (CoRunJob &job : warm_batch) {
        job.opts.warmStart = &SnapshotCache::global();
        job.opts.warmStartAt = warm_at;
    }
    SnapshotCache::global().clear();
    std::vector<CoRunResult> warm_capture, warm;
    const double t_warm_capture =
        timedRun(chars, warm_batch, 1, warm_capture);
    std::printf("warm capture:      %7.2fs (1 thread, %llu prefix "
                "snapshots)\n", t_warm_capture,
                static_cast<unsigned long long>(
                    SnapshotCache::global().misses()));
    const double t_warm = timedRun(chars, warm_batch, 1, warm);
    std::printf("warm start:        %7.2fs (1 thread, %llu cache "
                "hits)\n", t_warm,
                static_cast<unsigned long long>(
                    SnapshotCache::global().hits()));
    SnapshotCache::global().clear();
    // Pull-model registry: sampling happens only here, at export.
    {
        CounterRegistry registry;
        registerStatsCounters(registry, observed.empty()
                                            ? GpuStats{}
                                            : observed.front().stats);
        if (!profilers.empty())
            profilers.front().registerCounters(registry);
        registerHarnessCounters(registry);
        std::ostringstream sink;
        registry.writePrometheus(sink);
    }

    // All seven passes must agree byte for byte: batch parallelism
    // may not perturb results, event-horizon skipping must be
    // invisible next to the per-cycle reference loop, the
    // observability layer must be a pure observer, and warm starts
    // must continue exactly where the prefix left off.
    auto same_as_serial = [&](const std::vector<CoRunResult> &other) {
        if (other.size() != serial.size())
            return false;
        for (std::size_t i = 0; i < serial.size(); ++i)
            if (!sameResult(serial[i], other[i]))
                return false;
        return true;
    };
    const bool thread_identical = same_as_serial(parallel);
    const bool skip_identical = same_as_serial(serial_ref) &&
                                same_as_serial(parallel_ref);
    const bool obs_identical = same_as_serial(observed);
    const bool warm_identical =
        same_as_serial(warm_capture) && same_as_serial(warm);
    const bool identical = thread_identical && skip_identical &&
                           obs_identical && warm_identical;
    const double speedup = t_parallel > 0 ? t_serial / t_parallel : 0;
    const double skip_speedup =
        t_serial > 0 ? t_serial_ref / t_serial : 0;
    std::printf("thread speedup:  %7.2fx   results %s\n", speedup,
                thread_identical ? "bit-identical" : "DIVERGED");
    std::printf("skip speedup:    %7.2fx   results %s\n", skip_speedup,
                skip_identical ? "bit-identical" : "DIVERGED");
    std::printf("obs overhead:    %7.2fx   results %s\n",
                t_serial > 0 ? t_observed / t_serial : 0,
                obs_identical ? "bit-identical" : "DIVERGED");
    const double warm_speedup = t_warm > 0 ? t_serial / t_warm : 0;
    std::printf("warm speedup:    %7.2fx   results %s\n", warm_speedup,
                warm_identical ? "bit-identical" : "DIVERGED");

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

    std::ofstream os(out_path);
    if (os) {
        os << "{\n"
           << "  \"pairs\": " << pairs.size() << ",\n"
           << "  \"sim_jobs\": " << batch.size() << ",\n"
           << "  \"window_cycles\": " << window << ",\n"
           << "  \"threads\": " << jobs << ",\n"
           << "  \"serial_seconds\": " << t_serial << ",\n"
           << "  \"parallel_seconds\": " << t_parallel << ",\n"
           << "  \"serial_noskip_seconds\": " << t_serial_ref << ",\n"
           << "  \"parallel_noskip_seconds\": " << t_parallel_ref
           << ",\n"
           << "  \"hardware_threads\": "
           << std::thread::hardware_concurrency() << ",\n"
           << "  \"observed_serial_seconds\": " << t_observed << ",\n"
           << "  \"warm_start_at\": " << warm_at << ",\n"
           << "  \"warm_capture_seconds\": " << t_warm_capture << ",\n"
           << "  \"warm_start_seconds\": " << t_warm << ",\n"
           << "  \"warm_start_speedup\": " << warm_speedup << ",\n"
           << "  \"snapshot_format_version\": " << snapshotFormatVersion
           << ",\n"
           << "  \"speedup\": " << speedup << ",\n"
           << "  \"clock_skip_speedup\": " << skip_speedup << ",\n"
           << "  \"simulated_cycles\": " << sim_cycles << ",\n"
           << "  \"serial_mcycles_per_sec\": " << mcps << ",\n"
           << "  \"identical\": " << (identical ? "true" : "false")
           << "\n}\n";
        std::printf("(wrote %s)\n", out_path.c_str());
    } else {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    }
    return identical ? 0 : 1;
}
