/**
 * @file
 * Building blocks of wsl-bench, kept apart from its main() so that
 * test_bench can check them: summary statistics, the result digest,
 * the correctness checks, trace spans, and the traced replay of one
 * co-run job.
 *
 * Only public layer APIs are used. From EngineProfiler the benchmark
 * reads the four per-tick phase times, the tick/skip counts, the
 * horizon-cap counts and the scheduler scan/memo split, and nothing
 * else, so engine internals can change without touching the benchmark.
 */

#ifndef WSL_BENCHMARK_BENCH_LIB_HH
#define WSL_BENCHMARK_BENCH_LIB_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "harness/runner.hh"
#include "obs/engine_profiler.hh"
#include "serve/engine.hh"

namespace wsl::bench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed between two clock readings. */
double secondsBetween(Clock::time_point from, Clock::time_point to);

/**
 * p-th quantile (0 <= p <= 1) with linear interpolation between the
 * two nearest ranks, so percentile(v, 0.5) is the usual median.
 * Returns 0 for an empty sample.
 */
double percentile(std::vector<double> values, double p);

/** GMEAN over i of num[i] / den[i] (the Figure 6 normalization). */
double gmeanOfRatios(const std::vector<double> &num,
                     const std::vector<double> &den);

/** 64-bit FNV-1a over everything fed to it, in order. */
class Digest
{
  public:
    void bytes(const void *data, std::size_t n);
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    /** Exact bit pattern, so any change in a double shows. */
    void f64(double v);
    void str(std::string_view s);
    std::uint64_t value() const { return h; }
    std::string hex() const;

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/** A co-run job's makespan, sysIpc bits, per-app insts/cycles, chosen
 *  CTAs and every SmStats/PartitionStats field. */
void digestCoRun(Digest &d, const CoRunResult &r);

/** A serving run's SLO report (JSON) and end cycle. */
void digestServe(Digest &d, const ServeResult &r);

/** Why a co-run job counts as failed; empty when it succeeded. */
std::string coRunError(const CoRunResult &r);

/**
 * The SLO ledger must account for every arrival exactly once:
 * arrivals = admitted + rejected, and admitted = completed + shed +
 * timedOut + failed + pendingAtEnd. Empty when it conserves.
 */
std::string ledgerError(const ClassSlo &s);

/** Why a runServe call counts as failed (invariant violations or a
 *  ledger that does not conserve); empty when it succeeded. */
std::string serveError(const ServeResult &r);

/**
 * One traced interval. Spans of one job share `id`; `parent` indexes
 * the enclosing span in the same vector (-1 for a root). An
 * aggregated span is the sum of many short intervals (per-tick phases,
 * policy calls) and carries its parent's start.
 */
struct Span
{
    std::string name;
    std::uint64_t id = 0;
    int parent = -1;
    double startS = 0.0;
    double durS = 0.0;
    bool aggregated = false;
};

/** A span's duration minus the part its direct children cover. */
double selfSeconds(const std::vector<Span> &spans, std::size_t index);

/** Write spans as JSON (schema "wsl-bench-trace-v1"). */
void writeTrace(std::ostream &os, const std::string &workload,
                std::uint64_t seed, const std::vector<Span> &spans);

/**
 * Forwarding SlicingPolicy decorator that reads the clock around every
 * call the Gpu makes into the wrapped policy. Observes only: every
 * call is forwarded unchanged.
 */
class TimedPolicy final : public SlicingPolicy
{
  public:
    explicit TimedPolicy(std::unique_ptr<SlicingPolicy> inner);

    std::string name() const override;
    void onKernelSetChanged(Gpu &gpu, Cycle now) override;
    void tick(Gpu &gpu, Cycle now) override;
    bool mayDispatch(const Gpu &gpu, SmId sm,
                     KernelId kid) const override;
    bool timeInvariant() const override;
    Cycle nextDecisionAt(Cycle now) const override;
    std::string describeLastDecision() const override;
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;

    std::uint64_t ns() const { return spentNs; }
    std::uint64_t calls() const { return callCount; }

  private:
    template <typename F> auto timed(F &&f) const;

    std::unique_ptr<SlicingPolicy> inner;
    mutable std::uint64_t spentNs = 0;
    mutable std::uint64_t callCount = 0;
};

/** Horizon caps the benchmark reports, in output order. */
constexpr std::array<HorizonCap, 5> reportedCaps = {
    HorizonCap::PolicyDirty, HorizonCap::Policy, HorizonCap::Sm,
    HorizonCap::Partition, HorizonCap::RunEnd};

/** One co-run job replayed through runCoSchedule's cold path with the
 *  engine profiler and a TimedPolicy attached. */
struct TracedJob
{
    CoRunResult result;
    unsigned numSms = 0;
    double startS = 0.0;      //!< job start, from the trace origin
    double runStartS = 0.0;   //!< Gpu::run start, from the trace origin
    double jobS = 0.0;
    double constructS = 0.0;  //!< Gpu + policy construction
    double runS = 0.0;        //!< Gpu::run
    double smS = 0.0;         //!< SmCompute phase
    double icntS = 0.0;       //!< IcntMergeRequests + IcntDeliver
    double memS = 0.0;        //!< PartitionCompute phase
    double policyS = 0.0;     //!< policy calls made during Gpu::run
    std::uint64_t policyCalls = 0;
    std::uint64_t ticks = 0;
    std::uint64_t skippedCycles = 0;
    std::array<std::uint64_t, reportedCaps.size()> caps{};
    std::uint64_t schedScans = 0;
    std::uint64_t scanMemoHits = 0;
    std::uint64_t decisions = 0;      //!< Dynamic only
    std::uint64_t profileRounds = 0;  //!< Dynamic only
};

/**
 * Replay one job the way runCoSchedule runs it cold:
 * Gpu(cfg, TimedPolicy(makePolicy(kind, slicer))), launchKernel for
 * each app at its target, attachEngineProfiler, run(maxCycles). The
 * result is extracted exactly as runCoSchedule extracts it, so its
 * digest must equal the untraced job's.
 */
TracedJob runTracedJob(const GpuConfig &cfg,
                       const std::vector<KernelParams> &apps,
                       const std::vector<std::uint64_t> &targets,
                       PolicyKind kind, const WarpedSlicerOptions &slicer,
                       Clock::time_point origin);

/** The job's spans: `job` with children gpu.construct and gpu.run,
 *  and under gpu.run the aggregated sm.tick, gpu.icnt, mem.tick and
 *  core.policy. Appended to `spans`. */
void appendJobSpans(std::vector<Span> &spans, std::uint64_t id,
                    const TracedJob &job);

} // namespace wsl::bench

#endif // WSL_BENCHMARK_BENCH_LIB_HH
