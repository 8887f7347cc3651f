/**
 * @file
 * Tests for event-horizon clock skipping: the skipping engine must be
 * indistinguishable from the per-cycle reference loop (clockSkip =
 * false). Skips may never jump past an interaction — every policy
 * decision, telemetry sample, invariant audit, and watchdog deadline
 * must fire on the same cycle, with the same state, as it does when
 * every cycle is ticked. Also covers the SoA hot-state layout:
 * scheduler-scan determinism across engines and the auditor's
 * bitmask-vs-rescan cross-check at cadence 1.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "check/auditor.hh"
#include "check/sim_error.hh"
#include "core/policies.hh"
#include "core/warped_slicer.hh"
#include "gpu/gpu.hh"
#include "obs/decision_log.hh"
#include "sm/sm_core.hh"
#include "telemetry/telemetry.hh"
#include "workloads/benchmarks.hh"

using namespace wsl;

namespace {

/** Exact counter-level equality via the canonical field lists. */
void
expectStatsEqual(const GpuStats &a, const GpuStats &b)
{
    SmStats::forEachField([&](const char *name, auto member) {
        EXPECT_EQ(a.*member, b.*member) << "SmStats field " << name;
    });
    PartitionStats::forEachField([&](const char *name, auto member) {
        EXPECT_EQ(a.*member, b.*member)
            << "PartitionStats field " << name;
    });
}

struct SoloRun
{
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    GpuStats stats;
};

/** Run `bench` alone for `window` cycles with clock skipping on or
 *  off. */
SoloRun
soloWindow(const char *bench, Cycle window, bool skip)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.clockSkip = skip;
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    const KernelId kid = gpu.launchKernel(benchmark(bench));
    gpu.run(window);
    SoloRun out;
    out.cycles = gpu.cycle();
    out.insts = gpu.kernelThreadInsts(kid);
    out.stats = gpu.collectStats();
    return out;
}

/** A barrier-per-iteration kernel whose grid is fully resident and
 *  effectively never finishes — the deadlock-injection substrate. */
KernelParams
hangKernel()
{
    KernelParams k;
    k.name = "SKIP_HANG";
    k.gridDim = 32;
    k.blockDim = 64;
    k.regsPerThread = 16;
    k.mix = {.alu = 6, .sfu = 1, .ldGlobal = 2, .stGlobal = 0,
             .ldShared = 0, .stShared = 0, .depDist = 4,
             .barrierPerIter = true};
    k.loopIters = 1'000'000;
    k.mem = {MemPattern::Tile, 4096, 1};
    k.ifetchMissRate = 0.0;
    return k;
}

} // namespace

// ---------------------------------------------------------------------
// Bit-identity vs the per-cycle reference
// ---------------------------------------------------------------------

TEST(ClockSkip, SoloWindowsBitIdenticalToPerCycle)
{
    // MM is compute-bound (an event almost every cycle); LBM is
    // memory-stalled (long eventless stretches waiting on fills, the
    // case the skip horizon exists for).
    for (const char *bench : {"MM", "LBM"}) {
        const SoloRun ref = soloWindow(bench, 8'000, false);
        const SoloRun skip = soloWindow(bench, 8'000, true);
        EXPECT_EQ(skip.cycles, ref.cycles) << bench;
        EXPECT_EQ(skip.insts, ref.insts) << bench;
        expectStatsEqual(ref.stats, skip.stats);
    }
}

// ---------------------------------------------------------------------
// Interactions fire at the exact per-cycle cycle
// ---------------------------------------------------------------------

TEST(ClockSkip, AuditCadenceOneLeavesResultsUnchanged)
{
    // An audit due every cycle must neither throw nor perturb the
    // simulation under either engine.
    auto run = [](bool skip) {
        GpuConfig cfg = GpuConfig::baseline();
        cfg.clockSkip = skip;
        cfg.auditCadence = 1;
        Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
        gpu.launchKernel(benchmark("MM"));
        EXPECT_NO_THROW(gpu.run(6'000));
        EXPECT_NE(gpu.integrityAuditor(), nullptr);
        EXPECT_GT(gpu.integrityAuditor()->auditsRun(), 0u);
        return gpu.collectStats();
    };
    expectStatsEqual(run(false), run(true));
}

TEST(ClockSkip, AuditsFireAtExactPerCycleCycles)
{
    // A cadence that is neither a divisor nor a multiple of anything
    // the workload does: the skipping engine must run the same number
    // of audits, leaving the auditor's schedule at the same next
    // cycle as the reference.
    auto run = [](bool skip) {
        GpuConfig cfg = GpuConfig::baseline();
        cfg.clockSkip = skip;
        cfg.auditCadence = 677;
        Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
        gpu.launchKernel(benchmark("MM"));
        gpu.run(20'000);
        const Auditor *aud = gpu.integrityAuditor();
        return std::pair<std::uint64_t, Cycle>(
            aud->auditsRun(), aud->nextAuditAt());
    };
    const auto [ref_audits, ref_next] = run(false);
    const auto [skip_audits, skip_next] = run(true);
    EXPECT_GT(ref_audits, 10u);
    EXPECT_EQ(skip_audits, ref_audits);
    EXPECT_EQ(skip_next, ref_next);
}

TEST(ClockSkip, TelemetrySamplesAtExactPerCycleCycles)
{
    // Interval 703 (prime, no relation to any engine constant): each
    // sample must land on the same cycle with the same deltas as the
    // per-cycle reference — a skip that overshoots the sample point by
    // even one cycle shifts an interval boundary and fails here.
    auto run = [](bool skip, std::vector<TelemetryInterval> &out) {
        GpuConfig cfg = GpuConfig::baseline();
        cfg.clockSkip = skip;
        Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
        TelemetryConfig tconf;
        tconf.interval = 703;
        TelemetrySampler sampler(tconf);
        gpu.attachTelemetry(&sampler);
        gpu.launchKernel(benchmark("MM"));
        gpu.run(15'000);
        sampler.finish(gpu);
        out = sampler.intervals();
    };
    std::vector<TelemetryInterval> ref, skip;
    run(false, ref);
    run(true, skip);
    ASSERT_GT(ref.size(), 10u);
    ASSERT_EQ(skip.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(skip[i].start, ref[i].start) << "interval " << i;
        EXPECT_EQ(skip[i].end, ref[i].end) << "interval " << i;
        expectStatsEqual(ref[i].gpu, skip[i].gpu);
    }
}

TEST(ClockSkip, PolicyDecisionsApplyAtExactPerCycleCycles)
{
    // The Warped-Slicer profiling schedule is cycle-exact: warmup and
    // profile windows end at fixed cycles, and each applied
    // repartition records the cycle it happened. The skipping engine
    // must reproduce the decision log cycle-for-cycle.
    auto run = [](bool skip, DecisionLog &log) {
        GpuConfig cfg = GpuConfig::baseline();
        cfg.clockSkip = skip;
        WarpedSlicerOptions opts;
        opts.warmup = 2000;
        opts.profileLength = 2000;
        opts.monitorWindow = 2000;
        opts.reprofileCooldown = 50'000;
        auto policy = std::make_unique<WarpedSlicerPolicy>(opts);
        policy->attachDecisionLog(&log);
        Gpu gpu(cfg, std::move(policy));
        gpu.launchKernel(benchmark("IMG"), 10'000'000);
        gpu.launchKernel(benchmark("NN"), 10'000'000);
        gpu.run(12'000);
    };
    DecisionLog ref, skip;
    run(false, ref);
    run(true, skip);
    ASSERT_GE(ref.entries().size(), 1u);
    ASSERT_EQ(skip.entries().size(), ref.entries().size());
    for (std::size_t i = 0; i < ref.entries().size(); ++i) {
        EXPECT_EQ(skip.entries()[i].cycle, ref.entries()[i].cycle);
        EXPECT_EQ(skip.entries()[i].chosenCtas,
                  ref.entries()[i].chosenCtas);
        EXPECT_EQ(skip.entries()[i].spatial, ref.entries()[i].spatial);
    }
}

TEST(ClockSkip, WatchdogFiresAtThePerCycleDeadline)
{
    // Inject a lost-wakeup barrier hang. The parked machine has no
    // events, so the skipping engine jumps straight to the watchdog
    // deadline; it must throw there — on the same cycle, with the
    // same stall length — exactly as the per-cycle loop does.
    constexpr Cycle wd = 300;
    struct Fired
    {
        Cycle cycle = 0;
        Cycle stalledFor = 0;
        Cycle gpuCycle = 0;
    };
    auto run = [](bool skip) -> std::optional<Fired> {
        GpuConfig cfg = GpuConfig::baseline();
        cfg.clockSkip = skip;
        cfg.watchdogCycles = wd;
        Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
        gpu.launchKernel(hangKernel());
        gpu.run(2'000);  // get every CTA resident and running
        EXPECT_FALSE(gpu.allKernelsDone());
        for (unsigned s = 0; s < gpu.numSms(); ++s)
            gpu.sm(s).injectBarrierHangForTest();
        try {
            gpu.run(1'000'000);
        } catch (const DeadlockError &e) {
            return Fired{e.cycle(), e.stalledFor(), gpu.cycle()};
        }
        return std::nullopt;
    };
    const std::optional<Fired> ref = run(false);
    const std::optional<Fired> skip = run(true);
    ASSERT_TRUE(ref.has_value()) << "per-cycle watchdog never fired";
    ASSERT_TRUE(skip.has_value()) << "skipping watchdog never fired";
    EXPECT_EQ(ref->stalledFor, wd);
    EXPECT_EQ(skip->cycle, ref->cycle);
    EXPECT_EQ(skip->stalledFor, ref->stalledFor);
    EXPECT_EQ(skip->gpuCycle, ref->gpuCycle);
}

// ---------------------------------------------------------------------
// SoA hot-state layout
// ---------------------------------------------------------------------

TEST(SoaHotState, SchedulerScanIsDeterministicAcrossEngines)
{
    // The SoA scheduler scan (readiness bitmasks over WarpHot arrays)
    // must issue the same instruction stream no matter which engine
    // drives it: two identical runs agree exactly, and the per-cycle
    // reference run agrees with both.
    const Cycle window = 8'000;
    const SoloRun a = soloWindow("IMG", window, true);
    const SoloRun b = soloWindow("IMG", window, true);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
    expectStatsEqual(a.stats, b.stats);
    const SoloRun ref = soloWindow("IMG", window, false);
    EXPECT_EQ(a.cycles, ref.cycles);
    EXPECT_EQ(a.insts, ref.insts);
    expectStatsEqual(ref.stats, a.stats);
}

TEST(SoaHotState, AuditorBitmaskRescanPassesAtMaxCadence)
{
    // The auditor's readiness-bitmask check rebuilds every mask from a
    // legacy per-warp rescan of the SoA hot arrays and compares. At
    // cadence 1 this runs after every ticked cycle of a mixed co-run,
    // under both engines — any divergence between the split hot/cold
    // state and the masks throws InvariantViolation.
    for (const bool skip : {false, true}) {
        GpuConfig cfg = GpuConfig::baseline();
        cfg.clockSkip = skip;
        cfg.auditCadence = 1;
        Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
        gpu.launchKernel(benchmark("MM"), 200'000);
        gpu.launchKernel(benchmark("LBM"), 200'000);
        EXPECT_NO_THROW(gpu.run(5'000)) << "clockSkip " << skip;
        ASSERT_NE(gpu.integrityAuditor(), nullptr);
        // Cadence 1 = an audit on essentially every simulated cycle
        // (the run may end before the window when the instruction
        // targets are hit, and with skipping a handful of fully idle
        // cycles may still bulk-skip).
        EXPECT_GT(gpu.cycle(), 1'000u);
        EXPECT_GE(gpu.integrityAuditor()->auditsRun() + 8, gpu.cycle())
            << "clockSkip " << skip;
    }
}
