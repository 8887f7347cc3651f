/**
 * @file
 * Tests for the simulation integrity layer: the invariant auditor, the
 * no-progress watchdog (with an injected lost-wakeup deadlock), the
 * typed recoverable-error model, RingQueue bounds guards, and
 * fault-isolated sweep batches.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/auditor.hh"
#include "check/sim_error.hh"
#include "common/ring.hh"
#include "core/policies.hh"
#include "expect_throw.hh"
#include "harness/runner.hh"
#include "workloads/benchmarks.hh"

using namespace wsl;

namespace {

/** A small compute kernel whose grid completes quickly. */
KernelParams
smallKernel()
{
    KernelParams k;
    k.name = "CHK_SMALL";
    k.gridDim = 64;
    k.blockDim = 64;
    k.regsPerThread = 16;
    k.mix = {.alu = 6, .sfu = 1, .ldGlobal = 2, .stGlobal = 0,
             .ldShared = 0, .stShared = 0, .depDist = 4,
             .barrierPerIter = false};
    k.loopIters = 8;
    k.mem = {MemPattern::Tile, 4096, 1};
    k.ifetchMissRate = 0.0;
    return k;
}

/**
 * A barrier-per-iteration kernel with loads whose grid is fully
 * resident (no pending CTAs) and effectively never finishes — the
 * substrate for deadlock injection and eviction tests.
 */
KernelParams
barrierKernel()
{
    KernelParams k = smallKernel();
    k.name = "CHK_HANG";
    k.gridDim = 32;  // 2 CTAs/SM: everything resident at once
    k.mix.barrierPerIter = true;
    k.loopIters = 1'000'000;
    return k;
}

GpuConfig
auditedConfig(Cycle cadence, Cycle watchdog = 0)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.auditCadence = cadence;
    cfg.watchdogCycles = watchdog;
    return cfg;
}

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

} // namespace

// ---- SimError taxonomy ----

TEST(SimError, KindNames)
{
    EXPECT_STREQ(InternalError("x").kindName(), "internal");
    EXPECT_STREQ(InvariantViolation(1, {"x"}).kindName(), "invariant");
    EXPECT_STREQ(DeadlockError(1, 2, "r").kindName(), "deadlock");
    EXPECT_STREQ(ConfigError("x").kindName(), "config");
}

TEST(SimError, InvariantViolationCarriesFailures)
{
    const InvariantViolation e(42, {"first", "second", "third"});
    EXPECT_EQ(e.cycle(), 42u);
    EXPECT_EQ(e.failures().size(), 3u);
    const std::string what = e.what();
    EXPECT_NE(what.find("cycle 42"), std::string::npos);
    EXPECT_NE(what.find("first"), std::string::npos);
    EXPECT_NE(what.find("+2 more"), std::string::npos);
}

TEST(SimError, DeadlockErrorCarriesReport)
{
    const DeadlockError e(100, 60, "full dump");
    EXPECT_EQ(e.cycle(), 100u);
    EXPECT_EQ(e.stalledFor(), 60u);
    EXPECT_EQ(e.report(), "full dump");
}

// ---- RingQueue bounds guards ----

#ifndef NDEBUG
TEST(RingQueue, OverflowGuard)
{
    RingQueue<int> q(2);
    q.push(1);
    q.push(2);
    WSL_EXPECT_THROW_MSG(q.push(3), InternalError, "overflow");
    q.pop();
    EXPECT_NO_THROW(q.push(3));  // freed capacity is reusable
}

TEST(RingQueue, UnderflowGuard)
{
    RingQueue<int> q;
    WSL_EXPECT_THROW_MSG(q.front(), InternalError, "underflow");
    WSL_EXPECT_THROW_MSG(q.pop(), InternalError, "underflow");
    q.push(7);
    EXPECT_EQ(q.front(), 7);
    q.pop();
    WSL_EXPECT_THROW_MSG(q.pop(), InternalError, "underflow");
}
#endif

// ---- Invariant auditor ----

TEST(Auditor, CleanSoloRunAtMaxCadence)
{
    Gpu gpu(auditedConfig(1), std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(smallKernel());
    ASSERT_NE(gpu.integrityAuditor(), nullptr);
    EXPECT_NO_THROW(gpu.run(1'000'000));
    EXPECT_TRUE(gpu.allKernelsDone());
    EXPECT_GT(gpu.integrityAuditor()->auditsRun(), 100u);
}

TEST(Auditor, CleanCoRun)
{
    Gpu gpu(auditedConfig(1), std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(benchmark("NN"), 200'000);
    gpu.launchKernel(benchmark("IMG"), 200'000);
    EXPECT_NO_THROW(gpu.run(2'000'000));
    EXPECT_TRUE(gpu.allKernelsDone());
}

TEST(Auditor, DisabledByDefault)
{
    Gpu gpu(GpuConfig::baseline(), std::make_unique<LeftOverPolicy>());
    EXPECT_EQ(gpu.integrityAuditor(), nullptr);
}

TEST(Auditor, CustomCheckFailureNamesTheCheck)
{
    Gpu gpu(auditedConfig(10), std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(smallKernel());
    gpu.integrityAuditor()->registerCheck(
        "always-fails",
        [](const Gpu &, std::vector<std::string> &out) {
            out.push_back("boom");
        });
    try {
        gpu.run(100'000);
        FAIL() << "audit with a failing check did not throw";
    } catch (const InvariantViolation &e) {
        ASSERT_FALSE(e.failures().empty());
        EXPECT_NE(e.failures().front().find("always-fails: boom"),
                  std::string::npos);
        EXPECT_LE(e.cycle(), gpu.cycle());
    }
}

TEST(Auditor, CadenceSchedulesNextAudit)
{
    Gpu gpu(auditedConfig(500), std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(smallKernel());
    gpu.run(10'000);
    const Auditor *aud = gpu.integrityAuditor();
    EXPECT_EQ(aud->cadence(), 500u);
    EXPECT_GE(aud->auditsRun(), 1u);
    EXPECT_GT(aud->nextAuditAt(), gpu.cycle() - 500);

    // A cadence unrelated to anything the workload does: audits land
    // after the first tick and then every 677 cycles (1, 678, ...,
    // 19634), leaving the next one due at 20311.
    Gpu mm(auditedConfig(677), std::make_unique<LeftOverPolicy>());
    mm.launchKernel(benchmark("MM"));
    mm.run(20'000);
    ASSERT_EQ(mm.cycle(), 20'000u);
    EXPECT_EQ(mm.integrityAuditor()->auditsRun(), 30u);
    EXPECT_EQ(mm.integrityAuditor()->nextAuditAt(), 20'311u);
}

TEST(Auditor, AuditsAreReadOnly)
{
    // An audit after every cycle must leave every counter exactly as
    // an unaudited run leaves it.
    auto run = [](Cycle cadence) {
        Gpu gpu(auditedConfig(cadence),
                std::make_unique<LeftOverPolicy>());
        gpu.launchKernel(benchmark("MM"));
        EXPECT_NO_THROW(gpu.run(6'000));
        return gpu.collectStats();
    };
    expectStatsEqual(run(1), run(0));
}

// ---- No-progress watchdog ----

TEST(Watchdog, QuietOnHealthyRun)
{
    Gpu gpu(auditedConfig(0, 2'000), std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(smallKernel());
    EXPECT_NO_THROW(gpu.run(1'000'000));
    EXPECT_TRUE(gpu.allKernelsDone());
}

TEST(Watchdog, DetectsInjectedBarrierDeadlockWithinBound)
{
    // Audits on at cadence 1: the injected hang is a *lost wakeup*
    // (all counts stay self-consistent), so the run must fail with
    // DeadlockError, not InvariantViolation.
    constexpr Cycle wd = 400;
    Gpu gpu(auditedConfig(1, wd), std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(barrierKernel());
    gpu.run(2'000);  // get every CTA resident and running
    ASSERT_FALSE(gpu.allKernelsDone());

    for (unsigned s = 0; s < gpu.numSms(); ++s)
        gpu.sm(s).injectBarrierHangForTest();
    const Cycle injected = gpu.cycle();

    try {
        gpu.run(1'000'000);
        FAIL() << "watchdog never fired on a parked machine";
    } catch (const DeadlockError &e) {
        EXPECT_GE(e.stalledFor(), wd);
        // Detection is bounded: the in-flight memory drain after
        // injection plus one watchdog window, not the full run.
        EXPECT_LE(e.cycle(), injected + wd + 5'000);
        const std::string &report = e.report();
        EXPECT_NE(report.find("deadlock report"), std::string::npos);
        EXPECT_NE(report.find("kernels:"), std::string::npos);
        EXPECT_NE(report.find("reason=barrier"), std::string::npos);
        EXPECT_NE(report.find("quotas:"), std::string::npos);
        // The report is self-contained: it names the policy (with its
        // last decision, when one was made) and snapshots every
        // counter at the moment of the stall.
        EXPECT_NE(report.find("policy: LeftOver"), std::string::npos);
        EXPECT_NE(report.find("counters:"), std::string::npos);
        EXPECT_NE(report.find("cycles="), std::string::npos);
    }
}

TEST(Watchdog, FiresAtTheExactDeadline)
{
    // The parked machine's last progress is its in-flight memory
    // draining; the watchdog must throw exactly W cycles later, on the
    // cycle the machine stopped at.
    constexpr Cycle wd = 300;
    Gpu gpu(auditedConfig(0, wd), std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(barrierKernel());
    gpu.run(2'000);
    for (unsigned s = 0; s < gpu.numSms(); ++s)
        gpu.sm(s).injectBarrierHangForTest();
    try {
        gpu.run(1'000'000);
        FAIL() << "watchdog never fired on a parked machine";
    } catch (const DeadlockError &e) {
        EXPECT_EQ(e.cycle(), 2'343u);
        EXPECT_EQ(e.stalledFor(), wd);
        EXPECT_EQ(gpu.cycle(), e.cycle());
    }
}

// ---- Eviction under audit ----

TEST(Evict, InstructionTargetEvictionPassesMaxCadenceAudits)
{
    // Kernel 0 halts at its instruction target with loads in flight
    // and barrier-parked warps (barrier-per-iter mix); kernel 1 keeps
    // running. Audits at cadence 1 must stay clean throughout the
    // eviction and afterwards.
    Gpu gpu(auditedConfig(1), std::make_unique<LeftOverPolicy>());
    KernelParams heavy = barrierKernel();
    heavy.loopIters = 50;
    const KernelId victim = gpu.launchKernel(heavy, 100'000);
    gpu.launchKernel(smallKernel());
    EXPECT_NO_THROW(gpu.run(4'000'000));
    EXPECT_TRUE(gpu.allKernelsDone());
    EXPECT_TRUE(gpu.kernel(victim).halted);
    for (unsigned s = 0; s < gpu.numSms(); ++s)
        EXPECT_EQ(gpu.sm(s).residentCtas(victim), 0u);
}

TEST(Evict, ManualEvictionWithParkedWarpsAndInFlightLoads)
{
    Gpu gpu(auditedConfig(1), std::make_unique<LeftOverPolicy>());
    const KernelId kid = gpu.launchKernel(barrierKernel());
    gpu.run(600);  // loads in flight, warps mid-iteration
    ASSERT_FALSE(gpu.allKernelsDone());

    // Park the survivors at their barriers, then evict — the worst
    // case: barrier counts non-zero and memory responses still owed to
    // warps that no longer exist.
    for (unsigned s = 0; s < gpu.numSms(); ++s)
        gpu.sm(s).injectBarrierHangForTest();
    gpu.kernel(kid).done = true;
    gpu.kernel(kid).halted = true;
    for (unsigned s = 0; s < gpu.numSms(); ++s)
        gpu.sm(s).evictKernel(kid);

    EXPECT_NO_THROW(gpu.integrityAuditor()->runChecks(gpu));
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        EXPECT_EQ(gpu.sm(s).residentCtas(kid), 0u);
        EXPECT_EQ(gpu.sm(s).pool().usedVec().ctas, 0u);
    }

    // Drain the orphaned memory responses; invariants must hold while
    // they land on recycled/dead warp slots.
    for (int i = 0; i < 3'000; ++i)
        gpu.tick();
    EXPECT_NO_THROW(gpu.integrityAuditor()->runChecks(gpu));
}

// ---- Fault-isolated sweeps ----

TEST(Batch, OneBrokenJobDoesNotSinkTheSweep)
{
    Characterization chars(GpuConfig::baseline(), 20'000);
    std::vector<CoRunJob> batch;
    batch.push_back({{"MM", "NN"}, PolicyKind::LeftOver, {}});
    batch.push_back({{"BOGUS", "NN"}, PolicyKind::LeftOver, {}});
    batch.push_back({{"IMG", "NN"}, PolicyKind::Even, {}});

    const auto results = runCoScheduleBatch(chars, batch, 2);
    ASSERT_EQ(results.size(), 3u);

    EXPECT_FALSE(results[0].error.failed);
    EXPECT_TRUE(results[0].completed);
    EXPECT_GT(results[0].makespan, 0u);

    EXPECT_TRUE(results[1].error.failed);
    EXPECT_EQ(results[1].error.kind, "config");
    EXPECT_NE(results[1].error.message.find("unknown benchmark"),
              std::string::npos);
    EXPECT_FALSE(results[1].completed);

    EXPECT_FALSE(results[2].error.failed);
    EXPECT_TRUE(results[2].completed);
    EXPECT_GT(results[2].makespan, 0u);
}

TEST(Batch, ResultsMatchSerialRuns)
{
    // Fault isolation must not disturb healthy jobs: batch results
    // stay identical to a direct serial runCoSchedule.
    Characterization chars(GpuConfig::baseline(), 20'000);
    std::vector<CoRunJob> batch;
    batch.push_back({{"MM", "NN"}, PolicyKind::LeftOver, {}});
    const auto results = runCoScheduleBatch(chars, batch, 2);
    ASSERT_EQ(results.size(), 1u);

    const std::vector<KernelParams> apps{benchmark("MM"),
                                         benchmark("NN")};
    const std::vector<std::uint64_t> targets{chars.target("MM"),
                                             chars.target("NN")};
    const CoRunResult serial = runCoSchedule(
        apps, targets, PolicyKind::LeftOver, chars.config());
    EXPECT_EQ(results[0].makespan, serial.makespan);
    EXPECT_EQ(results[0].sysIpc, serial.sysIpc);
    EXPECT_FALSE(results[0].error.failed);
}

TEST(Batch, OversizedFixedQuotaIsAConfigError)
{
    const std::vector<KernelParams> apps{benchmark("MM"),
                                         benchmark("NN")};
    const std::vector<std::uint64_t> targets{1'000, 1'000};
    CoRunOptions opts;
    opts.fixedQuotas = {1'000, 1};  // cannot fit on one SM
    WSL_EXPECT_THROW_MSG(
        runCoSchedule(apps, targets, PolicyKind::LeftOver,
                      GpuConfig::baseline(), opts),
        ConfigError, "exceed");
    opts.fixedQuotas = {1};  // wrong arity
    WSL_EXPECT_THROW_MSG(
        runCoSchedule(apps, targets, PolicyKind::LeftOver,
                      GpuConfig::baseline(), opts),
        ConfigError, "entries");
}

// ---- Config validation at the Gpu boundary ----

TEST(GpuCtor, RejectsInvalidConfig)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.l1Mshrs = 0;
    WSL_EXPECT_THROW_MSG(
        Gpu(cfg, std::make_unique<LeftOverPolicy>()), ConfigError,
        "l1Mshrs");
}
