/**
 * @file
 * Integration tests for the whole-GPU model: kernel lifecycle,
 * instruction targets, dispatch under quotas and masks, statistics
 * aggregation, and determinism.
 */

#include <gtest/gtest.h>

#include "core/policies.hh"
#include "expect_throw.hh"
#include "harness/runner.hh"
#include "workloads/benchmarks.hh"

using namespace wsl;

namespace {

const GpuConfig cfg = GpuConfig::baseline();

/** A small kernel whose grid completes quickly on the full GPU. */
KernelParams
smallGrid()
{
    KernelParams k;
    k.name = "SMALL";
    k.gridDim = 200;
    k.blockDim = 64;
    k.regsPerThread = 16;
    k.mix = {.alu = 8, .sfu = 1, .ldGlobal = 1, .stGlobal = 0,
             .ldShared = 0, .stShared = 0, .depDist = 4,
             .barrierPerIter = false};
    k.loopIters = 10;
    k.mem = {MemPattern::Tile, 2048, 1};
    k.ifetchMissRate = 0.0;
    return k;
}

} // namespace

TEST(Gpu, GridRunsToCompletion)
{
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    const KernelId kid = gpu.launchKernel(smallGrid());
    gpu.run(1'000'000);
    ASSERT_TRUE(gpu.allKernelsDone());
    const KernelInstance &k = gpu.kernel(kid);
    EXPECT_FALSE(k.halted);
    EXPECT_EQ(k.ctasCompleted, 200u);
    EXPECT_EQ(k.nextCta, 200u);
    // Every warp executed the full program.
    EXPECT_EQ(gpu.kernelWarpInsts(kid), 200u * 2u * 10u * 10u);
}

TEST(Gpu, InstructionTargetHaltsKernel)
{
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    const KernelId kid = gpu.launchKernel(benchmark("IMG"), 500000);
    gpu.run(1'000'000);
    ASSERT_TRUE(gpu.allKernelsDone());
    EXPECT_TRUE(gpu.kernel(kid).halted);
    EXPECT_GE(gpu.kernelThreadInsts(kid), 500000u);
    // Eviction released every SM.
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        EXPECT_EQ(gpu.sm(s).residentCtas(kid), 0u);
        EXPECT_TRUE(gpu.sm(s).idle());
    }
}

TEST(Gpu, DeterministicAcrossRuns)
{
    auto run_once = []() {
        Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
        gpu.launchKernel(benchmark("NN"), 300000);
        gpu.launchKernel(benchmark("IMG"), 300000);
        gpu.run(2'000'000);
        return std::make_tuple(gpu.cycle(), gpu.kernelWarpInsts(0),
                               gpu.kernelWarpInsts(1),
                               gpu.collectStats().l1Misses);
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Gpu, QuotasCapResidency)
{
    Gpu gpu(cfg,
            std::make_unique<FixedQuotaPolicy>(std::vector<int>{2, 3}));
    gpu.launchKernel(benchmark("IMG"), 1'000'000'000);
    gpu.launchKernel(benchmark("NN"), 1'000'000'000);
    for (int i = 0; i < 2000; ++i)
        gpu.tick();
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        EXPECT_LE(gpu.sm(s).residentCtas(0), 2u);
        EXPECT_LE(gpu.sm(s).residentCtas(1), 3u);
        // Quotas are also achieved (resources clearly suffice).
        EXPECT_EQ(gpu.sm(s).residentCtas(0), 2u);
        EXPECT_EQ(gpu.sm(s).residentCtas(1), 3u);
    }
}

TEST(Gpu, SpatialMasksKeepKernelsApart)
{
    Gpu gpu(cfg, std::make_unique<SpatialPolicy>());
    gpu.launchKernel(benchmark("IMG"), 1'000'000'000);
    gpu.launchKernel(benchmark("NN"), 1'000'000'000);
    for (int i = 0; i < 2000; ++i)
        gpu.tick();
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        const bool has0 = gpu.sm(s).residentCtas(0) > 0;
        const bool has1 = gpu.sm(s).residentCtas(1) > 0;
        EXPECT_NE(has0, has1) << "SM " << s << " must host exactly one";
    }
}

TEST(Gpu, StatsAggregationIsConsistent)
{
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(benchmark("MM"), 400000);
    gpu.launchKernel(benchmark("MVP"), 400000);
    gpu.run(2'000'000);
    const GpuStats g = gpu.collectStats();
    EXPECT_EQ(g.cycles, gpu.cycle());
    EXPECT_EQ(g.kernelWarpInsts[0] + g.kernelWarpInsts[1],
              g.warpInstsIssued);
    EXPECT_EQ(g.kernelWarpInsts[0], gpu.kernelWarpInsts(0));
    EXPECT_GE(g.l1Accesses, g.l1Misses);
    EXPECT_GE(g.l2Accesses, g.l2Misses);
    EXPECT_GE(g.threadInstsIssued, g.warpInstsIssued);
    // Issue slots: issued + stalls == schedulers * SM-cycles.
    std::uint64_t stall_total = 0;
    for (unsigned i = 0; i < numStallKinds; ++i)
        stall_total += g.stalls[i];
    EXPECT_EQ(g.warpInstsIssued + stall_total,
              g.cycles * cfg.numSms * cfg.numSchedulers);
}

TEST(Gpu, MemoryTrafficReachesDram)
{
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(benchmark("LBM"), 2'000'000);
    gpu.run(2'000'000);
    const GpuStats g = gpu.collectStats();
    EXPECT_GT(g.l1Misses, 0u);
    EXPECT_GT(g.l2Accesses, 0u);
    EXPECT_GT(g.dramReads, 0u);
    EXPECT_GT(g.dramWrites, 0u);  // LBM streams stores
    EXPECT_GT(g.dramRowHits, g.dramRowMisses);  // streaming locality
}

TEST(Gpu, CacheSensitiveKernelThrashesAtFullOccupancy)
{
    // MVP at 2 CTAs/SM must have a far better L1 hit rate than at 8.
    auto miss_rate = [](int quota) {
        const SoloResult r = runSoloForCycles(benchmark("MVP"),
                                              GpuConfig::baseline(),
                                              30000, quota);
        return r.stats.l1MissRate();
    };
    EXPECT_LT(miss_rate(2) + 0.3, miss_rate(8));
}

TEST(Gpu, LeftOverPrioritizesFirstKernel)
{
    // Under Left-Over, kernel 0 saturates the machine; kernel 1 gets
    // CTAs only where kernel 0 cannot use the space. IMG fills all 8
    // CTA slots everywhere, so NN must have none resident early on.
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(benchmark("IMG"), 1'000'000'000);
    gpu.launchKernel(benchmark("NN"), 1'000'000'000);
    for (int i = 0; i < 1000; ++i)
        gpu.tick();
    unsigned img = 0, nn = 0;
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        img += gpu.sm(s).residentCtas(0);
        nn += gpu.sm(s).residentCtas(1);
    }
    EXPECT_EQ(img, 16u * 8u);
    EXPECT_EQ(nn, 0u);
}

TEST(Gpu, RunStopsAtCycleCap)
{
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(benchmark("NN"));  // effectively endless grid
    gpu.run(5000);
    EXPECT_EQ(gpu.cycle(), 5000u);
    EXPECT_FALSE(gpu.allKernelsDone());
}

TEST(Gpu, RunReturnsCyclesSimulatedAndStopsEarly)
{
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(smallGrid());
    const Cycle used = gpu.run(1'000'000);
    ASSERT_TRUE(gpu.allKernelsDone());
    EXPECT_EQ(used, gpu.cycle());
    EXPECT_LT(used, 1'000'000u);  // stopped at completion, not the cap
    // A finished machine consumes no further cycles.
    EXPECT_EQ(gpu.run(1000), 0u);
    EXPECT_EQ(gpu.cycle(), used);
}

TEST(Gpu, SchedulerKindAffectsExecution)
{
    auto run_kind = [](SchedulerKind kind) {
        GpuConfig c = GpuConfig::baseline();
        c.scheduler = kind;
        Gpu gpu(c, std::make_unique<LeftOverPolicy>());
        gpu.launchKernel(benchmark("HOT"), 300000);
        gpu.run(2'000'000);
        return gpu.cycle();
    };
    const Cycle gto = run_kind(SchedulerKind::Gto);
    const Cycle lrr = run_kind(SchedulerKind::Lrr);
    // Both complete; timings differ but stay in the same ballpark
    // (paper Figure 10b: results are scheduler insensitive).
    EXPECT_GT(gto, 0u);
    EXPECT_GT(lrr, 0u);
    const double ratio = static_cast<double>(gto) / lrr;
    EXPECT_GT(ratio, 0.6);
    EXPECT_LT(ratio, 1.7);
}

TEST(GpuDeath, KernelTableOverflowPanics)
{
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    for (unsigned i = 0; i < maxConcurrentKernels; ++i)
        gpu.launchKernel(smallGrid());
    WSL_EXPECT_THROW_MSG(gpu.launchKernel(smallGrid()), InternalError,
                         "full");
}

TEST(Gpu, RejectsSharedMemoryLatencyPastTheTimingWheel)
{
    // A shared-memory result retires shmLatency x shmConflictFactor
    // cycles after issue through the SM's 256-slot timing wheel.
    GpuConfig c = cfg;
    c.shmLatency = 32;
    Gpu gpu(c, std::make_unique<LeftOverPolicy>());
    KernelParams k = smallGrid();
    k.shmConflictFactor = 8;  // 256 cycles: one full turn
    WSL_EXPECT_THROW_MSG(gpu.launchKernel(k), ConfigError,
                         "shmLatency 32 x shmConflictFactor 8 = 256");
    EXPECT_EQ(gpu.numKernels(), 0u);
    k.shmConflictFactor = 7;  // 224 cycles
    EXPECT_NO_THROW(gpu.launchKernel(k));
    EXPECT_EQ(gpu.numKernels(), 1u);
}
