/**
 * @file
 * Unit tests for the SM core driven standalone, with the test acting
 * as the memory system: CTA lifecycle, resource accounting, barriers,
 * scoreboard behavior, quotas, eviction, and scheduler variants. The
 * SoA hot-state tests at the end drive the core through a whole GPU.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "check/access.hh"
#include "check/auditor.hh"
#include "core/policies.hh"
#include "gpu/gpu.hh"
#include "sm/sm_core.hh"
#include "workloads/benchmarks.hh"

using namespace wsl;

namespace {

/** Fixed-latency perfect memory behind the SM. */
class TestRig
{
  public:
    explicit TestRig(const GpuConfig &config = GpuConfig::baseline())
        : cfg(config), sm(config, 0)
    {
    }

    /** Advance one cycle, servicing memory with `mem_latency`. */
    void
    tick(Cycle mem_latency = 100)
    {
        sm.tick(now);
        if (!holdOutgoing) {
            sm.routeStaged([&](const MemRequest &req, unsigned) {
                if (!req.write)
                    pending.push_back({req.line, req.sm,
                                       req.readyAt + mem_latency});
                return true;
            });
        }
        for (std::size_t i = 0; i < pending.size();) {
            if (pending[i].readyAt <= now) {
                sm.deliverResponse(pending[i]);
                pending[i] = pending.back();
                pending.pop_back();
            } else {
                ++i;
            }
        }
        ++now;
    }

    void
    run(Cycle cycles, Cycle mem_latency = 100)
    {
        for (Cycle i = 0; i < cycles; ++i)
            tick(mem_latency);
    }

    GpuConfig cfg;
    SmCore sm;
    Cycle now = 0;
    std::vector<MemResponse> pending;
    /** While set, staged requests stay in the SM's outgoing queue, as
     *  behind a full interconnect. */
    bool holdOutgoing = false;
};

/** Small single-CTA kernel: pure ALU. */
KernelParams
aluKernel(unsigned iters = 10, unsigned dep = 4)
{
    KernelParams k;
    k.name = "ALU";
    k.gridDim = 64;
    k.blockDim = 64;
    k.regsPerThread = 16;
    k.mix = {.alu = 8, .sfu = 0, .ldGlobal = 0, .stGlobal = 0,
             .ldShared = 0, .stShared = 0, .depDist = dep,
             .barrierPerIter = false};
    k.loopIters = iters;
    k.mem = {MemPattern::Tile, 1024, 1};
    k.ifetchMissRate = 0.0;
    return k;
}

KernelParams
barrierKernel(unsigned iters = 4)
{
    KernelParams k = aluKernel(iters);
    k.name = "BARK";
    k.blockDim = 128;  // 4 warps so the barrier actually couples
    k.mix.barrierPerIter = true;
    return k;
}

KernelParams
loadKernel(unsigned iters = 6)
{
    KernelParams k = aluKernel(iters);
    k.name = "LD";
    k.mix = {.alu = 4, .sfu = 0, .ldGlobal = 2, .stGlobal = 1,
             .ldShared = 0, .stShared = 0, .depDist = 1,
             .barrierPerIter = false};
    k.mem = {MemPattern::Stream, 0, 1};
    return k;
}

struct Launched
{
    KernelParams params;
    KernelProgram program;
};

std::unique_ptr<Launched>
launch(TestRig &rig, KernelParams params, KernelId kid = 0,
       unsigned cta = 0)
{
    auto l = std::make_unique<Launched>();
    l->params = std::move(params);
    l->program = buildProgram(l->params);
    const bool ok = rig.sm.launchCta(kid, l->params, l->program, cta,
                                     Addr{1} << 36, rig.now);
    EXPECT_TRUE(ok);
    return l;
}

} // namespace

TEST(SmCore, LaunchConsumesResources)
{
    TestRig rig;
    auto k = launch(rig, aluKernel());
    const ResourceVec used = rig.sm.pool().usedVec();
    EXPECT_EQ(used.regs, 16u * 64u);
    EXPECT_EQ(used.threads, 64u);
    EXPECT_EQ(used.ctas, 1u);
    EXPECT_EQ(rig.sm.residentCtas(0), 1u);
    EXPECT_FALSE(rig.sm.idle());
}

TEST(SmCore, CtaRunsToCompletionAndFreesResources)
{
    TestRig rig;
    auto k = launch(rig, aluKernel());
    rig.run(5000);
    EXPECT_TRUE(rig.sm.idle());
    EXPECT_EQ(rig.sm.pool().usedVec(), ResourceVec{});
    EXPECT_EQ(rig.sm.residentCtas(0), 0u);
    ASSERT_EQ(rig.sm.completedCtaEvents().size(), 1u);
    EXPECT_EQ(rig.sm.completedCtaEvents()[0], 0);
    EXPECT_EQ(rig.sm.stats().ctasCompleted, 1u);
}

TEST(SmCore, ExecutesExactInstructionCount)
{
    TestRig rig;
    auto k = launch(rig, aluKernel(10));
    rig.run(5000);
    // 2 warps x 8 insts x 10 iters.
    EXPECT_EQ(rig.sm.stats().warpInstsIssued, 2u * 8u * 10u);
    EXPECT_EQ(rig.sm.stats().threadInstsIssued, 2u * 8u * 10u * 32u);
}

TEST(SmCore, PartialLastWarpCountsActiveThreads)
{
    TestRig rig;
    KernelParams k = aluKernel(1);
    k.blockDim = 48;  // warp0: 32 threads, warp1: 16
    auto l = launch(rig, k);
    rig.run(2000);
    EXPECT_EQ(rig.sm.stats().threadInstsIssued, 8u * (32u + 16u));
}

TEST(SmCore, RejectsWhenCtaSlotsExhausted)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.maxCtasPerSm = 2;
    TestRig rig(cfg);
    auto a = launch(rig, aluKernel(), 0, 0);
    auto b = launch(rig, aluKernel(), 0, 1);
    EXPECT_FALSE(rig.sm.canAcceptCta(a->params));
    KernelProgram prog = buildProgram(a->params);
    EXPECT_FALSE(rig.sm.launchCta(0, a->params, prog, 2, 0, rig.now));
}

TEST(SmCore, RejectsWhenRegistersExhausted)
{
    TestRig rig;
    KernelParams k = aluKernel();
    k.regsPerThread = 36;
    k.blockDim = 512;  // 18432 regs per CTA
    auto a = launch(rig, k, 0, 0);
    EXPECT_FALSE(rig.sm.canAcceptCta(k));  // 2nd would need 36864
}

TEST(SmCore, BarrierCouplesWarpProgress)
{
    // With a barrier per iteration, no warp may be a full iteration
    // ahead of its CTA siblings; the kernel still completes.
    TestRig rig;
    auto k = launch(rig, barrierKernel(6));
    rig.run(8000);
    EXPECT_TRUE(rig.sm.idle());
    EXPECT_EQ(rig.sm.stats().warpInstsIssued,
              4u * (8u + 1u) * 6u);  // 4 warps, body 8 + bar, 6 iters
}

TEST(SmCore, BarrierKernelWithSingleWarpDoesNotDeadlock)
{
    TestRig rig;
    KernelParams k = barrierKernel(3);
    k.blockDim = 32;
    auto l = launch(rig, k);
    rig.run(3000);
    EXPECT_TRUE(rig.sm.idle());
}

TEST(SmCore, LoadsGoOutAndCompleteOnResponse)
{
    TestRig rig;
    auto k = launch(rig, loadKernel(4));
    rig.run(8000, 150);
    EXPECT_TRUE(rig.sm.idle());
    const SmStats &s = rig.sm.stats();
    // 2 warps x (2 loads + 1 store) x 4 iters global accesses.
    EXPECT_EQ(s.l1Accesses, 2u * 3u * 4u);
    EXPECT_GT(s.l1Misses, 0u);
}

TEST(SmCore, MemoryLatencySlowsExecution)
{
    auto run_with_latency = [](Cycle lat) {
        TestRig rig;
        auto k = launch(rig, loadKernel(6));
        Cycle cycles = 0;
        while (!rig.sm.idle() && cycles < 50000) {
            rig.tick(lat);
            ++cycles;
        }
        return cycles;
    };
    const Cycle fast = run_with_latency(20);
    const Cycle slow = run_with_latency(800);
    EXPECT_LT(fast, slow);
    EXPECT_GT(slow, 800u);  // at least one serialized round trip
}

TEST(SmCore, StoresDoNotBlockCompletion)
{
    // Stores are fire-and-forget: the kernel finishes even if writes
    // are never acknowledged.
    TestRig rig;
    KernelParams k = aluKernel(3);
    k.mix.stGlobal = 2;
    k.mem = {MemPattern::Stream, 0, 1};
    auto l = launch(rig, k);
    rig.run(4000);
    EXPECT_TRUE(rig.sm.idle());
}

TEST(SmCore, MissQueueBackpressureHoldsGlobalAccessesUntilItDrains)
{
    // While the interconnect holds the outgoing queue, no global
    // access issues once its transactions could overflow twice the L1
    // miss queue; the held warps charge long-memory-latency stalls and
    // issue again once the queue drains.
    TestRig rig;
    KernelParams k = loadKernel(8);
    k.blockDim = 512;  // 16 warps: more accesses than the queue holds
    k.mem.transactionsPerAccess = 3;
    auto l = launch(rig, k);
    const std::size_t limit = 2 * rig.cfg.l1MissQueue;
    rig.holdOutgoing = true;
    std::size_t most = 0;
    for (int i = 0; i < 2000; ++i) {
        rig.tick();
        most = std::max(most, rig.sm.outgoingRequests().size());
    }
    EXPECT_LE(most, limit);
    // Filled to within one access of the limit (30 of 32 here).
    EXPECT_GT(rig.sm.outgoingRequests().size() + 3, limit);
    // Some warp is ready to issue its global access but is held back.
    EXPECT_NE(AuditAccess::gmemNextMask(rig.sm) &
                  AuditAccess::issuableMask(rig.sm) &
                  ~AuditAccess::memBlockedMask(rig.sm) &
                  ~AuditAccess::shortBlockedMask(rig.sm),
              0u);

    const SmStats before = rig.sm.stats();
    rig.run(1000);
    const auto mem = static_cast<unsigned>(StallKind::MemLatency);
    EXPECT_EQ(rig.sm.stats().l1Accesses, before.l1Accesses);
    EXPECT_EQ(rig.sm.stats().warpInstsIssued, before.warpInstsIssued);
    EXPECT_EQ(rig.sm.stats().stalls[mem] - before.stalls[mem],
              2u * 1000u);

    rig.holdOutgoing = false;
    rig.run(30000);
    EXPECT_TRUE(rig.sm.idle());
    // 16 warps x (2 loads + 1 store) x 8 iters x 3 transactions.
    EXPECT_EQ(rig.sm.stats().l1Accesses, 16u * 3u * 8u * 3u);
}

TEST(SmCore, FullMshrFileRefusesLoadsButNotStores)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.l1Mshrs = 4;
    TestRig rig(cfg);
    KernelParams ld = loadKernel(50);
    ld.blockDim = 256;  // 8 warps: more loads than MSHRs
    ld.mix.stGlobal = 0;
    KernelParams st = aluKernel(200);
    st.name = "ST";
    st.mix.stGlobal = 2;
    st.mem = {MemPattern::Stream, 0, 1};
    auto a = launch(rig, ld, 0, 0);
    auto b = launch(rig, st, 1, 1);

    // Route every request but never answer a load: each miss keeps its
    // MSHR for the whole test.
    std::uint64_t reads = 0, writes = 0;
    auto run = [&](int cycles) {
        for (int i = 0; i < cycles; ++i) {
            rig.sm.tick(rig.now++);
            rig.sm.routeStaged([&](const MemRequest &req, unsigned) {
                ++(req.write ? writes : reads);
                return true;
            });
        }
    };
    run(500);
    ASSERT_EQ(rig.sm.l1Cache().mshrsInUse(), 4u);
    EXPECT_EQ(reads, 4u);
    // Load-next warps with a clean scoreboard are held back.
    EXPECT_NE(AuditAccess::gloadNextMask(rig.sm) &
                  AuditAccess::issuableMask(rig.sm) &
                  ~AuditAccess::memBlockedMask(rig.sm) &
                  ~AuditAccess::shortBlockedMask(rig.sm),
              0u);
    const std::uint64_t writes_then = writes;
    run(500);
    EXPECT_EQ(reads, 4u);             // the full MSHR file refuses loads
    EXPECT_GT(writes, writes_then);   // but not stores
}

TEST(SmCore, QuotaAccessors)
{
    TestRig rig;
    EXPECT_EQ(rig.sm.quota(0), -1);
    rig.sm.setQuota(0, 3);
    rig.sm.setQuota(1, 0);
    EXPECT_EQ(rig.sm.quota(0), 3);
    EXPECT_EQ(rig.sm.quota(1), 0);
    rig.sm.clearQuotas();
    EXPECT_EQ(rig.sm.quota(0), -1);
    EXPECT_EQ(rig.sm.quota(1), -1);
}

TEST(SmCore, EvictKernelFreesEverything)
{
    TestRig rig;
    auto a = launch(rig, aluKernel(1000), 0, 0);
    auto b = launch(rig, aluKernel(1000), 1, 1);
    rig.run(50);
    EXPECT_EQ(rig.sm.residentCtas(0), 1u);
    EXPECT_EQ(rig.sm.residentCtas(1), 1u);
    rig.sm.evictKernel(0);
    EXPECT_EQ(rig.sm.residentCtas(0), 0u);
    EXPECT_EQ(rig.sm.residentCtas(1), 1u);
    EXPECT_EQ(rig.sm.pool().usedVec().ctas, 1u);
    // The survivor still completes.
    rig.run(200000);
    EXPECT_TRUE(rig.sm.idle());
}

TEST(SmCore, EvictionWithOutstandingLoadsIsSafe)
{
    TestRig rig;
    auto k = launch(rig, loadKernel(50));
    rig.run(30, 500);  // loads in flight
    rig.sm.evictKernel(0);
    // Slot reuse while the old responses are still pending.
    auto k2 = launch(rig, loadKernel(5), 1, 0);
    rig.run(10000, 500);
    EXPECT_TRUE(rig.sm.idle());
    EXPECT_EQ(rig.sm.pool().usedVec(), ResourceVec{});
}

TEST(SmCore, TwoKernelsShareOneSm)
{
    TestRig rig;
    auto a = launch(rig, aluKernel(20), 0, 0);
    auto b = launch(rig, loadKernel(10), 1, 1);
    rig.run(20000);
    EXPECT_TRUE(rig.sm.idle());
    const SmStats &s = rig.sm.stats();
    EXPECT_EQ(s.kernelWarpInsts[0], 2u * 8u * 20u);
    EXPECT_EQ(s.kernelWarpInsts[1], 2u * 7u * 10u);
    EXPECT_EQ(s.warpInstsIssued,
              s.kernelWarpInsts[0] + s.kernelWarpInsts[1]);
}

TEST(SmCore, GtoFavorsOldWarpsLrrRotates)
{
    // Same workload under both schedulers completes with identical
    // instruction counts but different interleavings (cycle counts
    // may differ).
    auto run_sched = [](SchedulerKind kind) {
        GpuConfig cfg = GpuConfig::baseline();
        cfg.scheduler = kind;
        TestRig rig(cfg);
        auto a = launch(rig, aluKernel(50, 1), 0, 0);
        Cycle cycles = 0;
        while (!rig.sm.idle() && cycles < 100000) {
            rig.tick();
            ++cycles;
        }
        EXPECT_EQ(rig.sm.stats().warpInstsIssued, 2u * 8u * 50u);
        return cycles;
    };
    EXPECT_GT(run_sched(SchedulerKind::Gto), 0u);
    EXPECT_GT(run_sched(SchedulerKind::Lrr), 0u);
}

TEST(SmCore, StallAccountingCoversAllCycles)
{
    TestRig rig;
    auto k = launch(rig, loadKernel(20));
    rig.run(3000, 400);
    const SmStats &s = rig.sm.stats();
    // Every scheduler-cycle either issued or recorded a stall.
    EXPECT_EQ(s.warpInstsIssued + s.stallTotal(),
              s.cycles * rig.cfg.numSchedulers);
}

TEST(SmCore, RawHazardsForceSerialExecution)
{
    // depDist 1 with ALU latency L: a lone warp cannot issue faster
    // than one instruction per L cycles once the i-buffer streams.
    GpuConfig cfg = GpuConfig::baseline();
    TestRig rig(cfg);
    KernelParams k = aluKernel(20, 1);
    k.blockDim = 32;  // one warp
    auto l = launch(rig, k);
    Cycle cycles = 0;
    while (!rig.sm.idle() && cycles < 100000) {
        rig.tick();
        ++cycles;
    }
    const std::uint64_t insts = 8u * 20u;
    EXPECT_GE(cycles, insts * (cfg.aluLatency - 2));
}

TEST(SmCore, IFetchMissesSlowFetchBoundKernels)
{
    auto run_missrate = [](double rate) {
        TestRig rig;
        KernelParams k = aluKernel(40, 8);
        k.ifetchMissRate = rate;
        auto l = launch(rig, k);
        Cycle cycles = 0;
        while (!rig.sm.idle() && cycles < 200000) {
            rig.tick();
            ++cycles;
        }
        return cycles;
    };
    EXPECT_LT(run_missrate(0.0), run_missrate(0.8));
}

TEST(SmCore, ShmConflictFactorSlowsSharedMemoryKernels)
{
    auto run_conflict = [](unsigned factor) {
        TestRig rig;
        KernelParams k = aluKernel(40, 2);
        k.mix.ldShared = 4;
        k.shmConflictFactor = factor;
        auto l = launch(rig, k);
        Cycle cycles = 0;
        while (!rig.sm.idle() && cycles < 200000) {
            rig.tick();
            ++cycles;
        }
        return cycles;
    };
    EXPECT_LT(run_conflict(1), run_conflict(8));
}

TEST(SmCore, UtilizationIntegralsAccumulate)
{
    TestRig rig;
    auto k = launch(rig, aluKernel(5));
    rig.run(10);
    const SmStats &s = rig.sm.stats();
    EXPECT_EQ(s.regsAllocatedIntegral, 10u * 16u * 64u);
    EXPECT_EQ(s.threadsAllocatedIntegral, 10u * 64u);
}

// ---- Timing wheels ----

TEST(TimingWheel, SlotDrainsInPushOrderAfterPoolReuse)
{
    TimingWheel<int> wheel;
    auto drained = [&](Cycle now) {
        std::vector<int> out;
        wheel.drain(now, [&](int v) { out.push_back(v); });
        return out;
    };
    // Producers with latencies 20, 10 and 5 issued at cycles 10, 20
    // and 25 all come due at cycle 30.
    wheel.push(10 + 20, 1);
    wheel.push(20 + 10, 2);
    wheel.push(31, 99);
    wheel.push(25 + 5, 3);
    EXPECT_EQ(wheel.size(), 4u);
    EXPECT_EQ(drained(30), (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(wheel.size(), 1u);
    EXPECT_TRUE(drained(30).empty());

    // The freed entries are handed out again, interleaved between two
    // slots and a due cycle one full turn later.
    wheel.push(40, 4);
    wheel.push(31, 100);
    wheel.push(40 + TimingWheel<int>::slots, 5);
    wheel.push(40, 6);
    EXPECT_EQ(drained(31), (std::vector<int>{99, 100}));
    EXPECT_EQ(drained(40), (std::vector<int>{4, 5, 6}));
    EXPECT_EQ(wheel.size(), 0u);

    // A drain callback may push, even onto the slot being drained.
    wheel.push(50, 7);
    wheel.push(50, 8);
    std::vector<int> seen;
    wheel.drain(50, [&](int v) {
        seen.push_back(v);
        wheel.push(50, v + 10);
    });
    EXPECT_EQ(seen, (std::vector<int>{7, 8}));
    EXPECT_EQ(drained(50), (std::vector<int>{17, 18}));
}

TEST(SmCore, WritebackSlotKeepsPushOrderAcrossUnits)
{
    // ALU (latency 10) and SFU (latency 20) results share one wheel, so
    // an SFU result issued at t and an ALU result issued at t + 10 land
    // in the same slot. Until a slot drains it may only grow at its
    // tail, whichever pool entries the pushes reuse.
    TestRig rig;
    KernelParams k = aluKernel(40);
    k.mix.sfu = 2;
    std::vector<std::unique_ptr<Launched>> ctas;
    for (unsigned cta = 0; cta < 4; ++cta)
        ctas.push_back(launch(rig, k, 0, cta));

    using Entry = std::tuple<std::uint16_t, std::uint32_t, std::uint32_t>;
    const unsigned slots = TimingWheel<int>::slots;
    std::vector<std::vector<Entry>> before(slots);
    unsigned grownLater = 0;
    for (int i = 0; i < 3000; ++i) {
        rig.tick();
        const auto &wheel = AuditAccess::wbWheel(rig.sm);
        const unsigned drainedSlot = (rig.now - 1) % slots;
        for (unsigned s = 0; s < slots; ++s) {
            std::vector<Entry> after;
            wheel.forEachIn(s, [&](const auto &e) {
                after.emplace_back(e.warp, e.epoch, e.regMask);
            });
            if (s == drainedSlot) {
                ASSERT_TRUE(after.empty()) << "slot " << s;
            } else {
                ASSERT_GE(after.size(), before[s].size()) << "slot " << s;
                ASSERT_TRUE(std::equal(before[s].begin(), before[s].end(),
                                       after.begin()))
                    << "slot " << s << " changed ahead of its tail";
                if (!before[s].empty() && after.size() > before[s].size())
                    ++grownLater;
            }
            before[s] = std::move(after);
        }
    }
    EXPECT_GT(rig.sm.stats().warpInstsIssued, 1000u);
    EXPECT_GT(grownLater, 0u) << "no slot took pushes from two units";
}

TEST(SmCore, FootprintFitsInEightKiB)
{
    // Each timing wheel threads its 256 slots through one entry pool
    // instead of holding a vector per slot inline, which took the core
    // from 22 312 to about 7 000 bytes and keeps a 128-SM machine's SM
    // state far smaller in the host's caches.
    EXPECT_LE(sizeof(SmCore), 8192u);
}

// ---- SoA hot state, driven through the whole GPU ----

namespace {

struct SoloRun
{
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    GpuStats stats;
};

SoloRun
soloWindow(const char *bench, Cycle window)
{
    Gpu gpu(GpuConfig::baseline(), std::make_unique<LeftOverPolicy>());
    const KernelId kid = gpu.launchKernel(benchmark(bench));
    gpu.run(window);
    return {gpu.cycle(), gpu.kernelThreadInsts(kid), gpu.collectStats()};
}

} // namespace

TEST(SoaHotState, SchedulerScanIsDeterministic)
{
    // The SoA scheduler scan (readiness bitmasks over WarpHot arrays)
    // issues the same instruction stream on every run.
    const SoloRun a = soloWindow("IMG", 8'000);
    const SoloRun b = soloWindow("IMG", 8'000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
    SmStats::forEachField([&](const char *name, auto member) {
        EXPECT_EQ(a.stats.*member, b.stats.*member)
            << "SmStats field " << name;
    });
    PartitionStats::forEachField([&](const char *name, auto member) {
        EXPECT_EQ(a.stats.*member, b.stats.*member)
            << "PartitionStats field " << name;
    });
}

TEST(SoaHotState, AuditorBitmaskRescanPassesAtMaxCadence)
{
    // The auditor's readiness-bitmask check rebuilds every mask from a
    // per-warp rescan of the SoA hot arrays and compares. At cadence 1
    // it runs after every cycle of a mixed co-run; any divergence
    // between the split hot/cold state and the masks throws
    // InvariantViolation.
    GpuConfig cfg = GpuConfig::baseline();
    cfg.auditCadence = 1;
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(benchmark("MM"), 200'000);
    gpu.launchKernel(benchmark("LBM"), 200'000);
    EXPECT_NO_THROW(gpu.run(5'000));
    ASSERT_NE(gpu.integrityAuditor(), nullptr);
    EXPECT_GT(gpu.cycle(), 1'000u);
    EXPECT_EQ(gpu.integrityAuditor()->auditsRun(), gpu.cycle());
}
