/**
 * @file
 * Tests for SIMT branch divergence: program generation, mask
 * splitting, reconvergence, and the throughput cost.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sm/sm_core.hh"
#include "workloads/benchmarks.hh"

using namespace wsl;

namespace {

KernelParams
divergentKernel(double fraction, unsigned branches = 2,
                unsigned path = 6)
{
    KernelParams k;
    k.name = "DIV";
    k.gridDim = 8;
    k.blockDim = 64;
    k.regsPerThread = 16;
    k.mix = {.alu = 20, .sfu = 0, .ldGlobal = 0, .stGlobal = 0,
             .ldShared = 0, .stShared = 0, .depDist = 6,
             .barrierPerIter = false, .divBranches = branches,
             .divPathLen = path, .divFraction = fraction};
    k.loopIters = 20;
    k.ifetchMissRate = 0.0;
    return k;
}

/** Run one CTA to completion on a lone SM; returns (warp, thread). */
std::pair<std::uint64_t, std::uint64_t>
runOne(const KernelParams &params)
{
    const GpuConfig cfg = GpuConfig::baseline();
    SmCore sm(cfg, 0);
    const KernelProgram prog = buildProgram(params);
    EXPECT_TRUE(sm.launchCta(0, params, prog, 0, Addr{1} << 36, 0));
    for (Cycle t = 0; t < 100000 && !sm.idle(); ++t) {
        sm.tick(t);
        // Pure-ALU kernels: no memory to answer.
        sm.routeStaged([](const MemRequest &, unsigned) { return true; });
    }
    EXPECT_TRUE(sm.idle());
    return {sm.stats().warpInstsIssued, sm.stats().threadInstsIssued};
}

} // namespace

TEST(Divergence, GeneratorPlacesBranchesWithTargets)
{
    const KernelProgram prog = buildProgram(divergentKernel(0.4));
    unsigned branches = 0;
    for (std::size_t i = 0; i < prog.body.size(); ++i) {
        const Instruction &inst = prog.body[i];
        if (inst.op == Opcode::BraDiv) {
            ++branches;
            EXPECT_GT(inst.branchTarget, static_cast<int>(i));
            EXPECT_LE(inst.branchTarget,
                      static_cast<int>(prog.body.size()));
            EXPECT_EQ(inst.divFraction256, 102);  // 0.4 * 256
        }
    }
    EXPECT_EQ(branches, 2u);
    EXPECT_EQ(prog.body.size(), 22u);
}

TEST(Divergence, NoDivergenceKeepsFullSimdEfficiency)
{
    const auto [warp_insts, thread_insts] = runOne(divergentKernel(0.0));
    EXPECT_EQ(thread_insts, warp_insts * 32);
}

TEST(Divergence, DivergenceReducesSimdEfficiency)
{
    // fraction f of lanes skip divPathLen instructions per branch:
    // thread insts drop while warp insts stay identical.
    const auto [w0, t0] = runOne(divergentKernel(0.0));
    const auto [w1, t1] = runOne(divergentKernel(0.5));
    EXPECT_EQ(w0, w1);  // same dynamic warp instruction count
    EXPECT_LT(t1, t0);
    // Expected efficiency: 2 branches x 6-inst paths x 50% lanes out
    // of a 22-inst body: ~1 - 6/22 * 0.5 * ... rough bound:
    const double eff = static_cast<double>(t1) / t0;
    EXPECT_GT(eff, 0.6);
    EXPECT_LT(eff, 0.95);
}

TEST(Divergence, FullTakenFractionSkipsTheBlock)
{
    // With fraction 1.0 every lane jumps: the skipped instructions are
    // never issued, so the warp instruction count drops.
    const auto [w0, t0] = runOne(divergentKernel(0.0));
    const auto [w1, t1] = runOne(divergentKernel(1.0));
    EXPECT_LT(w1, w0);
    // Efficiency stays full: lanes never split.
    EXPECT_EQ(t1, w1 * 32);
}

TEST(Divergence, ReconvergenceRestoresMaskEachIteration)
{
    // If masks failed to reconverge, lanes would leak across
    // iterations and thread counts would collapse; check the per-
    // iteration average matches a single iteration's profile.
    KernelParams one = divergentKernel(0.5);
    one.loopIters = 1;
    KernelParams many = divergentKernel(0.5);
    many.loopIters = 30;
    const auto [w1, t1] = runOne(one);
    const auto [wn, tn] = runOne(many);
    EXPECT_EQ(wn, w1 * 30);
    EXPECT_EQ(tn, t1 * 30);
}

TEST(Divergence, DeterministicMaskSelection)
{
    const auto a = runOne(divergentKernel(0.3));
    const auto b = runOne(divergentKernel(0.3));
    EXPECT_EQ(a, b);
}

TEST(Divergence, PartialWarpInteractsSafely)
{
    KernelParams k = divergentKernel(0.5);
    k.blockDim = 40;  // second warp has 8 live lanes
    const auto [w, t] = runOne(k);
    EXPECT_GT(w, 0u);
    EXPECT_LT(t, w * 32);
}

TEST(Divergence, IrregularBenchmarksAreDivergent)
{
    EXPECT_GT(benchmark("BFS").mix.divBranches, 0u);
    EXPECT_GT(benchmark("KNN").mix.divBranches, 0u);
    // Regular kernels stay convergent.
    EXPECT_EQ(benchmark("IMG").mix.divBranches, 0u);
    EXPECT_EQ(benchmark("LBM").mix.divBranches, 0u);
}

TEST(Divergence, BfsSimdEfficiencyBelowOne)
{
    const GpuConfig cfg = GpuConfig::baseline();
    SmCore sm(cfg, 0);
    const KernelParams &bfs = benchmark("BFS");
    const KernelProgram prog = buildProgram(bfs);
    ASSERT_TRUE(sm.launchCta(0, bfs, prog, 0, Addr{1} << 36, 0));
    // Service memory crudely: answer every request after 100 cycles.
    std::vector<MemResponse> pending;
    for (Cycle t = 0; t < 300000 && !sm.idle(); ++t) {
        sm.tick(t);
        sm.routeStaged([&](const MemRequest &req, unsigned) {
            if (!req.write)
                pending.push_back({req.line, 0, req.readyAt + 100});
            return true;
        });
        for (std::size_t i = 0; i < pending.size();) {
            if (pending[i].readyAt <= t) {
                sm.deliverResponse(pending[i]);
                pending[i] = pending.back();
                pending.pop_back();
            } else {
                ++i;
            }
        }
    }
    ASSERT_TRUE(sm.idle());
    const double eff =
        static_cast<double>(sm.stats().threadInstsIssued) /
        (static_cast<double>(sm.stats().warpInstsIssued) * 32);
    EXPECT_LT(eff, 0.95);
    EXPECT_GT(eff, 0.5);
}
