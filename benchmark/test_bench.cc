#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "bench_lib.hh"

using namespace wsl;
using namespace wsl::bench;

TEST(BenchStats, PercentileInterpolatesBetweenRanks)
{
    const std::vector<double> v = {5, 1, 3, 2, 4};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.9), 4.6);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2}, 0.5), 1.5);
    EXPECT_DOUBLE_EQ(percentile({7}, 0.9), 7.0);
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(BenchStats, GmeanOfRatios)
{
    EXPECT_DOUBLE_EQ(gmeanOfRatios({2, 8}, {1, 2}), std::sqrt(8.0));
    EXPECT_DOUBLE_EQ(gmeanOfRatios({3, 3, 3}, {3, 3, 3}), 1.0);
    // A missing baseline poisons the mean rather than being skipped.
    EXPECT_DOUBLE_EQ(gmeanOfRatios({2, 2}, {1, 0}), 0.0);
}

TEST(BenchTrace, SelfTimeSubtractsDirectChildrenOnly)
{
    const std::vector<Span> spans = {
        {"job", 0, -1, 0.0, 10.0, false},
        {"gpu.construct", 0, 0, 0.0, 3.0, false},
        {"gpu.run", 0, 0, 3.0, 6.0, false},
        {"sm.tick", 0, 2, 3.0, 4.0, true},
        {"mem.tick", 0, 2, 3.0, 1.5, true},
    };
    EXPECT_DOUBLE_EQ(selfSeconds(spans, 0), 1.0);
    EXPECT_DOUBLE_EQ(selfSeconds(spans, 1), 3.0);
    EXPECT_DOUBLE_EQ(selfSeconds(spans, 2), 0.5);
    EXPECT_DOUBLE_EQ(selfSeconds(spans, 3), 4.0);

    std::ostringstream os;
    writeTrace(os, "w", 7, spans);
    EXPECT_NE(os.str().find("\"schema\":\"wsl-bench-trace-v1\""),
              std::string::npos);
    EXPECT_NE(os.str().find("\"self_s\":0.5"), std::string::npos);
}

namespace {

std::vector<KernelParams>
tinyApps()
{
    return {benchmark("MM"), benchmark("LBM")};
}

/** Each app's work in a 10 K-cycle solo run: long enough for the
 *  Dynamic policy to profile and decide, short enough for a unit test. */
std::vector<std::uint64_t>
tinyTargets(const GpuConfig &cfg)
{
    std::vector<std::uint64_t> targets;
    for (const KernelParams &app : tinyApps())
        targets.push_back(runSoloForCycles(app, cfg, 10'000).threadInsts);
    return targets;
}

std::uint64_t
digestOf(const CoRunResult &r)
{
    Digest d;
    digestCoRun(d, r);
    return d.value();
}

} // namespace

TEST(BenchDigest, StableAcrossRunsAndEqualForTheTracedReplay)
{
    const GpuConfig cfg = GpuConfig::baseline();
    const std::vector<std::uint64_t> targets = tinyTargets(cfg);
    const WarpedSlicerOptions slicer = scaledSlicerOptions(10'000);
    CoRunOptions opts;
    opts.slicer = slicer;
    const CoRunResult a = runCoSchedule(tinyApps(), targets,
                                        PolicyKind::Dynamic, cfg, opts);
    const CoRunResult b = runCoSchedule(tinyApps(), targets,
                                        PolicyKind::Dynamic, cfg, opts);
    ASSERT_EQ(coRunError(a), "");
    EXPECT_EQ(digestOf(a), digestOf(b));

    const TracedJob t =
        runTracedJob(cfg, tinyApps(), targets, PolicyKind::Dynamic,
                     slicer, Clock::now());
    EXPECT_EQ(digestOf(t.result), digestOf(a));
    EXPECT_GT(t.policyCalls, 0u);
    EXPECT_GT(t.decisions, 0u);
    EXPECT_GT(t.ticks, 0u);
    EXPECT_GE(t.runS, t.smS + t.icntS + t.memS + t.policyS);

    CoRunResult perturbed = a;
    perturbed.stats.l2Misses += 1;
    EXPECT_NE(digestOf(perturbed), digestOf(a));
    perturbed = a;
    perturbed.stats.stalls[0] += 1;
    EXPECT_NE(digestOf(perturbed), digestOf(a));
    perturbed = a;
    perturbed.sysIpc = std::nextafter(a.sysIpc, 0.0);
    EXPECT_NE(digestOf(perturbed), digestOf(a));
}

TEST(BenchChecks, CoRunErrorFlagsFailedAndIncompleteJobs)
{
    CoRunResult r;
    r.sysIpc = 1.0;
    EXPECT_EQ(coRunError(r), "");
    r.completed = false;
    EXPECT_NE(coRunError(r), "");
    r.completed = true;
    r.error.failed = true;
    EXPECT_NE(coRunError(r), "");
}

TEST(BenchChecks, BrokenServeLedgerIsRejected)
{
    ClassSlo s;
    s.arrivals = 10;
    s.admitted = 7;
    s.rejectedQueueFull = 2;
    s.rejectedMalformed = 1;
    s.completed = 4;
    s.shed = 1;
    s.timedOut = 1;
    s.pendingAtEnd = 1;
    EXPECT_EQ(ledgerError(s), "");

    ClassSlo lost_arrival = s;
    lost_arrival.arrivals = 11;
    EXPECT_NE(ledgerError(lost_arrival), "");

    ClassSlo lost_outcome = s;
    lost_outcome.completed = 3;
    EXPECT_NE(ledgerError(lost_outcome), "");

    ServeResult r(defaultTenantClasses());
    EXPECT_EQ(serveError(r), "");
    r.invariantViolations = 1;
    EXPECT_NE(serveError(r), "");
}
