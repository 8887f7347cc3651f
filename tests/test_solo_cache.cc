/**
 * @file
 * Tests for the memoized solo-characterization cache: hit/miss
 * accounting, key separation across kernel / config / window / quota,
 * fingerprint sensitivity, and value independence of cached entries.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "harness/solo_cache.hh"
#include "telemetry/telemetry.hh"
#include "workloads/benchmarks.hh"

using namespace wsl;

namespace {

const GpuConfig cfg = GpuConfig::baseline();
constexpr Cycle kWindow = 10000;

} // namespace

TEST(SoloCache, RepeatLookupsHitTheCache)
{
    SoloCache cache;
    const SoloResult &a = cache.get(benchmark("NN"), cfg, kWindow);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    const SoloResult &b = cache.get(benchmark("NN"), cfg, kWindow);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(&a, &b);  // same entry, not a recomputation
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SoloCache, CachedValueMatchesDirectSimulation)
{
    SoloCache cache;
    const SoloResult &cached =
        cache.get(benchmark("HOT"), cfg, kWindow, 2);
    const SoloResult direct =
        runSoloForCycles(benchmark("HOT"), cfg, kWindow, 2);
    EXPECT_EQ(cached.cycles, direct.cycles);
    EXPECT_EQ(cached.threadInsts, direct.threadInsts);
    EXPECT_EQ(cached.warpInsts, direct.warpInsts);
    EXPECT_EQ(cached.stats.l1Misses, direct.stats.l1Misses);
    EXPECT_EQ(cached.stats.warpInstsIssued,
              direct.stats.warpInstsIssued);
}

TEST(SoloCache, DistinctKeysNeverCollide)
{
    SoloCache cache;
    cache.get(benchmark("NN"), cfg, kWindow);

    // Different kernel.
    cache.get(benchmark("HOT"), cfg, kWindow);
    EXPECT_EQ(cache.misses(), 2u);

    // Different window.
    cache.get(benchmark("NN"), cfg, kWindow * 2);
    EXPECT_EQ(cache.misses(), 3u);

    // Different CTA quota.
    cache.get(benchmark("NN"), cfg, kWindow, 1);
    EXPECT_EQ(cache.misses(), 4u);

    // Different config (any field participates in the fingerprint).
    GpuConfig other = cfg;
    other.seed += 1;
    cache.get(benchmark("NN"), other, kWindow);
    EXPECT_EQ(cache.misses(), 5u);

    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.size(), 5u);
}

TEST(SoloCache, FingerprintsCoverKernelPerturbations)
{
    // A sensitivity sweep that tweaks one kernel field must not reuse
    // the canonical benchmark's entry, even under the same name.
    SoloCache cache;
    KernelParams base = benchmark("NN");
    cache.get(base, cfg, kWindow);

    KernelParams perturbed = base;
    perturbed.mix.depDist += 1;
    cache.get(perturbed, cfg, kWindow);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_NE(kernelFingerprint(base), kernelFingerprint(perturbed));

    // A nudge past a double's sixth significant digit is still another
    // kernel: the key keeps every bit.
    KernelParams nudged = base;
    nudged.ifetchMissRate *= 1 + 1e-7;
    cache.get(nudged, cfg, kWindow);
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_NE(kernelFingerprint(base), kernelFingerprint(nudged));
    KernelParams div_nudged = base;
    div_nudged.mix.divFraction *= 1 + 1e-7;
    EXPECT_NE(kernelFingerprint(base), kernelFingerprint(div_nudged));

    GpuConfig a = cfg, b = cfg;
    b.scheduler = SchedulerKind::Lrr;
    EXPECT_NE(configFingerprint(a), configFingerprint(b));
    EXPECT_EQ(configFingerprint(a), configFingerprint(cfg));
}

TEST(SoloCache, ClearResetsEverything)
{
    SoloCache cache;
    cache.get(benchmark("NN"), cfg, kWindow);
    cache.get(benchmark("NN"), cfg, kWindow);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    cache.get(benchmark("NN"), cfg, kWindow);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(SoloCache, CharacterizationSharesTheGlobalCache)
{
    SoloCache::global().clear();
    Characterization chars(cfg, kWindow);
    chars.target("NN");
    const std::uint64_t misses = SoloCache::global().misses();
    EXPECT_GE(misses, 1u);

    // A second Characterization with identical parameters re-uses the
    // memoized solo runs instead of re-simulating.
    Characterization again(cfg, kWindow);
    again.target("NN");
    again.solo("NN");
    again.aloneCycles("NN");
    EXPECT_EQ(SoloCache::global().misses(), misses);
    EXPECT_GE(SoloCache::global().hits(), 3u);
}

TEST(SoloCache, CachedResultsCarryNoLiveRecordingState)
{
    // Cached entries are plain counter snapshots: a run that attaches
    // telemetry to a co-run must not mutate the cached solo stats.
    SoloCache::global().clear();
    Characterization chars(cfg, kWindow);
    const SoloResult &before = chars.solo("NN");
    const std::uint64_t insts = before.threadInsts;
    const std::uint64_t l1 = before.stats.l1Misses;

    const std::vector<KernelParams> apps = {benchmark("NN"),
                                            benchmark("HOT")};
    const std::vector<std::uint64_t> targets = {chars.target("NN"),
                                                chars.target("HOT")};
    TelemetrySampler sampler(TelemetryConfig{1000, 4096});
    CoRunOptions opts;
    opts.telemetry = &sampler;
    runCoSchedule(apps, targets, PolicyKind::Even, cfg, opts);

    const SoloResult &after = chars.solo("NN");
    EXPECT_EQ(&before, &after);
    EXPECT_EQ(after.threadInsts, insts);
    EXPECT_EQ(after.stats.l1Misses, l1);
}
