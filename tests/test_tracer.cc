/**
 * @file
 * Tests for the lifecycle events a TelemetrySampler records: the
 * streams real simulations emit, the bound on their number, that only
 * an attached sampler records them, that machines never share them,
 * that a sampler attached after a restore still names the kernels, and
 * that a parallel batch writes the same timelines as lone runs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/policies.hh"
#include "core/warped_slicer.hh"
#include "harness/runner.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/timeline.hh"

using namespace wsl;

namespace {

std::vector<SimEventRecord>
ofKind(const TelemetrySampler &sampler, SimEvent event)
{
    std::vector<SimEventRecord> out;
    for (const SimEventRecord &r : sampler.events())
        if (r.event == event)
            out.push_back(r);
    return out;
}

std::string
timeline(const TelemetrySampler &sampler, Cycle end_cycle)
{
    std::ostringstream os;
    writeChromeTrace(os, sampler, end_cycle);
    return os.str();
}

/** Run `apps` under LeftOver for `cycles` with `sampler` attached. */
void
runLeftOver(const std::vector<std::string> &apps, TelemetrySampler &sampler,
            Cycle cycles)
{
    Gpu gpu(GpuConfig::baseline(), std::make_unique<LeftOverPolicy>());
    gpu.attachTelemetry(&sampler);
    for (const std::string &app : apps)
        gpu.launchKernel(benchmark(app));
    gpu.run(cycles);
}

} // namespace

TEST(SamplerEvents, SoloRunEmitsConsistentCtaLifecycle)
{
    TelemetrySampler sampler(TelemetryConfig{10000, 4096});
    KernelParams k = benchmark("IMG");
    Gpu gpu(GpuConfig::baseline(), std::make_unique<LeftOverPolicy>());
    gpu.attachTelemetry(&sampler);
    k.gridDim = 150;
    gpu.launchKernel(k);
    gpu.run(2'000'000);
    ASSERT_TRUE(gpu.allKernelsDone());

    const auto launches = ofKind(sampler, SimEvent::CtaLaunch);
    const auto completes = ofKind(sampler, SimEvent::CtaComplete);
    EXPECT_EQ(launches.size(), 150u);
    EXPECT_EQ(completes.size(), 150u);
    EXPECT_EQ(ofKind(sampler, SimEvent::KernelLaunch).size(), 1u);
    const auto finishes = ofKind(sampler, SimEvent::KernelFinish);
    ASSERT_EQ(finishes.size(), 1u);
    EXPECT_EQ(finishes[0].a, 0u);  // grid completed, not halted
    // Every completion follows its launch in time.
    EXPECT_LE(launches.front().cycle, completes.front().cycle);
    EXPECT_EQ(sampler.kernelName(0), "IMG");
}

TEST(SamplerEvents, DynamicPolicyEmitsProfileAndDecision)
{
    TelemetrySampler sampler(TelemetryConfig{1000, 4096});
    WarpedSlicerOptions opts;
    opts.warmup = 1000;
    opts.profileLength = 1500;
    Gpu gpu(GpuConfig::baseline(),
            std::make_unique<WarpedSlicerPolicy>(opts));
    gpu.attachTelemetry(&sampler);
    gpu.launchKernel(benchmark("IMG"), 1'000'000'000);
    gpu.launchKernel(benchmark("NN"), 1'000'000'000);
    gpu.run(6000);

    EXPECT_EQ(ofKind(sampler, SimEvent::ProfileStart).size(), 1u);
    const auto decisions = ofKind(sampler, SimEvent::Decision);
    ASSERT_GE(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].kernel, invalidKernel);
    if (decisions[0].b == 0) {  // intra-SM decision
        EXPECT_GE(decisions[0].quotas[0], 1u);
        EXPECT_GE(decisions[0].quotas[1], 1u);
        EXPECT_EQ(decisions[0].quotas[2], 0u);  // two live kernels
    }
}

TEST(SamplerEvents, OldestEventsDropPastTheBound)
{
    TelemetrySampler sampler(TelemetryConfig{1000, 4096});
    const std::size_t total = TelemetrySampler::maxEvents + 3;
    for (std::size_t i = 0; i < total; ++i)
        sampler.record(i, SimEvent::CtaLaunch, 0,
                       static_cast<std::uint32_t>(i));
    ASSERT_EQ(sampler.events().size(), TelemetrySampler::maxEvents);
    EXPECT_EQ(sampler.events().front().a, 3u);  // 0..2 dropped
    EXPECT_EQ(sampler.events().back().a, total - 1);
}

TEST(SamplerEvents, OnlyAnAttachedSamplerRecords)
{
    // A disabled sampler is never attached, so nothing reaches it.
    TelemetrySampler off(TelemetryConfig{0, 4096});
    Gpu gpu(GpuConfig::baseline(), std::make_unique<LeftOverPolicy>());
    gpu.attachTelemetry(&off);
    EXPECT_EQ(gpu.telemetry(), nullptr);
    gpu.launchKernel(benchmark("MM"));
    gpu.run(5000);
    EXPECT_TRUE(off.events().empty());
    EXPECT_EQ(off.kernelName(0), "");

    // Detaching stops the recording mid-run.
    TelemetrySampler on(TelemetryConfig{1000, 4096});
    Gpu other(GpuConfig::baseline(), std::make_unique<LeftOverPolicy>());
    other.attachTelemetry(&on);
    other.launchKernel(benchmark("MM"));
    other.run(2000);
    other.attachTelemetry(nullptr);
    const std::size_t recorded = on.events().size();
    EXPECT_GT(recorded, 1u);
    other.run(20000);
    EXPECT_EQ(on.events().size(), recorded);
}

TEST(SamplerEvents, MachinesRunInTurnKeepTheirOwnEvents)
{
    TelemetrySampler first(TelemetryConfig{1000, 4096});
    TelemetrySampler second(TelemetryConfig{1000, 4096});
    runLeftOver({"MM", "BFS"}, first, 4000);
    const std::string first_timeline = timeline(first, 4000);
    const std::size_t first_events = first.events().size();

    runLeftOver({"LBM"}, second, 4000);
    // The second machine neither adds to the first one's events nor
    // renames its kernels, and sees none of them itself.
    EXPECT_EQ(first.events().size(), first_events);
    EXPECT_EQ(timeline(first, 4000), first_timeline);
    EXPECT_EQ(first.kernelName(0), "MM");
    EXPECT_EQ(first.kernelName(1), "BFS");
    EXPECT_EQ(second.kernelName(0), "LBM");
    EXPECT_EQ(second.kernelName(1), "");
    for (const SimEventRecord &r : second.events())
        EXPECT_EQ(r.kernel, 0);
    const std::string second_timeline = timeline(second, 4000);
    EXPECT_EQ(first_timeline.find("\"LBM\""), std::string::npos);
    EXPECT_EQ(second_timeline.find("\"MM\""), std::string::npos);
    EXPECT_EQ(second_timeline.find("\"BFS\""), std::string::npos);
}

TEST(SamplerEvents, SamplerAttachedAfterRestoreNamesEveryKernel)
{
    Gpu gpu(GpuConfig::baseline(), std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(benchmark("IMG"));
    gpu.run(1000);
    gpu.launchKernel(benchmark("NN"));
    gpu.run(1000);
    Gpu restored(GpuConfig::baseline(),
                 std::make_unique<LeftOverPolicy>());
    restoreSnapshot(restored, saveSnapshot(gpu));

    // Kernels already in the table count as launched, so a sampler
    // attached to the restored machine sees what one attached to the
    // original machine at the same cycle sees.
    TelemetrySampler original(TelemetryConfig{1000, 4096});
    TelemetrySampler resumed(TelemetryConfig{1000, 4096});
    gpu.attachTelemetry(&original);
    restored.attachTelemetry(&resumed);
    const auto launches = ofKind(resumed, SimEvent::KernelLaunch);
    ASSERT_EQ(launches.size(), 2u);
    EXPECT_EQ(launches[0].cycle, 0u);
    EXPECT_EQ(launches[1].cycle, 1000u);
    EXPECT_EQ(resumed.kernelName(0), "IMG");
    EXPECT_EQ(resumed.kernelName(1), "NN");
    gpu.run(20000);
    restored.run(20000);
    EXPECT_FALSE(ofKind(resumed, SimEvent::CtaComplete).empty());
    EXPECT_EQ(timeline(resumed, restored.cycle()),
              timeline(original, gpu.cycle()));
}

TEST(SamplerEvents, BatchJobsWriteTheTimelinesOfLoneRuns)
{
    constexpr Cycle window = 6000;
    const GpuConfig cfg = GpuConfig::baseline();
    Characterization chars(cfg, window);
    std::vector<CoRunJob> batch;
    for (const auto &[apps, kind] :
         std::vector<std::pair<std::vector<std::string>, PolicyKind>>{
             {{"IMG", "NN"}, PolicyKind::Dynamic},
             {{"MM", "BFS"}, PolicyKind::LeftOver},
             {{"BLK", "LBM"}, PolicyKind::Dynamic},
             {{"HOT", "DXT", "MVP"}, PolicyKind::Even},
             {{"KNN", "MM"}, PolicyKind::Spatial}}) {
        CoRunJob job;
        job.apps = apps;
        job.kind = kind;
        job.opts.slicer = scaledSlicerOptions(window);
        batch.push_back(job);
    }
    std::vector<TelemetrySampler> samplers(
        batch.size(), TelemetrySampler(TelemetryConfig{1000, 4096}));
    for (std::size_t i = 0; i < batch.size(); ++i)
        batch[i].opts.telemetry = &samplers[i];
    const std::vector<CoRunResult> results =
        runCoScheduleBatch(chars, batch, 4);

    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_FALSE(results[i].error.failed) << results[i].error.message;
        std::vector<KernelParams> params;
        std::vector<std::uint64_t> targets;
        for (const std::string &app : batch[i].apps) {
            params.push_back(benchmark(app));
            targets.push_back(chars.target(app));
        }
        TelemetrySampler alone(TelemetryConfig{1000, 4096});
        CoRunOptions opts = batch[i].opts;
        opts.telemetry = &alone;
        const CoRunResult r =
            runCoSchedule(params, targets, batch[i].kind, cfg, opts);
        EXPECT_EQ(results[i].makespan, r.makespan) << i;
        EXPECT_GT(ofKind(alone, SimEvent::CtaLaunch).size(), 0u) << i;
        EXPECT_EQ(timeline(samplers[i], results[i].makespan),
                  timeline(alone, r.makespan))
            << "job " << i;
    }
    // The Dynamic jobs' timelines carry the policy's events.
    EXPECT_FALSE(ofKind(samplers[0], SimEvent::ProfileStart).empty());
    EXPECT_FALSE(ofKind(samplers[0], SimEvent::Decision).empty());
}
