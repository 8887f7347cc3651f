/**
 * @file
 * Snapshot/restore engine tests: bit-identity of restored runs with
 * clock skipping on and off, the typed rejection of damaged or
 * mismatched snapshot files, warm-start co-run fan-out equivalence
 * (including decision-log replay), and checkpoint/resume through the
 * harness.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/sim_error.hh"
#include "core/policies.hh"
#include "core/warped_slicer.hh"
#include "expect_throw.hh"
#include "gpu/gpu.hh"
#include "harness/runner.hh"
#include "harness/snapshot_cache.hh"
#include "obs/decision_log.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/telemetry.hh"
#include "workloads/benchmarks.hh"

using namespace wsl;

namespace {

constexpr Cycle kWindow = 40000;
constexpr Cycle kSplit = 17000;  //!< snapshot point mid-run

/** The engine variants: clock skipping on and off (bit-identical by
 *  construction). */
const bool kVariants[] = {true, false};

GpuConfig
variantConfig(bool clock_skip)
{
    GpuConfig cfg;
    cfg.clockSkip = clock_skip;
    return cfg;
}

/** A two-kernel machine with the Dynamic policy mid-lifecycle: the
 *  snapshot must carry profiling state, quotas, and (with targets)
 *  kernel halts across the boundary. */
std::unique_ptr<Gpu>
makeMachine(const GpuConfig &cfg)
{
    auto gpu = std::make_unique<Gpu>(
        cfg, std::make_unique<WarpedSlicerPolicy>(
                 scaledSlicerOptions(kWindow)));
    gpu->launchKernel(benchmark("MM"), 50'000'000);
    gpu->launchKernel(benchmark("LBM"), 50'000'000);
    return gpu;
}

/** Everything the identity checks compare. */
struct MachineDigest
{
    Cycle cycle = 0;
    GpuStats stats;
    std::vector<std::uint64_t> kernelFields;
    std::vector<int> chosenCtas;
    std::size_t decisions = 0;
};

MachineDigest
digest(Gpu &gpu)
{
    MachineDigest d;
    d.cycle = gpu.cycle();
    d.stats = gpu.collectStats();
    for (std::size_t k = 0; k < gpu.numKernels(); ++k) {
        const KernelInstance &ki = gpu.kernel(static_cast<KernelId>(k));
        d.kernelFields.push_back(ki.nextCta);
        d.kernelFields.push_back(ki.ctasCompleted);
        d.kernelFields.push_back(ki.halted ? 1 : 0);
        d.kernelFields.push_back(ki.done ? 1 : 0);
        d.kernelFields.push_back(ki.finishCycle);
    }
    const auto &dyn =
        dynamic_cast<const WarpedSlicerPolicy &>(gpu.slicingPolicy());
    d.chosenCtas = dyn.lastDecision().ctas;
    d.decisions = dyn.decisionHistory().size();
    return d;
}

void
expectDigestsEqual(const MachineDigest &a, const MachineDigest &b)
{
    EXPECT_EQ(a.cycle, b.cycle);
    EXPECT_EQ(a.kernelFields, b.kernelFields);
    EXPECT_EQ(a.chosenCtas, b.chosenCtas);
    EXPECT_EQ(a.decisions, b.decisions);
    SmStats::forEachField([&](const char *name, auto member) {
        EXPECT_EQ(a.stats.*member, b.stats.*member)
            << "SmStats field " << name;
    });
    PartitionStats::forEachField([&](const char *name, auto member) {
        EXPECT_EQ(a.stats.*member, b.stats.*member)
            << "PartitionStats field " << name;
    });
}

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

} // namespace

// ---- Round-trip bit-identity ----

TEST(Snapshot, RoundTripMatchesUninterruptedRun)
{
    for (const bool v : kVariants) {
        const GpuConfig cfg = variantConfig(v);

        auto cold = makeMachine(cfg);
        cold->run(kWindow);
        const MachineDigest want = digest(*cold);

        auto first = makeMachine(cfg);
        first->run(kSplit);
        const std::vector<std::uint8_t> snap = saveSnapshot(*first);

        auto resumed = std::make_unique<Gpu>(
            cfg, std::make_unique<WarpedSlicerPolicy>(
                     scaledSlicerOptions(kWindow)));
        restoreSnapshot(*resumed, snap);
        EXPECT_EQ(resumed->cycle(), kSplit);
        resumed->run(kWindow - kSplit);

        expectDigestsEqual(digest(*resumed), want);

        // The interrupted donor, continued in place, must also match:
        // saving is read-only.
        first->run(kWindow - kSplit);
        expectDigestsEqual(digest(*first), want);
    }
}

TEST(Snapshot, PreemptAndResumeMatchesUninterrupted)
{
    // The serving layer's preemption path: checkpoint the machine,
    // evict one mid-flight kernel (haltKernel), keep serving the
    // survivor, and later re-admit the preempted kernel by restoring
    // the checkpoint. The re-admitted run must land on final stats
    // byte-identical to a run that was never preempted.
    const GpuConfig cfg = variantConfig(true);
    auto makeTargeted = [&] {
        auto gpu = std::make_unique<Gpu>(
            cfg, std::make_unique<WarpedSlicerPolicy>(
                     scaledSlicerOptions(kWindow)));
        gpu->launchKernel(benchmark("MM"), 5'000'000);
        gpu->launchKernel(benchmark("LBM"), 3'000'000);
        return gpu;
    };

    auto cold = makeTargeted();
    cold->run(50'000'000);
    ASSERT_TRUE(cold->allKernelsDone());
    const MachineDigest want = digest(*cold);

    // Checkpoint mid-flight, then preempt kernel 1 on the donor.
    auto donor = makeTargeted();
    donor->run(kSplit);
    const std::vector<std::uint8_t> snap = saveSnapshot(*donor);
    ASSERT_FALSE(donor->kernel(1).done);
    const std::uint64_t preempted_insts = donor->kernelThreadInsts(1);
    EXPECT_GT(preempted_insts, 0u);
    donor->haltKernel(1);
    EXPECT_TRUE(donor->kernel(1).done);
    EXPECT_TRUE(donor->kernel(1).halted);
    EXPECT_EQ(donor->kernel(1).finishCycle, kSplit);
    // Executed-work accounting survives the eviction: the preempted
    // job's instruction-level checkpoint is readable post-halt.
    EXPECT_EQ(donor->kernelThreadInsts(1), preempted_insts);

    // The degraded machine keeps serving the survivor to completion
    // (it halts organically at its instruction target).
    donor->run(50'000'000);
    ASSERT_TRUE(donor->allKernelsDone());
    EXPECT_GE(donor->kernelThreadInsts(0), 5'000'000u);

    // Re-admit: the checkpoint carries the evicted kernel's mid-flight
    // state, so resuming finishes both kernels bit-identically.
    auto resumed = std::make_unique<Gpu>(
        cfg, std::make_unique<WarpedSlicerPolicy>(
                 scaledSlicerOptions(kWindow)));
    restoreSnapshot(*resumed, snap);
    EXPECT_EQ(resumed->cycle(), kSplit);
    resumed->run(50'000'000);
    ASSERT_TRUE(resumed->allKernelsDone());
    expectDigestsEqual(digest(*resumed), want);
}

TEST(Snapshot, RestoreCrossesEngineVariants)
{
    // Capture under the skipping engine, restore under both variants:
    // tick boundaries are variant-independent machine states, and the
    // fingerprint canonicalizes the clockSkip knob.
    auto donor = makeMachine(variantConfig(true));
    donor->run(kSplit);
    const std::vector<std::uint8_t> snap = saveSnapshot(*donor);

    for (const bool v : kVariants) {
        const GpuConfig cfg = variantConfig(v);
        auto cold = makeMachine(cfg);
        cold->run(kWindow);
        const MachineDigest want = digest(*cold);

        auto resumed = std::make_unique<Gpu>(
            cfg, std::make_unique<WarpedSlicerPolicy>(
                     scaledSlicerOptions(kWindow)));
        restoreSnapshot(*resumed, snap);
        resumed->run(kWindow - kSplit);
        expectDigestsEqual(digest(*resumed), want);
    }
}

TEST(Snapshot, SegmentedRunsAndAuditedReplayMatch)
{
    // run(a); save; restore; run(b) chains compose arbitrarily, and a
    // bisection-style replay under --audit=1 reproduces the same
    // machine (audits are read-only).
    const GpuConfig cfg = variantConfig(true);
    auto cold = makeMachine(cfg);
    cold->run(kWindow);
    const MachineDigest want = digest(*cold);

    auto stepped = makeMachine(cfg);
    std::vector<std::uint8_t> snap;
    for (Cycle at = 8000; at < kWindow; at += 8000) {
        stepped->run(at - stepped->cycle());
        snap = saveSnapshot(*stepped);
    }
    stepped->run(kWindow - stepped->cycle());
    expectDigestsEqual(digest(*stepped), want);

    GpuConfig audited = cfg;
    audited.auditCadence = 1;
    audited.watchdogCycles = 5000;
    auto replay = std::make_unique<Gpu>(
        audited, std::make_unique<WarpedSlicerPolicy>(
                     scaledSlicerOptions(kWindow)));
    restoreSnapshot(*replay, snap);
    replay->run(kWindow - replay->cycle());
    expectDigestsEqual(digest(*replay), want);
    ASSERT_NE(replay->integrityAuditor(), nullptr);
    EXPECT_GT(replay->integrityAuditor()->auditsRun(), 0u);
}

// ---- Rejection of damaged / mismatched snapshots ----

TEST(Snapshot, RejectsDamagedFiles)
{
    auto gpu = makeMachine(variantConfig(true));
    gpu->run(5000);
    const std::vector<std::uint8_t> good = saveSnapshot(*gpu);

    auto fresh = [] {
        return std::make_unique<Gpu>(
            variantConfig(true),
            std::make_unique<WarpedSlicerPolicy>(
                scaledSlicerOptions(kWindow)));
    };

    // Truncated file.
    std::vector<std::uint8_t> truncated(good.begin(),
                                        good.end() - good.size() / 3);
    WSL_EXPECT_THROW_MSG(restoreSnapshot(*fresh(), truncated),
                         SnapshotError, "truncated");

    // Flipped payload byte.
    std::vector<std::uint8_t> corrupt = good;
    corrupt[corrupt.size() / 2] ^= 0x40;
    WSL_EXPECT_THROW_MSG(restoreSnapshot(*fresh(), corrupt),
                         SnapshotError, "checksum");

    // Wrong magic.
    std::vector<std::uint8_t> bad_magic = good;
    bad_magic[0] = 'X';
    WSL_EXPECT_THROW_MSG(restoreSnapshot(*fresh(), bad_magic),
                         SnapshotError, "not a wslicer snapshot");

    // Future format version.
    std::vector<std::uint8_t> bad_version = good;
    bad_version[8] = static_cast<std::uint8_t>(snapshotFormatVersion + 1);
    WSL_EXPECT_THROW_MSG(restoreSnapshot(*fresh(), bad_version),
                         SnapshotError, "format version");

    // Past format version (a file written before the layout changed).
    std::vector<std::uint8_t> old_version = good;
    old_version[8] = static_cast<std::uint8_t>(snapshotFormatVersion - 1);
    WSL_EXPECT_THROW_MSG(restoreSnapshot(*fresh(), old_version),
                         SnapshotError, "format version");
}

TEST(Snapshot, RejectsMachineAndPolicyMismatches)
{
    auto gpu = makeMachine(variantConfig(true));
    gpu->run(5000);
    const std::vector<std::uint8_t> snap = saveSnapshot(*gpu);

    // A simulated-machine parameter differs: refuse.
    GpuConfig other = variantConfig(true);
    other.l1Size = 32 * 1024;
    Gpu other_gpu(other, std::make_unique<WarpedSlicerPolicy>(
                             scaledSlicerOptions(kWindow)));
    WSL_EXPECT_THROW_MSG(restoreSnapshot(other_gpu, snap),
                         SnapshotError, "different machine");

    // Same machine, different policy: refuse.
    Gpu wrong_policy(variantConfig(true),
                     std::make_unique<SpatialPolicy>());
    WSL_EXPECT_THROW_MSG(restoreSnapshot(wrong_policy, snap),
                         SnapshotError, "policy");

    // A machine that already ran is not a restore target.
    auto used = makeMachine(variantConfig(true));
    used->run(100);
    WSL_EXPECT_THROW_MSG(restoreSnapshot(*used, snap), SnapshotError,
                         "freshly constructed");
}

TEST(Snapshot, RefusesToCaptureWithTelemetryAttached)
{
    auto gpu = makeMachine(variantConfig(true));
    TelemetrySampler sampler(TelemetryConfig{1000, 4096});
    gpu->attachTelemetry(&sampler);
    gpu->run(3000);
    WSL_EXPECT_THROW_MSG(saveSnapshot(*gpu), SnapshotError,
                         "telemetry");
}

// ---- Files and provenance ----

TEST(Snapshot, FileRoundTripAndProbe)
{
    const std::string path = tempPath("wsl_test_snapshot.bin");
    const GpuConfig cfg = variantConfig(true);

    auto gpu = makeMachine(cfg);
    gpu->run(kSplit);
    writeSnapshotFile(*gpu, path);

    const SnapshotInfo info = probeSnapshotFile(path);
    EXPECT_TRUE(info.valid());
    EXPECT_EQ(info.formatVersion, snapshotFormatVersion);
    EXPECT_EQ(info.captureCycle, kSplit);
    EXPECT_EQ(info.machineFingerprint,
              snapshotMachineFingerprint(cfg));

    auto cold = makeMachine(cfg);
    cold->run(kWindow);
    auto resumed = std::make_unique<Gpu>(
        cfg, std::make_unique<WarpedSlicerPolicy>(
                 scaledSlicerOptions(kWindow)));
    restoreSnapshotFile(*resumed, path);
    resumed->run(kWindow - resumed->cycle());
    expectDigestsEqual(digest(*resumed), digest(*cold));

    std::remove(path.c_str());
    WSL_EXPECT_THROW_MSG(probeSnapshotFile(path), SnapshotError,
                         "cannot open snapshot");
}

TEST(Snapshot, EngineKnobsShareAFingerprint)
{
    const GpuConfig base = variantConfig(true);
    for (const bool v : kVariants) {
        EXPECT_EQ(snapshotMachineFingerprint(variantConfig(v)),
                  snapshotMachineFingerprint(base));
    }
    GpuConfig audited = base;
    audited.auditCadence = 100;
    audited.watchdogCycles = 10000;
    EXPECT_EQ(snapshotMachineFingerprint(audited),
              snapshotMachineFingerprint(base));

    GpuConfig other = base;
    other.seed = 2;
    EXPECT_NE(snapshotMachineFingerprint(other),
              snapshotMachineFingerprint(base));
}

// ---- Harness integration: warm-start fan-out, checkpoint/resume ----

namespace {

void
expectCoRunsEqual(const CoRunResult &a, const CoRunResult &b)
{
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.sysIpc, b.sysIpc);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.chosenCtas, b.chosenCtas);
    EXPECT_EQ(a.spatialFallback, b.spatialFallback);
    ASSERT_EQ(a.apps.size(), b.apps.size());
    for (std::size_t i = 0; i < a.apps.size(); ++i) {
        EXPECT_EQ(a.apps[i].insts, b.apps[i].insts);
        EXPECT_EQ(a.apps[i].cycles, b.apps[i].cycles);
    }
    SmStats::forEachField([&](const char *name, auto member) {
        EXPECT_EQ(a.stats.*member, b.stats.*member)
            << "SmStats field " << name;
    });
    PartitionStats::forEachField([&](const char *name, auto member) {
        EXPECT_EQ(a.stats.*member, b.stats.*member)
            << "PartitionStats field " << name;
    });
}

std::string
decisionJson(const DecisionLog &log)
{
    std::ostringstream os;
    log.writeJson(os);
    return os.str();
}

} // namespace

TEST(Snapshot, WarmStartCoRunIsByteIdenticalToCold)
{
    const std::vector<KernelParams> apps = {benchmark("MM"),
                                            benchmark("LBM")};
    const std::vector<std::uint64_t> targets = {400000, 300000};
    const GpuConfig cfg = variantConfig(true);

    CoRunOptions cold_opts;
    cold_opts.maxCycles = kWindow;
    cold_opts.slicer = scaledSlicerOptions(kWindow);
    DecisionLog cold_log;
    cold_opts.decisionLog = &cold_log;
    const CoRunResult cold = runCoSchedule(apps, targets,
                                           PolicyKind::Dynamic, cfg,
                                           cold_opts);

    SnapshotCache cache;
    CoRunOptions warm_opts = cold_opts;
    warm_opts.warmStart = &cache;
    warm_opts.warmStartAt = kWindow / 2;

    DecisionLog warm_log;
    warm_opts.decisionLog = &warm_log;
    const CoRunResult warm = runCoSchedule(apps, targets,
                                           PolicyKind::Dynamic, cfg,
                                           warm_opts);
    expectCoRunsEqual(warm, cold);
    EXPECT_EQ(decisionJson(warm_log), decisionJson(cold_log));
    EXPECT_EQ(cache.misses(), 1u);

    // Second identical job: pure cache hit, same bytes, same result.
    DecisionLog warm2_log;
    warm_opts.decisionLog = &warm2_log;
    const CoRunResult warm2 = runCoSchedule(apps, targets,
                                            PolicyKind::Dynamic, cfg,
                                            warm_opts);
    expectCoRunsEqual(warm2, cold);
    EXPECT_EQ(decisionJson(warm2_log), decisionJson(cold_log));
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(Snapshot, CheckpointedRunResumesToIdenticalResult)
{
    const std::string path = tempPath("wsl_test_checkpoint.bin");
    const std::vector<KernelParams> apps = {benchmark("NN"),
                                            benchmark("HOT")};
    const std::vector<std::uint64_t> targets = {250000, 250000};
    const GpuConfig cfg = variantConfig(true);

    CoRunOptions cold_opts;
    cold_opts.maxCycles = kWindow;
    const CoRunResult cold = runCoSchedule(apps, targets,
                                           PolicyKind::LeftOver, cfg,
                                           cold_opts);

    // Interrupted run: checkpoint mid-way, stop there.
    CoRunOptions ckpt_opts = cold_opts;
    ckpt_opts.maxCycles = kWindow / 2;
    ckpt_opts.snapshotAt = kWindow / 2;
    ckpt_opts.snapshotPath = path;
    runCoSchedule(apps, targets, PolicyKind::LeftOver, cfg, ckpt_opts);

    // Resume from the file and finish the original interval.
    CoRunOptions resume_opts = cold_opts;
    resume_opts.restorePath = path;
    const CoRunResult resumed = runCoSchedule(
        apps, targets, PolicyKind::LeftOver, cfg, resume_opts);
    expectCoRunsEqual(resumed, cold);

    // A resume with mismatched targets (stale characterization) is
    // refused with a pointer at the window.
    const std::vector<std::uint64_t> wrong = {111111, 250000};
    WSL_EXPECT_THROW_MSG(
        runCoSchedule(apps, wrong, PolicyKind::LeftOver, cfg,
                      resume_opts),
        SnapshotError, "instruction target");

    std::remove(path.c_str());
}

TEST(Snapshot, PeriodicCheckpointsResumeFromLastEpoch)
{
    const std::string path = tempPath("wsl_test_periodic.bin");
    const std::vector<KernelParams> apps = {benchmark("MM"),
                                            benchmark("BFS")};
    const std::vector<std::uint64_t> targets = {300000, 200000};
    const GpuConfig cfg = variantConfig(true);

    CoRunOptions cold_opts;
    cold_opts.maxCycles = kWindow;
    const CoRunResult cold = runCoSchedule(apps, targets,
                                           PolicyKind::Even, cfg,
                                           cold_opts);

    // Periodic checkpoints all the way to the end; the file is left
    // at the final epoch...
    CoRunOptions ckpt_opts = cold_opts;
    ckpt_opts.checkpointEvery = kWindow / 5;
    ckpt_opts.snapshotPath = path;
    const CoRunResult ckpt = runCoSchedule(
        apps, targets, PolicyKind::Even, cfg, ckpt_opts);
    expectCoRunsEqual(ckpt, cold);  // checkpointing is observation-only

    // ...so resuming is either a no-op continuation or a short tail,
    // and lands on the same result either way.
    CoRunOptions resume_opts = cold_opts;
    resume_opts.restorePath = path;
    const CoRunResult resumed = runCoSchedule(
        apps, targets, PolicyKind::Even, cfg, resume_opts);
    expectCoRunsEqual(resumed, cold);

    std::remove(path.c_str());
}

TEST(Snapshot, CheckpointOptionValidation)
{
    const std::vector<KernelParams> apps = {benchmark("MM")};
    const std::vector<std::uint64_t> targets = {100000};
    const GpuConfig cfg = variantConfig(true);

    CoRunOptions opts;
    opts.maxCycles = 10000;
    opts.snapshotAt = 5000;  // no snapshotPath
    WSL_EXPECT_THROW_MSG(runCoSchedule(apps, targets,
                                       PolicyKind::LeftOver, cfg, opts),
                         ConfigError, "snapshotPath");

    opts.snapshotPath = tempPath("wsl_test_never_written.bin");
    TelemetrySampler sampler(TelemetryConfig{1000, 4096});
    opts.telemetry = &sampler;
    WSL_EXPECT_THROW_MSG(runCoSchedule(apps, targets,
                                       PolicyKind::LeftOver, cfg, opts),
                         ConfigError, "telemetry");
}
