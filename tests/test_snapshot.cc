/**
 * @file
 * Snapshot/restore engine tests: bit-identity of restored runs, the
 * typed rejection of damaged or mismatched snapshot files, and
 * checkpoint/resume through the harness (including decision-log
 * replay across a restore).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/access.hh"
#include "check/sim_error.hh"
#include "core/policies.hh"
#include "core/warped_slicer.hh"
#include "expect_throw.hh"
#include "gpu/gpu.hh"
#include "harness/runner.hh"
#include "obs/decision_log.hh"
#include "snapshot/fields.hh"
#include "snapshot/io.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/telemetry.hh"
#include "workloads/benchmarks.hh"

using namespace wsl;

namespace {

constexpr Cycle kWindow = 40000;
constexpr Cycle kSplit = 17000;  //!< snapshot point mid-run
const GpuConfig kCfg = GpuConfig::baseline();

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
    auto cold = makeMachine(kCfg);
    cold->run(kWindow);
    const MachineDigest want = digest(*cold);

    auto first = makeMachine(kCfg);
    first->run(kSplit);
    const std::vector<std::uint8_t> snap = saveSnapshot(*first);

    auto resumed = std::make_unique<Gpu>(
        kCfg, std::make_unique<WarpedSlicerPolicy>(
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

TEST(Snapshot, PreemptAndResumeMatchesUninterrupted)
{
    // The serving layer's preemption path: checkpoint the machine,
    // evict one mid-flight kernel (haltKernel), keep serving the
    // survivor, and later re-admit the preempted kernel by restoring
    // the checkpoint. The re-admitted run must land on final stats
    // byte-identical to a run that was never preempted.
    auto makeTargeted = [&] {
        auto gpu = std::make_unique<Gpu>(
            kCfg, std::make_unique<WarpedSlicerPolicy>(
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
        kCfg, std::make_unique<WarpedSlicerPolicy>(
                  scaledSlicerOptions(kWindow)));
    restoreSnapshot(*resumed, snap);
    EXPECT_EQ(resumed->cycle(), kSplit);
    resumed->run(50'000'000);
    ASSERT_TRUE(resumed->allKernelsDone());
    expectDigestsEqual(digest(*resumed), want);
}

TEST(Snapshot, SegmentedRunsAndAuditedReplayMatch)
{
    // run(a); save; restore; run(b) chains compose arbitrarily, and a
    // bisection-style replay under --audit=1 reproduces the same
    // machine (audits are read-only).
    auto cold = makeMachine(kCfg);
    cold->run(kWindow);
    const MachineDigest want = digest(*cold);

    auto stepped = makeMachine(kCfg);
    std::vector<std::uint8_t> snap;
    for (Cycle at = 8000; at < kWindow; at += 8000) {
        stepped->run(at - stepped->cycle());
        snap = saveSnapshot(*stepped);
    }
    stepped->run(kWindow - stepped->cycle());
    expectDigestsEqual(digest(*stepped), want);

    GpuConfig audited = kCfg;
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
    auto gpu = makeMachine(kCfg);
    gpu->run(5000);
    const std::vector<std::uint8_t> good = saveSnapshot(*gpu);

    auto fresh = [] {
        return std::make_unique<Gpu>(
            kCfg,
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

namespace {

/**
 * A checksum-valid file whose payload has `patch` written over the
 * bytes at `at` bytes past the first occurrence of `needle`: a
 * corruption the framing cannot catch. Fails the test when the needle
 * is not in the payload.
 */
std::vector<std::uint8_t>
patchedSnapshot(const std::vector<std::uint8_t> &file,
                const std::vector<std::uint8_t> &needle, std::size_t at,
                const std::vector<std::uint8_t> &patch)
{
    std::vector<std::uint8_t> payload = unframeSnapshot(file);
    const auto hit = std::search(payload.begin(), payload.end(),
                                 needle.begin(), needle.end());
    EXPECT_NE(hit, payload.end()) << "needle not in the payload";
    if (hit == payload.end())
        return file;
    std::copy(patch.begin(), patch.end(), hit + at);
    return frameSnapshot(payload);
}

std::vector<std::uint8_t>
bytesOf(std::int32_t v)
{
    SnapWriter w;
    w.i32(v);
    return w.take();
}

} // namespace

TEST(Snapshot, RejectsOutOfRangeIndices)
{
    auto gpu = makeMachine(kCfg);
    gpu->run(5000);
    const std::vector<std::uint8_t> good = saveSnapshot(*gpu);
    auto fresh = [] {
        return std::make_unique<Gpu>(
            kCfg, std::make_unique<WarpedSlicerPolicy>(
                      scaledSlicerOptions(kWindow)));
    };
    const SmCore &sm = gpu->sm(0);

    // A live warp's CTA slot: find SM 0's first live warp with an
    // empty divergence stack by its whole serialized record.
    const auto &hot = AuditAccess::hotWarps(sm);
    const auto &cold = AuditAccess::warps(sm);
    std::size_t w = 0;
    while (w < hot.size() &&
           !(hot[w].active && !hot[w].finished && cold[w].divStack.empty()))
        ++w;
    ASSERT_LT(w, hot.size());
    SnapWriter rec;
    rec.b(true);
    rec.u32(hot[w].pendingShort);
    rec.u32(hot[w].pendingLong);
    rec.u32(hot[w].activeMask);
    rec.u32(hot[w].pc);
    rec.u16(hot[w].ibuf);
    rec.b(true);
    rec.b(false);
    rec.b(hot[w].atBarrier);
    rec.u32(cold[w].epoch);
    const std::size_t cta_at = 26;
    rec.i32(cold[w].ctaSlot);
    rec.i32(cold[w].kernel);
    rec.u32(cold[w].warpInCta);
    rec.u32(cold[w].activeThreads);
    rec.u32(cold[w].iter);
    rec.b(cold[w].fetchPending);
    rec.u64(cold[w].fetchReadyAt);
    rec.u32(0);
    rec.u64(cold[w].age);
    WSL_EXPECT_THROW_MSG(
        restoreSnapshot(*fresh(), patchedSnapshot(good, rec.take(), cta_at,
                                                  bytesOf(100000))),
        SnapshotError, "warp CTA slot 100000 is out of range");

    // A scheduler-list entry: the list follows the seven serialized
    // warp masks and the scheduler count.
    const auto &lists = AuditAccess::schedLists(sm);
    ASSERT_FALSE(lists[0].empty());
    SnapWriter masks;
    masks.u64(AuditAccess::issuableMask(sm));
    masks.u64(AuditAccess::memBlockedMask(sm));
    masks.u64(AuditAccess::shortBlockedMask(sm));
    masks.u64(AuditAccess::barrierMask(sm));
    masks.u64(AuditAccess::aluNextMask(sm));
    masks.u64(AuditAccess::sfuNextMask(sm));
    masks.u64(AuditAccess::ldstNextMask(sm));
    masks.u32(lists.size());
    masks.u32(lists[0].size());
    masks.u16(lists[0][0]);
    WSL_EXPECT_THROW_MSG(
        restoreSnapshot(*fresh(),
                        patchedSnapshot(good, masks.take(), 64,
                                        {0xff, 0x7f})),
        SnapshotError, "scheduler-list warp 32767 is out of range");

    // The SM a queued partition request's response is routed to.
    const MemRequest *queued = nullptr;
    for (unsigned p = 0; p < gpu->numPartitions() && !queued; ++p)
        for (const MemRequest &req : AuditAccess::reqQueue(gpu->partition(p)))
            queued = &req;
    ASSERT_NE(queued, nullptr);
    SnapWriter req;
    fields(req, *queued);
    WSL_EXPECT_THROW_MSG(
        restoreSnapshot(*fresh(), patchedSnapshot(good, req.take(), 9,
                                                  bytesOf(77))),
        SnapshotError, "request SM 77 is out of range");

    // The unpatched file still restores.
    EXPECT_NO_THROW(restoreSnapshot(*fresh(), good));
}

TEST(Snapshot, RejectsWheelCountMismatch)
{
    auto gpu = makeMachine(kCfg);
    gpu->run(5000);
    const std::vector<std::uint8_t> good = saveSnapshot(*gpu);
    const SmCore &sm = gpu->sm(0);

    // The three stored counts follow SM 0's fetch-wheel slots.
    SnapWriter slots;
    const auto &fetch = AuditAccess::fetchWheel(sm);
    for (unsigned s = 0; s < fetch.slots; ++s) {
        std::vector<std::pair<std::uint16_t, std::uint32_t>> entries;
        fetch.forEachIn(s, [&](const auto &e) {
            entries.emplace_back(e.warp, e.epoch);
        });
        slots.u32(entries.size());
        for (const auto &[warp, epoch] : entries) {
            slots.u16(warp);
            slots.u32(epoch);
        }
    }
    std::vector<std::uint8_t> needle = slots.take();
    const std::size_t counts_at = needle.size();
    const unsigned counts[] = {AuditAccess::wbWheel(sm).size(),
                               AuditAccess::memWheel(sm).size(),
                               fetch.size()};
    SnapWriter stored;
    for (unsigned count : counts)
        stored.u32(count);
    const std::vector<std::uint8_t> count_bytes = stored.take();
    needle.insert(needle.end(), count_bytes.begin(), count_bytes.end());

    const char *names[] = {"writeback", "mem", "fetch"};
    for (unsigned i = 0; i < 3; ++i) {
        Gpu fresh(kCfg, std::make_unique<WarpedSlicerPolicy>(
                            scaledSlicerOptions(kWindow)));
        const std::string msg =
            std::string("SM 0 ") + names[i] + "-wheel count " +
            std::to_string(counts[i] + 1) + " does not match its " +
            std::to_string(counts[i]) + " entries";
        WSL_EXPECT_THROW_MSG(
            restoreSnapshot(fresh,
                            patchedSnapshot(good, needle,
                                            counts_at + 4 * i,
                                            bytesOf(counts[i] + 1))),
            SnapshotError, msg);
    }

    // The unpatched file still restores.
    Gpu fresh(kCfg, std::make_unique<WarpedSlicerPolicy>(
                        scaledSlicerOptions(kWindow)));
    EXPECT_NO_THROW(restoreSnapshot(fresh, good));
}

TEST(Snapshot, RejectsOutOfRangeEnumBytes)
{
    auto gpu = makeMachine(kCfg);
    gpu->run(2000);
    const std::vector<std::uint8_t> good = saveSnapshot(*gpu);

    // The KERN section stores each kernel's parameters; the byte that
    // differs between two patterns is the pattern byte.
    const KernelParams &mm = gpu->kernel(0).params;
    KernelParams other = mm;
    other.mem.pattern = mm.mem.pattern == MemPattern::Stream
                            ? MemPattern::Scatter
                            : MemPattern::Stream;
    const std::vector<std::uint8_t> a = kernelParamsBytes(mm);
    const std::vector<std::uint8_t> b = kernelParamsBytes(other);
    ASSERT_EQ(a.size(), b.size());
    const std::size_t at = static_cast<std::size_t>(
        std::mismatch(a.begin(), a.end(), b.begin()).first - a.begin());
    ASSERT_LT(at, a.size());

    Gpu fresh(kCfg, std::make_unique<WarpedSlicerPolicy>(
                        scaledSlicerOptions(kWindow)));
    WSL_EXPECT_THROW_MSG(
        restoreSnapshot(fresh, patchedSnapshot(good, a, at, {200})),
        SnapshotError, "memory pattern 200");
}

TEST(Snapshot, RejectsALengthLongerThanThePayload)
{
    // A crafted length must fail before anything is allocated for it:
    // each element takes at least one byte, and only 8 remain.
    SnapWriter w;
    w.u32(0xFFFFFFFFu);
    w.u64(7);
    const std::vector<std::uint8_t> crafted = w.take();
    SnapReader r(crafted);
    std::vector<std::uint64_t> v;
    WSL_EXPECT_THROW_MSG(r.seq(v, [&](std::uint64_t &x) { r.u64(x); }),
                         SnapshotError, "sequence length");
    EXPECT_TRUE(v.empty());

    // A machine-shaped count must equal this machine's.
    SnapWriter counts;
    counts.fixed(16, "SM");
    const std::vector<std::uint8_t> sixteen = counts.take();
    SnapReader rc(sixteen);
    WSL_EXPECT_THROW_MSG(rc.fixed(8, "SM"), SnapshotError,
                         "SM count is 16, this machine has 8");
}

TEST(Snapshot, RejectsMachineAndPolicyMismatches)
{
    auto gpu = makeMachine(kCfg);
    gpu->run(5000);
    const std::vector<std::uint8_t> snap = saveSnapshot(*gpu);

    // A simulated-machine parameter differs: refuse.
    GpuConfig other = kCfg;
    other.l1Size = 32 * 1024;
    Gpu other_gpu(other, std::make_unique<WarpedSlicerPolicy>(
                             scaledSlicerOptions(kWindow)));
    WSL_EXPECT_THROW_MSG(restoreSnapshot(other_gpu, snap),
                         SnapshotError, "different machine");

    // Same machine, different policy: refuse.
    Gpu wrong_policy(kCfg, std::make_unique<SpatialPolicy>());
    WSL_EXPECT_THROW_MSG(restoreSnapshot(wrong_policy, snap),
                         SnapshotError, "policy");

    // A machine that already ran is not a restore target.
    auto used = makeMachine(kCfg);
    used->run(100);
    WSL_EXPECT_THROW_MSG(restoreSnapshot(*used, snap), SnapshotError,
                         "freshly constructed");
}

TEST(Snapshot, RefusesToCaptureWithTelemetryAttached)
{
    auto gpu = makeMachine(kCfg);
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

    auto gpu = makeMachine(kCfg);
    gpu->run(kSplit);
    writeSnapshotFile(*gpu, path);

    const SnapshotInfo info = probeSnapshotFile(path);
    EXPECT_TRUE(info.valid());
    EXPECT_EQ(info.formatVersion, snapshotFormatVersion);
    EXPECT_EQ(info.captureCycle, kSplit);
    EXPECT_EQ(info.machineFingerprint,
              snapshotMachineFingerprint(kCfg));

    auto cold = makeMachine(kCfg);
    cold->run(kWindow);
    auto resumed = std::make_unique<Gpu>(
        kCfg, std::make_unique<WarpedSlicerPolicy>(
                  scaledSlicerOptions(kWindow)));
    restoreSnapshotFile(*resumed, path);
    resumed->run(kWindow - resumed->cycle());
    expectDigestsEqual(digest(*resumed), digest(*cold));

    std::remove(path.c_str());
    WSL_EXPECT_THROW_MSG(probeSnapshotFile(path), SnapshotError,
                         "cannot open snapshot");
}

TEST(Snapshot, IntegrityKnobsShareAFingerprint)
{
    // Audits and the watchdog are read-only, so a snapshot restores
    // into an audited machine for bisection-by-replay.
    const GpuConfig base = kCfg;
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

// ---- Harness integration: checkpoint/resume ----

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

TEST(Snapshot, CheckpointedDynamicRunReplaysItsDecisionLog)
{
    // A Dynamic co-run with a decision log attached, checkpointed
    // after its first decision and before MM halts at its target: the
    // checkpoint carries the capture side's log entries, so the
    // resumed run reproduces both the cold result and the cold run's
    // decision log.
    const std::string path = tempPath("wsl_test_dynamic_checkpoint.bin");
    const std::vector<KernelParams> apps = {benchmark("MM"),
                                            benchmark("LBM")};
    const std::vector<std::uint64_t> targets = {7'000'000, 50'000'000};

    CoRunOptions cold_opts;
    cold_opts.maxCycles = kWindow;
    cold_opts.slicer = scaledSlicerOptions(kWindow);
    DecisionLog cold_log;
    cold_opts.decisionLog = &cold_log;
    const CoRunResult cold = runCoSchedule(apps, targets,
                                           PolicyKind::Dynamic, kCfg,
                                           cold_opts);
    ASSERT_FALSE(cold_log.entries().empty());
    ASSERT_LT(cold_log.entries().front().cycle, kWindow / 2);
    ASSERT_GT(cold.apps[0].cycles, kWindow / 2);

    CoRunOptions ckpt_opts = cold_opts;
    DecisionLog ckpt_log;
    ckpt_opts.decisionLog = &ckpt_log;
    ckpt_opts.maxCycles = kWindow / 2;
    ckpt_opts.snapshotAt = kWindow / 2;
    ckpt_opts.snapshotPath = path;
    runCoSchedule(apps, targets, PolicyKind::Dynamic, kCfg, ckpt_opts);

    CoRunOptions resume_opts = cold_opts;
    DecisionLog resumed_log;
    resume_opts.decisionLog = &resumed_log;
    resume_opts.restorePath = path;
    const CoRunResult resumed = runCoSchedule(
        apps, targets, PolicyKind::Dynamic, kCfg, resume_opts);
    expectCoRunsEqual(resumed, cold);
    EXPECT_EQ(decisionJson(resumed_log), decisionJson(cold_log));

    std::remove(path.c_str());
}

TEST(Snapshot, CheckpointedRunResumesToIdenticalResult)
{
    const std::string path = tempPath("wsl_test_checkpoint.bin");
    const std::vector<KernelParams> apps = {benchmark("NN"),
                                            benchmark("HOT")};
    const std::vector<std::uint64_t> targets = {250000, 250000};

    CoRunOptions cold_opts;
    cold_opts.maxCycles = kWindow;
    const CoRunResult cold = runCoSchedule(apps, targets,
                                           PolicyKind::LeftOver, kCfg,
                                           cold_opts);

    // Interrupted run: checkpoint mid-way, stop there.
    CoRunOptions ckpt_opts = cold_opts;
    ckpt_opts.maxCycles = kWindow / 2;
    ckpt_opts.snapshotAt = kWindow / 2;
    ckpt_opts.snapshotPath = path;
    runCoSchedule(apps, targets, PolicyKind::LeftOver, kCfg, ckpt_opts);

    // Resume from the file and finish the original interval.
    CoRunOptions resume_opts = cold_opts;
    resume_opts.restorePath = path;
    const CoRunResult resumed = runCoSchedule(
        apps, targets, PolicyKind::LeftOver, kCfg, resume_opts);
    expectCoRunsEqual(resumed, cold);

    // A resume with mismatched targets (stale characterization) is
    // refused with a pointer at the window.
    const std::vector<std::uint64_t> wrong = {111111, 250000};
    WSL_EXPECT_THROW_MSG(
        runCoSchedule(apps, wrong, PolicyKind::LeftOver, kCfg,
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

    CoRunOptions cold_opts;
    cold_opts.maxCycles = kWindow;
    const CoRunResult cold = runCoSchedule(apps, targets,
                                           PolicyKind::Even, kCfg,
                                           cold_opts);

    // Periodic checkpoints all the way to the end; the file is left
    // at the final epoch...
    CoRunOptions ckpt_opts = cold_opts;
    ckpt_opts.checkpointEvery = kWindow / 5;
    ckpt_opts.snapshotPath = path;
    const CoRunResult ckpt = runCoSchedule(
        apps, targets, PolicyKind::Even, kCfg, ckpt_opts);
    expectCoRunsEqual(ckpt, cold);  // checkpointing is observation-only

    // ...so resuming is either a no-op continuation or a short tail,
    // and lands on the same result either way.
    CoRunOptions resume_opts = cold_opts;
    resume_opts.restorePath = path;
    const CoRunResult resumed = runCoSchedule(
        apps, targets, PolicyKind::Even, kCfg, resume_opts);
    expectCoRunsEqual(resumed, cold);

    std::remove(path.c_str());
}

TEST(Snapshot, CheckpointOptionValidation)
{
    const std::vector<KernelParams> apps = {benchmark("MM")};
    const std::vector<std::uint64_t> targets = {100000};

    CoRunOptions opts;
    opts.maxCycles = 10000;
    opts.snapshotAt = 5000;  // no snapshotPath
    WSL_EXPECT_THROW_MSG(runCoSchedule(apps, targets,
                                       PolicyKind::LeftOver, kCfg, opts),
                         ConfigError, "snapshotPath");

    opts.snapshotPath = tempPath("wsl_test_never_written.bin");
    TelemetrySampler sampler(TelemetryConfig{1000, 4096});
    opts.telemetry = &sampler;
    WSL_EXPECT_THROW_MSG(runCoSchedule(apps, targets,
                                       PolicyKind::LeftOver, kCfg, opts),
                         ConfigError, "telemetry");
}
