/**
 * @file
 * wslicer-fuzz: randomized integrity fuzzing for the simulator.
 *
 * Each seed deterministically generates a machine configuration
 * (including the six latencies the SM retires through its 256-slot
 * timing wheels, one draw in five between 200 and 255) and a small
 * co-scheduled kernel mix (sizes, register/shared-memory pressure,
 * barrier and divergence behavior, memory patterns), then
 * runs it with the invariant auditor at maximum cadence and the
 * no-progress watchdog armed. Any InvariantViolation, DeadlockError,
 * or InternalError is a finding: the fuzzer re-runs the same seed at
 * audit cadence 1 to shrink the failure to its first failing cycle,
 * prints both reports, and exits non-zero.
 *
 * The flag table in main lists the flags and their defaults.
 *
 * --snapshot switches every seed to a snapshot round-trip probe: the
 * scenario runs cold to completion, then again to a random cycle
 * horizon where the machine is serialized, and both the interrupted
 * donor (continued in place) and a fresh machine restored from the
 * snapshot must land on the cold run's exact final state. Any
 * divergence — or any SimError raised on the restored machine, which
 * runs with the same max-cadence auditor — is a finding and shrinks
 * like the classic mode.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "harness/runner.hh"
#include "parse_number.hh"
#include "snapshot/snapshot.hh"

using namespace wsl;

namespace {

struct FuzzOptions
{
    std::uint64_t seeds = 50;
    std::uint64_t startSeed = 1;
    Cycle cycles = 20'000;
    Cycle cadence = 1;
    Cycle watchdog = 10'000;
    bool snapshotMode = false;  //!< random-horizon round-trip probes
};

struct Scenario
{
    GpuConfig cfg;
    std::vector<KernelParams> kernels;
    PolicyKind kind = PolicyKind::LeftOver;
};

KernelParams
randomKernel(Rng &rng, const GpuConfig &cfg, unsigned index)
{
    KernelParams k;
    k.name = "FZ" + std::to_string(index);
    k.gridDim = 8 + static_cast<unsigned>(rng.range(248));
    const unsigned block_choices[] = {32, 64, 128, 256};
    k.blockDim = block_choices[rng.range(4)];
    const unsigned reg_choices[] = {8, 16, 21, 32};
    k.regsPerThread = reg_choices[rng.range(4)];
    // Shared memory clamped so at least one CTA always fits.
    if (rng.chance(0.4)) {
        k.shmPerCta = static_cast<unsigned>(
            1024 + rng.range(cfg.sharedMemPerSm / 2));
    }
    k.mix.alu = 1 + static_cast<unsigned>(rng.range(10));
    k.mix.sfu = static_cast<unsigned>(rng.range(3));
    k.mix.ldGlobal = static_cast<unsigned>(rng.range(4));
    k.mix.stGlobal = static_cast<unsigned>(rng.range(2));
    k.mix.ldShared =
        k.shmPerCta ? static_cast<unsigned>(rng.range(3)) : 0;
    k.mix.stShared =
        k.shmPerCta ? static_cast<unsigned>(rng.range(2)) : 0;
    k.mix.depDist = 1 + static_cast<unsigned>(rng.range(8));
    k.mix.barrierPerIter = rng.chance(0.4);
    k.mix.divBranches = static_cast<unsigned>(rng.range(3));
    k.loopIters = 4 + static_cast<unsigned>(rng.range(60));
    const MemPattern patterns[] = {MemPattern::Stream, MemPattern::Tile,
                                   MemPattern::Scatter};
    k.mem.pattern = patterns[rng.range(3)];
    k.mem.footprintPerCta = std::uint64_t{1} << (10 + rng.range(11));
    k.mem.transactionsPerAccess =
        1 + static_cast<unsigned>(rng.range(4));
    k.ifetchMissRate = rng.uniform() * 0.05;
    if (k.mix.ldShared + k.mix.stShared > 0) {
        // shmLatency x shmConflictFactor must stay inside the wheel.
        const unsigned max_factor =
            std::min(4u, (timingWheelSlots - 1) / cfg.shmLatency);
        k.shmConflictFactor =
            1 + static_cast<unsigned>(rng.range(max_factor));
    }
    return k;
}

/** A timing-wheel latency: up to twice the shipped value, or one draw
 *  in five between 200 and 255, where wheel slots fill near the
 *  256-cycle wrap. */
unsigned
wheelLatency(Rng &rng, unsigned shipped)
{
    if (rng.chance(0.2))
        return 200 + static_cast<unsigned>(rng.range(56));
    return 1 + static_cast<unsigned>(rng.range(2 * shipped));
}

/** Deterministically derive the whole scenario from one seed. */
Scenario
buildScenario(std::uint64_t seed, const FuzzOptions &opt)
{
    Rng rng(seed);
    Scenario sc;
    sc.cfg = rng.chance(0.25) ? GpuConfig::largeResource()
                              : GpuConfig::baseline();
    const unsigned sm_choices[] = {4, 8, 16};
    sc.cfg.numSms = sm_choices[rng.range(3)];
    const unsigned part_choices[] = {2, 4, 6};
    sc.cfg.numMemPartitions = part_choices[rng.range(3)];
    const unsigned mshr_choices[] = {8, 16, 32, 64};
    sc.cfg.l1Mshrs = mshr_choices[rng.range(4)];
    sc.cfg.scheduler =
        rng.chance(0.5) ? SchedulerKind::Gto : SchedulerKind::Lrr;
    for (unsigned GpuConfig::*latency :
         {&GpuConfig::aluLatency, &GpuConfig::sfuLatency,
          &GpuConfig::shmLatency, &GpuConfig::l1HitLatency,
          &GpuConfig::fetchLatency, &GpuConfig::ifetchMissLatency})
        sc.cfg.*latency = wheelLatency(rng, sc.cfg.*latency);
    sc.cfg.auditCadence = opt.cadence;
    sc.cfg.watchdogCycles = opt.watchdog;
    sc.cfg.seed = seed;

    const unsigned nkernels = 2 + static_cast<unsigned>(rng.range(2));
    for (unsigned i = 0; i < nkernels; ++i)
        sc.kernels.push_back(randomKernel(rng, sc.cfg, i));

    const PolicyKind kinds[] = {PolicyKind::LeftOver, PolicyKind::Even,
                                PolicyKind::Spatial,
                                PolicyKind::Dynamic};
    sc.kind = kinds[rng.range(4)];
    return sc;
}

/** Run one scenario; returns the error message, or empty on success. */
std::string
runScenario(const Scenario &sc, Cycle cycles)
{
    try {
        sc.cfg.validate();
        Gpu gpu(sc.cfg,
                makePolicy(sc.kind, scaledSlicerOptions(cycles)));
        for (const KernelParams &k : sc.kernels)
            gpu.launchKernel(k);
        gpu.run(cycles);
        if (gpu.integrityAuditor())
            gpu.integrityAuditor()->runChecks(gpu);  // final state
    } catch (const DeadlockError &e) {
        return std::string("deadlock: ") + e.what() + "\n" +
               e.report();
    } catch (const SimError &e) {
        return std::string(e.kindName()) + ": " + e.what();
    }
    return {};
}

/** Compact end-of-run machine digest for divergence comparison. */
struct FuzzDigest
{
    Cycle cycle = 0;
    GpuStats stats;
    std::vector<std::uint64_t> kernels;

    bool
    operator==(const FuzzDigest &o) const
    {
        if (cycle != o.cycle || kernels != o.kernels)
            return false;
        bool eq = true;
        SmStats::forEachField([&](const char *, auto m) {
            if (!(stats.*m == o.stats.*m))
                eq = false;
        });
        PartitionStats::forEachField([&](const char *, auto m) {
            if (!(stats.*m == o.stats.*m))
                eq = false;
        });
        return eq;
    }
};

FuzzDigest
fuzzDigest(const Gpu &gpu)
{
    FuzzDigest d;
    d.cycle = gpu.cycle();
    d.stats = gpu.collectStats();
    for (std::size_t k = 0; k < gpu.numKernels(); ++k) {
        const KernelInstance &ki = gpu.kernel(static_cast<KernelId>(k));
        d.kernels.push_back(ki.nextCta);
        d.kernels.push_back(ki.ctasCompleted);
        d.kernels.push_back(ki.done ? 1 : 0);
        d.kernels.push_back(ki.finishCycle);
    }
    return d;
}

/**
 * Snapshot round-trip probe for one scenario: cold reference run,
 * interrupted run with a snapshot at a random horizon, and a restored
 * run, all of which must agree bit-for-bit. Returns the finding, or
 * empty when the seed is clean.
 */
std::string
runSnapshotScenario(const Scenario &sc, Cycle cycles,
                    std::uint64_t seed)
{
    try {
        sc.cfg.validate();
        // The horizon draws from a separate stream so it never
        // perturbs the scenario generator's sequence.
        Rng pick(seed ^ 0x5eedULL);
        const Cycle t = 1 + pick.range(cycles - 1);

        auto machine = [&] {
            auto gpu = std::make_unique<Gpu>(
                sc.cfg, makePolicy(sc.kind, scaledSlicerOptions(cycles)));
            for (const KernelParams &k : sc.kernels)
                gpu->launchKernel(k);
            return gpu;
        };
        // run() is relative and returns early once all kernels drain,
        // so aim every machine at the same absolute end cycle.
        auto run_to = [](Gpu &gpu, Cycle end) {
            if (end > gpu.cycle())
                gpu.run(end - gpu.cycle());
        };

        auto cold = machine();
        run_to(*cold, cycles);
        const FuzzDigest want = fuzzDigest(*cold);

        auto donor = machine();
        run_to(*donor, t);
        const std::vector<std::uint8_t> snap = saveSnapshot(*donor);
        run_to(*donor, cycles);
        if (!(fuzzDigest(*donor) == want)) {
            return "snapshot divergence: interrupted donor differs "
                   "from the cold run after continuing (capture @ " +
                   std::to_string(t) + ") — saving mutated state";
        }

        auto restored = std::make_unique<Gpu>(
            sc.cfg, makePolicy(sc.kind, scaledSlicerOptions(cycles)));
        restoreSnapshot(*restored, snap);
        run_to(*restored, cycles);
        if (restored->integrityAuditor())
            restored->integrityAuditor()->runChecks(*restored);
        if (!(fuzzDigest(*restored) == want)) {
            return "snapshot divergence: restored machine differs "
                   "from the cold run (capture @ " +
                   std::to_string(t) + ")";
        }
    } catch (const DeadlockError &e) {
        return std::string("deadlock: ") + e.what() + "\n" +
               e.report();
    } catch (const SimError &e) {
        return std::string(e.kindName()) + ": " + e.what();
    }
    return {};
}

} // namespace

int
main(int argc, char **argv)
{
    FuzzOptions opt;
    const std::vector<Flag<FuzzOptions>> flags = {
        {"--seeds", number(&FuzzOptions::seeds, "N", 1),
         "seeds to run (default 50)"},
        {"--start-seed", number(&FuzzOptions::startSeed, "S"),
         "first seed (default 1)"},
        // The snapshot probe captures at a cycle in [1, C - 1].
        {"--cycles", number(&FuzzOptions::cycles, "C", 2),
         "cycles per seed, at least 2 (default 20000)"},
        {"--cadence", number(&FuzzOptions::cadence, "K", 1),
         "integrity audit cadence in cycles (default 1)"},
        {"--watchdog", number(&FuzzOptions::watchdog, "W"),
         "no-progress watchdog in cycles, 0 = off (default 10000)"},
        {"--snapshot", toggle(&FuzzOptions::snapshotMode),
         "probe a snapshot round-trip at a random cycle instead"},
    };
    const auto positional =
        parseFlags(flags, opt, "wslicer-fuzz", 1, 1, argc, argv);
    if (!positional || !positional->empty()) {
        std::fputs("usage: wslicer-fuzz [flags]\n", stderr);
        printFlags(flags);
        return 2;
    }

    unsigned failures = 0;
    for (std::uint64_t s = 0; s < opt.seeds; ++s) {
        const std::uint64_t seed = opt.startSeed + s;
        const Scenario sc = buildScenario(seed, opt);
        const std::string err =
            opt.snapshotMode
                ? runSnapshotScenario(sc, opt.cycles, seed)
                : runScenario(sc, opt.cycles);
        if (err.empty()) {
            if ((s + 1) % 10 == 0 || s + 1 == opt.seeds)
                std::printf("fuzz: %llu/%llu seeds clean\n",
                            static_cast<unsigned long long>(s + 1),
                            static_cast<unsigned long long>(opt.seeds));
            continue;
        }
        ++failures;
        std::printf("fuzz: seed %llu FAILED (%u kernels, %s)\n%s\n",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned>(sc.kernels.size()),
                    policyName(sc.kind), err.c_str());
        // Shrink: the same seed at audit cadence 1 pins the first
        // failing cycle.
        FuzzOptions shrink_opt = opt;
        shrink_opt.cadence = 1;
        const Scenario shrunk = buildScenario(seed, shrink_opt);
        const std::string shrunk_err =
            opt.snapshotMode
                ? runSnapshotScenario(shrunk, opt.cycles, seed)
                : runScenario(shrunk, opt.cycles);
        if (shrunk_err.empty()) {
            std::printf("fuzz: seed %llu shrink: clean at audit cadence "
                        "1 — audits are read-only, so suspect "
                        "nondeterminism\n",
                        static_cast<unsigned long long>(seed));
        } else {
            std::printf("fuzz: seed %llu shrink (cadence 1):\n%s\n",
                        static_cast<unsigned long long>(seed),
                        shrunk_err.c_str());
        }
    }
    if (failures != 0) {
        std::printf("fuzz: %u of %llu seeds failed\n", failures,
                    static_cast<unsigned long long>(opt.seeds));
        return 1;
    }
    std::printf("fuzz: all %llu seeds clean\n",
                static_cast<unsigned long long>(opt.seeds));
    return 0;
}
