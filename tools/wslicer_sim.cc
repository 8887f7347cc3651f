/**
 * @file
 * wslicer-sim: command-line driver for the simulator.
 *
 *   wslicer-sim list
 *       List the available benchmark kernels and their parameters.
 *
 *   wslicer-sim solo BENCH [--cycles N] [--ctas Q] [--large]
 *       Run one benchmark in isolation and dump its statistics.
 *
 *   wslicer-sim curves BENCH [--cycles N] [--large]
 *       Print the performance-vs-CTA-occupancy curve (Figure 3a).
 *
 *   wslicer-sim corun BENCH1 BENCH2 [BENCH3]
 *       [--policy leftover|spatial|even|dynamic|fixed:Q1,Q2[,Q3]]
 *       [--window N] [--sched gto|lrr] [--large]
 *       [--stats-interval N] [--timeline FILE]
 *       Co-run benchmarks under a multiprogramming policy using the
 *       paper's instruction-target methodology. --stats-interval
 *       samples interval telemetry every N cycles (--csv/--json then
 *       export the time series instead of the summary table);
 *       --timeline writes a Chrome trace-event JSON file for
 *       ui.perfetto.dev.
 *
 *   wslicer-sim combos BENCH1 BENCH2 [--window N]
 *       Exhaustively evaluate every feasible CTA partition (the
 *       oracle's search space).
 *
 *   wslicer-sim serve [--rate R] [--closed-loop] [--horizon N]
 *       [--quantum N] [--max-batch K] [--seed N]
 *       [--chaos-seed N [--chaos-faults N]] [--slo FILE]
 *       Run the long-lived multi-tenant serving layer: seeded
 *       open-loop Poisson (or closed-loop) arrivals over the default
 *       tenant-class mix, admission control with bounded queues and
 *       deadline-feasibility shedding, EDF dispatch with preemption,
 *       and — with --chaos-seed — seeded fault injection with
 *       snapshot-rollback recovery and tenant quarantine. --slo
 *       writes the per-class SLO report (wslicer-report slo renders
 *       it). Exits non-zero if any organic invariant violation
 *       occurred.
 *
 * Global options: --csv FILE | --json FILE write the result table to a
 * file in addition to the text output. --jobs N (or WSL_JOBS) runs
 * independent simulations on N worker threads (0 = all hardware
 * threads); results are bit-identical to serial runs.
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/log.hh"
#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "obs/decision_log.hh"
#include "obs/engine_profiler.hh"
#include "obs/manifest.hh"
#include "obs/registry.hh"
#include "report/table.hh"
#include "serve/engine.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/timeline.hh"
#include "trace/tracer.hh"

using namespace wsl;

namespace {

struct Options
{
    std::string command;
    std::vector<std::string> benchNames;
    Cycle cycles = 0;      // 0 = defaultWindow()
    int ctas = -1;
    std::string policy = "dynamic";
    SchedulerKind sched = SchedulerKind::Gto;
    bool large = false;
    std::string preset;  //!< baseline|large|dc ("" = --large/baseline)
    Cycle auditCadence = 0;    //!< 0 = integrity audits off
    Cycle watchdogCycles = 0;  //!< 0 = no-progress watchdog off
    std::string csvPath;
    std::string jsonPath;
    std::string tracePath;
    std::string timelinePath;
    std::string decisionLogPath;  //!< Dynamic-policy decision log JSON
    std::string profilePath;      //!< engine self-profiler JSON
    std::string manifestPath;     //!< run manifest JSON
    std::string promPath;         //!< Prometheus counter dump
    std::string snapshotPath;     //!< checkpoint output (--snapshot)
    Cycle snapshotAt = 0;         //!< capture cycle; 0 = window / 2
    Cycle checkpointEvery = 0;    //!< periodic checkpoint cadence
    std::string restorePath;      //!< resume from this snapshot
    Cycle statsInterval = 0;  //!< 0 = telemetry off
    // ---- serve ----
    double rate = 1.0;            //!< open-loop arrivals per 10k cycles
    bool closedLoop = false;
    Cycle horizon = 0;            //!< 0 = 6x window
    Cycle quantum = 0;            //!< 0 = window / 4
    unsigned maxBatch = 3;
    std::uint64_t seed = 1;
    std::uint64_t chaosSeed = 0;  //!< 0 = chaos off
    unsigned chaosFaults = 6;
    std::string sloPath;          //!< SLO JSON report
    unsigned jobs = defaultJobs();  //!< worker threads (WSL_JOBS)
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s list | solo BENCH | curves BENCH | "
                 "corun B1 B2 [B3] | combos B1 B2 | serve [options]\n"
                 "options: --cycles N --window N --ctas Q --large\n"
                 "         --preset baseline|large|dc (dc: 128 SMs / "
                 "32 partitions; not a paper machine)\n"
                 "         --policy leftover|spatial|even|dynamic|"
                 "fixed:Q1,Q2[,Q3]\n"
                 "         --sched gto|lrr --csv FILE --json FILE --trace FILE\n"
                 "         --stats-interval N --timeline FILE --jobs N\n"
                 "         --audit[=N] (run integrity audits every N "
                 "cycles; default 10000)\n"
                 "         --watchdog-cycles N (fail with a deadlock "
                 "report after N cycles without progress)\n"
                 "observability (corun): --decision-log FILE "
                 "--profile FILE\n"
                 "         --manifest FILE --prom FILE\n"
                 "checkpointing (corun): --snapshot FILE "
                 "[--snapshot-at N | --checkpoint-every N]\n"
                 "         --restore FILE (resume a checkpointed run; "
                 "bit-identical to the uninterrupted run)\n"
                 "serving (serve): --rate R (arrivals per 10k cycles) "
                 "--closed-loop --horizon N --quantum N\n"
                 "         --max-batch K --seed N --slo FILE\n"
                 "         --chaos-seed N [--chaos-faults N] (seeded "
                 "fault injection; deterministic per seed)\n",
                 argv0);
    std::exit(2);
}

/**
 * Parse an entire option value as a T (an integer type, or double for
 * --rate). Empty input, a non-numeric value, trailing characters, a
 * sign on an unsigned type, overflow and non-finite reals all print
 * what was wrong and exit through usage().
 */
template <typename T>
T
parseNumber(const std::string &text, const char *what)
{
    T value{};
    const char *first = text.data();
    const char *last = first + text.size();
    const auto [end, ec] = std::from_chars(first, last, value);
    bool ok = ec == std::errc{} && end == last;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value);
    if (!ok) {
        std::fprintf(stderr, "wslicer-sim: %s: '%s' is not a valid "
                     "number\n", what, text.c_str());
        usage("wslicer-sim");
    }
    return value;
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);
    Options opt;
    opt.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        // The next argument as a number of type T (see parseNumber).
        auto num = [&]<typename T>(T &out) {
            out = parseNumber<T>(next(), arg.c_str());
        };
        if (arg == "--cycles" || arg == "--window")
            num(opt.cycles);
        else if (arg == "--ctas")
            num(opt.ctas);
        else if (arg == "--policy")
            opt.policy = next();
        else if (arg == "--sched") {
            const std::string v = next();
            if (v == "gto")
                opt.sched = SchedulerKind::Gto;
            else if (v == "lrr")
                opt.sched = SchedulerKind::Lrr;
            else
                usage(argv[0]);
        } else if (arg == "--large")
            opt.large = true;
        else if (arg == "--preset")
            opt.preset = next();
        else if (arg == "--audit")
            opt.auditCadence = 10'000;
        else if (arg.rfind("--audit=", 0) == 0) {
            opt.auditCadence = parseNumber<Cycle>(arg.substr(8), "--audit");
            if (opt.auditCadence == 0)
                usage(argv[0]);
        } else if (arg == "--watchdog-cycles") {
            num(opt.watchdogCycles);
            if (opt.watchdogCycles == 0)
                usage(argv[0]);
        }
        else if (arg == "--trace")
            opt.tracePath = next();
        else if (arg == "--decision-log")
            opt.decisionLogPath = next();
        else if (arg == "--profile")
            opt.profilePath = next();
        else if (arg == "--manifest")
            opt.manifestPath = next();
        else if (arg == "--prom")
            opt.promPath = next();
        else if (arg == "--snapshot")
            opt.snapshotPath = next();
        else if (arg == "--snapshot-at") {
            num(opt.snapshotAt);
            if (opt.snapshotAt == 0)
                usage(argv[0]);
        } else if (arg == "--checkpoint-every") {
            num(opt.checkpointEvery);
            if (opt.checkpointEvery == 0)
                usage(argv[0]);
        } else if (arg == "--restore")
            opt.restorePath = next();
        else if (arg == "--timeline")
            opt.timelinePath = next();
        else if (arg == "--stats-interval")
            num(opt.statsInterval);
        else if (arg == "--jobs")
            opt.jobs = parseJobs(next().c_str(), "--jobs");
        else if (arg == "--rate")
            num(opt.rate);
        else if (arg == "--closed-loop")
            opt.closedLoop = true;
        else if (arg == "--horizon")
            num(opt.horizon);
        else if (arg == "--quantum")
            num(opt.quantum);
        else if (arg == "--max-batch")
            num(opt.maxBatch);
        else if (arg == "--seed")
            num(opt.seed);
        else if (arg == "--chaos-seed") {
            num(opt.chaosSeed);
            if (opt.chaosSeed == 0)
                usage(argv[0]);
        } else if (arg == "--chaos-faults")
            num(opt.chaosFaults);
        else if (arg == "--slo")
            opt.sloPath = next();
        else if (arg == "--csv")
            opt.csvPath = next();
        else if (arg == "--json")
            opt.jsonPath = next();
        else if (!arg.empty() && arg[0] == '-')
            usage(argv[0]);
        else
            opt.benchNames.push_back(arg);
    }
    return opt;
}

GpuConfig
makeConfig(const Options &opt)
{
    GpuConfig cfg;
    if (!opt.preset.empty()) {
        if (opt.preset == "baseline")
            cfg = GpuConfig::baseline();
        else if (opt.preset == "large")
            cfg = GpuConfig::largeResource();
        else if (opt.preset == "dc")
            cfg = GpuConfig::datacenter();
        else
            fatal("unknown --preset '", opt.preset,
                  "' (expected baseline, large, or dc)");
    } else {
        cfg = opt.large ? GpuConfig::largeResource()
                        : GpuConfig::baseline();
    }
    cfg.scheduler = opt.sched;
    cfg.auditCadence = opt.auditCadence;
    cfg.watchdogCycles = opt.watchdogCycles;
    // Fail here with an actionable message, not deep in construction.
    cfg.validate();
    return cfg;
}

void
emit(const Options &opt, const Table &table)
{
    table.writeText(std::cout);
    if (!opt.csvPath.empty()) {
        std::ofstream os(opt.csvPath);
        if (!os)
            fatal("cannot open ", opt.csvPath);
        table.writeCsv(os);
        std::printf("(wrote %s)\n", opt.csvPath.c_str());
    }
    if (!opt.jsonPath.empty()) {
        std::ofstream os(opt.jsonPath);
        if (!os)
            fatal("cannot open ", opt.jsonPath);
        table.writeJson(os);
        std::printf("(wrote %s)\n", opt.jsonPath.c_str());
    }
}

int
cmdList(const Options &opt)
{
    Table table({"name", "class", "grid", "block", "regs/thread",
                 "shm/CTA", "max CTAs/SM"});
    const GpuConfig cfg = makeConfig(opt);
    for (const KernelParams &k : allBenchmarks()) {
        table.addRow({k.name, appClassName(k.cls),
                      std::to_string(k.gridDim),
                      std::to_string(k.blockDim),
                      std::to_string(k.regsPerThread),
                      std::to_string(k.shmPerCta),
                      std::to_string(k.maxCtasPerSm(cfg))});
    }
    emit(opt, table);
    return 0;
}

int
cmdSolo(const Options &opt)
{
    if (opt.benchNames.size() != 1)
        usage("wslicer-sim");
    const GpuConfig cfg = makeConfig(opt);
    const Cycle cycles = opt.cycles ? opt.cycles : defaultWindow();
    const SoloResult r = runSoloForCycles(benchmark(opt.benchNames[0]),
                                          cfg, cycles, opt.ctas);
    Table table({"metric", "value"});
    table.addRow({"benchmark", opt.benchNames[0]});
    table.addRow({"warp_ipc", Table::num(r.warpIpc())});
    for (const auto &[name, value] : flattenStats(r.stats))
        table.addRow({name, Table::num(value)});
    emit(opt, table);
    return 0;
}

int
cmdCurves(const Options &opt)
{
    if (opt.benchNames.size() != 1)
        usage("wslicer-sim");
    const GpuConfig cfg = makeConfig(opt);
    const Cycle cycles =
        opt.cycles ? opt.cycles : defaultWindow() / 2;
    const KernelParams &k = benchmark(opt.benchNames[0]);
    Table table({"ctas_per_sm", "occupancy_pct", "warp_ipc",
                 "normalized"});
    const unsigned max_ctas = k.maxCtasPerSm(cfg);
    const std::vector<double> ipcs = parallelMap<double>(
        max_ctas, opt.jobs, [&](std::size_t i) {
            return runSoloForCycles(k, cfg, cycles,
                                    static_cast<int>(i + 1))
                .warpIpc();
        });
    double peak = 0.0;
    for (double ipc : ipcs)
        peak = std::max(peak, ipc);
    for (unsigned q = 1; q <= max_ctas; ++q) {
        table.addRow({std::to_string(q),
                      std::to_string(100 * q / max_ctas),
                      Table::num(ipcs[q - 1]),
                      Table::num(peak > 0 ? ipcs[q - 1] / peak : 0)});
    }
    emit(opt, table);
    return 0;
}

std::optional<std::vector<int>>
parseFixedPolicy(const std::string &policy, std::size_t num_apps)
{
    if (policy.rfind("fixed:", 0) != 0)
        return std::nullopt;
    std::vector<int> quotas;
    std::string rest = policy.substr(6);
    std::size_t pos = 0;
    while (pos < rest.size()) {
        const std::size_t comma = rest.find(',', pos);
        const std::string tok =
            rest.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        quotas.push_back(parseNumber<int>(tok, "--policy fixed:"));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (quotas.size() != num_apps)
        fatal("fixed: needs one quota per benchmark");
    return quotas;
}

int
cmdCorun(const Options &opt)
{
    if (opt.benchNames.size() < 2 || opt.benchNames.size() > 3)
        usage("wslicer-sim");
    const GpuConfig cfg = makeConfig(opt);
    const Cycle window = opt.cycles ? opt.cycles : defaultWindow();

    // Resolve the policy before characterizing, so a malformed one
    // fails without simulating anything.
    CoRunOptions co;
    co.slicer = scaledSlicerOptions(window);
    PolicyKind kind = PolicyKind::Dynamic;
    if (const auto fixed =
            parseFixedPolicy(opt.policy, opt.benchNames.size())) {
        co.fixedQuotas = *fixed;
        kind = PolicyKind::LeftOver;
    } else if (opt.policy == "leftover") {
        kind = PolicyKind::LeftOver;
    } else if (opt.policy == "spatial") {
        kind = PolicyKind::Spatial;
    } else if (opt.policy == "even") {
        kind = PolicyKind::Even;
    } else if (opt.policy == "dynamic") {
        kind = PolicyKind::Dynamic;
    } else {
        fatal("unknown policy: ", opt.policy);
    }

    Characterization chars(cfg, window);
    chars.prewarm(opt.benchNames, opt.jobs);

    std::vector<KernelParams> apps;
    std::vector<std::uint64_t> targets;
    for (const std::string &name : opt.benchNames) {
        apps.push_back(benchmark(name));
        targets.push_back(chars.target(name));
    }

    TelemetrySampler sampler(TelemetryConfig{opt.statsInterval, 4096});
    if (sampler.enabled())
        co.telemetry = &sampler;

    // Checkpoint / resume plumbing. A one-shot --snapshot without an
    // explicit cycle captures at the window midpoint — past the
    // Dynamic policy's profiling phase, so the checkpoint carries a
    // settled partition decision.
    co.snapshotPath = opt.snapshotPath;
    co.checkpointEvery = opt.checkpointEvery;
    if (!opt.snapshotPath.empty() && opt.checkpointEvery == 0)
        co.snapshotAt = opt.snapshotAt ? opt.snapshotAt : window / 2;
    co.restorePath = opt.restorePath;
    SnapshotInfo restored;
    if (!opt.restorePath.empty())
        restored = probeSnapshotFile(opt.restorePath);

    // Engine observability: the profiler and decision log attach for
    // the run and are written out afterwards; neither perturbs the
    // simulated outcome (the bit-identity test holds them to that).
    EngineProfiler profiler;
    if (!opt.profilePath.empty() || !opt.manifestPath.empty() ||
        !opt.promPath.empty())
        co.profiler = &profiler;
    DecisionLog decisions;
    if (!opt.decisionLogPath.empty())
        co.decisionLog = &decisions;

    // The characterization solo runs above also record trace events;
    // drop them so the timeline covers only the co-run itself.
    if (Tracer::global().enabled())
        Tracer::global().clear();

    CoRunResult r = runCoSchedule(apps, targets, kind, cfg, co);
    if (restored.valid())
        decisions.setSnapshotProvenance(restored);
    Table table({"metric", "value"});
    table.addRow({"policy", opt.policy});
    if (restored.valid())
        table.addRow({"restored_from_cycle",
                      std::to_string(restored.captureCycle)});
    if (!opt.snapshotPath.empty())
        table.addRow({"snapshot_file", opt.snapshotPath});
    table.addRow({"completed", r.completed ? "yes" : "no"});
    table.addRow({"makespan_cycles", std::to_string(r.makespan)});
    table.addRow({"system_ipc", Table::num(r.sysIpc)});
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const std::string &name = opt.benchNames[i];
        r.apps[i].aloneCycles = chars.aloneCycles(name);
        table.addRow({name + "_finish_cycles",
                      std::to_string(r.apps[i].cycles)});
        table.addRow({name + "_speedup_vs_alone",
                      Table::num(speedup(r.apps[i]))});
    }
    table.addRow({"fairness_min_speedup",
                  Table::num(minimumSpeedup(r.apps))});
    table.addRow({"antt", Table::num(antt(r.apps))});
    if (!r.chosenCtas.empty()) {
        std::string ctas;
        for (int t : r.chosenCtas)
            ctas += (ctas.empty() ? "" : ",") + std::to_string(t);
        table.addRow({"dynamic_partition",
                      r.spatialFallback ? "spatial-fallback" : ctas});
    }

    if (sampler.enabled()) {
        // Latency / queue-depth digests from the telemetry harvest.
        for (std::size_t i = 0; i < apps.size(); ++i) {
            const Histogram &h = r.memLatency[i];
            if (h.empty())
                continue;
            const std::string &name = opt.benchNames[i];
            table.addRow({name + "_mem_lat_mean", Table::num(h.mean())});
            table.addRow({name + "_mem_lat_p50",
                          std::to_string(h.percentile(0.5))});
            table.addRow({name + "_mem_lat_p99",
                          std::to_string(h.percentile(0.99))});
        }
        if (!r.mshrOccupancy.empty())
            table.addRow({"l2_mshr_occupancy_mean",
                          Table::num(r.mshrOccupancy.mean())});
        if (!r.dramQueueDepth.empty())
            table.addRow({"dram_queue_depth_mean",
                          Table::num(r.dramQueueDepth.mean())});
        table.addRow({"telemetry_intervals",
                      std::to_string(sampler.intervals().size())});

        // With telemetry on, the machine-readable outputs carry the
        // time series; the summary stays on stdout.
        table.writeText(std::cout);
        if (!opt.csvPath.empty()) {
            std::ofstream os(opt.csvPath);
            if (!os)
                fatal("cannot open ", opt.csvPath);
            sampler.writeCsv(os);
            std::printf("(wrote %s)\n", opt.csvPath.c_str());
        }
        if (!opt.jsonPath.empty()) {
            std::ofstream os(opt.jsonPath);
            if (!os)
                fatal("cannot open ", opt.jsonPath);
            sampler.writeJson(os);
            std::printf("(wrote %s)\n", opt.jsonPath.c_str());
        }
    } else {
        emit(opt, table);
    }

    if (!opt.timelinePath.empty()) {
        std::ofstream os(opt.timelinePath);
        if (!os)
            fatal("cannot open ", opt.timelinePath);
        writeChromeTrace(os, Tracer::global(),
                         sampler.enabled() ? &sampler : nullptr,
                         r.makespan);
        std::printf("(wrote %s)\n", opt.timelinePath.c_str());
    }

    if (!opt.decisionLogPath.empty()) {
        std::ofstream os(opt.decisionLogPath);
        if (!os)
            fatal("cannot open ", opt.decisionLogPath);
        decisions.writeJson(os);
        std::printf("(wrote %s, %zu decisions)\n",
                    opt.decisionLogPath.c_str(),
                    decisions.entries().size());
    }
    if (!opt.profilePath.empty()) {
        std::ofstream os(opt.profilePath);
        if (!os)
            fatal("cannot open ", opt.profilePath);
        profiler.writeJson(os);
        std::printf("(wrote %s)\n", opt.profilePath.c_str());
    }
    if (!opt.manifestPath.empty() || !opt.promPath.empty()) {
        // The Gpu is gone; export from the stats snapshot plus the
        // harvested profiler and process-wide harness counters.
        CounterRegistry registry;
        registerStatsCounters(registry, r.stats);
        if (co.profiler)
            profiler.registerCounters(registry);
        registerHarnessCounters(registry);
        if (!opt.promPath.empty()) {
            std::ofstream os(opt.promPath);
            if (!os)
                fatal("cannot open ", opt.promPath);
            registry.writePrometheus(os);
            std::printf("(wrote %s)\n", opt.promPath.c_str());
        }
        if (!opt.manifestPath.empty()) {
            std::ofstream os(opt.manifestPath);
            if (!os)
                fatal("cannot open ", opt.manifestPath);
            RunManifest m = buildRunManifest("wslicer-sim corun", cfg,
                                             &registry, r.makespan);
            m.snapshot = restored;
            m.writeJson(os);
            std::printf("(wrote %s)\n", opt.manifestPath.c_str());
        }
    }
    return 0;
}

int
cmdServe(const Options &opt)
{
    if (!opt.benchNames.empty())
        usage("wslicer-sim");
    ServeOptions so;
    so.cfg = makeConfig(opt);
    if (opt.policy == "leftover")
        so.kind = PolicyKind::LeftOver;
    else if (opt.policy == "spatial")
        so.kind = PolicyKind::Spatial;
    else if (opt.policy == "even")
        so.kind = PolicyKind::Even;
    else if (opt.policy == "dynamic")
        so.kind = PolicyKind::Dynamic;
    else
        fatal("serve supports leftover|spatial|even|dynamic, not ",
              opt.policy);
    so.window = opt.cycles;
    so.horizon = opt.horizon;
    so.quantum = opt.quantum;
    so.maxBatch = opt.maxBatch;
    so.seed = opt.seed;
    so.arrivals.mode = opt.closedLoop
                           ? ArrivalConfig::Mode::ClosedLoop
                           : ArrivalConfig::Mode::OpenPoisson;
    so.arrivals.ratePer10k = opt.rate;
    so = resolveServeOptions(so);
    if (opt.chaosSeed != 0)
        so.chaos = FaultPlan::seeded(
            opt.chaosSeed, opt.chaosFaults, so.horizon,
            static_cast<unsigned>(so.classes.size()));
    DecisionLog decisions;
    if (!opt.decisionLogPath.empty())
        so.decisionLog = &decisions;

    const ServeResult r = runServe(so);

    Table table({"metric", "value"});
    table.addRow({"policy", opt.policy});
    table.addRow({"arrival_mode",
                  opt.closedLoop ? "closed-loop" : "open-poisson"});
    table.addRow({"seed", std::to_string(so.seed)});
    table.addRow({"horizon_cycles", std::to_string(so.horizon)});
    table.addRow({"end_cycle", std::to_string(r.endCycle)});
    table.addRow({"requests", std::to_string(r.jobs.size())});
    std::uint64_t completed = 0, goodput = 0, rejected = 0, shed = 0,
                  timed_out = 0, failed = 0, pending = 0;
    for (std::size_t t = 0; t < r.slo.numClasses(); ++t) {
        const ClassSlo &s = r.slo.of(static_cast<unsigned>(t));
        completed += s.completed;
        goodput += s.goodput;
        rejected += s.rejectedQueueFull + s.rejectedQuarantined +
                    s.rejectedMalformed;
        shed += s.shed;
        timed_out += s.timedOut;
        failed += s.failed;
        pending += s.pendingAtEnd;
    }
    table.addRow({"completed", std::to_string(completed)});
    table.addRow({"goodput", std::to_string(goodput)});
    table.addRow({"rejected", std::to_string(rejected)});
    table.addRow({"shed", std::to_string(shed)});
    table.addRow({"timed_out", std::to_string(timed_out)});
    table.addRow({"failed", std::to_string(failed)});
    table.addRow({"in_flight_at_end", std::to_string(pending)});
    table.addRow({"fairness_index", Table::num(r.fairness)});
    table.addRow({"slices", std::to_string(r.slices)});
    table.addRow({"rebuilds", std::to_string(r.rebuilds)});
    table.addRow({"live_launches", std::to_string(r.liveLaunches)});
    table.addRow({"preemptions", std::to_string(r.preemptions)});
    table.addRow({"faults_injected",
                  std::to_string(r.faultsInjected)});
    table.addRow({"snapshots", std::to_string(r.snapshots)});
    table.addRow({"restores", std::to_string(r.restores)});
    table.addRow({"retries", std::to_string(r.retries)});
    std::string quarantined;
    for (const std::string &name : r.quarantinedClasses)
        quarantined += (quarantined.empty() ? "" : ",") + name;
    table.addRow({"quarantined",
                  quarantined.empty() ? "none" : quarantined});
    table.addRow({"invariant_violations",
                  std::to_string(r.invariantViolations)});
    emit(opt, table);

    if (!opt.sloPath.empty()) {
        std::ofstream os(opt.sloPath);
        if (!os)
            fatal("cannot open ", opt.sloPath);
        r.slo.writeJson(os);
        std::printf("(wrote %s)\n", opt.sloPath.c_str());
    }
    if (!opt.decisionLogPath.empty()) {
        std::ofstream os(opt.decisionLogPath);
        if (!os)
            fatal("cannot open ", opt.decisionLogPath);
        decisions.writeJson(os);
        std::printf("(wrote %s, %zu decisions)\n",
                    opt.decisionLogPath.c_str(),
                    decisions.entries().size());
    }
    if (!opt.manifestPath.empty() || !opt.promPath.empty()) {
        CounterRegistry registry;
        r.slo.registerCounters(registry);
        registerHarnessCounters(registry);
        if (!opt.promPath.empty()) {
            std::ofstream os(opt.promPath);
            if (!os)
                fatal("cannot open ", opt.promPath);
            registry.writePrometheus(os);
            std::printf("(wrote %s)\n", opt.promPath.c_str());
        }
        if (!opt.manifestPath.empty()) {
            std::ofstream os(opt.manifestPath);
            if (!os)
                fatal("cannot open ", opt.manifestPath);
            RunManifest m = buildRunManifest(
                "wslicer-sim serve", so.cfg, &registry, r.endCycle);
            m.writeJson(os);
            std::printf("(wrote %s)\n", opt.manifestPath.c_str());
        }
    }
    // The chaos gate: injected faults must be survived gracefully;
    // an *organic* invariant violation is a real engine bug.
    return r.invariantViolations == 0 ? 0 : 1;
}

int
cmdCombos(const Options &opt)
{
    if (opt.benchNames.size() != 2)
        usage("wslicer-sim");
    const GpuConfig cfg = makeConfig(opt);
    const Cycle window = opt.cycles ? opt.cycles : defaultWindow() / 2;
    Characterization chars(cfg, window);
    std::vector<KernelParams> apps = {benchmark(opt.benchNames[0]),
                                      benchmark(opt.benchNames[1])};
    std::vector<std::uint64_t> targets = {
        chars.target(opt.benchNames[0]),
        chars.target(opt.benchNames[1])};
    const CoRunResult base =
        runCoSchedule(apps, targets, PolicyKind::LeftOver, cfg);

    const auto combos = enumerateFeasibleCombos(apps, cfg);
    std::vector<CoRunJob> batch;
    for (const auto &combo : combos) {
        CoRunJob job;
        job.apps = opt.benchNames;
        job.kind = PolicyKind::LeftOver;
        job.opts.fixedQuotas = combo;
        batch.push_back(job);
    }
    const std::vector<CoRunResult> results =
        runCoScheduleBatch(chars, batch, opt.jobs);

    Table table({"ctas_0", "ctas_1", "system_ipc", "vs_leftover"});
    unsigned failed = 0;
    for (std::size_t i = 0; i < combos.size(); ++i) {
        const CoRunResult &r = results[i];
        if (r.error.failed) {
            ++failed;
            table.addRow({std::to_string(combos[i][0]),
                          std::to_string(combos[i][1]),
                          "failed(" + r.error.kind + ")", "-"});
            std::fprintf(stderr, "combo %d,%d failed (%s): %s\n",
                         combos[i][0], combos[i][1],
                         r.error.kind.c_str(), r.error.message.c_str());
            continue;
        }
        table.addRow({std::to_string(combos[i][0]),
                      std::to_string(combos[i][1]),
                      Table::num(r.sysIpc),
                      Table::num(r.sysIpc / base.sysIpc)});
    }
    emit(opt, table);
    if (failed != 0) {
        std::fprintf(stderr, "%u of %zu combos failed\n", failed,
                     combos.size());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    if (!opt.tracePath.empty() || !opt.timelinePath.empty())
        Tracer::global().enable(1 << 20);
    int rc = 2;
    try {
        if (opt.command == "list")
            rc = cmdList(opt);
        else if (opt.command == "solo")
            rc = cmdSolo(opt);
        else if (opt.command == "curves")
            rc = cmdCurves(opt);
        else if (opt.command == "corun")
            rc = cmdCorun(opt);
        else if (opt.command == "combos")
            rc = cmdCombos(opt);
        else if (opt.command == "serve")
            rc = cmdServe(opt);
        else
            usage(argv[0]);
    } catch (const SimError &e) {
        // The process boundary for recoverable simulator errors:
        // report with the error's kind and exit non-zero instead of
        // unwinding into an abort.
        std::fprintf(stderr, "wslicer-sim: %s error: %s\n",
                     e.kindName(), e.what());
        if (const auto *dl = dynamic_cast<const DeadlockError *>(&e))
            std::fputs(dl->report().c_str(), stderr);
        return 1;
    }
    if (!opt.tracePath.empty()) {
        std::ofstream os(opt.tracePath);
        if (!os)
            fatal("cannot open ", opt.tracePath);
        Tracer::global().dump(os);
        std::printf("(wrote %s, %llu events)\n", opt.tracePath.c_str(),
                    static_cast<unsigned long long>(
                        Tracer::global().totalRecorded()));
    }
    return rc;
}
