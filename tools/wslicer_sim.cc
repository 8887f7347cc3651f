/**
 * @file
 * wslicer-sim: command-line driver for the simulator.
 *
 *   wslicer-sim list
 *       List the available benchmark kernels and their parameters.
 *
 *   wslicer-sim solo BENCH
 *       Run one benchmark in isolation and dump its statistics.
 *
 *   wslicer-sim curves BENCH
 *       Print the performance-vs-CTA-occupancy curve (Figure 3a).
 *
 *   wslicer-sim corun BENCH1 BENCH2 [BENCH3]
 *       Co-run benchmarks under a multiprogramming policy using the
 *       paper's instruction-target methodology, with optional interval
 *       telemetry, engine observability and checkpointing.
 *
 *   wslicer-sim combos BENCH1 BENCH2
 *       Exhaustively evaluate every feasible CTA partition (the
 *       oracle's search space).
 *
 *   wslicer-sim serve
 *       Run the long-lived multi-tenant serving layer: seeded
 *       open-loop Poisson (or closed-loop) arrivals over the default
 *       tenant-class mix, admission control with bounded queues and
 *       deadline-feasibility shedding, EDF dispatch with preemption,
 *       and — with --chaos-seed — seeded fault injection with
 *       snapshot-rollback recovery and tenant quarantine. Exits
 *       non-zero if any organic invariant violation occurred.
 *
 * Every command prints its table on stdout. With --obs DIR it also
 * writes one run bundle into DIR: manifest.json (provenance, counters
 * and the names of the other files), table.csv, and the command's
 * other outputs (counters.prom, decisions.json, series.csv,
 * timeline.json, slo.json). `wslicer-report check DIR` validates it.
 *
 * The flag table below is the flag list and the usage text. Each
 * command accepts only the flags it reads.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/log.hh"
#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "obs/counters.hh"
#include "obs/decision_log.hh"
#include "obs/engine_profiler.hh"
#include "obs/manifest.hh"
#include "parse_number.hh"
#include "report/table.hh"
#include "serve/engine.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/timeline.hh"

using namespace wsl;

namespace {

struct Options;

struct Command
{
    const char *name;
    const char *args;  //!< positional arguments, for the usage text
    std::size_t minBenches, maxBenches;
    int (*run)(const Options &);
};

struct Options
{
    const Command *command = nullptr;
    std::vector<std::string> benchNames;
    Cycle cycles = 0;      // 0 = defaultWindow()
    int ctas = -1;         // -1 = as many as fit
    std::string policy = "dynamic";
    SchedulerKind sched = SchedulerKind::Gto;
    GpuConfig (*preset)() = GpuConfig::baseline;
    Cycle auditCadence = 0;    //!< 0 = integrity audits off
    Cycle watchdogCycles = 0;  //!< 0 = no-progress watchdog off
    std::string obsDir;           //!< run bundle directory; "" = none
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
    unsigned jobs = defaultJobs();  //!< worker threads (WSL_JOBS)
};

/**
 * The policy `text` names: leftover, spatial, even, dynamic, or
 * fixed:Q1,Q2[,Q3], which runs LeftOver under the CTA quotas it
 * stores in `quotas`. Nothing when `text` is none of these.
 */
std::optional<PolicyKind>
parsePolicy(const std::string &text, std::vector<int> *quotas = nullptr)
{
    static const std::pair<const char *, PolicyKind> names[] = {
        {"leftover", PolicyKind::LeftOver},
        {"spatial", PolicyKind::Spatial},
        {"even", PolicyKind::Even},
        {"dynamic", PolicyKind::Dynamic}};
    for (const auto &[name, kind] : names)
        if (text == name)
            return kind;
    if (text.rfind("fixed:", 0) != 0)
        return std::nullopt;
    std::vector<int> parsed;
    for (std::size_t pos = 6;;) {
        const std::size_t comma = text.find(',', pos);
        const std::optional<int> q = parseNumber<int>(
            std::string_view(text).substr(pos, comma - pos));
        if (!q || *q < 0)
            return std::nullopt;
        parsed.push_back(*q);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (quotas)
        *quotas = std::move(parsed);
    return PolicyKind::LeftOver;
}

GpuConfig
makeConfig(const Options &opt)
{
    GpuConfig cfg = opt.preset();
    cfg.scheduler = opt.sched;
    cfg.auditCadence = opt.auditCadence;
    cfg.watchdogCycles = opt.watchdogCycles;
    // Fail here with an actionable message, not deep in construction.
    cfg.validate();
    return cfg;
}

[[noreturn]] void usage(const std::string &why = "");

/** Write `path` through `write` and announce it on stdout; failing to
 *  open or write it is fatal. */
void
writeFile(const std::string &path,
          const std::function<void(std::ostream &)> &write,
          const std::string &note = "")
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open ", path);
    write(os);
    if (!os.flush())
        fatal("cannot write ", path);
    std::printf("(wrote %s%s)\n", path.c_str(), note.c_str());
}

/** One file of a run bundle besides table.csv and manifest.json. */
struct BundleFile
{
    const char *name;
    std::function<void(std::ostream &)> write;
    std::string note = "";  //!< appended to its "(wrote ...)" line
};

/** What a command leaves for its run bundle besides its table. */
struct Bundle
{
    std::vector<BundleFile> files;
    std::vector<MetricSample> counters;
    Cycle cycles = 0;       //!< simulated cycles; 0 = not applicable
    SnapshotInfo restored;  //!< provenance of a restored run
};

BundleFile
decisionsFile(const DecisionLog &log)
{
    return {"decisions.json",
            [&log](std::ostream &os) { log.writeJson(os); },
            ", " + std::to_string(log.entries().size()) + " decisions"};
}

BundleFile
promFile(const std::vector<MetricSample> &counters)
{
    return {"counters.prom", [&counters](std::ostream &os) {
                writePrometheus(os, counters);
            }};
}

/**
 * Print `table` and, under --obs DIR, write the run bundle: the table
 * as table.csv, then `bundle`'s files, then manifest.json, which
 * lists them and carries the counters of the run on `cfg`.
 */
void
emit(const Options &opt, const GpuConfig &cfg, const Table &table,
     const Bundle &bundle = {})
{
    table.writeText(std::cout);
    if (opt.obsDir.empty())
        return;
    RunManifest m = buildRunManifest(
        std::string("wslicer-sim ") + opt.command->name, cfg,
        bundle.counters, bundle.cycles);
    m.snapshot = bundle.restored;
    // Created only now, so a usage error or a failed run leaves none.
    const std::filesystem::path dir(opt.obsDir);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("cannot create ", opt.obsDir, ": ", ec.message());
    std::vector<BundleFile> files = {
        {"table.csv", [&](std::ostream &os) { table.writeCsv(os); }}};
    files.insert(files.end(), bundle.files.begin(), bundle.files.end());
    for (const BundleFile &f : files) {
        writeFile(dir / f.name, f.write, f.note);
        m.files.push_back(f.name);
    }
    writeFile(dir / "manifest.json",
              [&](std::ostream &os) { m.writeJson(os); });
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
    emit(opt, cfg, table);
    return 0;
}

int
cmdSolo(const Options &opt)
{
    const GpuConfig cfg = makeConfig(opt);
    const Cycle cycles = opt.cycles ? opt.cycles : defaultWindow();
    const KernelParams &k = benchmark(opt.benchNames[0]);
    const unsigned fit = k.maxCtasPerSm(cfg);
    if (opt.ctas > static_cast<int>(fit))
        usage("--ctas " + std::to_string(opt.ctas) + ": " + k.name +
              " fits at most " + std::to_string(fit) +
              " CTAs per SM on this preset");
    const SoloResult r = runSoloForCycles(k, cfg, cycles, opt.ctas);
    Table table({"metric", "value"});
    table.addRow({"benchmark", opt.benchNames[0]});
    table.addRow({"warp_ipc", Table::num(r.warpIpc())});
    for (const auto &[name, value] : flattenStats(r.stats))
        table.addRow({name, Table::num(value)});
    Bundle out;
    out.cycles = r.cycles;
    appendStatsCounters(out.counters, r.stats);
    emit(opt, cfg, table, out);
    return 0;
}

int
cmdCurves(const Options &opt)
{
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
    emit(opt, cfg, table);
    return 0;
}

int
cmdCorun(const Options &opt)
{
    const GpuConfig cfg = makeConfig(opt);
    const Cycle window = opt.cycles ? opt.cycles : defaultWindow();

    CoRunOptions co;
    co.slicer = scaledSlicerOptions(window);
    const PolicyKind kind = *parsePolicy(opt.policy, &co.fixedQuotas);

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

    // Engine observability for the bundle: the profiler and the
    // Dynamic policy's decision log attach for the run and are written
    // out afterwards; neither perturbs the simulated outcome (the
    // bit-identity test holds them to that).
    EngineProfiler profiler;
    DecisionLog decisions;
    if (!opt.obsDir.empty()) {
        co.profiler = &profiler;
        if (kind == PolicyKind::Dynamic)
            co.decisionLog = &decisions;
    }

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
    }

    Bundle out;
    out.cycles = r.makespan;
    out.restored = restored;
    if (sampler.enabled()) {
        out.files.push_back({"series.csv", [&](std::ostream &os) {
                                 sampler.writeCsv(os);
                             }});
        out.files.push_back({"timeline.json", [&](std::ostream &os) {
                                 writeChromeTrace(os, sampler, r.makespan);
                             }});
    }
    if (co.decisionLog)
        out.files.push_back(decisionsFile(decisions));
    // The Gpu is gone; the counters come from the stats snapshot, the
    // harvested profiler and the process-wide harness counters.
    appendStatsCounters(out.counters, r.stats);
    profiler.appendCounters(out.counters);
    appendHarnessCounters(out.counters);
    out.files.push_back(promFile(out.counters));
    emit(opt, cfg, table, out);
    return 0;
}

int
cmdServe(const Options &opt)
{
    ServeOptions so;
    so.cfg = makeConfig(opt);
    so.kind = *parsePolicy(opt.policy);
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
    if (!opt.obsDir.empty() && so.kind == PolicyKind::Dynamic)
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

    Bundle out;
    out.cycles = r.endCycle;
    out.files.push_back(
        {"slo.json", [&](std::ostream &os) { r.slo.writeJson(os); }});
    if (so.decisionLog)
        out.files.push_back(decisionsFile(decisions));
    r.slo.appendCounters(out.counters);
    appendHarnessCounters(out.counters);
    out.files.push_back(promFile(out.counters));
    emit(opt, so.cfg, table, out);
    // The chaos gate: injected faults must be survived gracefully;
    // an *organic* invariant violation is a real engine bug.
    return r.invariantViolations == 0 ? 0 : 1;
}

int
cmdCombos(const Options &opt)
{
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
    Bundle out;
    appendHarnessCounters(out.counters);
    emit(opt, cfg, table, out);
    if (failed != 0) {
        std::fprintf(stderr, "%u of %zu combos failed\n", failed,
                     combos.size());
        return 1;
    }
    return 0;
}

const Command commands[] = {
    {"list", "", 0, 0, cmdList},
    {"solo", " BENCH", 1, 1, cmdSolo},
    {"curves", " BENCH", 1, 1, cmdCurves},
    {"corun", " B1 B2 [B3]", 2, 3, cmdCorun},
    {"combos", " B1 B2", 2, 2, cmdCombos},
    {"serve", "", 0, 0, cmdServe},
};

/** Flag::commands bits, in the order of `commands`. */
enum : unsigned { List = 1, Solo = 2, Curves = 4, Corun = 8, Combos = 16,
                  Serve = 32, Every = 63, Simulating = Every & ~List };

const std::vector<Flag<Options>> flags = {
    {"--cycles", number(&Options::cycles, "N"),
     "cycles to run (default: WSL_WINDOW; curves: half)", Solo | Curves},
    {"--window", number(&Options::cycles, "N"),
     "characterization window (default: WSL_WINDOW; combos: half)",
     Corun | Combos | Serve},
    {"--ctas", number(&Options::ctas, "Q", 1),
     "CTAs per SM (default: as many as fit)", Solo},
    {"--preset",
     choice(&Options::preset, {{"baseline", &GpuConfig::baseline},
                               {"large", &GpuConfig::largeResource},
                               {"dc", &GpuConfig::datacenter}}),
     "machine (dc: 128 SMs, 32 partitions; not a paper machine)", Every},
    {"--sched",
     choice(&Options::sched,
            {{"gto", SchedulerKind::Gto}, {"lrr", SchedulerKind::Lrr}}),
     "warp scheduler", Simulating},
    {"--policy",
     {"leftover|spatial|even|dynamic|fixed:Q1,Q2[,Q3]",
      [](Options &o, const std::string &text) {
          o.policy = text;
          return parsePolicy(text).has_value();
      }},
     "slicing policy (default dynamic; fixed: corun only)", Corun | Serve},
    {"--jobs",
     {"N",
      [](Options &o, const std::string &text) {
          const std::optional<unsigned> jobs = parseJobCount(text);
          o.jobs = jobs.value_or(o.jobs);
          return jobs.has_value();
      }},
     "worker threads, 0 = all (default: WSL_JOBS or 1)",
     Curves | Corun | Combos},
    {"--audit", number(&Options::auditCadence, "N", 1),
     "integrity audits every N cycles (bare: 10000)", Simulating, nullptr,
     nullptr, "10000"},
    {"--watchdog-cycles", number(&Options::watchdogCycles, "N", 1),
     "deadlock report after N cycles without progress", Simulating},
    {"--obs", text(&Options::obsDir, "DIR"),
     "write the run bundle into DIR (created; must hold no file)", Every},
    {"--stats-interval", number(&Options::statsInterval, "N", 1),
     "sample interval telemetry every N cycles (bundle: series, timeline)",
     Corun},
    {"--snapshot", text(&Options::snapshotPath), "write checkpoints",
     Corun},
    {"--snapshot-at", number(&Options::snapshotAt, "N", 1),
     "capture cycle (default: window / 2)", Corun, "--snapshot",
     "--checkpoint-every"},
    {"--checkpoint-every", number(&Options::checkpointEvery, "N", 1),
     "checkpoint every N cycles", Corun, "--snapshot"},
    {"--restore", text(&Options::restorePath),
     "resume a checkpoint, bit-identical to an unbroken run", Corun},
    {"--rate", number(&Options::rate, "R", 0.0),
     "arrivals per 10k cycles (default 1)", Serve, nullptr,
     "--closed-loop"},
    {"--closed-loop", toggle(&Options::closedLoop),
     "closed-loop arrivals, not open-loop Poisson", Serve},
    {"--horizon", number(&Options::horizon, "N"),
     "arrival horizon (default: 6 windows)", Serve},
    {"--quantum", number(&Options::quantum, "N"),
     "dispatch quantum (default: window / 4)", Serve},
    {"--max-batch", number(&Options::maxBatch, "K", 1, maxConcurrentKernels),
     "jobs resident at once, at most 4 (default 3)", Serve},
    {"--seed", number(&Options::seed, "N"), "arrival seed (default 1)",
     Serve},
    {"--chaos-seed", number(&Options::chaosSeed, "N", 1),
     "seeded fault injection", Serve},
    {"--chaos-faults", number(&Options::chaosFaults, "N", 1),
     "faults to inject (default 6)", Serve, "--chaos-seed"},
};

/** Print why (when given) and the usage text, and exit 2. */
void
usage(const std::string &why)
{
    if (!why.empty())
        std::fprintf(stderr, "wslicer-sim: %s\n", why.c_str());
    std::string synopsis;
    std::vector<std::string> names;
    for (const Command &c : commands) {
        synopsis += (names.empty() ? "" : " | ") + std::string(c.name) +
                    c.args;
        names.push_back(c.name);
    }
    std::fprintf(stderr, "usage: wslicer-sim %s [flags]\n",
                 synopsis.c_str());
    printFlags(flags, names);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (const Command &c : commands)
        if (argc > 1 && std::string_view(argv[1]) == c.name)
            opt.command = &c;
    if (!opt.command)
        usage();
    const unsigned bit = 1u << (opt.command - commands);
    const auto benches =
        parseFlags(flags, opt, "wslicer-sim", bit, 2, argc, argv);
    if (!benches)
        usage();
    if (benches->size() < opt.command->minBenches ||
        benches->size() > opt.command->maxBenches)
        usage(std::string("wrong number of benchmarks for ") +
              opt.command->name);
    opt.benchNames = *benches;
    std::vector<int> quotas;
    parsePolicy(opt.policy, &quotas);
    if (!quotas.empty() &&
        (bit != Corun || quotas.size() != opt.benchNames.size()))
        usage("--policy fixed: needs one quota per corun benchmark");
    if (!opt.obsDir.empty()) {
        // A bundle holds one run's files only.
        namespace fs = std::filesystem;
        std::error_code ec;
        if (fs::exists(opt.obsDir, ec) &&
            !(fs::is_directory(opt.obsDir, ec) &&
              fs::is_empty(opt.obsDir, ec)))
            usage("--obs " + opt.obsDir + " already holds files");
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    try {
        return opt.command->run(opt);
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
}
