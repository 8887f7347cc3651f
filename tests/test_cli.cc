/**
 * @file
 * End-to-end smoke tests for the wslicer-sim command-line driver and
 * its run bundles (and the option parsing of wslicer-fuzz,
 * wslicer-report and bench_sweep), run as subprocesses. CTest
 * executes these from build/tests, so the tools live in ../tools and
 * the benches in ../bench.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "obs/json.hh"

namespace {

/** Locate a tool relative to common working directories. */
std::string
toolPath(const std::string &tool)
{
    for (const char *dir : {"../tools/", "build/tools/", "tools/",
                            "../bench/", "build/bench/", "bench/"}) {
        if (std::ifstream(dir + tool).good())
            return dir + tool;
    }
    return {};
}

/** Run a tool, returning (exit status, stdout and stderr). */
std::pair<int, std::string>
run(const std::string &args, const std::string &tool = "wslicer-sim")
{
    const std::string cmd = toolPath(tool) + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return {-1, ""};
    std::string out;
    std::array<char, 512> buf;
    while (fgets(buf.data(), buf.size(), pipe))
        out += buf.data();
    const int status = pclose(pipe);
    return {status, out};
}

bool
cliAvailable()
{
    return !toolPath("wslicer-sim").empty();
}

} // namespace

#define REQUIRE_CLI()                                                  \
    if (!cliAvailable())                                               \
        GTEST_SKIP() << "wslicer-sim not built next to the tests"

TEST(Cli, ListShowsAllBenchmarks)
{
    REQUIRE_CLI();
    const auto [status, out] = run("list");
    EXPECT_EQ(status, 0);
    for (const char *name : {"BLK", "BFS", "DXT", "HOT", "IMG", "KNN",
                             "LBM", "MM", "MVP", "NN"})
        EXPECT_NE(out.find(name), std::string::npos) << name;
}

TEST(Cli, SoloRunPrintsMetrics)
{
    REQUIRE_CLI();
    const auto [status, out] = run("solo IMG --cycles 4000");
    EXPECT_EQ(status, 0);
    EXPECT_NE(out.find("warp_ipc"), std::string::npos);
    EXPECT_NE(out.find("l2_mpki"), std::string::npos);
}

TEST(Cli, CorunFixedPolicyWorks)
{
    REQUIRE_CLI();
    const auto [status, out] =
        run("corun IMG NN --policy fixed:4,4 --window 6000");
    EXPECT_EQ(status, 0);
    EXPECT_NE(out.find("system_ipc"), std::string::npos);
    EXPECT_NE(out.find("fairness_min_speedup"), std::string::npos);
}

namespace {

/** An empty bundle directory under /tmp named after `name`. */
std::string
freshBundle(const std::string &name)
{
    const std::string dir = "/tmp/wsl_cli_obs_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** The manifest.json of the bundle in `dir`, parsed. */
wsl::JsonValue
bundleManifest(const std::string &dir)
{
    wsl::JsonValue doc;
    std::string error;
    EXPECT_TRUE(wsl::loadJsonFile(dir + "/manifest.json", doc, error))
        << error;
    return doc;
}

} // namespace

TEST(Cli, ObsBundleHoldsTheTableAsCsv)
{
    REQUIRE_CLI();
    const std::string dir = freshBundle("solo");
    const auto [status, out] = run("solo MM --cycles 3000 --obs " + dir);
    EXPECT_EQ(status, 0);
    std::ifstream csv(dir + "/table.csv");
    ASSERT_TRUE(csv.good());
    std::string header;
    std::getline(csv, header);
    EXPECT_EQ(header, "metric,value");
    const wsl::JsonValue manifest = bundleManifest(dir);
    const wsl::JsonValue *files = manifest.findArray("files");
    ASSERT_NE(files, nullptr);
    ASSERT_EQ(files->items().size(), 1u);
    EXPECT_EQ(files->items()[0].asString(), "table.csv");
}

TEST(Cli, CorunManifestCoversStatsAndEngineMeta)
{
    REQUIRE_CLI();
    const std::string dir = freshBundle("counters");
    const auto [status, out] =
        run("corun MM LBM --policy dynamic --window 5000 --audit=1000"
            " --obs " + dir);
    ASSERT_EQ(status, 0) << out;
    const wsl::JsonValue manifest = bundleManifest(dir);
    const wsl::JsonValue *counters = manifest.findObject("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_GT(counters->numberOr("wsl_cycles", 0), 0.0);
    for (const char *name :
         {"wsl_icnt_routed_requests", "wsl_icnt_delivered_responses",
          "wsl_engine_sched_scans", "wsl_engine_scan_memo_hits",
          "wsl_engine_audits"})
        EXPECT_GT(counters->numberOr(name, 0), 0.0) << name;
    std::string files;
    for (const wsl::JsonValue &f : manifest.findArray("files")->items())
        files += f.asString() + " ";
    EXPECT_EQ(files, "table.csv decisions.json counters.prom ");
}

TEST(Cli, ObsRefusesADirectoryThatHoldsAFile)
{
    REQUIRE_CLI();
    const std::string dir = freshBundle("occupied");
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/old.csv") << "metric,value\n";
    for (const char *command :
         {"solo MM --cycles 2000", "corun MM BFS --window 2000",
          "serve --window 2000"}) {
        const auto [status, out] =
            run(std::string(command) + " --obs " + dir);
        ASSERT_TRUE(WIFEXITED(status)) << command;
        EXPECT_EQ(WEXITSTATUS(status), 2) << command;
        EXPECT_NE(out.find("already holds files"), std::string::npos)
            << out;
        EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                                std::filesystem::directory_iterator()),
                  1)
            << command;
    }
    // A file where the directory should be is refused the same way.
    const auto [status, out] =
        run("solo MM --cycles 2000 --obs " + dir + "/old.csv");
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
}

TEST(Cli, FailedRunLeavesNoBundle)
{
    REQUIRE_CLI();
    // A one-cycle watchdog reports a deadlock at once.
    const std::string dir = freshBundle("failed");
    const auto [status, out] =
        run("corun MM BFS --window 2000 --watchdog-cycles 1 --obs " + dir);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1);
    EXPECT_NE(out.find("deadlock error"), std::string::npos) << out;
    EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(Cli, UnknownCommandFails)
{
    REQUIRE_CLI();
    const auto [status, out] = run("frobnicate");
    EXPECT_NE(status, 0);
    EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST(Cli, UnknownBenchmarkFails)
{
    REQUIRE_CLI();
    const auto [status, out] = run("solo NOPE --cycles 1000");
    EXPECT_NE(status, 0);
    EXPECT_NE(out.find("config error"), std::string::npos);
    EXPECT_NE(out.find("unknown benchmark"), std::string::npos);
}

TEST(Cli, AuditedSoloRunSucceeds)
{
    REQUIRE_CLI();
    const auto [status, out] =
        run("solo IMG --cycles 4000 --audit=500 --watchdog-cycles 2000");
    EXPECT_EQ(status, 0);
    EXPECT_NE(out.find("warp_ipc"), std::string::npos);
}

TEST(Cli, AuditedCorunMatchesUnaudited)
{
    REQUIRE_CLI();
    const std::string base = "corun IMG NN --policy fixed:4,4 --window 6000";
    const auto [s0, out0] = run(base);
    const auto [s1, out1] = run(base + " --audit=1000 --watchdog-cycles 5000");
    EXPECT_EQ(s0, 0);
    EXPECT_EQ(s1, 0);
    // Audits and the watchdog must not perturb the simulation.
    EXPECT_EQ(out0, out1);
}

TEST(Cli, ZeroAuditCadenceIsRejected)
{
    REQUIRE_CLI();
    const auto [status, out] = run("solo IMG --cycles 1000 --audit=0");
    EXPECT_NE(status, 0);
    EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST(Cli, MalformedNumericFlagsAreRejected)
{
    REQUIRE_CLI();
    // Each must stop the run: read leniently, "2000x" would run 2000
    // cycles and "abc" would silently turn telemetry off.
    for (const char *flags :
         {"--window 2000x", "--stats-interval abc", "--window ''",
          "--window 99999999999999999999", "--ctas 3.5",
          "--policy fixed:4,x"}) {
        const auto [status, out] =
            run(std::string("corun MM BFS --window 2000 ") + flags);
        ASSERT_TRUE(WIFEXITED(status)) << flags;
        EXPECT_EQ(WEXITSTATUS(status), 2) << flags;
        EXPECT_NE(out.find("usage"), std::string::npos) << flags;
    }
}

TEST(Cli, UnknownSchedulerIsRejected)
{
    REQUIRE_CLI();
    const auto [status, out] = run("corun MM BFS --window 2000 --sched bogus");
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
    EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST(Cli, FuzzRejectsMalformedNumbers)
{
    if (toolPath("wslicer-fuzz").empty())
        GTEST_SKIP() << "wslicer-fuzz not built next to the tests";
    // Each must stop before any seed runs: read leniently, "--cycles
    // abc" simulated 0 cycles and still reported every seed clean, and
    // the snapshot probe cannot pick a capture cycle inside one cycle.
    for (const char *flags : {"--cycles abc", "--cycles 0", "--cadence 7q",
                              "--seeds -1", "--snapshot --cycles 1"}) {
        const auto [status, out] =
            run(std::string("--seeds 3 ") + flags, "wslicer-fuzz");
        ASSERT_TRUE(WIFEXITED(status)) << flags;
        EXPECT_EQ(WEXITSTATUS(status), 2) << flags;
        EXPECT_NE(out.find("usage"), std::string::npos) << flags;
        EXPECT_EQ(out.find("clean"), std::string::npos) << flags;
    }
}

namespace {

/**
 * Each `flags` use on each `commands` line, given a bundle directory,
 * must exit 2 with the usage text before anything is simulated,
 * leaving `out` unwritten and the bundle directory uncreated.
 */
void
expectUsageErrors(std::initializer_list<const char *> commands,
                  std::initializer_list<const char *> flags)
{
    const std::string out = "/tmp/wsl_cli_unwritten.out";
    const std::string bundle = "/tmp/wsl_cli_unwritten_bundle";
    for (const char *command : commands) {
        for (const char *flag : flags) {
            std::remove(out.c_str());
            std::filesystem::remove_all(bundle);
            const std::string args =
                std::string(command) + " " + flag + " --obs " + bundle;
            const auto [status, text] = run(args);
            ASSERT_TRUE(WIFEXITED(status)) << args;
            EXPECT_EQ(WEXITSTATUS(status), 2) << args;
            EXPECT_NE(text.find("usage"), std::string::npos) << args;
            EXPECT_FALSE(std::ifstream(out).good()) << args;
            EXPECT_FALSE(std::filesystem::exists(bundle)) << args;
        }
    }
}

} // namespace

TEST(Cli, CorunOnlyFlagsAreRejectedElsewhere)
{
    REQUIRE_CLI();
    expectUsageErrors(
        {"solo MM --cycles 2000", "serve --window 2000",
         "combos IMG NN --window 2000"},
        {"--stats-interval 1000",
         "--snapshot /tmp/wsl_cli_unwritten.out", "--snapshot-at 1000",
         "--checkpoint-every 1000", "--restore /tmp/wsl_cli_unwritten.out"});
}

TEST(Cli, ServeOnlyFlagsAreRejectedElsewhere)
{
    REQUIRE_CLI();
    expectUsageErrors({"solo MM --cycles 2000", "corun MM BFS --window 2000",
                       "curves MM --cycles 2000"},
                      {"--horizon 1000", "--quantum 500", "--closed-loop",
                       "--chaos-seed 5"});
}

TEST(Cli, CorunOrServeFlagsAreRejectedElsewhere)
{
    REQUIRE_CLI();
    expectUsageErrors({"list", "solo MM --cycles 2000",
                       "curves MM --cycles 2000",
                       "combos IMG NN --window 2000"},
                      {"--policy even"});
}

TEST(Cli, OutputFlagsTheBundleReplacedAreUnknown)
{
    REQUIRE_CLI();
    const std::initializer_list<const char *> commands = {
        "list", "solo MM --cycles 2000", "curves MM --cycles 2000",
        "corun MM BFS --window 2000 --stats-interval 1000",
        "combos IMG NN --window 2000", "serve --window 2000"};
    for (const char *flag : {"--csv", "--json", "--timeline",
                             "--decision-log", "--profile", "--manifest",
                             "--prom", "--slo"}) {
        const std::string use = std::string(flag) +
                                " /tmp/wsl_cli_unwritten.out";
        expectUsageErrors(commands, {use.c_str()});
        const auto [status, out] = run("list " + use);
        EXPECT_NE(out.find(std::string("unknown flag ") + flag),
                  std::string::npos)
            << out;
    }
}

TEST(Cli, TraceFlagIsUnknown)
{
    REQUIRE_CLI();
    expectUsageErrors({"corun MM BFS --window 2000", "solo MM --cycles 2000"},
                      {"--trace /tmp/wsl_cli_unwritten.out"});
}

TEST(Cli, FlagsAreRejectedOnCommandsThatDoNotReadThem)
{
    REQUIRE_CLI();
    // Each used to run as if the flag were absent.
    expectUsageErrors({"solo MM --cycles 2000"},
                      {"--chaos-seed 5", "--rate 3", "--policy even",
                       "--window 2000", "--jobs 2"});
    expectUsageErrors({"corun MM BFS --window 2000"},
                      {"--closed-loop", "--max-batch 2", "--ctas 3",
                       "--seed 9", "--cycles 2000"});
    expectUsageErrors({"list"},
                      {"--sched lrr", "--audit", "--large", "--jobs 2"});
    expectUsageErrors({"serve --window 2000"}, {"--cycles 2000", "--jobs 2"});
}

TEST(Cli, FlagsWithoutTheFlagTheyNeedAreRejected)
{
    REQUIRE_CLI();
    expectUsageErrors({"corun MM BFS --window 2000"},
                      {"--snapshot-at 1000", "--checkpoint-every 1000"});
    expectUsageErrors({"serve --window 2000"}, {"--chaos-faults 3"});
}

TEST(Cli, FlagsThatAnotherFlagMakesInertAreRejected)
{
    REQUIRE_CLI();
    expectUsageErrors({"corun MM BFS --window 2000 --snapshot "
                       "/tmp/wsl_cli_unwritten.out"},
                      {"--snapshot-at 500 --checkpoint-every 1000"});
    expectUsageErrors({"serve --window 2000"}, {"--rate 2 --closed-loop"});
}

TEST(Cli, ValuesTheRunWouldClampOrRefuseAreRejected)
{
    REQUIRE_CLI();
    expectUsageErrors({"serve --window 2000"},
                      {"--max-batch 9", "--max-batch 0",
                       "--policy fixed:1,2", "--rate -1"});
    expectUsageErrors({"curves MM --cycles 500"}, {"--jobs 4x", "--jobs -1"});
    expectUsageErrors({"solo MM --cycles 1000"},
                      {"--ctas -3", "--ctas 0", "--ctas 99"});
    expectUsageErrors({"list"}, {"--preset bogus"});
    expectUsageErrors({"corun MM BFS --window 2000"},
                      {"--policy bogus", "--policy fixed:4",
                       "--policy fixed:-1,4", "--stats-interval 0"});
}

TEST(Cli, DocumentedInvocationsParse)
{
    REQUIRE_CLI();
    // Every distinct wslicer-sim flag set in README.md, EXPERIMENTS.md,
    // the verify skill and the CI workflow, with bundles and snapshots
    // under /tmp and windows cut to a few thousand cycles. Every
    // bundle must pass `wslicer-report check`.
    setenv("WSL_WINDOW", "3000", 1);
    const std::string root = "/tmp/wsl_cli_doc";
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    const std::string ck = " " + root + "/ck";
    int bundles = 0;
    for (std::string args : {
             std::string("list --obs"),
             std::string("solo LBM --cycles 3000 --obs"),
             std::string("curves MVP"),
             std::string("corun IMG NN --policy dynamic --obs"),
             std::string("corun HOT BLK MM --policy even --preset large"),
             std::string("combos HOT BLK"),
             std::string("corun MM BFS --policy dynamic --stats-interval"
                         " 1000 --obs"),
             std::string("corun MM BFS --policy dynamic --stats-interval"
                         " 1000 --jobs 4 --obs"),
             std::string("corun MM LBM --policy dynamic --obs"),
             "corun MM LBM --window 3000 --snapshot" + ck + "1.snap",
             "corun MM LBM --window 3000 --restore" + ck + "1.snap --obs",
             "corun MM LBM --window 3000 --restore" + ck + "1.snap --audit=1",
             "corun MM LBM --window 3000 --checkpoint-every 1000 --snapshot" +
                 ck + "2.snap",
             "corun MM LBM --window 3000 --restore" + ck + "2.snap --obs",
             std::string("corun IMG NN --policy dynamic --window 3000"
                         " --stats-interval 1000 --obs"),
             "corun MM LBM --policy dynamic --window 3000 --snapshot" + ck +
                 "3.snap --obs",
             "corun MM LBM --policy dynamic --window 3000 --restore" + ck +
                 "3.snap --obs",
             std::string("serve --rate 4 --policy dynamic --obs"),
             std::string("serve --chaos-seed 11 --chaos-faults 6"),
             std::string("serve --policy even --rate 2 --seed 7 --preset dc"
                         " --obs"),
             std::string("serve --window 3000 --seed 7 --chaos-seed 11"
                         " --chaos-faults 6 --obs"),
             std::string("serve --window 3000 --seed 7 --rate 2 --obs"),
             std::string("serve --window 3000 --seed 7 --closed-loop --obs"),
         }) {
        std::string dir;
        if (args.size() > 6 && args.substr(args.size() - 6) == " --obs") {
            dir = root + "/" + std::to_string(bundles++);
            args += " " + dir;
        }
        const auto [status, out] = run(args);
        ASSERT_TRUE(WIFEXITED(status)) << args;
        EXPECT_EQ(WEXITSTATUS(status), 0) << args << "\n" << out;
        if (dir.empty())
            continue;
        const auto [check, report] = run("check " + dir, "wslicer-report");
        EXPECT_EQ(check, 0) << args << "\n" << report;
    }
    unsetenv("WSL_WINDOW");
}

TEST(Cli, ReportCheckNamesTheBadFile)
{
    REQUIRE_CLI();
    const std::string dir = freshBundle("check");
    ASSERT_EQ(run("list --obs " + dir).first, 0);
    EXPECT_EQ(run("check " + dir, "wslicer-report").first, 0);
    std::ofstream(dir + "/notes.txt") << "stray\n";
    const auto [status, out] = run("check " + dir, "wslicer-report");
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
    EXPECT_NE(out.find("notes.txt"), std::string::npos) << out;
}

TEST(Cli, BenchSweepRejectsMalformedJobs)
{
    if (toolPath("bench_sweep").empty())
        GTEST_SKIP() << "bench_sweep not built next to the tests";
    // Read leniently, "4x" warned and ran the parallel pass serially.
    setenv("WSL_WINDOW", "1000", 1);
    for (const char *jobs : {"4x", "-1", "abc", "''", "' 8'"}) {
        const auto [status, out] =
            run(std::string("--quick --jobs ") + jobs, "bench_sweep");
        ASSERT_TRUE(WIFEXITED(status)) << jobs;
        EXPECT_EQ(WEXITSTATUS(status), 2) << jobs;
        EXPECT_NE(out.find("usage"), std::string::npos) << jobs;
        EXPECT_EQ(out.find("sweep:"), std::string::npos) << jobs;
    }
    unsetenv("WSL_WINDOW");
}

namespace {

/** Write a two-key BENCH-style JSON file with this throughput. */
std::string
benchJson(const std::string &name, double mcyclesPerSec)
{
    const std::string path = "/tmp/wsl_cli_report_" + name + ".json";
    std::ofstream(path) << "{\"hardware_threads\": 4, "
                           "\"sim_mcycles_per_sec\": "
                        << mcyclesPerSec << "}\n";
    return path;
}

/** wslicer-report's exit code for `args`, or -1 if it did not exit. */
int
reportStatus(const std::string &args)
{
    const auto [status, out] = run(args, "wslicer-report");
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace

TEST(Cli, ReportDiffThresholdParsesStrictly)
{
    if (toolPath("wslicer-report").empty())
        GTEST_SKIP() << "wslicer-report not built next to the tests";
    const std::string base = benchJson("base", 100);
    const std::string drop5 = benchJson("drop5", 95);
    const std::string drop99 = benchJson("drop99", 1);
    const std::string diff5 = "diff " + base + " " + drop5;
    const std::string diff99 = "diff " + base + " " + drop99;
    EXPECT_EQ(reportStatus(diff5), 0);
    EXPECT_EQ(reportStatus(diff99), 1);
    EXPECT_EQ(reportStatus(diff5 + " --threshold 0.1"), 0);
    EXPECT_EQ(reportStatus(diff5 + " --threshold 0.01"), 1);
    EXPECT_EQ(reportStatus(diff5 + " --threshold 0"), 1);
    // Read leniently, "abc" was 0 (a 5 % drop failed the gate) and 5
    // passed a 99 % drop.
    for (const char *bad : {"abc", "5", "1", "-0.1", "0.2x", "''"}) {
        EXPECT_EQ(reportStatus(diff5 + " --threshold " + bad), 2) << bad;
        EXPECT_EQ(reportStatus(diff99 + " --threshold " + bad), 2) << bad;
    }
    EXPECT_EQ(reportStatus(diff5 + " --threshold"), 2);
}

TEST(Cli, ReportTakesCommandsNotFlagSpellings)
{
    if (toolPath("wslicer-report").empty())
        GTEST_SKIP() << "wslicer-report not built next to the tests";
    const std::string base = benchJson("base", 100);
    for (const char *spelling : {"--check", "--explain", "--slo"}) {
        const auto [status, out] =
            run(std::string(spelling) + " " + base, "wslicer-report");
        ASSERT_TRUE(WIFEXITED(status)) << spelling;
        EXPECT_EQ(WEXITSTATUS(status), 2) << spelling;
        EXPECT_NE(out.find("usage"), std::string::npos) << spelling;
    }
    EXPECT_EQ(reportStatus("--diff " + base + " " + base), 2);
    EXPECT_EQ(reportStatus("diff " + base + " " + base), 0);
}
