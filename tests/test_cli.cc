/**
 * @file
 * End-to-end smoke tests for the wslicer-sim command-line driver (and
 * wslicer-fuzz's option parsing), run as subprocesses. CTest executes
 * these from build/tests, so the tools live in ../tools.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>

#include <sys/wait.h>

namespace {

/** Locate a tool relative to common working directories. */
std::string
toolPath(const std::string &tool)
{
    for (const char *dir : {"../tools/", "build/tools/", "tools/"}) {
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

TEST(Cli, CsvOutputIsWritten)
{
    REQUIRE_CLI();
    const auto [status, out] =
        run("solo MM --cycles 3000 --csv /tmp/wsl_cli_test.csv");
    EXPECT_EQ(status, 0);
    std::ifstream csv("/tmp/wsl_cli_test.csv");
    ASSERT_TRUE(csv.good());
    std::string header;
    std::getline(csv, header);
    EXPECT_EQ(header, "metric,value");
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
    // abc" simulated 0 cycles and still reported every seed clean.
    for (const char *flags :
         {"--cycles abc", "--cycles 0", "--cadence 7q", "--seeds -1"}) {
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
 * Each `flags` use on each `commands` line must exit 2 with the usage
 * text before anything is simulated, leaving `out` unwritten.
 */
void
expectUsageErrors(std::initializer_list<const char *> commands,
                  std::initializer_list<const char *> flags)
{
    const std::string out = "/tmp/wsl_cli_unwritten.out";
    for (const char *command : commands) {
        for (const char *flag : flags) {
            std::remove(out.c_str());
            const std::string args =
                std::string(command) + " " + flag;
            const auto [status, text] = run(args);
            ASSERT_TRUE(WIFEXITED(status)) << args;
            EXPECT_EQ(WEXITSTATUS(status), 2) << args;
            EXPECT_NE(text.find("usage"), std::string::npos) << args;
            EXPECT_FALSE(std::ifstream(out).good()) << args;
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
        {"--timeline /tmp/wsl_cli_unwritten.out", "--stats-interval 1000",
         "--profile /tmp/wsl_cli_unwritten.out",
         "--snapshot /tmp/wsl_cli_unwritten.out", "--snapshot-at 1000",
         "--checkpoint-every 1000", "--restore /tmp/wsl_cli_unwritten.out"});
}

TEST(Cli, ServeOnlyFlagsAreRejectedElsewhere)
{
    REQUIRE_CLI();
    expectUsageErrors({"solo MM --cycles 2000", "corun MM BFS --window 2000",
                       "curves MM --cycles 2000"},
                      {"--slo /tmp/wsl_cli_unwritten.out"});
}

TEST(Cli, CorunOrServeFlagsAreRejectedElsewhere)
{
    REQUIRE_CLI();
    expectUsageErrors({"list", "solo MM --cycles 2000",
                       "curves MM --cycles 2000",
                       "combos IMG NN --window 2000"},
                      {"--decision-log /tmp/wsl_cli_unwritten.out",
                       "--manifest /tmp/wsl_cli_unwritten.out",
                       "--prom /tmp/wsl_cli_unwritten.out"});
}

TEST(Cli, TimelineNeedsStatsInterval)
{
    REQUIRE_CLI();
    // The timeline's events live in the telemetry sampler.
    expectUsageErrors({"corun MM BFS --window 2000"},
                      {"--timeline /tmp/wsl_cli_unwritten.out",
                       "--stats-interval 0 --timeline "
                       "/tmp/wsl_cli_unwritten.out"});
}

TEST(Cli, TraceFlagIsUnknown)
{
    REQUIRE_CLI();
    expectUsageErrors({"corun MM BFS --window 2000", "solo MM --cycles 2000"},
                      {"--trace /tmp/wsl_cli_unwritten.out"});
}
