/**
 * @file
 * Tests for the observability layer: the JSON document model and
 * parser, the counters' Prometheus writer, run manifests and the run
 * bundle checker, the result-diff rules (regression / threshold /
 * cross-host skip), the decision-log renderer, and the property the
 * whole subsystem promises: attaching the profiler and decision log
 * and writing the counters leaves the simulation bit-identical.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "core/policies.hh"
#include "core/waterfill.hh"
#include "gpu/gpu.hh"
#include "harness/runner.hh"
#include "obs/counters.hh"
#include "obs/decision_log.hh"
#include "obs/engine_profiler.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/report.hh"
#include "workloads/benchmarks.hh"

using namespace wsl;

namespace {

JsonValue
parsed(const std::string &text)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJson(text, doc, error)) << error;
    return doc;
}

std::string
dumped(const JsonValue &v)
{
    std::ostringstream os;
    v.write(os);
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------
// JSON document model and parser
// ---------------------------------------------------------------------

TEST(Json, RoundTripPreservesStructure)
{
    const std::string text =
        R"({"a":1,"b":[1,2.5,"x",true,null],"c":{"d":false}})";
    EXPECT_EQ(dumped(parsed(text)), text);
}

TEST(Json, IntegersPrintExactly)
{
    JsonValue v = JsonValue::makeNumber(10459735.0);
    EXPECT_EQ(v.dump(), "10459735");
    // Round-trips through the parser unchanged.
    EXPECT_EQ(parsed(v.dump()).asNumber(), 10459735.0);
}

TEST(Json, StringEscapes)
{
    const JsonValue doc = parsed(R"(["a\"b", "A", "\n\t\\"])");
    EXPECT_EQ(doc.items()[0].asString(), "a\"b");
    EXPECT_EQ(doc.items()[1].asString(), "A");
    EXPECT_EQ(doc.items()[2].asString(), "\n\t\\");
}

TEST(Json, WriterEscapesQuotesBackslashesAndControlCharacters)
{
    // jsonEscaped writes every string of a bundle's JSON files and
    // every Prometheus label value.
    const std::string raw = "a\"b\\c\r\x01";
    EXPECT_EQ(jsonEscaped(raw), "a\\\"b\\\\c\\r\\u0001");
    JsonValue doc = JsonValue::makeObject();
    doc.set("esc\"aped", JsonValue::makeString(raw));
    doc.set("v", JsonValue::makeString("back\\slash"));
    const std::string text = doc.dump();
    EXPECT_EQ(text, "{\"esc\\\"aped\":\"a\\\"b\\\\c\\r\\u0001\","
                    "\"v\":\"back\\\\slash\"}");
    // Raw control characters make the document invalid JSON.
    EXPECT_EQ(text.find('\r'), std::string::npos);
    EXPECT_EQ(text.find('\x01'), std::string::npos);
    const JsonValue back = parsed(text);
    EXPECT_EQ(back.stringOr("esc\"aped", ""), raw);
    EXPECT_EQ(back.stringOr("v", ""), "back\\slash");
}

TEST(Json, MalformedInputsRejectedWithOffsets)
{
    for (const char *bad : {"{", "[1,]", "{\"a\":}", "tru", "1 2",
                            "\"unterminated", "{\"a\" 1}", ""}) {
        JsonValue doc;
        std::string error;
        EXPECT_FALSE(parseJson(bad, doc, error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(Json, DepthLimitStopsRecursion)
{
    std::string deep(100, '[');
    deep += std::string(100, ']');
    JsonValue doc;
    std::string error;
    EXPECT_FALSE(parseJson(deep, doc, error));
    EXPECT_NE(error.find("deep"), std::string::npos);
}

TEST(Json, ObjectKeyOrderPreserved)
{
    JsonValue obj = JsonValue::makeObject();
    obj.set("zebra", JsonValue::makeNumber(1));
    obj.set("alpha", JsonValue::makeNumber(2));
    EXPECT_EQ(dumped(obj), R"({"zebra":1,"alpha":2})");
}

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

TEST(Counters, PromSafeName)
{
    EXPECT_EQ(promSafeName("sm.warp-insts"), "sm_warp_insts");
    EXPECT_EQ(promSafeName("2fast"), "_2fast");
    EXPECT_EQ(promSafeName(""), "_");
}

TEST(Counters, PrometheusGroupsFamiliesWithHeaders)
{
    const std::vector<MetricSample> samples = {
        {"wsl_ticks", {}, 7.0, "counter", "cycles ticked"},
        {"wsl_ipc", {}, 1.5, "gauge", "current ipc"},
        {"wsl_ticks", {{"sm", "1"}}, 3.0, "counter", ""},
    };
    std::ostringstream os;
    writePrometheus(os, samples);
    const std::string out = os.str();
    EXPECT_NE(out.find("# TYPE wsl_ticks counter\nwsl_ticks 7\n"
                       "wsl_ticks{sm=\"1\"} 3\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("# TYPE wsl_ipc gauge\nwsl_ipc 1.5\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("# HELP wsl_ticks cycles ticked"),
              std::string::npos);
}

TEST(Counters, ProfilerAppendsEngineAndInterconnectCounters)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.auditCadence = 500;
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(benchmark("MM"));
    EngineProfiler prof;
    gpu.attachEngineProfiler(&prof);
    gpu.run(2000);
    prof.harvest(gpu);

    std::vector<MetricSample> counters;
    appendStatsCounters(counters, gpu.collectStats());
    prof.appendCounters(counters);
    std::map<std::string, double> value;
    for (const MetricSample &s : counters)
        if (s.labels.empty())
            value[s.name] = s.value;
    EXPECT_EQ(value["wsl_cycles"], 2000.0);
    EXPECT_EQ(value["wsl_engine_ticks"], 2000.0);
    EXPECT_EQ(value["wsl_engine_sched_scans"],
              static_cast<double>(prof.schedulerScans()));
    EXPECT_GT(value["wsl_engine_sched_scans"], 0.0);
    EXPECT_EQ(value["wsl_engine_scan_memo_hits"],
              static_cast<double>(prof.scanMemoHits()));
    EXPECT_EQ(value["wsl_engine_audits"], 4.0);
    EXPECT_EQ(value["wsl_icnt_routed_requests"],
              static_cast<double>(gpu.interconnect().routedRequests()));
    EXPECT_GT(value["wsl_icnt_routed_requests"], 0.0);
    EXPECT_EQ(value["wsl_icnt_delivered_responses"],
              static_cast<double>(
                  gpu.interconnect().deliveredResponses()));
}

// ---------------------------------------------------------------------
// Run manifest
// ---------------------------------------------------------------------

TEST(Manifest, BuildProducesValidManifest)
{
    const std::vector<MetricSample> counters = {
        {"wsl_x", {}, 3.0, "counter", ""},
        {"wsl_phase_ns", {{"phase", "sm_compute"}}, 42.0, "counter", ""},
    };
    RunManifest m =
        buildRunManifest("test", GpuConfig::baseline(), counters, 1234);
    m.files = {"table.csv", "counters.prom"};
    std::ostringstream os;
    m.writeJson(os);
    const JsonValue doc = parsed(os.str());
    std::string error;
    EXPECT_TRUE(checkManifest(doc, error)) << error;
    EXPECT_EQ(doc.stringOr("schema", ""), "wslicer-manifest-v2");
    EXPECT_EQ(doc.stringOr("tool", ""), "test");
    EXPECT_EQ(doc.numberOr("simulated_cycles", 0), 1234.0);
    EXPECT_GE(doc.numberOr("hardware_threads", 0), 1.0);
    const JsonValue *files = doc.findArray("files");
    ASSERT_NE(files, nullptr);
    ASSERT_EQ(files->items().size(), 2u);
    EXPECT_EQ(files->items()[1].asString(), "counters.prom");
    const JsonValue *dump = doc.findObject("counters");
    ASSERT_NE(dump, nullptr);
    EXPECT_EQ(dump->numberOr("wsl_x", 0), 3.0);
    EXPECT_EQ(dump->numberOr("wsl_phase_ns.phase.sm_compute", 0), 42.0);
}

TEST(Manifest, CheckRejectsTamperedManifests)
{
    const RunManifest m =
        buildRunManifest("test", GpuConfig::baseline());
    std::ostringstream os;
    m.writeJson(os);
    const std::string good = os.str();

    struct Case
    {
        const char *from;
        const char *to;
        const char *expect;
    };
    const Case cases[] = {
        {"wslicer-manifest-v2", "wslicer-manifest-v9", "schema"},
        {"\"tool\"", "\"tool_\"", "tool"},
        {"\"hardware_threads\"", "\"hw\"", "hardware_threads"},
        {"\"files\"", "\"fls\"", "files"},
        {"\"files\":[]", "\"files\":[\"a/b.csv\"]", "files"},
        {"\"files\":[]", "\"files\":[\"manifest.json\"]", "files"},
        {"\"counters\"", "\"cntrs\"", "counters"},
    };
    for (const Case &c : cases) {
        std::string bad = good;
        const std::size_t at = bad.find(c.from);
        ASSERT_NE(at, std::string::npos) << c.from;
        bad.replace(at, std::string(c.from).size(), c.to);
        std::string error;
        EXPECT_FALSE(checkManifest(parsed(bad), error)) << c.from;
        EXPECT_NE(error.find(c.expect), std::string::npos) << error;
    }
}

// ---------------------------------------------------------------------
// Run bundle checker
// ---------------------------------------------------------------------

namespace {

/** A fresh, well-formed bundle in a temporary directory named after
 *  `name`: manifest.json listing table.csv, timeline.json,
 *  decisions.json and slo.json. */
std::string
bundleFixture(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / ("wsl_obs_bundle_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    RunManifest m = buildRunManifest("test", GpuConfig::baseline());
    m.files = {"table.csv", "timeline.json", "decisions.json", "slo.json"};
    std::ofstream(dir / "manifest.json") << [&] {
        std::ostringstream os;
        m.writeJson(os);
        return os.str();
    }();
    std::ofstream(dir / "table.csv") << "metric,value\n";
    std::ofstream(dir / "timeline.json") << "{}";
    std::ofstream(dir / "decisions.json")
        << R"({"schema":"wslicer-decisions-v1","decisions":[]})";
    std::ofstream(dir / "slo.json")
        << R"({"schema":"wslicer-serve-v1","classes":[]})";
    return dir.string();
}

/** checkBundle's verdict on `dir`, expecting a failure that names
 *  `file`. */
void
expectBundleRejected(const std::string &dir, const std::string &file)
{
    std::string error;
    EXPECT_FALSE(checkBundle(dir, error)) << file;
    EXPECT_NE(error.find(file), std::string::npos) << error;
    std::filesystem::remove_all(dir);
}

} // namespace

TEST(Bundle, CheckAcceptsAWellFormedBundle)
{
    const std::string dir = bundleFixture("good");
    std::string error;
    EXPECT_TRUE(checkBundle(dir, error)) << error;
    std::filesystem::remove_all(dir);
}

TEST(Bundle, CheckRejectsAMalformedManifest)
{
    const std::string dir = bundleFixture("manifest");
    std::stringstream text;
    text << std::ifstream(dir + "/manifest.json").rdbuf();
    std::string manifest = text.str();
    const std::size_t at = manifest.find("wslicer-manifest-v2");
    ASSERT_NE(at, std::string::npos);
    std::ofstream(dir + "/manifest.json")
        << manifest.replace(at, 19, "wslicer-manifest-v9");
    expectBundleRejected(dir, "manifest.json");
}

TEST(Bundle, CheckRejectsAMissingListedFile)
{
    const std::string dir = bundleFixture("missing");
    std::filesystem::remove(dir + "/table.csv");
    expectBundleRejected(dir, "table.csv");
}

TEST(Bundle, CheckRejectsAnUnlistedFile)
{
    const std::string dir = bundleFixture("unlisted");
    std::ofstream(dir + "/stray.json") << "{}";
    expectBundleRejected(dir, "stray.json");
}

TEST(Bundle, CheckRejectsJsonThatDoesNotParse)
{
    const std::string dir = bundleFixture("parse");
    std::ofstream(dir + "/timeline.json") << R"({"traceEvents":[})";
    expectBundleRejected(dir, "timeline.json");
}

TEST(Bundle, CheckRejectsDecisionsExplainCannotRender)
{
    const std::string dir = bundleFixture("decisions");
    std::ofstream(dir + "/decisions.json")
        << R"({"schema":"wslicer-decisions-v1"})";
    expectBundleRejected(dir, "decisions.json");
}

TEST(Bundle, CheckRejectsSloReportsSloCannotRender)
{
    const std::string dir = bundleFixture("slo");
    std::ofstream(dir + "/slo.json") << R"({"schema":"wslicer-serve-v1"})";
    expectBundleRejected(dir, "slo.json");
}

// ---------------------------------------------------------------------
// Result diffing (the CI gate)
// ---------------------------------------------------------------------

TEST(Diff, CleanPairExitsZero)
{
    const JsonValue base = parsed(
        R"({"hardware_threads":4,"serial_mcycles_per_sec":1.0,"identical":true})");
    const JsonValue fresh = parsed(
        R"({"hardware_threads":4,"serial_mcycles_per_sec":0.9,"identical":true})");
    const DiffResult diff = diffResults(base, fresh);
    EXPECT_FALSE(diff.anyRegression());
    EXPECT_EQ(diff.exitCode(), 0);
}

TEST(Diff, ThroughputDropBeyondThresholdRegresses)
{
    const JsonValue base =
        parsed(R"({"hardware_threads":4,"serial_mcycles_per_sec":1.0})");
    const JsonValue fresh =
        parsed(R"({"hardware_threads":4,"serial_mcycles_per_sec":0.7})");
    const DiffResult diff = diffResults(base, fresh);
    EXPECT_TRUE(diff.anyRegression());
    EXPECT_EQ(diff.exitCode(), 1);
    // A looser threshold accepts the same pair.
    EXPECT_EQ(diffResults(base, fresh, 0.5).exitCode(), 0);
}

TEST(Diff, IdentityFlagFlipRegresses)
{
    const JsonValue base =
        parsed(R"({"hardware_threads":4,"identical":true})");
    const JsonValue fresh =
        parsed(R"({"hardware_threads":4,"identical":false})");
    EXPECT_EQ(diffResults(base, fresh).exitCode(), 1);
    // false -> true is an improvement, not a regression.
    EXPECT_EQ(diffResults(fresh, base).exitCode(), 0);
}

TEST(Diff, NonThroughputCountersNeverRegress)
{
    const JsonValue base =
        parsed(R"({"hardware_threads":4,"l2_misses":100})");
    const JsonValue fresh =
        parsed(R"({"hardware_threads":4,"l2_misses":9000})");
    EXPECT_EQ(diffResults(base, fresh).exitCode(), 0);
}

TEST(Diff, ThreadSensitiveKeysSkippedAcrossHosts)
{
    // The PR 5 trap: a tick_speedup recorded on a 1-thread box says
    // nothing about an 8-thread runner. Same pair, same drop — gated
    // when the hosts match, skipped when they differ.
    const JsonValue base = parsed(
        R"({"hardware_threads":1,"tick_speedup":1.0})");
    const JsonValue fresh_same_host = parsed(
        R"({"hardware_threads":1,"tick_speedup":0.17})");
    EXPECT_EQ(diffResults(base, fresh_same_host).exitCode(), 1);

    const JsonValue fresh_other_host = parsed(
        R"({"hardware_threads":8,"tick_speedup":0.17})");
    const DiffResult skipped = diffResults(base, fresh_other_host);
    EXPECT_EQ(skipped.exitCode(), 0);
    bool found = false;
    for (const DiffResult::Line &line : skipped.lines)
        if (line.key == "tick_speedup") {
            EXPECT_TRUE(line.skipped);
            found = true;
        }
    EXPECT_TRUE(found);
}

TEST(Diff, NestedKeysFlattenAndMissingKeysAreInformational)
{
    const JsonValue base = parsed(
        R"({"workloads":{"compute":{"cycles_per_sec_skip":100}},"gone":1})");
    const JsonValue fresh = parsed(
        R"({"workloads":{"compute":{"cycles_per_sec_skip":50}},"new":2})");
    const DiffResult diff = diffResults(base, fresh);
    EXPECT_EQ(diff.exitCode(), 1);
    ASSERT_EQ(diff.lines.size(), 1u);
    EXPECT_EQ(diff.lines[0].key,
              "workloads.compute.cycles_per_sec_skip");
    ASSERT_EQ(diff.onlyBase.size(), 1u);
    EXPECT_EQ(diff.onlyBase[0], "gone");
    ASSERT_EQ(diff.onlyFresh.size(), 1u);
    EXPECT_EQ(diff.onlyFresh[0], "new");
}

TEST(Diff, MalformedInputsExitTwo)
{
    const JsonValue good =
        parsed(R"({"hardware_threads":4,"x_per_sec":1.0})");
    EXPECT_EQ(diffResults(good, parsed("[1,2,3]")).exitCode(), 2);
    EXPECT_EQ(diffResults(parsed(R"({"a":"strings only"})"), good)
                  .exitCode(),
              2);
    // A document claiming to be a manifest must validate as one.
    const JsonValue fake_manifest =
        parsed(R"({"schema":"wslicer-manifest-v2","x":1})");
    EXPECT_EQ(diffResults(good, fake_manifest).exitCode(), 2);
}

// ---------------------------------------------------------------------
// Water-filling step trace
// ---------------------------------------------------------------------

TEST(WaterFillSteps, RecordsAcceptedAndRefusedRaises)
{
    // Two kernels, tight bandwidth: some raise must be refused.
    KernelDemand a;
    a.perCta = ResourceVec::ofCta(benchmark("MM"));
    a.perf = {0.2, 0.4, 0.6, 0.7};
    a.bwCurve = {0.1, 0.2, 0.3, 0.4};
    KernelDemand b = a;
    const WaterFillResult r = waterFill(
        {a, b}, ResourceVec::capacity(GpuConfig::baseline()), 0.35);
    ASSERT_TRUE(r.feasible);
    ASSERT_FALSE(r.steps.empty());
    bool any_accepted = false, any_refused = false;
    for (const WaterFillStep &s : r.steps) {
        EXPECT_GE(s.kernel, 0);
        EXPECT_LT(s.kernel, 2);
        EXPECT_GT(s.ctasAfter, 0);
        if (s.accepted)
            any_accepted = true;
        else {
            any_refused = true;
            EXPECT_STRNE(s.reason, "ok");
        }
    }
    EXPECT_TRUE(any_accepted);
    EXPECT_TRUE(any_refused);
    // The oracle path records no iteration.
    EXPECT_TRUE(exhaustiveSweetSpot(
                    {a, b},
                    ResourceVec::capacity(GpuConfig::baseline()))
                    .steps.empty());
}

// ---------------------------------------------------------------------
// Bit-identity and decision-log determinism (simulation-backed)
// ---------------------------------------------------------------------

namespace {

struct ObservedRun
{
    CoRunResult result;
    std::string decisionJson;
};

/** A small MM+LBM co-run under the Dynamic policy with everything
 *  observable attached (or nothing, when `observed` is false). */
ObservedRun
smallCoRun(bool observed)
{
    const GpuConfig cfg = GpuConfig::baseline();
    const Cycle window = 6000;
    Characterization chars(cfg, window);

    std::vector<KernelParams> apps = {benchmark("MM"),
                                      benchmark("LBM")};
    std::vector<std::uint64_t> targets = {chars.target("MM"),
                                          chars.target("LBM")};
    CoRunOptions co;
    co.slicer = scaledSlicerOptions(window);

    EngineProfiler profiler;
    DecisionLog decisions;
    if (observed) {
        co.profiler = &profiler;
        co.decisionLog = &decisions;
    }
    ObservedRun run;
    run.result =
        runCoSchedule(apps, targets, PolicyKind::Dynamic, cfg, co);
    if (observed) {
        // Writing the counters is part of the perturbation test.
        std::vector<MetricSample> counters;
        appendStatsCounters(counters, run.result.stats);
        profiler.appendCounters(counters);
        appendHarnessCounters(counters);
        std::ostringstream prom, dec;
        writePrometheus(prom, counters);
        EXPECT_FALSE(prom.str().empty());
        decisions.writeJson(dec);
        run.decisionJson = dec.str();
    }
    return run;
}

void
expectStatsEqual(const GpuStats &a, const GpuStats &b)
{
    SmStats::forEachField([&](const char *name, auto member) {
        EXPECT_EQ(a.*member, b.*member) << "SmStats field " << name;
    });
    PartitionStats::forEachField([&](const char *name, auto member) {
        EXPECT_EQ(a.*member, b.*member)
            << "PartitionStats field " << name;
    });
}

} // namespace

TEST(ObsIdentity, ProfilerCountersAndLogDoNotPerturbSimulation)
{
    const ObservedRun off = smallCoRun(false);
    const ObservedRun on = smallCoRun(true);
    EXPECT_EQ(off.result.makespan, on.result.makespan);
    EXPECT_EQ(off.result.sysIpc, on.result.sysIpc);
    EXPECT_EQ(off.result.chosenCtas, on.result.chosenCtas);
    expectStatsEqual(off.result.stats, on.result.stats);
}

TEST(ObsProfiler, CountsEveryCycleAsATick)
{
    Gpu gpu(GpuConfig::baseline(), std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(benchmark("MM"));
    EngineProfiler prof;
    gpu.attachEngineProfiler(&prof);
    gpu.run(3000);
    prof.harvest(gpu);

    EXPECT_EQ(gpu.cycle(), 3000u);
    EXPECT_EQ(prof.ticks(), gpu.cycle());
    EXPECT_GT(prof.schedulerScans(), 0u);
    EXPECT_GT(prof.phaseNs(EpochPhase::SmCompute), 0u);
}

TEST(ObsDecisionLog, RendererExplainsTheRecordedDecision)
{
    const ObservedRun run = smallCoRun(true);
    const JsonValue doc = parsed(run.decisionJson);
    EXPECT_EQ(doc.stringOr("schema", ""), "wslicer-decisions-v1");
    std::ostringstream os;
    std::string error;
    ASSERT_TRUE(renderDecisionLog(doc, os, error)) << error;
    const std::string text = os.str();
    EXPECT_NE(text.find("decision 0"), std::string::npos);
    EXPECT_NE(text.find("water-filling steps"), std::string::npos);
    EXPECT_NE(text.find("predicted IPC"), std::string::npos);

    std::string render_error;
    EXPECT_FALSE(renderDecisionLog(parsed(R"({"schema":"nope"})"), os,
                                   render_error));
}
