/**
 * @file
 * Golden simulated results. Every other identity test compares two
 * runs of the same build; this one pins absolute numbers, so a change
 * that moves every run alike still fails here.
 *
 * The table holds one line per job:
 *   - the 30 evaluation pairs under LeftOver and Dynamic,
 *   - the first Figure 8 triple under Even and Dynamic,
 *   - one datacenter-preset MM+LBM Dynamic co-run,
 *   - one short clean serving run,
 *   - `lrr:` the 30 pairs under Dynamic with the LRR scheduler,
 *   - `telem:` the 30 pairs under Dynamic with a telemetry sampler
 *     attached (1 000-cycle interval), which switches on per-kernel
 *     stall attribution,
 *   - `telem-lrr:` the same under the LRR scheduler,
 * all at a 10 000-cycle characterization window, and
 *   - `snap:` nine mid-run machine states under every policy, each
 *     pinned by the byte count and byte-wise FNV-1a hash of its
 *     saveSnapshot bytes, so the snapshot layout cannot drift (each
 *     must also restore into a fresh machine that saves it back
 *     byte for byte).
 *
 * A co-run line records the makespan, the bits of sysIpc, the chosen
 * CTAs and an FNV-1a hash of every stats counter (kernel_stalls and
 * unattributed_stalls included); a telemetry line adds `csv=`, the
 * byte-wise FNV-1a hash of the sampler's CSV. The serve line hashes
 * each job's outcome, finish cycle and completed instructions.
 *
 * The test writes the table it computed to golden_results.txt next to
 * its binary and compares it with tests/golden/results.txt. A change
 * that is meant to move simulated results regenerates the file by
 * copying the written table over the checked-in one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/policies.hh"
#include "core/warped_slicer.hh"
#include "harness/runner.hh"
#include "obs/decision_log.hh"
#include "serve/engine.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/telemetry.hh"
#include "workloads/benchmarks.hh"

using namespace wsl;

namespace {

constexpr Cycle kWindow = 10000;
constexpr unsigned kWorkers = 4;

/** 64-bit FNV-1a over little-endian 8-byte words. */
class Fnv1a
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    template <typename T, std::size_t N>
    void
    add(const std::array<T, N> &values)
    {
        for (const T &v : values)
            add(v);
    }

    template <typename Bytes>
    void
    addBytes(const Bytes &bytes)
    {
        for (const unsigned char c : bytes) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
statsHash(const GpuStats &stats)
{
    Fnv1a h;
    SmStats::forEachField(
        [&](const char *, auto member) { h.add(stats.*member); });
    PartitionStats::forEachField(
        [&](const char *, auto member) { h.add(stats.*member); });
    return h.value();
}

std::string
coRunLine(const std::string &label, const CoRunResult &r)
{
    std::uint64_t ipc_bits = 0;
    static_assert(sizeof ipc_bits == sizeof r.sysIpc);
    std::memcpy(&ipc_bits, &r.sysIpc, sizeof ipc_bits);
    std::string ctas;
    for (const int c : r.chosenCtas)
        ctas += (ctas.empty() ? "" : ",") + std::to_string(c);
    std::ostringstream os;
    os << "job=" << label << " makespan=" << r.makespan
       << " sys_ipc=" << hex(ipc_bits)
       << " ctas=" << (ctas.empty() ? "-" : ctas)
       << " stats=" << hex(statsHash(r.stats));
    return os.str();
}

std::string
serveLine(const std::string &label, const ServeResult &r)
{
    Fnv1a h;
    for (const ServeJob &job : r.jobs) {
        h.add(static_cast<std::uint64_t>(job.outcome));
        h.add(job.finishCycle);
        h.add(job.doneInsts);
    }
    std::ostringstream os;
    os << "job=" << label << " jobs=" << r.jobs.size()
       << " end_cycle=" << r.endCycle
       << " thread_insts=" << r.threadInsts
       << " outcomes=" << hex(h.value());
    return os.str();
}

std::string
joined(const std::vector<std::string> &apps)
{
    std::string s;
    for (const std::string &a : apps)
        s += (s.empty() ? "" : "+") + a;
    return s;
}

/**
 * Run one batch on `kWorkers` workers and append a line per job. With
 * `telemetry`, every job gets its own sampler and its line adds the
 * hash of that sampler's CSV.
 */
void
appendBatch(std::vector<std::string> &lines, const std::string &prefix,
            const GpuConfig &cfg, std::vector<CoRunJob> batch,
            bool telemetry = false)
{
    std::vector<TelemetrySampler> samplers;
    if (telemetry) {
        samplers.reserve(batch.size());  // keeps the pointers stable
        for (CoRunJob &j : batch) {
            samplers.emplace_back(TelemetryConfig{1000, 4096});
            j.opts.telemetry = &samplers.back();
        }
    }
    Characterization chars(cfg, kWindow);
    const std::vector<CoRunResult> results =
        runCoScheduleBatch(chars, batch, kWorkers);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::string label = prefix + joined(batch[i].apps) + "/" +
                                  policyName(batch[i].kind);
        EXPECT_FALSE(results[i].error.failed)
            << label << ": " << results[i].error.message;
        std::string line = coRunLine(label, results[i]);
        if (telemetry) {
            std::ostringstream csv;
            samplers[i].writeCsv(csv);
            Fnv1a h;
            h.addBytes(csv.str());
            line += " csv=" + hex(h.value());
        }
        lines.push_back(line);
    }
}

using PolicyFactory = std::function<std::unique_ptr<SlicingPolicy>()>;

/**
 * Launch `apps` on a fresh machine, run it to cycle `at` and pin the
 * snapshot taken there. The snapshot must also restore into a second
 * fresh machine that saves it back byte for byte. With `logged`, the
 * policy must be Dynamic and each machine gets a decision log, so the
 * snapshot carries (and the restore replays) its entries.
 */
std::string
snapLine(const std::string &label, const GpuConfig &cfg,
         const PolicyFactory &policy, const std::vector<std::string> &apps,
         Cycle at, bool logged = false)
{
    DecisionLog logs[2];
    auto machine = [&](DecisionLog &log) {
        std::unique_ptr<SlicingPolicy> p = policy();
        if (logged)
            dynamic_cast<WarpedSlicerPolicy &>(*p).attachDecisionLog(&log);
        return std::make_unique<Gpu>(cfg, std::move(p));
    };
    std::unique_ptr<Gpu> gpu = machine(logs[0]);
    for (const std::string &app : apps)
        gpu->launchKernel(benchmark(app), 50'000'000);
    gpu->run(at);
    const std::vector<std::uint8_t> bytes = saveSnapshot(*gpu);

    std::unique_ptr<Gpu> restored = machine(logs[1]);
    restoreSnapshot(*restored, bytes);
    EXPECT_TRUE(saveSnapshot(*restored) == bytes)
        << label << ": restore did not round-trip";
    if (logged) {
        EXPECT_EQ(logs[0].entries().size(), 2u) << label;
        EXPECT_EQ(logs[1].entries().size(), 2u) << label;
    }

    Fnv1a h;
    h.addBytes(bytes);
    std::ostringstream os;
    os << "job=snap:" << label << "+" << joined(apps) << "@" << at
       << " bytes=" << bytes.size() << " fnv=" << hex(h.value());
    return os.str();
}

void
appendSnapshots(std::vector<std::string> &lines)
{
    const GpuConfig base = GpuConfig::baseline();
    GpuConfig lrr = base;
    lrr.scheduler = SchedulerKind::Lrr;
    GpuConfig audited = base;
    audited.auditCadence = 500;
    const PolicyFactory left_over = [] {
        return std::make_unique<LeftOverPolicy>();
    };
    const PolicyFactory dynamic = [] {
        return std::make_unique<WarpedSlicerPolicy>(
            scaledSlicerOptions(20000));
    };

    lines.push_back(
        snapLine("LeftOver", base, left_over, {"MM", "LBM"}, 7000));
    lines.push_back(snapLine(
        "lrr/Even", lrr, [] { return std::make_unique<EvenPolicy>(); },
        {"BFS", "LBM"}, 9000));
    lines.push_back(snapLine(
        "Spatial", base, [] { return std::make_unique<SpatialPolicy>(); },
        {"IMG", "NN"}, 6000));
    lines.push_back(snapLine("Dynamic+log", base, dynamic, {"MM", "LBM"},
                             30000, true));
    lines.push_back(
        snapLine("Dynamic", base, dynamic, {"DXT", "MVP"}, 25000));
    lines.push_back(snapLine(
        "FixedQuota", base,
        [] {
            return std::make_unique<FixedQuotaPolicy>(
                std::vector<int>{3, 2});
        },
        {"HOT", "BLK"}, 8000));
    lines.push_back(snapLine(
        "TimeSlice", base,
        [] { return std::make_unique<TimeSlicePolicy>(3000); },
        {"KNN", "MM"}, 8000));
    lines.push_back(snapLine("audited/Dynamic", audited, dynamic,
                             {"IMG", "NN"}, 12000));
    lines.push_back(snapLine("dc:LeftOver", GpuConfig::datacenter(),
                             left_over, {"MM", "LBM"}, 4000));
}

CoRunJob
job(std::vector<std::string> apps, PolicyKind kind)
{
    CoRunJob j;
    j.apps = std::move(apps);
    j.kind = kind;
    if (kind == PolicyKind::Dynamic)
        j.opts.slicer = scaledSlicerOptions(kWindow);
    return j;
}

std::vector<std::string>
computeTable()
{
    std::vector<std::string> lines;

    std::vector<CoRunJob> baseline;
    for (const WorkloadPair &pair : evaluationPairs())
        for (PolicyKind kind : {PolicyKind::LeftOver, PolicyKind::Dynamic})
            baseline.push_back(job({pair.first, pair.second}, kind));
    const std::vector<std::string> triple = evaluationTriples().front();
    for (PolicyKind kind : {PolicyKind::Even, PolicyKind::Dynamic})
        baseline.push_back(job(triple, kind));
    appendBatch(lines, "", GpuConfig::baseline(), baseline);

    appendBatch(lines, "dc:", GpuConfig::datacenter(),
                {job({"MM", "LBM"}, PolicyKind::Dynamic)});

    ServeOptions so;
    so.window = kWindow;
    so.seed = 7;
    const ServeResult served = runServe(resolveServeOptions(so));
    EXPECT_EQ(served.invariantViolations, 0u);
    lines.push_back(serveLine("serve:seed7", served));

    // The scheduler's scan order and its telemetry-only stall
    // attribution, which the blocks above never exercise.
    std::vector<CoRunJob> dynamic;
    for (const WorkloadPair &pair : evaluationPairs())
        dynamic.push_back(job({pair.first, pair.second}, PolicyKind::Dynamic));
    GpuConfig lrr = GpuConfig::baseline();
    lrr.scheduler = SchedulerKind::Lrr;
    appendBatch(lines, "lrr:", lrr, dynamic);
    appendBatch(lines, "telem:", GpuConfig::baseline(), dynamic, true);
    appendBatch(lines, "telem-lrr:", lrr, dynamic, true);
    appendSnapshots(lines);
    return lines;
}

/** Split "k=v k=v ..." into its tokens. */
std::vector<std::string>
fields(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream is(line);
    for (std::string tok; is >> tok;)
        out.push_back(tok);
    return out;
}

/** "job X: field F expected E, got A" for the first differing field. */
std::string
describeMismatch(const std::string &expected, const std::string &actual)
{
    const std::vector<std::string> e = fields(expected);
    const std::vector<std::string> a = fields(actual);
    const std::string job = e.empty() ? "?" : e.front();
    for (std::size_t i = 0; i < std::max(e.size(), a.size()); ++i) {
        const std::string ef = i < e.size() ? e[i] : "<missing>";
        const std::string af = i < a.size() ? a[i] : "<missing>";
        if (ef != af)
            return job + ": field " + ef.substr(0, ef.find('=')) +
                   " expected '" + ef + "', got '" + af + "'";
    }
    return job + ": lines differ";
}

} // namespace

TEST(Golden, SimulatedResultsMatchTheCheckedInTable)
{
    const std::vector<std::string> actual = computeTable();

    std::ofstream out(WSL_GOLDEN_ACTUAL);
    for (const std::string &line : actual)
        out << line << '\n';
    out.close();
    ASSERT_TRUE(out) << "cannot write " << WSL_GOLDEN_ACTUAL;

    std::ifstream in(WSL_GOLDEN_EXPECTED);
    ASSERT_TRUE(in) << "cannot read " << WSL_GOLDEN_EXPECTED;
    std::vector<std::string> expected;
    for (std::string line; std::getline(in, line);)
        expected.push_back(line);

    for (std::size_t i = 0; i < std::min(expected.size(), actual.size());
         ++i) {
        ASSERT_EQ(expected[i], actual[i])
            << "first mismatch at line " << i + 1 << ", "
            << describeMismatch(expected[i], actual[i])
            << "\n(actual table: " << WSL_GOLDEN_ACTUAL << ")";
    }
    ASSERT_EQ(expected.size(), actual.size())
        << "golden table has " << expected.size() << " jobs, this run "
        << actual.size() << "\n(actual table: " << WSL_GOLDEN_ACTUAL
        << ")";
}
