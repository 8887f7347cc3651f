#include "telemetry/telemetry.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "report/table.hh"

namespace wsl {

void
TelemetrySampler::bind(const Gpu &gpu)
{
    if (!enabled())
        return;
    gcfg = gpu.config();
    prevSm.resize(gpu.numSms());
    prevPart.resize(gpu.numPartitions());
    for (unsigned i = 0; i < gpu.numSms(); ++i)
        prevSm[i] = gpu.sm(i).stats();
    for (unsigned i = 0; i < gpu.numPartitions(); ++i)
        prevPart[i] = gpu.partition(i).stats();
    lastSampleCycle = gpu.cycle();
    nextAt = gpu.cycle() + sampleStride;
    bound = true;
    for (std::size_t k = 0; k < gpu.numKernels(); ++k)
        recordLaunch(gpu.kernel(static_cast<KernelId>(k)));
}

void
TelemetrySampler::recordLaunch(const KernelInstance &k)
{
    if (names.size() <= static_cast<std::size_t>(k.id))
        names.resize(k.id + 1);
    names[k.id] = k.params.name;
    record(k.launchCycle, SimEvent::KernelLaunch, k.id, k.params.gridDim);
}

void
TelemetrySampler::recordDecision(Cycle cycle, const std::vector<int> &ctas,
                                 bool spatial)
{
    record(cycle, SimEvent::Decision, invalidKernel, 0, spatial ? 1 : 0);
    for (std::size_t i = 0; i < ctas.size() && i < maxConcurrentKernels;
         ++i)
        log.back().quotas[i] = static_cast<std::uint16_t>(ctas[i]);
}

const std::string &
TelemetrySampler::kernelName(KernelId kid) const
{
    static const std::string none;
    if (kid < 0 || static_cast<std::size_t>(kid) >= names.size())
        return none;
    return names[kid];
}

void
TelemetrySampler::finish(const Gpu &gpu)
{
    if (bound && gpu.cycle() > lastSampleCycle)
        capture(gpu);
}

void
TelemetrySampler::capture(const Gpu &gpu)
{
    const Cycle end = gpu.cycle();
    TelemetryInterval iv;
    iv.start = lastSampleCycle;
    iv.end = end;
    iv.sms.resize(prevSm.size());
    iv.parts.resize(prevPart.size());

    for (unsigned i = 0; i < gpu.numSms(); ++i) {
        iv.sms[i] = gpu.sm(i).stats();
        subtractStats<SmStats>(iv.sms[i], prevSm[i]);
        accumulateStats<SmStats>(iv.gpu, iv.sms[i]);
        prevSm[i] = gpu.sm(i).stats();
    }
    for (unsigned i = 0; i < gpu.numPartitions(); ++i) {
        iv.parts[i] = gpu.partition(i).stats();
        subtractStats<PartitionStats>(iv.parts[i], prevPart[i]);
        accumulateStats<PartitionStats>(iv.gpu, iv.parts[i]);
        prevPart[i] = gpu.partition(i).stats();
    }
    // The per-SM sum of ticked cycles is not the wall clock; the
    // interval length is.
    iv.gpu.cycles = end - iv.start;

    const std::size_t nk =
        std::min<std::size_t>(gpu.numKernels(), maxConcurrentKernels);
    kernelsSeen = std::max(kernelsSeen, nk);
    for (std::size_t k = 0; k < nk; ++k) {
        const KernelId kid = static_cast<KernelId>(k);
        iv.quotas[k] = gpu.sm(0).quota(kid);
        unsigned total = 0;
        for (unsigned s = 0; s < gpu.numSms(); ++s)
            total += gpu.sm(s).residentCtas(kid);
        iv.residentCtas[k] = total;
    }

    series.push_back(std::move(iv));
    if (series.size() >= conf.maxIntervals)
        compact();

    lastSampleCycle = end;
    nextAt = end + sampleStride;
}

void
TelemetrySampler::compact()
{
    std::vector<TelemetryInterval> merged;
    merged.reserve(series.size() / 2 + 1);
    for (std::size_t i = 0; i + 1 < series.size(); i += 2) {
        TelemetryInterval iv = std::move(series[i]);
        const TelemetryInterval &b = series[i + 1];
        iv.end = b.end;
        accumulateStats<SmStats>(iv.gpu, b.gpu);
        accumulateStats<PartitionStats>(iv.gpu, b.gpu);
        for (std::size_t s = 0; s < iv.sms.size(); ++s)
            accumulateStats<SmStats>(iv.sms[s], b.sms[s]);
        for (std::size_t p = 0; p < iv.parts.size(); ++p)
            accumulateStats<PartitionStats>(iv.parts[p], b.parts[p]);
        // End-of-interval samples: the later interval's values win.
        iv.quotas = b.quotas;
        iv.residentCtas = b.residentCtas;
        merged.push_back(std::move(iv));
    }
    if (series.size() % 2)
        merged.push_back(std::move(series.back()));
    series = std::move(merged);
    sampleStride *= 2;
    ++numCompactions;
}

namespace {

std::string
ratio(std::uint64_t num, std::uint64_t den)
{
    if (den == 0)
        return "0.000";
    return Table::num(static_cast<double>(num) /
                      static_cast<double>(den));
}

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

} // namespace

Table
TelemetrySampler::toTable() const
{
    std::vector<std::string> cols = {
        "interval", "scope",       "start",
        "end",      "cycles",      "warp_insts",
        "thread_insts", "ipc",     "l1_miss_rate",
        "l2_miss_rate", "dram_row_hit_rate", "occupancy",
    };
    for (unsigned k = 0; k < numStallKinds; ++k)
        cols.push_back(std::string("stall_") +
                       stallKindName(static_cast<StallKind>(k)));
    for (std::size_t k = 0; k < kernelsSeen; ++k) {
        const std::string p = "k" + std::to_string(k) + "_";
        cols.push_back(p + "warp_insts");
        cols.push_back(p + "quota");
        cols.push_back(p + "ctas");
    }
    Table t(cols);

    const std::uint64_t thr_cap = gcfg.maxThreadsPerSm;
    for (std::size_t i = 0; i < series.size(); ++i) {
        const TelemetryInterval &iv = series[i];
        const std::uint64_t len = iv.end - iv.start;

        // Whole-GPU row.
        {
            std::vector<std::string> row = {
                u64(i),
                "gpu",
                u64(iv.start),
                u64(iv.end),
                u64(len),
                u64(iv.gpu.warpInstsIssued),
                u64(iv.gpu.threadInstsIssued),
                ratio(iv.gpu.warpInstsIssued, len),
                ratio(iv.gpu.l1Misses, iv.gpu.l1Accesses),
                ratio(iv.gpu.l2Misses, iv.gpu.l2Accesses),
                ratio(iv.gpu.dramRowHits,
                      iv.gpu.dramRowHits + iv.gpu.dramRowMisses),
                ratio(iv.gpu.threadsAllocatedIntegral,
                      len * prevSm.size() * thr_cap),
            };
            for (unsigned k = 0; k < numStallKinds; ++k)
                row.push_back(u64(iv.gpu.stalls[k]));
            for (std::size_t k = 0; k < kernelsSeen; ++k) {
                row.push_back(u64(iv.gpu.kernelWarpInsts[k]));
                row.push_back(std::to_string(iv.quotas[k]));
                row.push_back(u64(iv.residentCtas[k]));
            }
            t.addRow(std::move(row));
        }

        // Per-SM rows (no L2/DRAM or quota detail at this scope).
        for (std::size_t s = 0; s < iv.sms.size(); ++s) {
            const SmStats &sm = iv.sms[s];
            std::vector<std::string> row = {
                u64(i),
                "sm" + std::to_string(s),
                u64(iv.start),
                u64(iv.end),
                u64(sm.cycles),
                u64(sm.warpInstsIssued),
                u64(sm.threadInstsIssued),
                ratio(sm.warpInstsIssued, sm.cycles),
                ratio(sm.l1Misses, sm.l1Accesses),
                "",
                "",
                ratio(sm.threadsAllocatedIntegral, sm.cycles * thr_cap),
            };
            for (unsigned k = 0; k < numStallKinds; ++k)
                row.push_back(u64(sm.stalls[k]));
            for (std::size_t k = 0; k < kernelsSeen; ++k) {
                row.push_back(u64(sm.kernelWarpInsts[k]));
                row.push_back("");
                row.push_back("");
            }
            t.addRow(std::move(row));
        }

        // Per-partition rows.
        for (std::size_t p = 0; p < iv.parts.size(); ++p) {
            const PartitionStats &pt = iv.parts[p];
            std::vector<std::string> row = {
                u64(i),
                "part" + std::to_string(p),
                u64(iv.start),
                u64(iv.end),
                u64(len),
                "",
                "",
                "",
                "",
                ratio(pt.l2Misses, pt.l2Accesses),
                ratio(pt.dramRowHits,
                      pt.dramRowHits + pt.dramRowMisses),
                "",
            };
            for (unsigned k = 0; k < numStallKinds; ++k)
                row.push_back("");
            for (std::size_t k = 0; k < kernelsSeen; ++k) {
                row.push_back("");
                row.push_back("");
                row.push_back("");
            }
            t.addRow(std::move(row));
        }
    }
    return t;
}

void
TelemetrySampler::writeCsv(std::ostream &os) const
{
    toTable().writeCsv(os);
}

} // namespace wsl
