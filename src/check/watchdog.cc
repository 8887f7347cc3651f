#include "check/watchdog.hh"

#include <sstream>

#include "check/access.hh"
#include "gpu/gpu.hh"
#include "isa/opcode.hh"
#include "report/table.hh"

namespace wsl {

namespace {

/** Cap on per-warp detail lines per SM (the rest are summarized). */
constexpr unsigned maxWarpLines = 8;

std::uint32_t
regBit(int reg)
{
    return reg >= 0 ? (std::uint32_t{1} << (reg & 31)) : 0u;
}

/**
 * Why this warp is not issuing, tested in the order the scheduler scan
 * charges stalls (barrier, empty i-buffer, long- then short-latency
 * scoreboard), and telling a pending fetch apart from an idle one.
 */
const char *
stallReason(const WarpHot &h, const WarpState &w)
{
    if (h.atBarrier)
        return "barrier";
    if (h.ibuf == 0)
        return w.fetchPending ? "ifetch-pending" : "ibuffer-empty";
    const Instruction &inst = h.program->body[h.pc];
    const std::uint32_t touched = regBit(inst.src0) | regBit(inst.src1) |
                                  regBit(inst.src2) | regBit(inst.dst);
    if (touched & h.pendingLong)
        return "mem-wait";
    if (touched & h.pendingShort)
        return "short-raw";
    return "exec-ready";
}

} // namespace

std::string
buildDeadlockReport(const Gpu &gpu, Cycle stalled_for)
{
    std::ostringstream os;
    os << "=== deadlock report: no progress for " << stalled_for
       << " cycles at cycle " << gpu.cycle() << " ===\n";

    os << "kernels:\n";
    for (std::size_t k = 0; k < gpu.numKernels(); ++k) {
        const KernelInstance &kern = gpu.kernel(static_cast<KernelId>(k));
        os << "  k" << k << " '" << kern.params.name << "'"
           << (kern.done ? (kern.halted ? " halted" : " done") : "")
           << " ctas " << kern.ctasCompleted << "/" << kern.nextCta
           << " issued of " << kern.params.gridDim << "\n";
    }

    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        const SmCore &sm = gpu.sm(s);
        if (sm.idle() && AuditAccess::activeLoads(sm) == 0 &&
            AuditAccess::outRequestCount(sm) == 0 &&
            AuditAccess::respQueueCount(sm) == 0)
            continue;
        os << "SM " << s << ": live warps "
           << AuditAccess::liveWarps(sm) << ", pending loads "
           << AuditAccess::activeLoads(sm) << ", L1 MSHRs "
           << AuditAccess::l1(sm).mshrsInUse() << ", outgoing "
           << AuditAccess::outRequestCount(sm) << ", responses "
           << AuditAccess::respQueueCount(sm) << ", fetch queue "
           << AuditAccess::fetchQueueCount(sm) << "\n";
        os << "  quotas:";
        const auto &quotas = AuditAccess::quotas(sm);
        for (std::size_t k = 0; k < gpu.numKernels(); ++k)
            os << " k" << k << "=" << quotas[k] << "("
               << sm.residentCtas(static_cast<KernelId>(k))
               << " resident)";
        os << "\n";
        const auto &warps = AuditAccess::warps(sm);
        const auto &hotRows = AuditAccess::hotWarps(sm);
        unsigned listed = 0, skipped = 0;
        for (std::size_t w = 0; w < warps.size(); ++w) {
            const WarpState &warp = warps[w];
            const WarpHot &hw = hotRows[w];
            if (!hw.active || hw.finished)
                continue;
            if (listed >= maxWarpLines) {
                ++skipped;
                continue;
            }
            ++listed;
            os << "  w" << w << " k" << warp.kernel << " pc=" << hw.pc
               << " iter=" << warp.iter << " ibuf=" << hw.ibuf
               << " reason=" << stallReason(hw, warp);
            if (hw.pendingLong || hw.pendingShort) {
                os << " scoreboard(long=0x" << std::hex
                   << hw.pendingLong << ",short=0x" << hw.pendingShort
                   << std::dec << ")";
            }
            os << "\n";
        }
        if (skipped != 0)
            os << "  ... " << skipped << " more live warps elided\n";
    }

    for (unsigned p = 0; p < gpu.numPartitions(); ++p) {
        const MemPartition &part = gpu.partition(p);
        const DramChannel &dram = AuditAccess::dram(part);
        os << "partition " << p << ": queue "
           << AuditAccess::reqQueueDepth(part) << ", L2 MSHRs "
           << AuditAccess::l2(part).mshrsInUse() << ", DRAM queued "
           << AuditAccess::dramQueued(dram) << ", in flight "
           << AuditAccess::dramInFlight(dram) << ", responses "
           << AuditAccess::responseCount(part) << "\n";
    }

    // Last partitioning decision: a stall right after a quota change
    // usually implicates the change, so make the report self-contained.
    const std::string decision =
        gpu.slicingPolicy().describeLastDecision();
    os << "policy: " << gpu.slicingPolicy().name();
    if (!decision.empty())
        os << " — " << decision;
    os << "\n";

    // Full counter snapshot at the moment of the stall.
    os << "counters:";
    unsigned on_line = 0;
    for (const auto &[name, value] : flattenStats(gpu.collectStats())) {
        os << (on_line == 0 ? "\n  " : "  ") << name << "="
           << Table::num(value, value == static_cast<std::uint64_t>(
                                             value) ? 0 : 3);
        on_line = (on_line + 1) % 4;
    }
    os << "\n";
    return os.str();
}

} // namespace wsl
