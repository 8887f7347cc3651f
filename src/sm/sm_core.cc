#include "sm/sm_core.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/log.hh"

namespace wsl {

namespace {

/** Bit for an architectural register in a scoreboard mask. */
inline std::uint32_t
regBit(int reg)
{
    return reg >= 0 ? (std::uint32_t{1} << (reg & 31)) : 0u;
}

inline std::uint32_t
srcMaskOf(const Instruction &inst)
{
    return regBit(inst.src0) | regBit(inst.src1) | regBit(inst.src2);
}

} // namespace

void
SmCore::updateIssuable(std::uint16_t widx)
{
    if (!maskUsable)
        return;
    const std::uint64_t bit = std::uint64_t{1} << widx;
    const WarpHot &w = hot[widx];
    if (!w.active || w.finished) {
        issuableMask &= ~bit;
        memBlockedMask &= ~bit;
        shortBlockedMask &= ~bit;
        barrierMask &= ~bit;
        aluNextMask &= ~bit;
        sfuNextMask &= ~bit;
        ldstNextMask &= ~bit;
        return;
    }
    if (!w.atBarrier && w.ibuf > 0)
        issuableMask |= bit;
    else
        issuableMask &= ~bit;
    // Scoreboard overlap of the next instruction, mirroring tryIssue's
    // hazard tests (long checked before short). The pc is always valid
    // for a live warp: advanceWarp wraps it before returning.
    const Instruction &inst = w.program->body[w.pc];
    const std::uint32_t touched = srcMaskOf(inst) | regBit(inst.dst);
    if (touched & w.pendingLong)
        memBlockedMask |= bit;
    else
        memBlockedMask &= ~bit;
    if (touched & w.pendingShort)
        shortBlockedMask |= bit;
    else
        shortBlockedMask &= ~bit;
    if (w.atBarrier)
        barrierMask |= bit;
    else
        barrierMask &= ~bit;
    const UnitKind unit = unitOf(inst.op);
    if (unit == UnitKind::Alu)
        aluNextMask |= bit;
    else
        aluNextMask &= ~bit;
    if (unit == UnitKind::Sfu)
        sfuNextMask |= bit;
    else
        sfuNextMask &= ~bit;
    if (unit == UnitKind::Ldst)
        ldstNextMask |= bit;
    else
        ldstNextMask &= ~bit;
}

SmCore::SmCore(const GpuConfig &c, SmId id)
    : cfg(c), smId(id), schedKind(c.scheduler),
      rng(c.seed * 7919 + id * 104729 + 1),
      resourcePool(ResourceVec::capacity(c)),
      l1(CacheParams{c.l1Size, c.l1Assoc, c.l1Mshrs, 128})
{
    warps.resize(cfg.maxWarpsPerSm());
    hot.resize(warps.size());
    ctas.resize(cfg.maxCtasPerSm);
    freeWarpSlots.reserve(warps.size());
    for (unsigned w = 0; w < warps.size(); ++w)
        freeWarpSlots.push_back(static_cast<std::uint16_t>(w));
    maskUsable = warps.size() <= 64;
    schedLists.resize(cfg.numSchedulers);
    schedListMask.assign(cfg.numSchedulers, 0);
    lastIssued.assign(cfg.numSchedulers, -1);
    rrPos.assign(cfg.numSchedulers, 0);
    aluBusyUntil.assign(cfg.numSchedulers, 0);
    scanCache.resize(cfg.numSchedulers);
    quotas.fill(-1);
    // Staging/bookkeeping buffers grow once here, not on the tick hot
    // path: outRequests is bounded by the L1 miss queue, respQueue by
    // the L1 MSHR count (one fill per in-flight line), and the CTA
    // completion list by the CTA slots.
    outRequests.reserve(cfg.l1MissQueue);
    respQueue.reserve(cfg.l1Mshrs);
    ctaCompletions.reserve(cfg.maxCtasPerSm);
}

bool
SmCore::canAcceptCta(const KernelParams &params) const
{
    return resourcePool.canAlloc(ResourceVec::ofCta(params)) &&
           freeWarpSlots.size() >= params.warpsPerCta();
}

bool
SmCore::launchCta(KernelId kid, const KernelParams &params,
                  const KernelProgram &program, unsigned cta_global_id,
                  Addr kernel_base, Cycle now)
{
    WSL_ASSERT(kid >= 0 &&
               kid < static_cast<int>(maxConcurrentKernels),
               "kernel id out of range");
    const ResourceVec need = ResourceVec::ofCta(params);
    if (freeWarpSlots.size() < params.warpsPerCta())
        return false;
    int slot = -1;
    for (unsigned c = 0; c < ctas.size(); ++c) {
        if (!ctas[c].active) {
            slot = static_cast<int>(c);
            break;
        }
    }
    if (slot < 0 || !resourcePool.tryAlloc(need))
        return false;

    CtaSlot &cta = ctas[slot];
    cta.active = true;
    cta.kernel = kid;
    cta.ctaGlobalId = cta_global_id;
    cta.warpsTotal = params.warpsPerCta();
    cta.warpsFinished = 0;
    cta.barrierWaiting = 0;
    cta.alloc = need;
    cta.params = &params;
    cta.warpIdxs.clear();

    for (unsigned i = 0; i < params.warpsPerCta(); ++i) {
        const std::uint16_t widx = freeWarpSlots.back();
        freeWarpSlots.pop_back();
        WarpState &w = warps[widx];
        WarpHot &h = hot[widx];
        w.reset();  // keeps epoch and the divStack buffer
        h.reset();
        h.active = true;
        w.ctaSlot = slot;
        w.kernel = kid;
        w.warpInCta = i;
        w.activeThreads =
            std::min(warpSize, params.blockDim - i * warpSize);
        h.activeMask = w.activeThreads >= 32
                           ? 0xffffffffu
                           : ((1u << w.activeThreads) - 1);
        h.program = &program;
        w.age = ageCounter++;
        cta.warpIdxs.push_back(widx);
        schedLists[widx % cfg.numSchedulers].push_back(widx);
        if (maskUsable)
            schedListMask[widx % cfg.numSchedulers] |=
                std::uint64_t{1} << widx;
        fetchQueue.push({widx, w.epoch});
        ++liveWarps;
        updateIssuable(widx);
    }
    // Stash the kernel base in the CTA by encoding it per-warp at
    // address-generation time; the CTA only needs the base pointer.
    cta.kernelBase = kernel_base;
    ++resident[kid];
    ++smStats.ctasLaunched;
    invalidateScanCache();
    (void)now;
    return true;
}

void
SmCore::completeCta(int cta_idx)
{
    CtaSlot &cta = ctas[cta_idx];
    WSL_ASSERT(cta.active, "completing inactive CTA");
    // Every warp already left the scheduler lists in finishWarp();
    // only the slot bookkeeping remains.
    for (std::uint16_t widx : cta.warpIdxs) {
        WarpHot &h = hot[widx];
        if (h.active && !h.finished)
            --liveWarps;
        h.active = false;
        h.finished = true;
        ++warps[widx].epoch;  // invalidate in-flight writebacks
        freeWarpSlots.push_back(widx);
        updateIssuable(widx);
    }
    resourcePool.free(cta.alloc);
    WSL_ASSERT(resident[cta.kernel] > 0, "resident CTA underflow");
    --resident[cta.kernel];
    ctaCompletions.push_back(cta.kernel);
    ++smStats.ctasCompleted;
    cta.active = false;
    cta.warpIdxs.clear();
}

void
SmCore::evictKernel(KernelId kid)
{
    bool any = false;
    for (unsigned c = 0; c < ctas.size(); ++c) {
        CtaSlot &cta = ctas[c];
        if (!cta.active || cta.kernel != kid)
            continue;
        any = true;
        for (std::uint16_t widx : cta.warpIdxs) {
            WarpHot &h = hot[widx];
            if (h.active && !h.finished)
                --liveWarps;
            h.active = false;
            h.finished = true;
            ++warps[widx].epoch;
            freeWarpSlots.push_back(widx);
            updateIssuable(widx);
        }
        resourcePool.free(cta.alloc);
        cta.active = false;
        cta.warpIdxs.clear();
    }
    if (any) {
        // One sweep drops every deactivated warp: anything inactive
        // still on a list belongs to the CTAs marked above (finished
        // warps of other kernels left their lists in finishWarp).
        for (unsigned s = 0; s < schedLists.size(); ++s) {
            auto &list = schedLists[s];
            list.erase(
                std::remove_if(list.begin(), list.end(),
                               [&](std::uint16_t w) {
                                   if (hot[w].active)
                                       return false;
                                   if (maskUsable)
                                       schedListMask[s] &=
                                           ~(std::uint64_t{1} << w);
                                   return true;
                               }),
                list.end());
        }
    }
    resident[kid] = 0;
    invalidateScanCache();
}

unsigned
SmCore::residentCtas(KernelId kid) const
{
    WSL_ASSERT(kid >= 0 && kid < static_cast<int>(maxConcurrentKernels),
               "kernel id out of range");
    return resident[kid];
}

unsigned
SmCore::totalResidentCtas() const
{
    unsigned total = 0;
    for (unsigned r : resident)
        total += r;
    return total;
}

void
SmCore::setQuota(KernelId kid, int max_ctas)
{
    WSL_ASSERT(kid >= 0 && kid < static_cast<int>(maxConcurrentKernels),
               "kernel id out of range");
    quotas[kid] = max_ctas;
    ++quotaGen;
}

int
SmCore::quota(KernelId kid) const
{
    WSL_ASSERT(kid >= 0 && kid < static_cast<int>(maxConcurrentKernels),
               "kernel id out of range");
    return quotas[kid];
}

void
SmCore::clearQuotas()
{
    quotas.fill(-1);
    ++quotaGen;
}

std::uint16_t
SmCore::allocLoadEntry()
{
    if (!freeLoads.empty()) {
        const std::uint16_t idx = freeLoads.back();
        freeLoads.pop_back();
        return idx;
    }
    loads.push_back({});
    return static_cast<std::uint16_t>(loads.size() - 1);
}

void
SmCore::completeLoadTransaction(std::uint16_t load_idx, Cycle now)
{
    WSL_ASSERT(load_idx < loads.size(), "bad load index");
    PendingLoad &load = loads[load_idx];
    WSL_ASSERT(load.valid && load.transLeft > 0,
               "completing an idle load entry");
    if (--load.transLeft == 0) {
        if (warps[load.warp].epoch == load.epoch) {
            hot[load.warp].pendingLong &= ~load.regMask;
            updateIssuable(load.warp);
            invalidateScanCache();  // a stalled warp may now be ready
        }
        if (recordTelemetry && load.kernel != invalidKernel)
            memLatency[load.kernel].record(
                static_cast<std::uint32_t>(now) - load.issuedAt);
        load.valid = false;
        WSL_ASSERT(activeLoads > 0, "active-load underflow");
        --activeLoads;
        freeLoads.push_back(load_idx);
    }
}

void
SmCore::maybeReleaseBarrier(CtaSlot &cta)
{
    const unsigned unfinished = cta.warpsTotal - cta.warpsFinished;
    if (unfinished == 0 || cta.barrierWaiting < unfinished)
        return;
    for (std::uint16_t widx : cta.warpIdxs) {
        hot[widx].atBarrier = false;
        updateIssuable(widx);
    }
    cta.barrierWaiting = 0;
    invalidateScanCache();  // released warps are schedulable again
}

void
SmCore::injectBarrierHangForTest()
{
    // Park every live warp at its CTA barrier without running
    // maybeReleaseBarrier — the release predicate is only re-evaluated
    // on barrier issue or warp finish, and parked warps do neither, so
    // the machine is permanently stalled while every count and mask
    // stays self-consistent (integrity audits pass on purpose: this
    // models a lost wakeup, not corrupted state).
    for (CtaSlot &cta : ctas) {
        if (!cta.active)
            continue;
        for (std::uint16_t widx : cta.warpIdxs) {
            WarpHot &h = hot[widx];
            if (!h.active || h.finished || h.atBarrier)
                continue;
            h.atBarrier = true;
            ++cta.barrierWaiting;
            updateIssuable(widx);
        }
    }
    invalidateScanCache();
}

void
SmCore::finishWarp(std::uint16_t widx)
{
    WarpHot &h = hot[widx];
    WSL_ASSERT(h.active && !h.finished, "double finish");
    h.finished = true;
    updateIssuable(widx);
    --liveWarps;
    // Active-warp index: drop the warp from its scheduler list now so
    // issue scans touch only live warps, instead of skipping finished
    // slots every cycle until the whole CTA retires.
    auto &list = schedLists[widx % cfg.numSchedulers];
    list.erase(std::find(list.begin(), list.end(), widx));
    if (maskUsable)
        schedListMask[widx % cfg.numSchedulers] &=
            ~(std::uint64_t{1} << widx);
    invalidateScanCache();
    const int cta_slot = warps[widx].ctaSlot;
    CtaSlot &cta = ctas[cta_slot];
    if (h.atBarrier) {
        h.atBarrier = false;
        WSL_ASSERT(cta.barrierWaiting > 0, "barrier underflow");
        --cta.barrierWaiting;
    }
    ++cta.warpsFinished;
    if (cta.warpsFinished == cta.warpsTotal)
        completeCta(cta_slot);
    else
        maybeReleaseBarrier(cta);
}

void
SmCore::advanceWarp(std::uint16_t widx, Cycle now)
{
    (void)now;
    WarpState &w = warps[widx];
    WarpHot &h = hot[widx];
    WSL_ASSERT(h.ibuf > 0, "advancing without a buffered instruction");
    --h.ibuf;
    ++h.pc;
    // Reconverge lanes whose rejoin point has been reached. Entries
    // are independent (mask, rejoin-pc) pairs, not a nesting stack:
    // dense branch layouts can produce overlapping skip regions whose
    // rejoin points are reached out of push order, so every entry must
    // be checked, not just the innermost. (For properly nested
    // programs the match is always at the back and this degenerates to
    // the classic pop loop.)
    for (std::size_t d = w.divStack.size(); d-- > 0;) {
        if (w.divStack[d].second == h.pc ||
            (h.pc >= h.program->body.size() &&
             w.divStack[d].second >= h.program->body.size())) {
            h.activeMask |= w.divStack[d].first;
            w.divStack.erase(w.divStack.begin() +
                             static_cast<std::ptrdiff_t>(d));
        }
    }
    if (h.pc >= h.program->body.size()) {
        WSL_ASSERT(w.divStack.empty(),
                   "divergence must reconverge within one iteration");
        h.pc = 0;
        ++w.iter;
        if (w.iter >= h.program->loopIters)
            finishWarp(widx);
    }
    if (h.active && !h.finished && h.ibuf == 0 && !w.fetchPending)
        fetchQueue.push({widx, w.epoch});
    // One recompute covers everything the issue may have changed for
    // this warp: i-buffer drain, barrier entry, or warp completion.
    updateIssuable(widx);
}

SmCore::IssueOutcome
SmCore::tryIssue(std::uint16_t widx, unsigned sched, Cycle now)
{
    WarpHot &h = hot[widx];
    if (h.atBarrier)
        return IssueOutcome::Barrier;
    if (h.ibuf == 0)
        return IssueOutcome::Empty;

    const Instruction &inst = h.program->body[h.pc];
    const std::uint32_t touched = srcMaskOf(inst) | regBit(inst.dst);
    if (touched & h.pendingLong)
        return IssueOutcome::MemWait;
    if (touched & h.pendingShort)
        return IssueOutcome::ShortWait;

    switch (unitOf(inst.op)) {
      case UnitKind::Alu:
        if (aluBusyUntil[sched] > now)
            return IssueOutcome::ExecBusy;
        break;
      case UnitKind::Sfu:
        if (sfuBusyUntil > now)
            return IssueOutcome::ExecBusy;
        break;
      case UnitKind::Ldst: {
        if (ldstBusyUntil > now)
            return IssueOutcome::ExecBusy;
        if (isGlobalMem(inst.op)) {
            // Structural backpressure from the memory system counts as
            // a long-memory-latency stall (the warp is blocked on the
            // memory system, not on a pipeline).
            const CtaSlot &cta = ctas[warps[widx].ctaSlot];
            const unsigned trans = cta.params->mem.transactionsPerAccess;
            if (outRequests.size() + trans > cfg.l1MissQueue * 2)
                return IssueOutcome::MemWait;
            if (isLoad(inst.op)) {
                // Conservative MSHR precheck: every transaction may
                // allocate a new MSHR.
                if (!l1.mshrAvailable(trans))
                    return IssueOutcome::MemWait;
            }
        }
        break;
      }
      case UnitKind::None:
        break;
    }

    executeIssue(h, warps[widx], inst, widx, sched, now);
    advanceWarp(widx, now);
    return IssueOutcome::Issued;
}

void
SmCore::executeIssue(WarpHot &h, WarpState &w, const Instruction &inst,
                     std::uint16_t widx, unsigned sched, Cycle now)
{
    CtaSlot &cta = ctas[w.ctaSlot];
    const KernelParams &params = *cta.params;
    // Issuing always perturbs this scheduler's own scan inputs (the
    // warp's scoreboard, i-buffer, pc, and ALU busy horizon). Sibling
    // schedulers scan disjoint warps and only observe the shared
    // structural state — the SFU/LDST busy horizons, MSHRs, and the
    // outgoing queue — so their memoized failed scans survive pure-ALU
    // and control issues; the SFU and LDST cases below invalidate all.
    scanCache[sched].valid = false;

    const unsigned live_lanes =
        static_cast<unsigned>(std::popcount(h.activeMask));
    ++smStats.warpInstsIssued;
    smStats.threadInstsIssued += live_lanes;
    ++smStats.kernelWarpInsts[w.kernel];
    smStats.kernelThreadInsts[w.kernel] += live_lanes;
    smStats.regReads +=
        static_cast<std::uint64_t>(inst.numSrcs()) * live_lanes;
    if (inst.dst >= 0)
        smStats.regWrites += live_lanes;

    const std::uint32_t dst_bit = regBit(inst.dst);
    switch (unitOf(inst.op)) {
      case UnitKind::Alu: {
        aluBusyUntil[sched] = now + cfg.aluInitiation;
        smStats.aluBusyCycles += cfg.aluInitiation;
        if (dst_bit) {
            h.pendingShort |= dst_bit;
            wbWheel[(now + cfg.aluLatency) % wheelSize].push_back(
                {widx, w.epoch, dst_bit});
            ++wbWheelCount;
        }
        break;
      }
      case UnitKind::Sfu: {
        invalidateScanCache();  // sfuBusyUntil is cross-scheduler
        sfuBusyUntil = now + cfg.sfuInitiation;
        smStats.sfuBusyCycles += cfg.sfuInitiation;
        if (dst_bit) {
            h.pendingShort |= dst_bit;
            wbWheel[(now + cfg.sfuLatency) % wheelSize].push_back(
                {widx, w.epoch, dst_bit});
            ++wbWheelCount;
        }
        break;
      }
      case UnitKind::Ldst: {
        // ldstBusyUntil, the MSHR pool, and the outgoing queue are all
        // cross-scheduler scan inputs.
        invalidateScanCache();
        ++smStats.ldstIssues;
        ldstOwner = w.kernel;
        if (!isGlobalMem(inst.op)) {
            // Shared-memory access: bank conflicts serialize the access
            // into `conflict` replays, occupying the port and delaying
            // the result proportionally.
            const unsigned conflict =
                std::max(1u, params.shmConflictFactor);
            ldstBusyUntil = now + cfg.ldstInitiation * conflict;
            ++smStats.shmAccesses;
            if (dst_bit) {
                h.pendingShort |= dst_bit;
                wbWheel[(now + cfg.shmLatency * conflict) % wheelSize]
                    .push_back({widx, w.epoch, dst_bit});
                ++wbWheelCount;
            }
            break;
        }
        const unsigned trans = params.mem.transactionsPerAccess;
        ldstBusyUntil = now + cfg.ldstInitiation * trans;
        if (isLoad(inst.op)) {
            const std::uint16_t entry = allocLoadEntry();
            loads[entry] = {widx, w.epoch, dst_bit,
                            static_cast<std::uint16_t>(trans), true,
                            static_cast<std::int8_t>(w.kernel),
                            static_cast<std::uint32_t>(now)};
            ++activeLoads;
            h.pendingLong |= dst_bit;
            for (unsigned t = 0; t < trans; ++t) {
                const Addr line = lineAddr(genAddress(
                    params, cta.kernelBase, cta.ctaGlobalId, w.warpInCta,
                    w.iter, inst.memSlot, t));
                ++smStats.l1Accesses;
                switch (l1.read(line, entry)) {
                  case Cache::ReadResult::Hit:
                    memWheel[(now + cfg.l1HitLatency) % wheelSize]
                        .push_back(entry);
                    ++memWheelCount;
                    break;
                  case Cache::ReadResult::MissNew:
                    ++smStats.l1Misses;
                    outRequests.push_back(
                        {line, false, smId, now + cfg.icntLatency});
                    break;
                  case Cache::ReadResult::MissMerged:
                    ++smStats.l1Misses;
                    break;
                  case Cache::ReadResult::Blocked:
                    simBug("L1 MSHR blocked after precheck");
                }
            }
        } else {
            // Write-through, no-allocate stores; fire and forget.
            for (unsigned t = 0; t < trans; ++t) {
                const Addr line = lineAddr(genAddress(
                    params, cta.kernelBase, cta.ctaGlobalId, w.warpInCta,
                    w.iter, inst.memSlot, t));
                ++smStats.l1Accesses;
                if (!l1.write(line, false))
                    ++smStats.l1Misses;
                outRequests.push_back(
                    {line, true, smId, now + cfg.icntLatency});
            }
        }
        break;
      }
      case UnitKind::None: {
        if (inst.op == Opcode::Bar) {
            h.atBarrier = true;
            ++cta.barrierWaiting;
            maybeReleaseBarrier(cta);
        } else if (inst.op == Opcode::BraDiv) {
            // Split the active lanes: `taken` lanes skip ahead to the
            // reconvergence point, the rest execute the fall-through
            // block. Lane selection is deterministic per (warp, iter,
            // pc) with an exact taken fraction.
            const unsigned active = live_lanes;
            const unsigned take = static_cast<unsigned>(
                (static_cast<std::uint64_t>(active) *
                     inst.divFraction256 + 128) / 256);
            if (take >= active) {
                // Everyone skips: jump straight to the target.
                h.pc = static_cast<unsigned>(inst.branchTarget) - 1;
            } else if (take > 0) {
                const std::uint64_t hash =
                    mixHash(static_cast<std::uint64_t>(
                                cta.ctaGlobalId) * 64 + w.warpInCta,
                            w.iter * 131 + h.pc);
                std::uint32_t taken = 0;
                unsigned picked = 0;
                const unsigned rot =
                    static_cast<unsigned>(hash & 31);
                for (unsigned l = 0; l < 32 && picked < take; ++l) {
                    const unsigned lane = (l + rot) & 31;
                    if (h.activeMask & (1u << lane)) {
                        taken |= 1u << lane;
                        ++picked;
                    }
                }
                w.divStack.emplace_back(
                    taken,
                    static_cast<std::uint16_t>(inst.branchTarget));
                h.activeMask &= ~taken;
            }
        }
        break;
      }
    }
}

void
SmCore::chargeStall(StallKind kind, int culprit)
{
    ++smStats.stalls[static_cast<unsigned>(kind)];
    if (recordTelemetry) {
        if (culprit != invalidKernel)
            ++smStats.kernelStalls[culprit][static_cast<unsigned>(kind)];
        else
            ++smStats.unattributedStalls[static_cast<unsigned>(kind)];
    }
}

void
SmCore::runScheduler(unsigned sched, Cycle now)
{
    auto &list = schedLists[sched];
    if (list.empty()) {
        chargeStall(StallKind::Idle, invalidKernel);
        return;
    }

    // Replay a memoized failed scan while nothing changed: same warps,
    // same blockers, same majority stall, same culprit kernel.
    ScanCacheEntry &memo = scanCache[sched];
    if (memo.valid && now < memo.validUntil) {
        ++engineScanMemoHits;
        chargeStall(memo.kind, memo.culprit);
        return;
    }
    memo.valid = false;
    ++engineSchedScans;

    unsigned counts[6] = {0, 0, 0, 0, 0, 0};
    // Per-kernel outcome counts feed stall attribution; zeroing and
    // updating them per scanned warp is measurable, so the whole
    // attribution path stays behind the telemetry flag (hoisted to a
    // local so the scan loop tests a register, not a member reload).
    const bool attribute = recordTelemetry;
    unsigned kernelCounts[maxConcurrentKernels][6];
    if (attribute)
        std::memset(kernelCounts, 0, sizeof(kernelCounts));
    unsigned scanned = 0;
    bool issued = false;

    const bool useMask = maskUsable && !attribute;
    if (useMask) {
        // Two-phase mask scan. Phase 1 visits only candidate warps —
        // issuable with a clean scoreboard — since everything else is
        // a bit-provable failure; this touches no WarpState at all for
        // blocked warps. Candidate failures (structural hazards) are
        // counted as they happen; the counts are simply abandoned if a
        // later candidate issues. If nothing issues, the scan failed,
        // counting no longer depends on scan order, and the remaining
        // outcomes come from popcounts over the masks.
        // Warps whose next instruction needs a currently-busy unit are
        // certain ExecBusy outcomes (tryIssue tests the unit before
        // any structural memory check), so they are popcounted, never
        // visited.
        std::uint64_t busyBlocked = 0;
        if (aluBusyUntil[sched] > now)
            busyBlocked |= aluNextMask;
        if (sfuBusyUntil > now)
            busyBlocked |= sfuNextMask;
        if (ldstBusyUntil > now)
            busyBlocked |= ldstNextMask;
        const std::uint64_t clean =
            issuableMask & ~memBlockedMask & ~shortBlockedMask;
        const std::uint64_t cand = clean & ~busyBlocked;
        if (schedKind == SchedulerKind::Gto) {
            const int greedy = lastIssued[sched];
            if (greedy >= 0 && ((cand >> greedy) & 1) &&
                (greedy % static_cast<int>(cfg.numSchedulers)) ==
                    static_cast<int>(sched)) {
                const IssueOutcome o = tryIssue(
                    static_cast<std::uint16_t>(greedy), sched, now);
                if (o == IssueOutcome::Issued)
                    return;
                ++counts[static_cast<unsigned>(o)];
            }
            for (std::uint16_t widx : list) {
                if (static_cast<int>(widx) == greedy ||
                    !((cand >> widx) & 1))
                    continue;
                const IssueOutcome o = tryIssue(widx, sched, now);
                if (o == IssueOutcome::Issued) {
                    lastIssued[sched] = widx;
                    return;
                }
                ++counts[static_cast<unsigned>(o)];
            }
        } else {
            const unsigned n = static_cast<unsigned>(list.size());
            const unsigned start = rrPos[sched] % n;
            for (unsigned i = 0; i < n; ++i) {
                const unsigned pos = (start + i) % n;
                const std::uint16_t widx = list[pos];
                if (!((cand >> widx) & 1))
                    continue;
                const IssueOutcome o = tryIssue(widx, sched, now);
                if (o == IssueOutcome::Issued) {
                    lastIssued[sched] = widx;
                    rrPos[sched] = pos + 1;
                    return;
                }
                ++counts[static_cast<unsigned>(o)];
            }
        }

        const std::uint64_t live = schedListMask[sched];
        counts[static_cast<unsigned>(IssueOutcome::Barrier)] =
            static_cast<unsigned>(std::popcount(live & barrierMask));
        counts[static_cast<unsigned>(IssueOutcome::Empty)] =
            static_cast<unsigned>(
                std::popcount(live & ~issuableMask & ~barrierMask));
        counts[static_cast<unsigned>(IssueOutcome::MemWait)] +=
            static_cast<unsigned>(
                std::popcount(live & issuableMask & memBlockedMask));
        counts[static_cast<unsigned>(IssueOutcome::ShortWait)] +=
            static_cast<unsigned>(std::popcount(
                live & issuableMask & ~memBlockedMask &
                shortBlockedMask));
        counts[static_cast<unsigned>(IssueOutcome::ExecBusy)] +=
            static_cast<unsigned>(
                std::popcount(live & clean & busyBlocked));
        scanned = static_cast<unsigned>(std::popcount(live));
    } else {

    auto consider = [&](std::uint16_t widx) -> bool {
        const WarpHot &w = hot[widx];
        if (!w.active || w.finished)
            return false;
        // The masks prove what tryIssue would return without touching
        // anything: a clear issuable bit means Barrier (checked first
        // there) or Empty, and a set blocked bit means MemWait or
        // ShortWait (in that priority). Resolve those outcomes from
        // bit tests and call tryIssue only for genuine candidates.
        IssueOutcome outcome;
        if (maskUsable && !((issuableMask >> widx) & 1))
            outcome = w.atBarrier ? IssueOutcome::Barrier
                                  : IssueOutcome::Empty;
        else if (maskUsable && ((memBlockedMask >> widx) & 1))
            outcome = IssueOutcome::MemWait;
        else if (maskUsable && ((shortBlockedMask >> widx) & 1))
            outcome = IssueOutcome::ShortWait;
        else
            outcome = tryIssue(widx, sched, now);
        if (outcome == IssueOutcome::Issued) {
            lastIssued[sched] = widx;
            issued = true;
            return true;
        }
        ++counts[static_cast<unsigned>(outcome)];
        if (attribute)
            ++kernelCounts[warps[widx].kernel]
                          [static_cast<unsigned>(outcome)];
        ++scanned;
        return false;
    };

    if (schedKind == SchedulerKind::Gto) {
        // Greedy-then-oldest: stick with the last issued warp, then
        // fall back to the oldest ready warp.
        const int greedy = lastIssued[sched];
        if (greedy >= 0 && hot[greedy].active &&
            !hot[greedy].finished &&
            warps[greedy].kernel != invalidKernel) {
            // Only if it is still on this scheduler's list.
            if ((greedy % static_cast<int>(cfg.numSchedulers)) ==
                static_cast<int>(sched)) {
                if (consider(static_cast<std::uint16_t>(greedy)))
                    return;
            }
        }
        for (std::uint16_t widx : list) {
            if (static_cast<int>(widx) == greedy)
                continue;
            if (consider(widx))
                return;
        }
    } else {
        // Loose round robin over the resident warps.
        const unsigned n = static_cast<unsigned>(list.size());
        unsigned start = rrPos[sched] % n;
        for (unsigned i = 0; i < n; ++i) {
            const unsigned pos = (start + i) % n;
            if (consider(list[pos])) {
                rrPos[sched] = pos + 1;
                return;
            }
        }
    }

    }  // !useMask (per-warp consider scan)

    if (issued)
        return;

    StallKind kind = StallKind::Idle;
    int culprit = invalidKernel;
    if (scanned > 0) {
        // Majority outcome, ties broken Mem > RAW > Exec > IBuffer >
        // Barrier to match the paper's accounting priority.
        static const IssueOutcome order[] = {
            IssueOutcome::MemWait, IssueOutcome::ShortWait,
            IssueOutcome::ExecBusy, IssueOutcome::Empty,
            IssueOutcome::Barrier};
        static const StallKind kinds[] = {
            StallKind::MemLatency, StallKind::RawHazard,
            StallKind::ExecResource, StallKind::IBufferEmpty,
            StallKind::Barrier};
        unsigned best = 0;
        for (unsigned i = 0; i < 5; ++i) {
            const unsigned c = counts[static_cast<unsigned>(order[i])];
            if (c > counts[static_cast<unsigned>(order[best])])
                best = i;
        }
        const unsigned chosen = static_cast<unsigned>(order[best]);
        if (counts[chosen] > 0) {
            kind = kinds[best];
            // Attribute the stall to the kernel whose warps dominated
            // the charged outcome (per-tenant Figure-1 profiles).
            if (attribute) {
                unsigned most = 0;
                for (unsigned k = 0; k < maxConcurrentKernels; ++k) {
                    if (kernelCounts[k][chosen] > most) {
                        most = kernelCounts[k][chosen];
                        culprit = static_cast<int>(k);
                    }
                }
            }
        }
    }
    chargeStall(kind, culprit);

    // Memoize until an event or a pipeline busy-until horizon could
    // change some warp's issue outcome.
    Cycle horizon = ~Cycle{0};
    if (aluBusyUntil[sched] > now)
        horizon = std::min(horizon, aluBusyUntil[sched]);
    if (sfuBusyUntil > now)
        horizon = std::min(horizon, sfuBusyUntil);
    if (ldstBusyUntil > now)
        horizon = std::min(horizon, ldstBusyUntil);
    memo.valid = true;
    memo.validUntil = horizon;
    memo.kind = kind;
    memo.culprit = static_cast<std::int8_t>(culprit);
}

void
SmCore::runFetch(Cycle now)
{
    // Start refills for queued warps, FIFO, up to fetchWidth per cycle.
    unsigned started = 0;
    while (started < cfg.fetchWidth && !fetchQueue.empty()) {
        const FetchEntry entry = fetchQueue.front();
        fetchQueue.pop();
        WarpState &w = warps[entry.warp];
        const WarpHot &h = hot[entry.warp];
        if (!h.active || h.finished || w.epoch != entry.epoch ||
            w.fetchPending || h.ibuf > 0) {
            continue;  // stale entry
        }
        const KernelParams &params = *ctas[w.ctaSlot].params;
        const bool miss = rng.chance(params.ifetchMissRate);
        const Cycle lat =
            miss ? cfg.ifetchMissLatency : cfg.fetchLatency;
        w.fetchPending = true;
        w.fetchReadyAt = now + lat;
        fetchWheel[(now + lat) % wheelSize].push_back(
            {entry.warp, entry.epoch});
        ++fetchWheelCount;
        ++smStats.ifetches;
        if (miss)
            ++smStats.ifetchMisses;
        ++started;
    }
}

void
SmCore::deliverResponse(const MemResponse &resp)
{
    respQueue.push_back(resp);
}

void
SmCore::tick(Cycle now)
{
    ++smStats.cycles;
    const ResourceVec &used = resourcePool.usedVec();
    smStats.regsAllocatedIntegral += used.regs;
    smStats.shmAllocatedIntegral += used.shm;
    smStats.threadsAllocatedIntegral += used.threads;
    // LDST utilization: the unit counts as busy while occupied by an
    // access or backpressured by the memory system (queue buildup or
    // substantial MSHR occupancy), matching GPGPU-Sim's accounting.
    if (ldstBusyUntil > now || !outRequests.empty() ||
        l1.mshrsInUse() >= 8) {
        ++smStats.ldstBusyCycles;
        if (recordTelemetry && ldstOwner != invalidKernel)
            ++smStats.kernelLdstBusyCycles[ldstOwner];
    }

    // Timing wheels: the pending counters skip the slot probe (a
    // cache-line touch each) while a wheel is globally empty.
    if (wbWheelCount != 0) {
        // Writeback wheel: retire short-latency results.
        auto &wb = wbWheel[now % wheelSize];
        wbWheelCount -= static_cast<unsigned>(wb.size());
        for (const WbEntry &e : wb) {
            if (warps[e.warp].epoch == e.epoch) {
                hot[e.warp].pendingShort &= ~e.regMask;
                updateIssuable(e.warp);
                invalidateScanCache();  // a ShortWait warp may be ready
            }
        }
        wb.clear();
    }

    if (fetchWheelCount != 0) {
        // Instruction-buffer refills completing this cycle.
        auto &fetch_done = fetchWheel[now % wheelSize];
        fetchWheelCount -= static_cast<unsigned>(fetch_done.size());
        for (const FetchEntry &e : fetch_done) {
            WarpState &w = warps[e.warp];
            WarpHot &h = hot[e.warp];
            if (h.active && !h.finished && w.epoch == e.epoch &&
                w.fetchPending && w.fetchReadyAt <= now) {
                w.fetchPending = false;
                h.ibuf = cfg.ibufferEntries;
                updateIssuable(e.warp);
                invalidateScanCache();  // Empty flips to issuable
            }
        }
        fetch_done.clear();
    }

    if (memWheelCount != 0) {
        // L1-hit load transactions maturing this cycle.
        auto &mem_wb = memWheel[now % wheelSize];
        memWheelCount -= static_cast<unsigned>(mem_wb.size());
        for (std::uint16_t load_idx : mem_wb)
            completeLoadTransaction(load_idx, now);
        mem_wb.clear();
    }

    // Line fills arriving from the memory partitions.
    for (std::size_t i = 0; i < respQueue.size();) {
        if (respQueue[i].readyAt <= now) {
            l1.fill(respQueue[i].line, fillScratch);
            for (std::uint64_t token : fillScratch.tokens)
                completeLoadTransaction(
                    static_cast<std::uint16_t>(token), now);
            // Even a fill whose loads are still partial frees an MSHR,
            // which can flip the tryIssue MSHR-availability precheck.
            invalidateScanCache();
            respQueue[i] = respQueue.back();
            respQueue.pop_back();
        } else {
            ++i;
        }
    }

    for (unsigned s = 0; s < cfg.numSchedulers; ++s)
        runScheduler(s, now);
    if (!fetchQueue.empty())
        runFetch(now);
}

void
SmCore::idleTick()
{
    // A quiescent core has no warp on any scheduler list, an idle LDST
    // unit and no outgoing requests; of tick()'s work only the
    // counters below remain.
    ++smStats.cycles;
    const ResourceVec &used = resourcePool.usedVec();
    smStats.regsAllocatedIntegral += used.regs;
    smStats.shmAllocatedIntegral += used.shm;
    smStats.threadsAllocatedIntegral += used.threads;
    if (l1.mshrsInUse() >= 8) {
        ++smStats.ldstBusyCycles;
        if (recordTelemetry && ldstOwner != invalidKernel)
            ++smStats.kernelLdstBusyCycles[ldstOwner];
    }
    for (unsigned s = 0; s < cfg.numSchedulers; ++s)
        chargeStall(StallKind::Idle, invalidKernel);
}

} // namespace wsl
