#include "sm/sm_core.hh"

#include <algorithm>
#include <bit>

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
        gmemNextMask &= ~bit;
        gloadNextMask &= ~bit;
        for (std::uint64_t &kernel_live : kernelLiveMask)
            kernel_live &= ~bit;
        return;
    }
    if (!w.atBarrier && w.ibuf > 0)
        issuableMask |= bit;
    else
        issuableMask &= ~bit;
    // Scoreboard overlap of the next instruction (the scan checks long
    // before short). The pc is always valid for a live warp:
    // advanceWarp wraps it before returning.
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
    if (isGlobalMem(inst.op))
        gmemNextMask |= bit;
    else
        gmemNextMask &= ~bit;
    if (inst.op == Opcode::LdGlobal)
        gloadNextMask |= bit;
    else
        gloadNextMask &= ~bit;
}

void
SmCore::rebuildDerivedState()
{
    gmemNextMask = 0;
    gloadNextMask = 0;
    kernelLiveMask.fill(0);
    kernelTrans.fill(0);
    for (std::size_t widx = 0; widx < hot.size(); ++widx) {
        const WarpHot &h = hot[widx];
        if (!h.active || h.finished)
            continue;
        const std::uint64_t bit = std::uint64_t{1} << widx;
        const WarpState &w = warps[widx];
        kernelLiveMask[w.kernel] |= bit;
        kernelTrans[w.kernel] =
            ctas[w.ctaSlot].params->mem.transactionsPerAccess;
        const Opcode op = h.program->body[h.pc].op;
        if (isGlobalMem(op))
            gmemNextMask |= bit;
        if (op == Opcode::LdGlobal)
            gloadNextMask |= bit;
    }
    stagedPartMask = 0;
    for (const MemRequest &req : outRequests)
        stagedPartMask |=
            partitionBit(partitionOf(req.line, cfg.numMemPartitions));
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
        schedListMask[widx % cfg.numSchedulers] |= std::uint64_t{1} << widx;
        kernelLiveMask[kid] |= std::uint64_t{1} << widx;
        fetchQueue.push({widx, w.epoch});
        ++liveWarps;
        updateIssuable(widx);
    }
    // Stash the kernel base in the CTA by encoding it per-warp at
    // address-generation time; the CTA only needs the base pointer.
    cta.kernelBase = kernel_base;
    kernelTrans[kid] = params.mem.transactionsPerAccess;
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
    schedListMask[widx % cfg.numSchedulers] &= ~(std::uint64_t{1} << widx);
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

std::uint64_t
SmCore::backpressured(std::uint64_t cand) const
{
    const std::uint64_t gmem = cand & gmemNextMask;
    if (gmem == 0)
        return 0;
    std::uint64_t refused = 0;
    for (unsigned k = 0; k < maxConcurrentKernels; ++k) {
        const std::uint64_t mine = gmem & kernelLiveMask[k];
        if (mine == 0)
            continue;
        const unsigned trans = kernelTrans[k];
        if (outRequests.size() + trans > cfg.l1MissQueue * 2)
            refused |= mine;
        else if (!l1.mshrAvailable(trans))
            // Conservative MSHR precheck: every transaction may
            // allocate a new MSHR.
            refused |= mine & gloadNextMask;
    }
    return refused;
}

void
SmCore::issue(std::uint16_t widx, unsigned sched, Cycle now)
{
    const std::uint64_t bit = std::uint64_t{1} << widx;
    WSL_DASSERT(issuableMask & ~memBlockedMask & ~shortBlockedMask &
                    ~backpressured(bit) & bit,
                "issue of a warp its masks rule out");
    WarpHot &h = hot[widx];
    executeIssue(h, warps[widx], h.program->body[h.pc], widx, sched, now);
    advanceWarp(widx, now);
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
            wbWheel.push(now + cfg.aluLatency, {widx, w.epoch, dst_bit});
        }
        break;
      }
      case UnitKind::Sfu: {
        invalidateScanCache();  // sfuBusyUntil is cross-scheduler
        sfuBusyUntil = now + cfg.sfuInitiation;
        smStats.sfuBusyCycles += cfg.sfuInitiation;
        if (dst_bit) {
            h.pendingShort |= dst_bit;
            wbWheel.push(now + cfg.sfuLatency, {widx, w.epoch, dst_bit});
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
                wbWheel.push(now + cfg.shmLatency * conflict,
                             {widx, w.epoch, dst_bit});
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
                    memWheel.push(now + cfg.l1HitLatency, entry);
                    break;
                  case Cache::ReadResult::MissNew:
                    ++smStats.l1Misses;
                    stageRequest(
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
                stageRequest({line, true, smId, now + cfg.icntLatency});
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

    // The candidates are this scheduler's warps no mask rules out:
    // issuable, with a clean scoreboard, bound for a free unit, and not
    // refused by memory backpressure. Structural backpressure from the
    // memory system counts as a long-memory-latency stall (the warp is
    // blocked on the memory system, not on a pipeline).
    std::uint64_t busyBlocked = 0;
    if (aluBusyUntil[sched] > now)
        busyBlocked |= aluNextMask;
    if (sfuBusyUntil > now)
        busyBlocked |= sfuNextMask;
    if (ldstBusyUntil > now)
        busyBlocked |= ldstNextMask;
    const std::uint64_t live = schedListMask[sched];
    const std::uint64_t clean =
        issuableMask & ~memBlockedMask & ~shortBlockedMask;
    const std::uint64_t unblocked = live & clean & ~busyBlocked;
    const std::uint64_t refused = backpressured(unblocked);
    const std::uint64_t cand = unblocked & ~refused;
    if (cand != 0) {
        if (schedKind == SchedulerKind::Gto) {
            // Greedy-then-oldest: stick with the last issued warp, then
            // fall back to the oldest candidate. The list is in age
            // order, so that is the candidate a walk of it would reach
            // first.
            int pick = lastIssued[sched];
            if (pick < 0 || !((cand >> pick) & 1)) {
                std::uint64_t m = cand;
                pick = std::countr_zero(m);
                for (m &= m - 1; m != 0; m &= m - 1) {
                    const int widx = std::countr_zero(m);
                    if (warps[widx].age < warps[pick].age)
                        pick = widx;
                }
                lastIssued[sched] = pick;
            }
            issue(static_cast<std::uint16_t>(pick), sched, now);
            return;
        }
        // Loose round robin over the resident warps.
        const unsigned n = static_cast<unsigned>(list.size());
        const unsigned start = rrPos[sched] % n;
        for (unsigned i = 0; i < n; ++i) {
            const unsigned pos = (start + i) % n;
            const std::uint16_t widx = list[pos];
            if ((cand >> widx) & 1) {
                issue(widx, sched, now);
                lastIssued[sched] = widx;
                rrPos[sched] = pos + 1;
                return;
            }
        }
        simBug("scheduler candidate missing from its list");
    }

    // Nothing issued, so each live warp failed for exactly one reason
    // and these masks partition the live warps.
    const std::uint64_t ready = live & issuableMask;
    const std::uint64_t outcomes[] = {
        (ready & memBlockedMask) | refused,
        ready & ~memBlockedMask & shortBlockedMask,
        live & clean & busyBlocked,
        live & ~issuableMask & ~barrierMask,
        live & barrierMask};
    static constexpr StallKind kinds[] = {
        StallKind::MemLatency, StallKind::RawHazard,
        StallKind::ExecResource, StallKind::IBufferEmpty,
        StallKind::Barrier};
    // Charge the majority outcome, ties broken Mem > RAW > Exec >
    // IBuffer > Barrier to match the paper's accounting priority.
    unsigned best = 0;
    int most = std::popcount(outcomes[0]);
    for (unsigned i = 1; i < 5; ++i) {
        const int count = std::popcount(outcomes[i]);
        if (count > most) {
            best = i;
            most = count;
        }
    }
    const StallKind kind = kinds[best];
    int culprit = invalidKernel;
    if (recordTelemetry) {
        // Attribute the stall to the kernel whose warps dominate the
        // charged outcome (per-tenant Figure 1 profiles); on a tie the
        // lowest kernel id wins.
        std::array<unsigned, maxConcurrentKernels> perKernel{};
        for (std::uint64_t m = outcomes[best]; m != 0; m &= m - 1)
            ++perKernel[warps[std::countr_zero(m)].kernel];
        culprit = static_cast<int>(
            std::max_element(perKernel.begin(), perKernel.end()) -
            perKernel.begin());
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
        fetchWheel.push(now + lat, {entry.warp, entry.epoch});
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

    // Timing wheels: a wheel with no live entries skips its slot
    // probe.
    if (wbWheel.size() != 0) {
        // Writeback wheel: retire short-latency results.
        wbWheel.drain(now, [&](const WbEntry &e) {
            if (warps[e.warp].epoch == e.epoch) {
                hot[e.warp].pendingShort &= ~e.regMask;
                updateIssuable(e.warp);
                invalidateScanCache();  // a ShortWait warp may be ready
            }
        });
    }

    if (fetchWheel.size() != 0) {
        // Instruction-buffer refills completing this cycle.
        fetchWheel.drain(now, [&](const FetchEntry &e) {
            WarpState &w = warps[e.warp];
            WarpHot &h = hot[e.warp];
            if (h.active && !h.finished && w.epoch == e.epoch &&
                w.fetchPending && w.fetchReadyAt <= now) {
                w.fetchPending = false;
                h.ibuf = cfg.ibufferEntries;
                updateIssuable(e.warp);
                invalidateScanCache();  // Empty flips to issuable
            }
        });
    }

    if (memWheel.size() != 0) {
        // L1-hit load transactions maturing this cycle.
        memWheel.drain(now, [&](std::uint16_t load_idx) {
            completeLoadTransaction(load_idx, now);
        });
    }

    // Line fills arriving from the memory partitions.
    for (std::size_t i = 0; i < respQueue.size();) {
        if (respQueue[i].readyAt <= now) {
            l1.fill(respQueue[i].line, fillScratch);
            for (std::uint64_t token : fillScratch.tokens)
                completeLoadTransaction(
                    static_cast<std::uint16_t>(token), now);
            // Even a fill whose loads are still partial frees an MSHR,
            // which can lift the MSHR backpressure on global loads.
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
