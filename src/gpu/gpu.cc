#include "gpu/gpu.hh"

#include "check/watchdog.hh"
#include "common/log.hh"
#include "obs/engine_profiler.hh"
#include "telemetry/telemetry.hh"
#include "trace/tracer.hh"

namespace wsl {

Gpu::Gpu(const GpuConfig &c, std::unique_ptr<SlicingPolicy> p)
    : cfg(c), policy(std::move(p))
{
    WSL_ASSERT(policy != nullptr, "GPU needs a slicing policy");
    // Reject inconsistent machines before building components out of
    // them (every harness and CLI path funnels through here).
    cfg.validate();
    sms.reserve(cfg.numSms);
    for (unsigned s = 0; s < cfg.numSms; ++s)
        sms.push_back(std::make_unique<SmCore>(cfg, s));
    partitions.reserve(cfg.numMemPartitions);
    for (unsigned p_idx = 0; p_idx < cfg.numMemPartitions; ++p_idx)
        partitions.push_back(std::make_unique<MemPartition>(cfg, p_idx));
    if (cfg.auditCadence != 0)
        auditor = std::make_unique<Auditor>(cfg.auditCadence);

    smPtrs.reserve(sms.size());
    for (auto &sm_ptr : sms)
        smPtrs.push_back(sm_ptr.get());
    partPtrs.reserve(partitions.size());
    for (auto &part : partitions)
        partPtrs.push_back(part.get());
}

KernelId
Gpu::launchKernel(const KernelParams &params, std::uint64_t inst_target)
{
    WSL_ASSERT(kernels.size() < maxConcurrentKernels,
               "kernel table full");
    auto inst = std::make_unique<KernelInstance>();
    inst->id = static_cast<KernelId>(kernels.size());
    inst->params = params;
    inst->program = buildProgram(params);
    inst->baseAddr = (static_cast<Addr>(inst->id) + 1) << 36;
    inst->instTarget = inst_target;
    inst->launchCycle = now;
    Tracer::global().setKernelName(inst->id, params.name);
    Tracer::global().record(now, TraceEvent::KernelLaunch, inst->id,
                            params.gridDim);
    kernels.push_back(std::move(inst));
    ctaDispatchDirty = true;
    dispatchBlocked = false;
    policy->onKernelSetChanged(*this, now);
    return kernels.back()->id;
}

void
Gpu::haltKernel(KernelId kid)
{
    WSL_ASSERT(kid >= 0 && static_cast<std::size_t>(kid) < kernels.size(),
               detail::concat("haltKernel: bad kernel id ", kid));
    KernelInstance &k = *kernels[kid];
    if (k.done)
        return;
    k.done = true;
    k.halted = true;
    k.finishCycle = now;
    Tracer::global().record(now, TraceEvent::KernelFinish, k.id, 1);
    for (auto &sm_ptr : sms)
        sm_ptr->evictKernel(k.id);
    ctaDispatchDirty = true;
    dispatchBlocked = false;
    policy->onKernelSetChanged(*this, now);
}

void
Gpu::dispatch()
{
    // Policies mutate quotas directly on the SMs; a moved generation
    // sum is the only signal that placement limits changed.
    std::uint64_t gen = 0;
    for (const auto &sm_ptr : sms)
        gen += sm_ptr->quotaGeneration();
    if (gen != quotaGenSeen) {
        quotaGenSeen = gen;
        ctaDispatchDirty = true;
        dispatchBlocked = false;
    }
    // Every grid fully issued and nothing re-armed the scan since:
    // dispatch is a no-op (the common steady state once every grid is
    // fully launched).
    if (!ctaDispatchDirty)
        return;
    bool pending = false;
    for (const auto &kern_ptr : kernels) {
        if (kern_ptr->hasCtasToIssue()) {
            pending = true;
            break;
        }
    }
    if (!pending) {
        ctaDispatchDirty = false;
        return;
    }
    // CTAs are pending but the last scan placed none of them; until a
    // re-arm event or the policy's next decision boundary, rescanning
    // would provably place none again.
    if (dispatchBlocked && now < dispatchBlockedUntil)
        return;
    dispatchBlocked = false;

    // Kernel-aware thread-block scheduler: kernels are considered in
    // table order; the policy's quotas and SM masks carve up the SMs.
    bool placed = false;
    for (auto &sm_ptr : sms) {
        SmCore &core = *sm_ptr;
        for (auto &kern_ptr : kernels) {
            KernelInstance &k = *kern_ptr;
            if (!k.hasCtasToIssue())
                continue;
            if (!policy->mayDispatch(*this, core.id(), k.id))
                continue;
            const int q = core.quota(k.id);
            while (k.hasCtasToIssue() &&
                   (q < 0 ||
                    core.residentCtas(k.id) < static_cast<unsigned>(q)) &&
                   core.canAcceptCta(k.params)) {
                const bool ok =
                    core.launchCta(k.id, k.params, k.program, k.nextCta,
                                   k.baseAddr, now);
                WSL_ASSERT(ok, "launch failed after canAcceptCta");
                Tracer::global().record(
                    now, TraceEvent::CtaLaunch, k.id, k.nextCta,
                    static_cast<std::uint32_t>(core.id()));
                ++k.nextCta;
                placed = true;
            }
        }
    }
    if (!placed) {
        dispatchBlocked = true;
        dispatchBlockedUntil = policy->nextDecisionAt(now);
    }
}

void
Gpu::tickSms()
{
    for (auto &sm_ptr : sms) {
        // A drained core can only burn Idle slots this cycle; account
        // them without running the pipeline stages.
        if (sm_ptr->quiescent(now))
            sm_ptr->idleTick();
        else
            sm_ptr->tick(now);
    }
}

void
Gpu::tickPartitions()
{
    for (auto &part : partitions)
        part->tick(now);
}

void
Gpu::drainCtaEvents()
{
    for (auto &sm_ptr : sms) {
        auto &events = sm_ptr->completedCtaEvents();
        if (!events.empty()) {
            ctaDispatchDirty = true;  // freed resources: rescan
            dispatchBlocked = false;
        }
        for (KernelId kid : events) {
            ++kernels[kid]->ctasCompleted;
            Tracer::global().record(
                now, TraceEvent::CtaComplete, kid,
                kernels[kid]->ctasCompleted,
                static_cast<std::uint32_t>(sm_ptr->id()));
        }
        events.clear();
    }
}

void
Gpu::checkKernelProgress()
{
    bool set_changed = false;
    for (auto &kern_ptr : kernels) {
        KernelInstance &k = *kern_ptr;
        if (k.done)
            continue;
        // Check the cheap grid predicate first: the 16-SM instruction
        // sum only matters for target-bounded runs that are still going.
        const bool grid_done = k.nextCta >= k.params.gridDim &&
                               k.ctasCompleted >= k.params.gridDim;
        const bool target_hit =
            !grid_done && k.instTarget > 0 &&
            kernelThreadInsts(k.id) >= k.instTarget;
        if (target_hit || grid_done) {
            k.done = true;
            k.halted = target_hit && !grid_done;
            // Cycles elapsed at completion (this tick included).
            k.finishCycle = now + 1;
            Tracer::global().record(now, TraceEvent::KernelFinish,
                                    k.id, k.halted ? 1 : 0);
            if (k.halted) {
                for (auto &sm_ptr : sms)
                    sm_ptr->evictKernel(k.id);
            }
            set_changed = true;
        }
    }
    if (set_changed) {
        ctaDispatchDirty = true;
        dispatchBlocked = false;
        policy->onKernelSetChanged(*this, now);
    }
}

void
Gpu::tick()
{
    policy->tick(*this, now);
    dispatch();
    // Compute phases (tickSms/tickPartitions) touch only
    // per-component state; the interconnect stage between them moves
    // the staged traffic in fixed component-index order.
    if (prof) {
        // Timed variant: identical phase sequence, bracketed by
        // monotonic clock reads that feed nothing back into the
        // simulation.
        prof->onTick();
        const std::uint64_t t0 = EngineProfiler::timestampNs();
        tickSms();
        const std::uint64_t t1 = EngineProfiler::timestampNs();
        icnt.mergeRequests(smPtrs, partPtrs);
        const std::uint64_t t2 = EngineProfiler::timestampNs();
        tickPartitions();
        const std::uint64_t t3 = EngineProfiler::timestampNs();
        icnt.deliverResponses(partPtrs, smPtrs);
        const std::uint64_t t4 = EngineProfiler::timestampNs();
        prof->onPhaseNs(EpochPhase::SmCompute, t1 - t0);
        prof->onPhaseNs(EpochPhase::IcntMergeRequests, t2 - t1);
        prof->onPhaseNs(EpochPhase::PartitionCompute, t3 - t2);
        prof->onPhaseNs(EpochPhase::IcntDeliver, t4 - t3);
    } else {
        tickSms();
        icnt.mergeRequests(smPtrs, partPtrs);
        tickPartitions();
        icnt.deliverResponses(partPtrs, smPtrs);
    }
    drainCtaEvents();
    checkKernelProgress();
    ++now;
    if (telem)
        telem->onCycleEnd(*this);
}

void
Gpu::attachTelemetry(TelemetrySampler *sampler)
{
    telem = sampler && sampler->enabled() ? sampler : nullptr;
    for (auto &sm_ptr : sms)
        sm_ptr->setTelemetryRecording(telem != nullptr);
    for (auto &part : partitions)
        part->setTelemetryRecording(telem != nullptr);
    if (telem)
        telem->bind(*this);
}

void
Gpu::attachEngineProfiler(EngineProfiler *profiler)
{
    prof = profiler;
}

std::uint64_t
Gpu::progressSignature() const
{
    std::uint64_t sig = 0;
    for (const auto &sm_ptr : sms) {
        const SmStats &st = sm_ptr->stats();
        sig += st.warpInstsIssued + st.ifetches + st.ctasLaunched +
               st.l1Accesses;
    }
    for (const auto &part : partitions) {
        const PartitionStats st = part->stats();
        sig += st.l2Accesses + st.dramReads + st.dramWrites;
    }
    return sig;
}

void
Gpu::checkWatchdog()
{
    const std::uint64_t sig = progressSignature();
    if (sig != lastProgressSig) {
        lastProgressSig = sig;
        lastProgressCycle = now;
        return;
    }
    // Only a machine with resident warps can deadlock; an empty one
    // merely waits for dispatch, bounded by the caller's max_cycles.
    bool resident = false;
    for (const auto &sm_ptr : sms) {
        if (!sm_ptr->idle()) {
            resident = true;
            break;
        }
    }
    if (!resident) {
        lastProgressCycle = now;
        return;
    }
    const Cycle stalled = now - lastProgressCycle;
    if (stalled >= cfg.watchdogCycles)
        throw DeadlockError(now, stalled,
                            buildDeadlockReport(*this, stalled));
}

Cycle
Gpu::run(Cycle max_cycles)
{
    // Tag assertion failures / panics on this thread with our cycle.
    SimContextGuard errorContext(&now);
    const Cycle start = now;
    const Cycle end = now + max_cycles;
    const Cycle wd = cfg.watchdogCycles;
    if (wd != 0) {
        lastProgressCycle = now;
        lastProgressSig = progressSignature();
    }
    while (now < end && !allKernelsDone()) {
        tick();
        if (auditor && now >= auditor->nextAuditAt())
            auditor->runChecks(*this);
        if (wd != 0)
            checkWatchdog();
    }
    return now - start;
}

bool
Gpu::allKernelsDone() const
{
    if (kernels.empty())
        return false;
    for (const auto &k : kernels)
        if (!k->done)
            return false;
    return true;
}

std::uint64_t
Gpu::kernelThreadInsts(KernelId kid) const
{
    std::uint64_t total = 0;
    for (const auto &sm_ptr : sms)
        total += sm_ptr->stats().kernelThreadInsts[kid];
    return total;
}

std::uint64_t
Gpu::kernelWarpInsts(KernelId kid) const
{
    std::uint64_t total = 0;
    for (const auto &sm_ptr : sms)
        total += sm_ptr->stats().kernelWarpInsts[kid];
    return total;
}

GpuStats
Gpu::collectStats() const
{
    GpuStats g;
    for (const auto &sm_ptr : sms)
        accumulateStats<SmStats>(g, sm_ptr->stats());
    for (const auto &part : partitions)
        accumulateStats<PartitionStats>(g, part->stats());
    // The per-SM sum of `cycles` is meaningless GPU-wide; report the
    // global simulation clock instead.
    g.cycles = now;
    return g;
}

} // namespace wsl
