#include "core/warped_slicer.hh"

#include <algorithm>
#include <cmath>

#include <sstream>
#include <string_view>

#include "common/log.hh"
#include "core/policies.hh"
#include "obs/decision_log.hh"
#include "snapshot/io.hh"
#include "trace/tracer.hh"

namespace wsl {

WarpedSlicerPolicy::WarpedSlicerPolicy(WarpedSlicerOptions o) : opts(o) {}

void
WarpedSlicerPolicy::onKernelSetChanged(Gpu &gpu, Cycle now)
{
    live = liveKernels(gpu);
    if (live.size() <= 1) {
        // A lone kernel owns the machine: lift every restriction.
        for (unsigned s = 0; s < gpu.numSms(); ++s)
            gpu.sm(s).clearQuotas();
        smOwner.clear();
        currentPhase = Phase::Idle;
        return;
    }
    startProfiling(gpu, now);
}

void
WarpedSlicerPolicy::startProfiling(Gpu &gpu, Cycle now)
{
    currentPhase = Phase::Profiling;
    // The very first decision waits out the machine warm-up; kernels
    // arriving later are profiled immediately (Section IV-B).
    profileStart = std::max<Cycle>(now, opts.warmup);
    profileEnd = profileStart + opts.profileLength;
    snapshotTaken = false;
    Tracer::global().record(now,
                            rounds == 0 ? TraceEvent::ProfileStart
                                        : TraceEvent::Reprofile,
                            invalidKernel, rounds);
    // Enough sub-windows that every CTA count up to the SM limit gets
    // sampled even when the per-kernel SM group is small.
    const unsigned group =
        std::max(1u, gpu.numSms() / std::max<unsigned>(
                         1, static_cast<unsigned>(live.size())));
    numSubWindows =
        (gpu.config().maxCtasPerSm + group - 1) / group;
    subWindow = 0;
    collected.assign(live.size(), {});
    applyProfileConfig(gpu);
}

void
WarpedSlicerPolicy::applyProfileConfig(Gpu &gpu)
{
    const unsigned num_sms = gpu.numSms();
    const unsigned num_live = static_cast<unsigned>(live.size());
    const std::vector<unsigned> groups =
        spatialGroups(num_sms, num_live);

    smOwner.assign(num_sms, invalidKernel);
    smProfileCtas.assign(num_sms, 0);
    const unsigned group = std::max(1u, num_sms / num_live);
    std::vector<unsigned> idx_in_group(num_live, 0);
    for (unsigned s = 0; s < num_sms; ++s) {
        const KernelId kid = live[groups[s]];
        const KernelInstance &k = gpu.kernel(kid);
        const unsigned kernel_max =
            std::min(k.params.maxCtasPerSm(gpu.config()),
                     gpu.config().maxCtasPerSm);
        const unsigned want =
            ((idx_in_group[groups[s]]++ + subWindow * group) %
             gpu.config().maxCtasPerSm) + 1;
        const unsigned ctas = std::min(want, kernel_max);
        smOwner[s] = kid;
        smProfileCtas[s] = ctas;
        SmCore &core = gpu.sm(s);
        core.clearQuotas();
        for (KernelId other : live)
            core.setQuota(other, other == kid
                                      ? static_cast<int>(ctas) : 0);
    }
}

void
WarpedSlicerPolicy::takeSnapshot(Gpu &gpu)
{
    snapshots.assign(gpu.numSms(), {});
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        const SmStats &st = gpu.sm(s).stats();
        const KernelId kid = smOwner[s];
        if (kid == invalidKernel)
            continue;
        snapshots[s].kernelInsts = st.kernelWarpInsts[kid];
        snapshots[s].memStalls =
            st.stalls[static_cast<unsigned>(StallKind::MemLatency)];
        snapshots[s].l1Misses = st.l1Misses;
        snapshots[s].aluBusy = st.aluBusyCycles;
        snapshots[s].resident = gpu.sm(s).residentCtas(kid);
    }
    snapshotTaken = true;
}

void
WarpedSlicerPolicy::collectSamples(Gpu &gpu)
{
    const GpuConfig &cfg = gpu.config();
    const double window = static_cast<double>(opts.profileLength);
    // Fair per-SM DRAM share in isolation (Equation 3's B_scaled): a
    // memory-bound kernel alone sustains ~bwUtilization of the peak
    // channel capacity, split evenly across the SMs.
    const double fair_lines =
        opts.bwUtilization *
        (static_cast<double>(cfg.numMemPartitions) / cfg.dramBurst) /
        cfg.numSms;

    for (std::size_t i = 0; i < live.size(); ++i) {
        const KernelId kid = live[i];
        for (unsigned s = 0; s < gpu.numSms(); ++s) {
            if (smOwner[s] != kid)
                continue;
            // A sample is only valid if the SM actually held a
            // stable CTA count for the window: after a sub-window
            // quota change, over-quota CTAs drain slowly and the SM
            // temporarily runs more CTAs than assigned.
            const unsigned resident = gpu.sm(s).residentCtas(kid);
            if (resident == 0 || resident != snapshots[s].resident)
                continue;
            const SmStats &st = gpu.sm(s).stats();
            ProfileSample sample;
            sample.ctas = resident;
            sample.ipc =
                static_cast<double>(st.kernelWarpInsts[kid] -
                                    snapshots[s].kernelInsts) /
                window;
            const std::uint64_t mem_stalls =
                st.stalls[static_cast<unsigned>(
                    StallKind::MemLatency)] -
                snapshots[s].memStalls;
            sample.phiMem = static_cast<double>(mem_stalls) /
                            (window * cfg.numSchedulers);
            sample.linesPerCycle =
                static_cast<double>(st.l1Misses -
                                    snapshots[s].l1Misses) /
                window;
            sample.aluPerCycle =
                static_cast<double>(st.aluBusyCycles -
                                    snapshots[s].aluBusy) /
                window;
            // Equation 3 bandwidth correction, then assemble the
            // vector without the Equation 4 CTA-ratio simplification.
            const double raw_ipc = sample.ipc;
            sample.rawIpc = raw_ipc;
            if (opts.bwScaling)
                sample.ipc = scaledIpcBandwidth(sample, fair_lines);
            if (opts.bwConstraint &&
                sample.linesPerCycle > fair_lines) {
                // Per-sample Equation 2 ceiling (IPC ~ BW/MPKI): an SM
                // consuming more than the fair DRAM share during the
                // lightly loaded profile cannot sustain that rate in
                // steady state.
                sample.ipc = std::min(
                    sample.ipc,
                    raw_ipc * fair_lines / sample.linesPerCycle);
            }
            collected[i].push_back(sample);
        }
    }
}

void
WarpedSlicerPolicy::computeDecision(Gpu &gpu)
{
    const GpuConfig &cfg = gpu.config();
    const double fair_lines =
        opts.bwUtilization *
        (static_cast<double>(cfg.numMemPartitions) / cfg.dramBurst) /
        cfg.numSms;

    std::vector<KernelDemand> demands;
    perfVectors.clear();
    bwVectors.clear();
    aluVectors.clear();
    for (std::size_t i = 0; i < live.size(); ++i) {
        const KernelId kid = live[i];
        const std::vector<ProfileSample> &samples = collected[i];
        const KernelInstance &k = gpu.kernel(kid);
        const unsigned max_ctas = std::min(
            k.params.maxCtasPerSm(cfg), cfg.maxCtasPerSm);
        KernelDemand demand;
        demand.perCta = ResourceVec::ofCta(k.params);
        demand.perf = buildPerfVector(samples, max_ctas, 0.0);
        // Measured shared-resource demand curves (bandwidth and ALU
        // occupancy vs CTA count) for the interference constraints.
        std::vector<ProfileSample> bw_samples = samples;
        for (ProfileSample &b : bw_samples)
            b.ipc = b.linesPerCycle;
        demand.bwCurve = buildPerfVector(bw_samples, max_ctas, 0.0);
        std::vector<ProfileSample> alu_samples = samples;
        for (ProfileSample &a : alu_samples)
            a.ipc = a.aluPerCycle;
        demand.aluCurve = buildPerfVector(alu_samples, max_ctas, 0.0);
        if (opts.bwConstraint) {
            // Streaming kernels have a stable memory intensity
            // (lines per instruction); for them the whole curve obeys
            // the Equation 2 ceiling IPC <= fair_bw / lambda. Cache-
            // sensitive kernels (lambda varies with occupancy) are
            // handled by the per-sample correction instead.
            double lambda_min = 1e30, lambda_max = 0.0;
            for (const ProfileSample &s : samples) {
                if (s.rawIpc > 1e-6 && s.linesPerCycle > 1e-6) {
                    const double lambda = s.linesPerCycle / s.rawIpc;
                    lambda_min = std::min(lambda_min, lambda);
                    lambda_max = std::max(lambda_max, lambda);
                }
            }
            if (lambda_max > 0.0 && lambda_max <= 2.5 * lambda_min &&
                lambda_min * fair_lines > 0.0) {
                const double lambda =
                    0.5 * (lambda_min + lambda_max);
                if (lambda > 1e-6) {
                    const double ipc_cap = fair_lines / lambda;
                    for (double &p : demand.perf)
                        p = std::min(p, ipc_cap);
                }
            }
        }
        perfVectors.push_back(demand.perf);
        bwVectors.push_back(demand.bwCurve);
        aluVectors.push_back(demand.aluCurve);
        demands.push_back(std::move(demand));
    }

    const double alu_budget =
        opts.aluUtilization * cfg.numAluPipes;
    decision = waterFill(demands, ResourceVec::capacity(cfg),
                         opts.bwConstraint ? fair_lines : 0.0,
                         opts.bwConstraint ? alu_budget : 0.0);
    // Spatial fallback (Section IV): with K kernels sharing an SM, a
    // kernel expecting to retain less than (120/K)% of its solo
    // performance disbands the co-location.
    const double required_perf =
        opts.lossThresholdScale / static_cast<double>(live.size());
    pendingSpatial = !decision.feasible ||
                     decision.minNormPerf < required_perf;
    ++rounds;
}

void
WarpedSlicerPolicy::applyDecision(Gpu &gpu, Cycle now)
{
    decidedAt = now;
    history.push_back({live, decision.ctas, pendingSpatial, now});
    Tracer::global().record(now, TraceEvent::Decision, invalidKernel,
                            packQuotas(decision.ctas),
                            pendingSpatial ? 1 : 0);
    if (pendingSpatial) {
        // Fall back to inter-SM spatial multitasking.
        const std::vector<unsigned> groups = spatialGroups(
            gpu.numSms(), static_cast<unsigned>(live.size()));
        smOwner.assign(gpu.numSms(), invalidKernel);
        for (unsigned s = 0; s < gpu.numSms(); ++s) {
            smOwner[s] = live[groups[s]];
            gpu.sm(s).clearQuotas();
        }
        currentPhase = Phase::Spatial;
    } else {
        smOwner.clear();
        for (unsigned s = 0; s < gpu.numSms(); ++s) {
            SmCore &core = gpu.sm(s);
            core.clearQuotas();
            for (std::size_t i = 0; i < live.size(); ++i)
                core.setQuota(live[i], decision.ctas[i]);
        }
        currentPhase = Phase::Enforced;
    }

    // Arm the phase monitor.
    monitorStart = now;
    monitorInstSnapshot.assign(live.size(), 0);
    for (std::size_t i = 0; i < live.size(); ++i)
        monitorInstSnapshot[i] = gpu.kernelWarpInsts(live[i]);
    baselineIpc.assign(live.size(), -1.0);
    deviatedWindows = 0;
    windowsSinceDecision = 0;

    if (dlog) {
        DecisionLogEntry entry;
        entry.cycle = now;
        entry.round = rounds;
        entry.feasible = decision.feasible;
        entry.spatial = pendingSpatial;
        entry.minNormPerf = decision.minNormPerf;
        entry.requiredPerf = opts.lossThresholdScale /
                             static_cast<double>(live.size());
        // Whole-GPU predicted IPC: the per-SM curve value times the
        // SMs the kernel runs on — all of them under an intra-SM
        // split, its spatial group otherwise.
        std::vector<unsigned> group_size(live.size(), 0);
        if (pendingSpatial) {
            for (unsigned s = 0; s < gpu.numSms(); ++s)
                for (std::size_t i = 0; i < live.size(); ++i)
                    if (smOwner[s] == live[i])
                        ++group_size[i];
        }
        for (std::size_t i = 0; i < live.size(); ++i) {
            DecisionLogEntry::KernelInput input;
            input.id = live[i];
            input.name = gpu.kernel(live[i]).params.name;
            if (i < perfVectors.size())
                input.perf = perfVectors[i];
            if (i < bwVectors.size())
                input.bwCurve = bwVectors[i];
            if (i < aluVectors.size())
                input.aluCurve = aluVectors[i];

            double predicted = 0.0;
            if (!input.perf.empty()) {
                if (pendingSpatial) {
                    double peak = 0.0;
                    for (const double p : input.perf)
                        peak = std::max(peak, p);
                    predicted = peak * group_size[i];
                } else if (!decision.ctas.empty() &&
                           decision.ctas[i] >= 1) {
                    const std::size_t idx = std::min<std::size_t>(
                        decision.ctas[i] - 1, input.perf.size() - 1);
                    predicted = input.perf[idx] * gpu.numSms();
                }
            }
            entry.predictedIpc.push_back(predicted);
            entry.kernels.push_back(std::move(input));
        }
        entry.steps = decision.steps;
        entry.chosenCtas = decision.ctas;
        entry.normPerf = decision.normPerf;
        entry.realizedIpc.assign(live.size(), -1.0);
        pendingRealized =
            static_cast<std::ptrdiff_t>(dlog->record(std::move(entry)));
    }
}

void
WarpedSlicerPolicy::tick(Gpu &gpu, Cycle now)
{
    switch (currentPhase) {
      case Phase::Idle:
        return;
      case Phase::Profiling: {
        if (!snapshotTaken && now >= profileStart)
            takeSnapshot(gpu);
        if (snapshotTaken && now >= profileEnd) {
            collectSamples(gpu);
            if (++subWindow < numSubWindows) {
                // Time-share the SM groups over another quota
                // staircase (>2 kernels; Section IV-A).
                profileStart = now;
                profileEnd = now + opts.profileLength;
                snapshotTaken = false;
                applyProfileConfig(gpu);
                return;
            }
            computeDecision(gpu);
            applyAt = now + opts.algorithmDelay;
            currentPhase = Phase::Delay;
            // While the algorithm "runs", the profile allocation keeps
            // executing (Section V-H: the delay does not block warps).
            if (now >= applyAt)
                applyDecision(gpu, now);
        }
        return;
      }
      case Phase::Delay: {
        if (now >= applyAt)
            applyDecision(gpu, now);
        return;
      }
      case Phase::Enforced:
      case Phase::Spatial: {
        if (!opts.phaseMonitor)
            return;
        if (now < monitorStart + opts.monitorWindow)
            return;
        // Close a monitoring window: compare per-kernel IPC with the
        // post-decision baseline. The first windows after a decision
        // are discarded: over-quota CTAs from the profiling layout are
        // still draining and would poison the baseline.
        ++windowsSinceDecision;
        bool deviated = false;
        for (std::size_t i = 0; i < live.size(); ++i) {
            const KernelId kid = live[i];
            if (gpu.kernel(kid).done)
                continue;
            const std::uint64_t insts = gpu.kernelWarpInsts(kid);
            const double ipc =
                static_cast<double>(insts - monitorInstSnapshot[i]) /
                static_cast<double>(opts.monitorWindow);
            monitorInstSnapshot[i] = insts;
            if (windowsSinceDecision <= opts.baselineSkipWindows)
                continue;
            if (baselineIpc[i] < 0.0) {
                baselineIpc[i] = ipc;
            } else if (baselineIpc[i] > 0.0) {
                const double rel =
                    std::fabs(ipc - baselineIpc[i]) / baselineIpc[i];
                if (rel > opts.phaseDelta)
                    deviated = true;
            }
        }
        // The first settled window (over-quota profile CTAs drained)
        // is the decision's realized-IPC measurement: the baseline
        // values just captured are exactly the per-kernel whole-GPU
        // IPC under the applied split.
        if (dlog && pendingRealized >= 0 &&
            windowsSinceDecision == opts.baselineSkipWindows + 1) {
            DecisionLogEntry &entry =
                dlog->entries()[static_cast<std::size_t>(
                    pendingRealized)];
            for (std::size_t i = 0;
                 i < live.size() && i < entry.realizedIpc.size(); ++i)
                entry.realizedIpc[i] = baselineIpc[i];
            entry.realizedAt = now;
            pendingRealized = -1;
        }
        monitorStart = now;
        deviatedWindows = deviated ? deviatedWindows + 1 : 0;
        if (deviatedWindows >= opts.sustainedWindows &&
            now >= decidedAt + opts.reprofileCooldown) {
            deviatedWindows = 0;
            startProfiling(gpu, now);
        }
        return;
      }
    }
}

Cycle
WarpedSlicerPolicy::nextDecisionAt(Cycle now) const
{
    // Each phase acts only at its boundary; every tick strictly before
    // it is a no-op. A boundary at or before `now` means the pending
    // action runs on the next tick.
    switch (currentPhase) {
      case Phase::Idle:
        return neverCycle;
      case Phase::Profiling:
        return snapshotTaken ? profileEnd : profileStart;
      case Phase::Delay:
        return applyAt;
      case Phase::Enforced:
      case Phase::Spatial:
        return opts.phaseMonitor ? monitorStart + opts.monitorWindow
                                 : neverCycle;
    }
    return now;
}

std::string
WarpedSlicerPolicy::describeLastDecision() const
{
    if (history.empty())
        return {};
    const DecisionRecord &last = history.back();
    std::ostringstream os;
    os << "Dynamic decision @" << last.at << " round " << rounds
       << ": ";
    if (last.spatial) {
        os << "spatial fallback over kernels";
        for (const KernelId kid : last.live)
            os << " k" << kid;
    } else {
        os << "intra-SM split";
        for (std::size_t i = 0; i < last.live.size(); ++i)
            os << " k" << last.live[i] << "="
               << (i < last.ctas.size() ? last.ctas[i] : 0);
        os << " (minNormPerf " << decision.minNormPerf << ")";
    }
    return os.str();
}

bool
WarpedSlicerPolicy::mayDispatch(const Gpu &gpu, SmId sm,
                                KernelId kid) const
{
    (void)gpu;
    switch (currentPhase) {
      case Phase::Profiling:
      case Phase::Delay:
      case Phase::Spatial:
        return !smOwner.empty() && smOwner[sm] == kid;
      default:
        return true;
    }
}

// ---- Snapshot serialization ----

namespace {

// WaterFillStep::reason points at string literals; serialize the
// index over the closed set waterfill.cc uses and restore to the same
// literals, keeping the pointers valid after a round trip.
constexpr const char *stepReasons[] = {"ok", "resources", "bandwidth",
                                       "alu"};

std::uint8_t
reasonIndex(const char *reason)
{
    for (std::uint8_t i = 0; i < 4; ++i)
        if (std::string_view(reason) == stepReasons[i])
            return i;
    WSL_ASSERT(false, "unknown water-fill step reason");
    return 0;
}

void
writeSteps(SnapWriter &w, const std::vector<WaterFillStep> &steps)
{
    w.u32(static_cast<std::uint32_t>(steps.size()));
    for (const WaterFillStep &s : steps) {
        w.i32(s.kernel);
        w.i32(s.ctasAfter);
        w.f64(s.level);
        w.b(s.accepted);
        w.u8(reasonIndex(s.reason));
    }
}

std::vector<WaterFillStep>
readSteps(SnapReader &r)
{
    std::vector<WaterFillStep> steps(r.u32());
    for (WaterFillStep &s : steps) {
        s.kernel = r.i32();
        s.ctasAfter = r.i32();
        s.level = r.f64();
        s.accepted = r.b();
        const std::uint8_t idx = r.u8();
        if (idx >= 4)
            throw SnapshotError("bad water-fill step reason index");
        s.reason = stepReasons[idx];
    }
    return steps;
}

void
writeWaterFill(SnapWriter &w, const WaterFillResult &d)
{
    w.b(d.feasible);
    writeI32Vec(w, d.ctas);
    writeF64Vec(w, d.normPerf);
    w.f64(d.minNormPerf);
    w.u32(d.used.regs);
    w.u32(d.used.shm);
    w.u32(d.used.threads);
    w.u32(d.used.ctas);
    writeSteps(w, d.steps);
}

WaterFillResult
readWaterFill(SnapReader &r)
{
    WaterFillResult d;
    d.feasible = r.b();
    d.ctas = readI32Vec(r);
    d.normPerf = readF64Vec(r);
    d.minNormPerf = r.f64();
    d.used.regs = r.u32();
    d.used.shm = r.u32();
    d.used.threads = r.u32();
    d.used.ctas = r.u32();
    d.steps = readSteps(r);
    return d;
}

void
writeVecVecF64(SnapWriter &w,
               const std::vector<std::vector<double>> &vv)
{
    w.u32(static_cast<std::uint32_t>(vv.size()));
    for (const std::vector<double> &v : vv)
        writeF64Vec(w, v);
}

std::vector<std::vector<double>>
readVecVecF64(SnapReader &r)
{
    std::vector<std::vector<double>> vv(r.u32());
    for (std::vector<double> &v : vv)
        v = readF64Vec(r);
    return vv;
}

void
writeLogEntry(SnapWriter &w, const DecisionLogEntry &e)
{
    w.u64(e.cycle);
    w.u32(e.round);
    w.b(e.feasible);
    w.b(e.spatial);
    w.f64(e.minNormPerf);
    w.f64(e.requiredPerf);
    w.u32(static_cast<std::uint32_t>(e.kernels.size()));
    for (const DecisionLogEntry::KernelInput &k : e.kernels) {
        w.i32(k.id);
        w.str(k.name);
        writeF64Vec(w, k.perf);
        writeF64Vec(w, k.bwCurve);
        writeF64Vec(w, k.aluCurve);
    }
    writeSteps(w, e.steps);
    writeI32Vec(w, e.chosenCtas);
    writeF64Vec(w, e.normPerf);
    writeF64Vec(w, e.predictedIpc);
    writeF64Vec(w, e.realizedIpc);
    w.u64(e.realizedAt);
}

DecisionLogEntry
readLogEntry(SnapReader &r)
{
    DecisionLogEntry e;
    e.cycle = r.u64();
    e.round = r.u32();
    e.feasible = r.b();
    e.spatial = r.b();
    e.minNormPerf = r.f64();
    e.requiredPerf = r.f64();
    e.kernels.resize(r.u32());
    for (DecisionLogEntry::KernelInput &k : e.kernels) {
        k.id = r.i32();
        k.name = r.str();
        k.perf = readF64Vec(r);
        k.bwCurve = readF64Vec(r);
        k.aluCurve = readF64Vec(r);
    }
    e.steps = readSteps(r);
    e.chosenCtas = readI32Vec(r);
    e.normPerf = readF64Vec(r);
    e.predictedIpc = readF64Vec(r);
    e.realizedIpc = readF64Vec(r);
    e.realizedAt = r.u64();
    return e;
}

} // namespace

void
WarpedSlicerPolicy::saveState(SnapWriter &w) const
{
    // Options first: a CLI restore may have derived different
    // window-scaled options, and the continued run must use the
    // capture-side values for its decisions to stay bit-identical.
    w.u64(opts.warmup);
    w.u64(opts.profileLength);
    w.u64(opts.algorithmDelay);
    w.f64(opts.lossThresholdScale);
    w.f64(opts.bwUtilization);
    w.b(opts.bwScaling);
    w.b(opts.bwConstraint);
    w.f64(opts.aluUtilization);
    w.b(opts.phaseMonitor);
    w.u64(opts.monitorWindow);
    w.f64(opts.phaseDelta);
    w.u32(opts.sustainedWindows);
    w.u32(opts.baselineSkipWindows);
    w.u64(opts.reprofileCooldown);

    w.u8(static_cast<std::uint8_t>(currentPhase));
    writeI32Vec(w, live);
    writeI32Vec(w, smOwner);
    writeU32Vec(w, smProfileCtas);
    w.u64(profileStart);
    w.u64(profileEnd);
    w.u64(applyAt);
    w.b(snapshotTaken);
    w.u32(subWindow);
    w.u32(numSubWindows);

    w.u32(static_cast<std::uint32_t>(collected.size()));
    for (const std::vector<ProfileSample> &samples : collected) {
        w.u32(static_cast<std::uint32_t>(samples.size()));
        for (const ProfileSample &s : samples) {
            w.u32(s.ctas);
            w.f64(s.ipc);
            w.f64(s.phiMem);
            w.f64(s.linesPerCycle);
            w.f64(s.aluPerCycle);
            w.f64(s.rawIpc);
        }
    }

    w.u32(static_cast<std::uint32_t>(snapshots.size()));
    for (const SmSnapshot &s : snapshots) {
        w.u64(s.kernelInsts);
        w.u64(s.memStalls);
        w.u64(s.l1Misses);
        w.u64(s.aluBusy);
        w.u32(s.resident);
    }

    writeWaterFill(w, decision);

    w.u32(static_cast<std::uint32_t>(history.size()));
    for (const DecisionRecord &rec : history) {
        writeI32Vec(w, rec.live);
        writeI32Vec(w, rec.ctas);
        w.b(rec.spatial);
        w.u64(rec.at);
    }

    writeVecVecF64(w, perfVectors);
    writeVecVecF64(w, bwVectors);
    writeVecVecF64(w, aluVectors);
    w.b(pendingSpatial);
    w.u32(rounds);
    w.u64(decidedAt);

    // Decision-log replay: the capture-side log's entries ride along
    // so a restored run with a log attached carries the complete
    // decision provenance, not just the post-restore suffix.
    w.b(dlog != nullptr);
    if (dlog) {
        const auto &entries = dlog->entries();
        w.u32(static_cast<std::uint32_t>(entries.size()));
        for (const DecisionLogEntry &e : entries)
            writeLogEntry(w, e);
        w.i64(pendingRealized);
    }

    w.u64(monitorStart);
    writeU64Vec(w, monitorInstSnapshot);
    writeF64Vec(w, baselineIpc);
    w.u32(deviatedWindows);
    w.u32(windowsSinceDecision);
}

void
WarpedSlicerPolicy::loadState(SnapReader &r)
{
    opts.warmup = r.u64();
    opts.profileLength = r.u64();
    opts.algorithmDelay = r.u64();
    opts.lossThresholdScale = r.f64();
    opts.bwUtilization = r.f64();
    opts.bwScaling = r.b();
    opts.bwConstraint = r.b();
    opts.aluUtilization = r.f64();
    opts.phaseMonitor = r.b();
    opts.monitorWindow = r.u64();
    opts.phaseDelta = r.f64();
    opts.sustainedWindows = r.u32();
    opts.baselineSkipWindows = r.u32();
    opts.reprofileCooldown = r.u64();

    const std::uint8_t phase_raw = r.u8();
    if (phase_raw > static_cast<std::uint8_t>(Phase::Spatial))
        throw SnapshotError("bad WarpedSlicer phase in snapshot");
    currentPhase = static_cast<Phase>(phase_raw);
    live = readI32Vec(r);
    smOwner = readI32Vec(r);
    smProfileCtas = readU32Vec(r);
    profileStart = r.u64();
    profileEnd = r.u64();
    applyAt = r.u64();
    snapshotTaken = r.b();
    subWindow = r.u32();
    numSubWindows = r.u32();

    collected.assign(r.u32(), {});
    for (std::vector<ProfileSample> &samples : collected) {
        samples.resize(r.u32());
        for (ProfileSample &s : samples) {
            s.ctas = r.u32();
            s.ipc = r.f64();
            s.phiMem = r.f64();
            s.linesPerCycle = r.f64();
            s.aluPerCycle = r.f64();
            s.rawIpc = r.f64();
        }
    }

    snapshots.assign(r.u32(), {});
    for (SmSnapshot &s : snapshots) {
        s.kernelInsts = r.u64();
        s.memStalls = r.u64();
        s.l1Misses = r.u64();
        s.aluBusy = r.u64();
        s.resident = r.u32();
    }

    decision = readWaterFill(r);

    history.assign(r.u32(), {});
    for (DecisionRecord &rec : history) {
        rec.live = readI32Vec(r);
        rec.ctas = readI32Vec(r);
        rec.spatial = r.b();
        rec.at = r.u64();
    }

    perfVectors = readVecVecF64(r);
    bwVectors = readVecVecF64(r);
    aluVectors = readVecVecF64(r);
    pendingSpatial = r.b();
    rounds = r.u32();
    decidedAt = r.u64();

    const bool had_log = r.b();
    if (had_log) {
        const std::uint32_t n = r.u32();
        for (std::uint32_t i = 0; i < n; ++i) {
            DecisionLogEntry e = readLogEntry(r);
            if (dlog)
                dlog->record(std::move(e));
        }
        const std::ptrdiff_t pending =
            static_cast<std::ptrdiff_t>(r.i64());
        // The pending index is only meaningful against a replayed log.
        pendingRealized = dlog ? pending : -1;
    } else {
        pendingRealized = -1;
    }

    monitorStart = r.u64();
    monitorInstSnapshot = readU64Vec(r);
    baselineIpc = readF64Vec(r);
    deviatedWindows = r.u32();
    windowsSinceDecision = r.u32();
}

} // namespace wsl
