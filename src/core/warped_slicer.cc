#include "core/warped_slicer.hh"

#include <algorithm>
#include <cmath>

#include <sstream>
#include <string_view>

#include "common/log.hh"
#include "core/policies.hh"
#include "obs/decision_log.hh"
#include "snapshot/fields.hh"
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

/** A length-prefixed vector of i32 or f64 values. */
template <class Ar, class V>
void
i32s(Ar &ar, V &v)
{
    ar.seq(v, [&](auto &x) { ar.i32(x); });
}

template <class Ar, class V>
void
f64s(Ar &ar, V &v)
{
    ar.seq(v, [&](auto &x) { ar.f64(x); });
}

template <class Ar, ConstOr<WaterFillStep> S>
void
fields(Ar &ar, S &s)
{
    ar.i32(s.kernel);
    ar.i32(s.ctasAfter);
    ar.f64(s.level);
    ar.b(s.accepted);
    std::uint8_t reason = Ar::loading ? 0 : reasonIndex(s.reason);
    ar.u8(reason);
    if constexpr (Ar::loading) {
        if (reason >= 4)
            throw SnapshotError("bad water-fill step reason index");
        s.reason = stepReasons[reason];
    }
}

template <class Ar, ConstOr<WaterFillResult> D>
void
fields(Ar &ar, D &d)
{
    ar.b(d.feasible);
    i32s(ar, d.ctas);
    f64s(ar, d.normPerf);
    ar.f64(d.minNormPerf);
    fields(ar, d.used);
    ar.seq(d.steps, [&](auto &s) { fields(ar, s); });
}

template <class Ar, ConstOr<DecisionLogEntry> E>
void
fields(Ar &ar, E &e)
{
    ar.u64(e.cycle);
    ar.u32(e.round);
    ar.b(e.feasible);
    ar.b(e.spatial);
    ar.f64(e.minNormPerf);
    ar.f64(e.requiredPerf);
    ar.seq(e.kernels, [&](auto &k) {
        ar.i32(k.id);
        ar.str(k.name);
        f64s(ar, k.perf);
        f64s(ar, k.bwCurve);
        f64s(ar, k.aluCurve);
    });
    ar.seq(e.steps, [&](auto &s) { fields(ar, s); });
    i32s(ar, e.chosenCtas);
    f64s(ar, e.normPerf);
    f64s(ar, e.predictedIpc);
    f64s(ar, e.realizedIpc);
    ar.u64(e.realizedAt);
}

} // namespace

template <class Ar, class Self>
void
WarpedSlicerPolicy::state(Ar &ar, Self &self)
{
    // Options first: a CLI restore may have derived different
    // window-scaled options, and the continued run must use the
    // capture-side values for its decisions to stay bit-identical.
    auto &o = self.opts;
    ar.u64(o.warmup);
    ar.u64(o.profileLength);
    ar.u64(o.algorithmDelay);
    ar.f64(o.lossThresholdScale);
    ar.f64(o.bwUtilization);
    ar.b(o.bwScaling);
    ar.b(o.bwConstraint);
    ar.f64(o.aluUtilization);
    ar.b(o.phaseMonitor);
    ar.u64(o.monitorWindow);
    ar.f64(o.phaseDelta);
    ar.u32(o.sustainedWindows);
    ar.u32(o.baselineSkipWindows);
    ar.u64(o.reprofileCooldown);

    ar.u8(self.currentPhase);
    if (Ar::loading && self.currentPhase > Phase::Spatial)
        throw SnapshotError("bad WarpedSlicer phase in snapshot");
    i32s(ar, self.live);
    i32s(ar, self.smOwner);
    ar.seq(self.smProfileCtas, [&](auto &n) { ar.u32(n); });
    ar.u64(self.profileStart);
    ar.u64(self.profileEnd);
    ar.u64(self.applyAt);
    ar.b(self.snapshotTaken);
    ar.u32(self.subWindow);
    ar.u32(self.numSubWindows);

    ar.seq(self.collected, [&](auto &samples) {
        ar.seq(samples, [&](auto &s) {
            ar.u32(s.ctas);
            ar.f64(s.ipc);
            ar.f64(s.phiMem);
            ar.f64(s.linesPerCycle);
            ar.f64(s.aluPerCycle);
            ar.f64(s.rawIpc);
        });
    });

    ar.seq(self.snapshots, [&](auto &s) {
        ar.u64(s.kernelInsts);
        ar.u64(s.memStalls);
        ar.u64(s.l1Misses);
        ar.u64(s.aluBusy);
        ar.u32(s.resident);
    });

    fields(ar, self.decision);

    ar.seq(self.history, [&](auto &rec) {
        i32s(ar, rec.live);
        i32s(ar, rec.ctas);
        ar.b(rec.spatial);
        ar.u64(rec.at);
    });

    ar.seq(self.perfVectors, [&](auto &v) { f64s(ar, v); });
    ar.seq(self.bwVectors, [&](auto &v) { f64s(ar, v); });
    ar.seq(self.aluVectors, [&](auto &v) { f64s(ar, v); });
    ar.b(self.pendingSpatial);
    ar.u32(self.rounds);
    ar.u64(self.decidedAt);

    // Decision-log replay: the capture-side log's entries ride along
    // so a restored run with a log attached carries the complete
    // decision provenance, not just the post-restore suffix.
    bool had_log = self.dlog != nullptr;
    ar.b(had_log);
    std::int64_t pending = self.pendingRealized;
    if (had_log) {
        if constexpr (Ar::loading) {
            std::vector<DecisionLogEntry> entries;
            ar.seq(entries, [&](auto &e) { fields(ar, e); });
            if (self.dlog)
                for (DecisionLogEntry &e : entries)
                    self.dlog->record(std::move(e));
        } else {
            ar.seq(self.dlog->entries(), [&](auto &e) { fields(ar, e); });
        }
        ar.i64(pending);
    }
    if constexpr (Ar::loading) {
        // The pending index is only meaningful against a replayed log.
        self.pendingRealized = had_log && self.dlog ? pending : -1;
    }

    ar.u64(self.monitorStart);
    ar.seq(self.monitorInstSnapshot, [&](auto &n) { ar.u64(n); });
    f64s(ar, self.baselineIpc);
    ar.u32(self.deviatedWindows);
    ar.u32(self.windowsSinceDecision);
}

void
WarpedSlicerPolicy::saveState(SnapWriter &w) const
{
    state(w, *this);
}

void
WarpedSlicerPolicy::loadState(SnapReader &r)
{
    state(r, *this);
}

} // namespace wsl
