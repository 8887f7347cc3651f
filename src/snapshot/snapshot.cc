/**
 * @file
 * Field-by-field machine serialization. SnapshotAccess is the single
 * friend through which every component's private state is read and
 * written. Each component has one field list, `state(ar, x)`, whose
 * order is the layout contract: SnapWriter runs it to save, SnapReader
 * runs the same list to restore (see io.hh). Section tags at the top
 * level, machine-shape count checks and a full-consumption check at
 * the end guard it. The engine memos — scheduler scan caches, DRAM
 * horizon memos, dispatch saturation flags — are serialized rather
 * than reset so a restored run takes the exact same engine path (the
 * schedulers replay stall charges from their scan memos) as a run
 * that never stopped. State derived from serialized fields (the SM's
 * global-access and per-kernel warp masks, its staged-partition set)
 * is not written; restore range-checks the indices it is built from
 * and recomputes it.
 */

#include "snapshot/snapshot.hh"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "check/auditor.hh"
#include "common/histogram.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "gpu/gpu.hh"
#include "harness/solo_cache.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/partition.hh"
#include "sm/sm_core.hh"
#include "snapshot/fields.hh"

namespace wsl {

namespace {

/** One stats counter: a u64, or an arbitrarily nested std::array of
 *  them. */
template <class Ar, class T>
void
counter(Ar &ar, T &v)
{
    if constexpr (std::is_integral_v<std::remove_const_t<T>>) {
        ar.u64(v);
    } else {
        for (auto &x : v)
            counter(ar, x);
    }
}

/** Every counter a stats block's forEachField lists. */
template <class Ar, class S>
void
counters(Ar &ar, S &s)
{
    std::remove_const_t<S>::forEachField(
        [&](const char *, auto member) { counter(ar, s.*member); });
}

/** The kernel a restored warp or CTA refers to; throws when the
 *  snapshot names one the kernel table does not hold. */
KernelInstance &
kernelRef(const std::vector<std::unique_ptr<KernelInstance>> &kernels,
          KernelId kid, const char *who)
{
    if (kid < 0 || static_cast<std::size_t>(kid) >= kernels.size()) {
        throw SnapshotError(std::string("snapshot corrupted: ") + who +
                            " references kernel " + std::to_string(kid));
    }
    return *kernels[kid];
}

/** Throws unless a restored index is in [0, limit); `where` names
 *  the component holding it. */
void
checkIndex(std::int64_t v, std::size_t limit, const char *what,
           const std::string &where)
{
    if (v < 0 || static_cast<std::uint64_t>(v) >= limit) {
        throw SnapshotError("snapshot corrupted: " + where + " " + what +
                            " " + std::to_string(v) +
                            " is out of range [0, " +
                            std::to_string(limit) + ")");
    }
}

/** A restored kernel id that may also be invalidKernel. */
void
checkKernelOrNone(int kid, const char *what, const std::string &where)
{
    if (kid != invalidKernel)
        checkIndex(kid, maxConcurrentKernels, what, where);
}

/** A timing wheel's slots in order, each a sequence of its entries in
 *  drain order, with `entry` the field list of one entry. */
template <class Ar, class W, class F>
void
wheelSlots(Ar &ar, W &wheel, F &&entry)
{
    using Wheel = std::remove_const_t<W>;
    std::vector<typename Wheel::value_type> slot;
    if constexpr (Ar::loading)
        wheel.clear();
    for (unsigned s = 0; s < Wheel::slots; ++s) {
        if constexpr (Ar::loading) {
            ar.seq(slot, entry);
            if (wheel.size() + slot.size() > Wheel::capacity) {
                throw SnapshotError(
                    "snapshot corrupted: a timing wheel holds more than " +
                    std::to_string(Wheel::capacity) + " entries");
            }
            for (const auto &e : slot)
                wheel.push(s, e);
        } else {
            slot.clear();
            wheel.forEachIn(s, [&](const auto &e) { slot.push_back(e); });
            ar.seq(slot, entry);
        }
    }
}

/** A timing wheel's live count; on restore it must equal the entries
 *  its slots held. */
template <class Ar, class W>
void
wheelCount(Ar &ar, W &wheel, const std::string &where, const char *what)
{
    unsigned count = wheel.size();
    ar.u32(count);
    if (count != wheel.size()) {
        throw SnapshotError("snapshot corrupted: " + where + " " + what +
                            "-wheel count " + std::to_string(count) +
                            " does not match its " +
                            std::to_string(wheel.size()) + " entries");
    }
}

} // namespace

/**
 * The one structure befriended by every stateful component. All
 * members are static; the struct only exists to carry the friendship.
 * Each `state` list takes a const component under SnapWriter and a
 * mutable one under SnapReader.
 */
struct SnapshotAccess
{
    // ---- Leaf components ----

    template <class Ar, ConstOr<Histogram> H>
    static void
    state(Ar &ar, H &h)
    {
        for (auto &c : h.buckets)
            ar.u64(c);
        ar.u64(h.samples);
        ar.u64(h.sum);
        ar.u64(h.minSeen);
        ar.u64(h.maxSeen);
    }

    template <class Ar, ConstOr<Cache> C>
    static void
    state(Ar &ar, C &c)
    {
        ar.u64(c.accesses);
        ar.u64(c.misses);
        ar.u64(c.useClock);
        ar.fixed(c.tags.size(), "cache tag");
        for (auto &t : c.tags)
            ar.u64(t);
        ar.fixed(c.flags.size(), "cache flag");
        for (auto &f : c.flags)
            ar.u8(f);
        ar.fixed(c.lastUse.size(), "cache LRU");
        for (auto &u : c.lastUse)
            ar.u64(u);
        // MSHRs in line order so the payload is independent of the
        // unordered_map's iteration order (restored maps hash/iterate
        // differently, but lookups — the only simulated use — don't).
        std::vector<std::pair<Addr, std::vector<std::uint64_t>>> mshrs;
        if constexpr (!Ar::loading) {
            mshrs.assign(c.mshrs.begin(), c.mshrs.end());
            std::sort(mshrs.begin(), mshrs.end());
        }
        ar.seq(mshrs, [&](auto &m) {
            ar.u64(m.first);
            ar.seq(m.second, [&](auto &token) { ar.u64(token); });
        });
        if constexpr (Ar::loading) {
            c.mshrs.clear();
            c.tokenPool.clear();  // allocator-reuse scratch, not state
            for (auto &[line, tokens] : mshrs)
                c.mshrs.emplace(line, std::move(tokens));
        }
    }

    template <class Ar, ConstOr<DramChannel> D>
    static void
    state(Ar &ar, D &d)
    {
        counters(ar, d.stats);
        ar.fixed(d.banks.size(), "DRAM bank");
        for (auto &bank : d.banks) {
            ar.i64(bank.openRow);
            ar.u64(bank.readyAt);
            ar.u64(bank.lastActivate);
            ar.seq(bank.q, [&](auto &e) {
                ar.u64(e.line);
                ar.u64(e.arrive);
                ar.u64(e.seq);
                ar.u64(e.row);
                ar.b(e.write);
            });
        }
        ar.u64(d.queued);
        ar.u64(d.nextSeq);
        ar.seq(d.inFlight, [&](auto &t) {
            ar.u64(t.line);
            ar.b(t.write);
            ar.u64(t.doneAt);
        });
        ar.u64(d.busBusyUntil);
        ar.u64(d.lastActivateAny);
        ar.b(d.horizonValid);
        ar.u64(d.horizonAt);
    }

    template <class Ar, ConstOr<MemPartition> P>
    static void
    state(Ar &ar, P &p)
    {
        state(ar, p.l2);
        state(ar, p.dram);
        ar.seq(p.reqQueue, [&](auto &m) { fields(ar, m); });
        ar.u64(p.acceptedRequests);
        ar.u64(p.servicedRequests);
        ar.u64(p.pushedResponses);
        ar.seq(p.outResponses, [&](auto &m) { fields(ar, m); });
        counters(ar, p.l2Stats);
        ar.b(p.recordTelemetry);
        state(ar, p.mshrHist);
        state(ar, p.dramHist);
    }

    // ---- SM core ----

    /**
     * Every restored value the SM later uses as an index, checked
     * against the machine's own sizes, so a checksum-valid but
     * corrupted file fails here instead of indexing out of bounds.
     */
    static void
    checkSmIndices(const SmCore &s)
    {
        const std::string id = "SM " + std::to_string(s.smId);
        const std::size_t nwarps = s.warps.size();
        for (std::size_t i = 0; i < nwarps; ++i) {
            const WarpHot &h = s.hot[i];
            const WarpState &w = s.warps[i];
            if (w.ctaSlot != -1)
                checkIndex(w.ctaSlot, s.ctas.size(), "warp CTA slot", id);
            if (!h.active)
                continue;
            if (w.ctaSlot == -1 || !s.ctas[w.ctaSlot].active) {
                throw SnapshotError("snapshot corrupted: " + id +
                                    " live warp " + std::to_string(i) +
                                    " is not in a live CTA");
            }
            if (!h.finished) {
                if (h.program == nullptr) {
                    throw SnapshotError("snapshot corrupted: " + id +
                                        " live warp " +
                                        std::to_string(i) +
                                        " has no program");
                }
                checkIndex(h.pc, h.program->body.size(), "warp pc", id);
            }
        }
        for (const CtaSlot &cta : s.ctas)
            for (std::uint16_t widx : cta.warpIdxs)
                checkIndex(widx, nwarps, "CTA warp", id);
        for (std::uint16_t widx : s.freeWarpSlots)
            checkIndex(widx, nwarps, "free warp slot", id);
        for (const auto &list : s.schedLists)
            for (std::uint16_t widx : list)
                checkIndex(widx, nwarps, "scheduler-list warp", id);
        for (int last : s.lastIssued)
            if (last != -1)
                checkIndex(last, nwarps, "greedy warp", id);
        checkKernelOrNone(s.ldstOwner, "LDST owner kernel", id);
        s.wbWheel.forEach([&](const auto &e) {
            checkIndex(e.warp, nwarps, "writeback warp", id);
        });
        s.fetchWheel.forEach([&](const auto &e) {
            checkIndex(e.warp, nwarps, "fetch-wheel warp", id);
        });
        s.memWheel.forEach([&](std::uint16_t load) {
            checkIndex(load, s.loads.size(), "mem-wheel load", id);
        });
        for (const auto &load : s.loads) {
            checkIndex(load.warp, nwarps, "load warp", id);
            checkKernelOrNone(load.kernel, "load kernel", id);
        }
        for (std::uint16_t load : s.freeLoads)
            checkIndex(load, s.loads.size(), "free load", id);
        for (const auto &[line, tokens] : s.l1.mshrs)
            for (std::uint64_t load : tokens)
                checkIndex(static_cast<std::int64_t>(load),
                           s.loads.size(), "L1 MSHR load", id);
        for (const auto &e : s.fetchQueue)
            checkIndex(e.warp, nwarps, "fetch-queue warp", id);
        for (const auto &memo : s.scanCache)
            checkKernelOrNone(memo.culprit, "scan-memo kernel", id);
    }

    /** The SM every restored request, response and L2 MSHR waiter
     *  names: responses are routed to it by index. */
    static void
    checkMessageSms(const Gpu &gpu)
    {
        const std::size_t nsms = gpu.sms.size();
        for (const auto &sm : gpu.sms) {
            const std::string where = "SM " + std::to_string(sm->smId);
            for (const MemRequest &req : sm->outRequests)
                checkIndex(req.sm, nsms, "staged request SM", where);
        }
        for (std::size_t p = 0; p < gpu.partitions.size(); ++p) {
            const MemPartition &part = *gpu.partitions[p];
            const std::string where = "partition " + std::to_string(p);
            for (const MemRequest &req : part.reqQueue)
                checkIndex(req.sm, nsms, "request SM", where);
            for (const MemResponse &resp : part.outResponses)
                checkIndex(resp.sm, nsms, "response SM", where);
            for (const auto &[line, waiters] : part.l2.mshrs)
                for (std::uint64_t sm : waiters)
                    checkIndex(static_cast<std::int64_t>(sm), nsms,
                               "L2 MSHR waiter SM", where);
        }
    }

    template <class Ar, ConstOr<SmCore> S, ConstOr<Gpu> G>
    static void
    state(Ar &ar, S &s, G &gpu)
    {
        ar.u8(s.schedKind);
        if (Ar::loading && s.schedKind > SchedulerKind::Lrr) {
            throw SnapshotError(
                "snapshot corrupted: scheduler kind " +
                std::to_string(static_cast<unsigned>(s.schedKind)));
        }
        std::uint64_t rng = s.rng.rawState();
        ar.u64(rng);
        fields(ar, s.resourcePool.used);

        ar.fixed(s.warps.size(), "warp slot");
        for (std::size_t i = 0; i < s.warps.size(); ++i) {
            auto &h = s.hot[i];
            auto &c = s.warps[i];
            bool has_program = h.program != nullptr;
            ar.b(has_program);
            ar.u32(h.pendingShort);
            ar.u32(h.pendingLong);
            ar.u32(h.activeMask);
            ar.u32(h.pc);
            ar.u16(h.ibuf);
            ar.b(h.active);
            ar.b(h.finished);
            ar.b(h.atBarrier);
            ar.u32(c.epoch);
            ar.i32(c.ctaSlot);
            ar.i32(c.kernel);
            ar.u32(c.warpInCta);
            ar.u32(c.activeThreads);
            ar.u32(c.iter);
            ar.b(c.fetchPending);
            ar.u64(c.fetchReadyAt);
            ar.seq(c.divStack, [&](auto &entry) {
                ar.u32(entry.first);
                ar.u16(entry.second);
            });
            ar.u64(c.age);
            if constexpr (Ar::loading) {
                h.program =
                    has_program
                        ? &kernelRef(gpu.kernels, c.kernel, "warp")
                               .program
                        : nullptr;
            }
        }

        ar.fixed(s.ctas.size(), "CTA slot");
        for (auto &cta : s.ctas) {
            ar.b(cta.active);
            ar.i32(cta.kernel);
            ar.u32(cta.ctaGlobalId);
            ar.u32(cta.warpsTotal);
            ar.u32(cta.warpsFinished);
            ar.u32(cta.barrierWaiting);
            fields(ar, cta.alloc);
            ar.u64(cta.kernelBase);
            ar.seq(cta.warpIdxs, [&](auto &widx) { ar.u16(widx); });
            if constexpr (Ar::loading) {
                cta.params =
                    cta.active
                        ? &kernelRef(gpu.kernels, cta.kernel, "CTA")
                               .params
                        : nullptr;
            }
        }

        ar.seq(s.freeWarpSlots, [&](auto &slot) { ar.u16(slot); });
        ar.u32(s.liveWarps);
        ar.u64(s.ageCounter);

        for (auto &q : s.quotas)
            ar.i32(q);
        for (auto &res : s.resident)
            ar.u32(res);
        ar.u32(s.quotaGen);

        ar.u64(s.issuableMask);
        ar.u64(s.memBlockedMask);
        ar.u64(s.shortBlockedMask);
        ar.u64(s.barrierMask);
        ar.u64(s.aluNextMask);
        ar.u64(s.sfuNextMask);
        ar.u64(s.ldstNextMask);

        ar.fixed(s.schedLists.size(), "scheduler");
        for (auto &list : s.schedLists)
            ar.seq(list, [&](auto &widx) { ar.u16(widx); });
        for (auto &mask : s.schedListMask)
            ar.u64(mask);
        for (auto &last : s.lastIssued)
            ar.i32(last);
        for (auto &pos : s.rrPos)
            ar.u32(pos);

        for (auto &busy : s.aluBusyUntil)
            ar.u64(busy);
        ar.u64(s.sfuBusyUntil);
        ar.u64(s.ldstBusyUntil);
        ar.i32(s.ldstOwner);

        auto fetch_entry = [&](auto &e) {
            ar.u16(e.warp);
            ar.u32(e.epoch);
        };
        wheelSlots(ar, s.wbWheel, [&](auto &e) {
            ar.u16(e.warp);
            ar.u32(e.epoch);
            ar.u32(e.regMask);
        });
        wheelSlots(ar, s.memWheel, [&](auto &load) { ar.u16(load); });
        wheelSlots(ar, s.fetchWheel, fetch_entry);
        const std::string sm_id = "SM " + std::to_string(s.smId);
        wheelCount(ar, s.wbWheel, sm_id, "writeback");
        wheelCount(ar, s.memWheel, sm_id, "mem");
        wheelCount(ar, s.fetchWheel, sm_id, "fetch");

        state(ar, s.l1);

        ar.seq(s.loads, [&](auto &l) {
            ar.u16(l.warp);
            ar.u32(l.epoch);
            ar.u32(l.regMask);
            ar.u16(l.transLeft);
            ar.b(l.valid);
            ar.u8(l.kernel);
            ar.u32(l.issuedAt);
        });
        ar.seq(s.freeLoads, [&](auto &idx) { ar.u16(idx); });
        ar.u32(s.activeLoads);

        ar.seq(s.outRequests, [&](auto &m) { fields(ar, m); });
        ar.seq(s.respQueue, [&](auto &m) { fields(ar, m); });
        ar.seq(s.fetchQueue, fetch_entry);

        // Scheduler scan memos: serialized, not invalidated, so the
        // restored engine replays the same memoized stall charges.
        ar.fixed(s.scanCache.size(), "scan memo");
        for (auto &e : s.scanCache) {
            ar.b(e.valid);
            ar.u64(e.validUntil);
            ar.u32(e.kind);
            if constexpr (Ar::loading) {
                const auto kind = static_cast<unsigned>(e.kind);
                if (kind >= numStallKinds) {
                    throw SnapshotError(
                        "snapshot corrupted: stall kind " +
                        std::to_string(kind));
                }
            }
            ar.u8(e.culprit);
        }

        ar.seq(s.ctaCompletions, [&](auto &kid) { ar.i32(kid); });

        counters(ar, s.smStats);

        ar.b(s.recordTelemetry);
        for (auto &h : s.memLatency)
            state(ar, h);

        if constexpr (Ar::loading) {
            s.rng.setRawState(rng);
            checkSmIndices(s);
            for (KernelId kid : s.ctaCompletions)
                kernelRef(gpu.kernels, kid, "completed CTA");
            s.rebuildDerivedState();
            // Engine-meta counters (memo hits, scan counts) describe
            // how the simulator ran, not the simulated machine; they
            // restart at zero like they do on any fresh process.
            s.engineScanMemoHits = 0;
            s.engineSchedScans = 0;
        }
    }

    // ---- Whole machine ----

    template <class Ar, ConstOr<Gpu> G>
    static void
    state(Ar &ar, G &gpu)
    {
        ar.tag("MCHN");
        std::string fingerprint = snapshotMachineFingerprint(gpu.cfg);
        ar.str(fingerprint);
        if (Ar::loading &&
            fingerprint != snapshotMachineFingerprint(gpu.cfg)) {
            throw SnapshotError(
                "snapshot was captured on a different machine "
                "configuration (fingerprints differ)");
        }
        Cycle now = gpu.now;
        ar.u64(now);

        ar.tag("KERN");
        std::uint32_t nkernels =
            static_cast<std::uint32_t>(gpu.kernels.size());
        ar.u32(nkernels);
        if (Ar::loading && nkernels > maxConcurrentKernels) {
            throw SnapshotError(
                "snapshot corrupted: " + std::to_string(nkernels) +
                " kernels exceeds the concurrency limit");
        }
        for (std::uint32_t i = 0; i < nkernels; ++i) {
            if constexpr (Ar::loading) {
                // Re-launch through the normal path: rebuilds the
                // program and base address deterministically from the
                // params; the runtime fields below then overwrite what
                // was captured at the boundary.
                KernelParams params;
                std::uint64_t inst_target = 0;
                fields(ar, params);
                ar.u64(inst_target);
                gpu.launchKernel(params, inst_target);
            } else {
                fields(ar, gpu.kernels[i]->params);
                ar.u64(gpu.kernels[i]->instTarget);
            }
            auto &k = *gpu.kernels[i];
            ar.u32(k.nextCta);
            ar.u32(k.ctasCompleted);
            ar.b(k.halted);
            ar.u64(k.launchCycle);
            ar.u64(k.finishCycle);
            ar.b(k.done);
        }

        ar.tag("POLI");
        std::string policy = gpu.policy->name();
        ar.str(policy);
        if constexpr (Ar::loading) {
            if (policy != gpu.policy->name()) {
                throw SnapshotError(
                    "snapshot was captured under policy '" + policy +
                    "', this machine runs '" + gpu.policy->name() +
                    "'");
            }
            gpu.policy->loadState(ar);
        } else {
            gpu.policy->saveState(ar);
        }

        ar.tag("SMCO");
        ar.fixed(gpu.sms.size(), "SM");
        for (auto &sm : gpu.sms)
            state(ar, *sm, gpu);

        ar.tag("PART");
        ar.fixed(gpu.partitions.size(), "memory partition");
        for (auto &part : gpu.partitions)
            state(ar, *part);
        if constexpr (Ar::loading)
            checkMessageSms(gpu);

        ar.tag("ICNT");
        ar.u64(gpu.icnt.routed);
        ar.u64(gpu.icnt.delivered);

        ar.tag("AUDT");
        // Audit progress transfers only when both sides audit; a
        // restore into an audit-enabled machine from a no-audit
        // capture (bisection-by-replay) starts auditing immediately.
        bool had_auditor = gpu.auditor != nullptr;
        ar.b(had_auditor);
        if (had_auditor) {
            Cycle next_audit = gpu.auditor ? gpu.auditor->nextAudit : 0;
            std::uint64_t audits = gpu.auditor ? gpu.auditor->audits : 0;
            ar.u64(next_audit);
            ar.u64(audits);
            if constexpr (Ar::loading) {
                if (gpu.auditor) {
                    gpu.auditor->nextAudit = next_audit;
                    gpu.auditor->audits = audits;
                }
            }
        }

        ar.tag("ENGS");
        ar.b(gpu.ctaDispatchDirty);
        ar.u64(gpu.quotaGenSeen);
        ar.b(gpu.dispatchBlocked);
        ar.u64(gpu.dispatchBlockedUntil);

        ar.tag("ENDS");
        if constexpr (Ar::loading) {
            ar.finish();
            gpu.now = now;
        }
    }

    static bool
    telemetryAttached(const Gpu &gpu)
    {
        return gpu.telem != nullptr;
    }

    static bool
    freshMachine(const Gpu &gpu)
    {
        return gpu.now == 0 && gpu.kernels.empty();
    }
};

std::string
snapshotMachineFingerprint(const GpuConfig &cfg)
{
    // Canonicalize the knobs that cannot change simulated state:
    // audits and the watchdog are read-only. The format version rides
    // along so a layout change invalidates every old fingerprint.
    GpuConfig canon = cfg;
    canon.auditCadence = 0;
    canon.watchdogCycles = 0;
    return configFingerprint(canon) +
           "|snapfmt=" + std::to_string(snapshotFormatVersion);
}

std::vector<std::uint8_t>
saveSnapshot(const Gpu &gpu)
{
    if (SnapshotAccess::telemetryAttached(gpu)) {
        throw SnapshotError(
            "cannot snapshot with a telemetry sampler attached: "
            "interval baselines are not serializable; detach it (or "
            "snapshot before attaching)");
    }
    SnapWriter w;
    SnapshotAccess::state(w, gpu);
    return frameSnapshot(w.take());
}

void
restoreSnapshot(Gpu &gpu, const std::vector<std::uint8_t> &file)
{
    if (!SnapshotAccess::freshMachine(gpu)) {
        throw SnapshotError(
            "restore requires a freshly constructed Gpu (cycle 0, no "
            "kernels launched)");
    }
    const std::vector<std::uint8_t> payload = unframeSnapshot(file);
    SnapReader r(payload);
    SnapshotAccess::state(r, gpu);
}

void
writeSnapshotFile(const Gpu &gpu, const std::string &path)
{
    writeSnapshotBytes(path, saveSnapshot(gpu));
}

void
restoreSnapshotFile(Gpu &gpu, const std::string &path)
{
    restoreSnapshot(gpu, readSnapshotBytes(path));
}

SnapshotInfo
probeSnapshot(const std::vector<std::uint8_t> &file)
{
    const std::vector<std::uint8_t> payload = unframeSnapshot(file);
    SnapReader r(payload);
    r.tag("MCHN");
    SnapshotInfo info;
    info.formatVersion = snapshotFormatVersion;
    r.str(info.machineFingerprint);
    r.u64(info.captureCycle);
    return info;
}

SnapshotInfo
probeSnapshotFile(const std::string &path)
{
    return probeSnapshot(readSnapshotBytes(path));
}

} // namespace wsl
