/**
 * @file
 * Field-by-field machine serialization. SnapshotAccess is the single
 * friend through which every component's private state is read and
 * written; each component has a save/load pair whose field order is
 * the layout contract (guarded by section tags at the top level and a
 * full-consumption check at the end). The engine memos — scheduler
 * scan caches, DRAM horizon memos, dispatch saturation
 * flags — are serialized rather than reset so a restored run takes
 * the exact same engine path (the schedulers replay stall charges from
 * their scan memos) as a run that never stopped.
 */

#include "snapshot/snapshot.hh"

#include <algorithm>
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
#include "snapshot/io.hh"

namespace wsl {

namespace {

void
checkCount(std::size_t got, std::size_t want, const char *what)
{
    if (got != want) {
        throw SnapshotError(
            std::string("snapshot structure mismatch: ") + what +
            " count is " + std::to_string(got) +
            ", this machine has " + std::to_string(want));
    }
}

// Generic stats serialization over the forEachField counter lists
// (u64 scalars and arbitrarily nested std::array of them).

void
writeCounter(SnapWriter &w, std::uint64_t v)
{
    w.u64(v);
}

template <typename T, std::size_t N>
void
writeCounter(SnapWriter &w, const std::array<T, N> &a)
{
    for (const T &x : a)
        writeCounter(w, x);
}

void
readCounter(SnapReader &r, std::uint64_t &v)
{
    v = r.u64();
}

template <typename T, std::size_t N>
void
readCounter(SnapReader &r, std::array<T, N> &a)
{
    for (T &x : a)
        readCounter(r, x);
}

template <typename S>
void
writeStats(SnapWriter &w, const S &s)
{
    S::forEachField([&](const char *, auto member) {
        writeCounter(w, s.*member);
    });
}

template <typename S>
void
readStats(SnapReader &r, S &s)
{
    S::forEachField([&](const char *, auto member) {
        readCounter(r, s.*member);
    });
}

void
writeResourceVec(SnapWriter &w, const ResourceVec &v)
{
    w.u32(v.regs);
    w.u32(v.shm);
    w.u32(v.threads);
    w.u32(v.ctas);
}

ResourceVec
readResourceVec(SnapReader &r)
{
    ResourceVec v;
    v.regs = r.u32();
    v.shm = r.u32();
    v.threads = r.u32();
    v.ctas = r.u32();
    return v;
}

void
writeRequest(SnapWriter &w, const MemRequest &m)
{
    w.u64(m.line);
    w.b(m.write);
    w.i32(m.sm);
    w.u64(m.readyAt);
}

MemRequest
readRequest(SnapReader &r)
{
    MemRequest m;
    m.line = r.u64();
    m.write = r.b();
    m.sm = r.i32();
    m.readyAt = r.u64();
    return m;
}

void
writeResponse(SnapWriter &w, const MemResponse &m)
{
    w.u64(m.line);
    w.i32(m.sm);
    w.u64(m.readyAt);
}

MemResponse
readResponse(SnapReader &r)
{
    MemResponse m;
    m.line = r.u64();
    m.sm = r.i32();
    m.readyAt = r.u64();
    return m;
}

void
writeKernelParams(SnapWriter &w, const KernelParams &p)
{
    w.str(p.name);
    w.u32(p.gridDim);
    w.u32(p.blockDim);
    w.u32(p.regsPerThread);
    w.u32(p.shmPerCta);
    w.u32(p.mix.alu);
    w.u32(p.mix.sfu);
    w.u32(p.mix.ldGlobal);
    w.u32(p.mix.stGlobal);
    w.u32(p.mix.ldShared);
    w.u32(p.mix.stShared);
    w.u32(p.mix.depDist);
    w.b(p.mix.barrierPerIter);
    w.u32(p.mix.divBranches);
    w.u32(p.mix.divPathLen);
    w.f64(p.mix.divFraction);
    w.u32(p.loopIters);
    w.u8(static_cast<std::uint8_t>(p.mem.pattern));
    w.u64(p.mem.footprintPerCta);
    w.u32(p.mem.transactionsPerAccess);
    w.u32(p.mem.reuseDwell);
    w.u8(static_cast<std::uint8_t>(p.cls));
    w.f64(p.ifetchMissRate);
    w.u32(p.shmConflictFactor);
}

KernelParams
readKernelParams(SnapReader &r)
{
    KernelParams p;
    p.name = r.str();
    p.gridDim = r.u32();
    p.blockDim = r.u32();
    p.regsPerThread = r.u32();
    p.shmPerCta = r.u32();
    p.mix.alu = r.u32();
    p.mix.sfu = r.u32();
    p.mix.ldGlobal = r.u32();
    p.mix.stGlobal = r.u32();
    p.mix.ldShared = r.u32();
    p.mix.stShared = r.u32();
    p.mix.depDist = r.u32();
    p.mix.barrierPerIter = r.b();
    p.mix.divBranches = r.u32();
    p.mix.divPathLen = r.u32();
    p.mix.divFraction = r.f64();
    p.loopIters = r.u32();
    p.mem.pattern = static_cast<MemPattern>(r.u8());
    p.mem.footprintPerCta = r.u64();
    p.mem.transactionsPerAccess = r.u32();
    p.mem.reuseDwell = r.u32();
    p.cls = static_cast<AppClass>(r.u8());
    p.ifetchMissRate = r.f64();
    p.shmConflictFactor = r.u32();
    return p;
}

} // namespace

/**
 * The one structure befriended by every stateful component. All
 * members are static; the struct only exists to carry the friendship.
 */
struct SnapshotAccess
{
    // ---- Leaf components ----

    static void
    save(SnapWriter &w, const Histogram &h)
    {
        for (const std::uint64_t c : h.buckets)
            w.u64(c);
        w.u64(h.samples);
        w.u64(h.sum);
        w.u64(h.minSeen);
        w.u64(h.maxSeen);
    }

    static void
    load(SnapReader &r, Histogram &h)
    {
        for (std::uint64_t &c : h.buckets)
            c = r.u64();
        h.samples = r.u64();
        h.sum = r.u64();
        h.minSeen = r.u64();
        h.maxSeen = r.u64();
    }

    static void
    save(SnapWriter &w, const Cache &c)
    {
        w.u64(c.accesses);
        w.u64(c.misses);
        w.u64(c.useClock);
        writeU64Vec(w, c.tags);
        w.u32(static_cast<std::uint32_t>(c.flags.size()));
        for (const std::uint8_t f : c.flags)
            w.u8(f);
        writeU64Vec(w, c.lastUse);
        // MSHRs in line order so the payload is independent of the
        // unordered_map's iteration order (restored maps hash/iterate
        // differently, but lookups — the only simulated use — don't).
        std::vector<Addr> lines;
        lines.reserve(c.mshrs.size());
        for (const auto &kv : c.mshrs)
            lines.push_back(kv.first);
        std::sort(lines.begin(), lines.end());
        w.u32(static_cast<std::uint32_t>(lines.size()));
        for (const Addr line : lines) {
            w.u64(line);
            writeU64Vec(w, c.mshrs.at(line));
        }
    }

    static void
    load(SnapReader &r, Cache &c)
    {
        c.accesses = r.u64();
        c.misses = r.u64();
        c.useClock = r.u64();
        std::vector<std::uint64_t> tags = readU64Vec(r);
        checkCount(tags.size(), c.tags.size(), "cache tag");
        c.tags = std::move(tags);
        const std::uint32_t nflags = r.u32();
        checkCount(nflags, c.flags.size(), "cache flag");
        for (std::uint8_t &f : c.flags)
            f = r.u8();
        std::vector<std::uint64_t> last_use = readU64Vec(r);
        checkCount(last_use.size(), c.lastUse.size(), "cache LRU");
        c.lastUse = std::move(last_use);
        c.mshrs.clear();
        c.tokenPool.clear();  // allocator-reuse scratch, not state
        const std::uint32_t nmshr = r.u32();
        for (std::uint32_t i = 0; i < nmshr; ++i) {
            const Addr line = r.u64();
            c.mshrs.emplace(line, readU64Vec(r));
        }
    }

    static void
    save(SnapWriter &w, const DramChannel &d)
    {
        writeStats<PartitionStats>(w, d.stats);
        w.u32(static_cast<std::uint32_t>(d.banks.size()));
        for (const DramChannel::Bank &bank : d.banks) {
            w.i64(bank.openRow);
            w.u64(bank.readyAt);
            w.u64(bank.lastActivate);
            w.u32(static_cast<std::uint32_t>(bank.q.size()));
            for (const DramChannel::BankEntry &e : bank.q) {
                w.u64(e.line);
                w.u64(e.arrive);
                w.u64(e.seq);
                w.u64(e.row);
                w.b(e.write);
            }
        }
        w.u64(d.queued);
        w.u64(d.nextSeq);
        w.u32(static_cast<std::uint32_t>(d.inFlight.size()));
        for (const DramChannel::Transfer &t : d.inFlight) {
            w.u64(t.line);
            w.b(t.write);
            w.u64(t.doneAt);
        }
        w.u64(d.busBusyUntil);
        w.u64(d.lastActivateAny);
        w.b(d.horizonValid);
        w.u64(d.horizonAt);
    }

    static void
    load(SnapReader &r, DramChannel &d)
    {
        readStats<PartitionStats>(r, d.stats);
        const std::uint32_t nbanks = r.u32();
        checkCount(nbanks, d.banks.size(), "DRAM bank");
        for (DramChannel::Bank &bank : d.banks) {
            bank.openRow = r.i64();
            bank.readyAt = r.u64();
            bank.lastActivate = r.u64();
            bank.q.resize(r.u32());
            for (DramChannel::BankEntry &e : bank.q) {
                e.line = r.u64();
                e.arrive = r.u64();
                e.seq = r.u64();
                e.row = r.u64();
                e.write = r.b();
            }
        }
        d.queued = r.u64();
        d.nextSeq = r.u64();
        d.inFlight.clear();
        const std::uint32_t ninflight = r.u32();
        for (std::uint32_t i = 0; i < ninflight; ++i) {
            DramChannel::Transfer t;
            t.line = r.u64();
            t.write = r.b();
            t.doneAt = r.u64();
            d.inFlight.push(t);
        }
        d.busBusyUntil = r.u64();
        d.lastActivateAny = r.u64();
        d.horizonValid = r.b();
        d.horizonAt = r.u64();
    }

    static void
    save(SnapWriter &w, const MemPartition &p)
    {
        save(w, p.l2);
        save(w, p.dram);
        w.u32(static_cast<std::uint32_t>(p.reqQueue.size()));
        for (const MemRequest &m : p.reqQueue)
            writeRequest(w, m);
        w.u64(p.acceptedRequests);
        w.u64(p.servicedRequests);
        w.u64(p.pushedResponses);
        w.u32(static_cast<std::uint32_t>(p.outResponses.size()));
        for (const MemResponse &m : p.outResponses)
            writeResponse(w, m);
        writeStats<PartitionStats>(w, p.l2Stats);
        w.b(p.recordTelemetry);
        save(w, p.mshrHist);
        save(w, p.dramHist);
    }

    static void
    load(SnapReader &r, MemPartition &p)
    {
        load(r, p.l2);
        load(r, p.dram);
        p.reqQueue.clear();
        const std::uint32_t nreq = r.u32();
        for (std::uint32_t i = 0; i < nreq; ++i)
            p.reqQueue.push(readRequest(r));
        p.acceptedRequests = r.u64();
        p.servicedRequests = r.u64();
        p.pushedResponses = r.u64();
        p.outResponses.resize(r.u32());
        for (MemResponse &m : p.outResponses)
            m = readResponse(r);
        readStats<PartitionStats>(r, p.l2Stats);
        p.recordTelemetry = r.b();
        load(r, p.mshrHist);
        load(r, p.dramHist);
    }

    // ---- SM core ----

    static void
    save(SnapWriter &w, const SmCore &s)
    {
        w.u8(static_cast<std::uint8_t>(s.schedKind));
        w.u64(s.rng.rawState());
        writeResourceVec(w, s.resourcePool.used);

        w.u32(static_cast<std::uint32_t>(s.warps.size()));
        for (std::size_t i = 0; i < s.warps.size(); ++i) {
            const WarpHot &h = s.hot[i];
            const WarpState &c = s.warps[i];
            w.b(h.program != nullptr);
            w.u32(h.pendingShort);
            w.u32(h.pendingLong);
            w.u32(h.activeMask);
            w.u32(h.pc);
            w.u16(h.ibuf);
            w.b(h.active);
            w.b(h.finished);
            w.b(h.atBarrier);
            w.u32(c.epoch);
            w.i32(c.ctaSlot);
            w.i32(c.kernel);
            w.u32(c.warpInCta);
            w.u32(c.activeThreads);
            w.u32(c.iter);
            w.b(c.fetchPending);
            w.u64(c.fetchReadyAt);
            w.u32(static_cast<std::uint32_t>(c.divStack.size()));
            for (const auto &[mask, pc] : c.divStack) {
                w.u32(mask);
                w.u16(pc);
            }
            w.u64(c.age);
        }

        w.u32(static_cast<std::uint32_t>(s.ctas.size()));
        for (const CtaSlot &cta : s.ctas) {
            w.b(cta.active);
            w.i32(cta.kernel);
            w.u32(cta.ctaGlobalId);
            w.u32(cta.warpsTotal);
            w.u32(cta.warpsFinished);
            w.u32(cta.barrierWaiting);
            writeResourceVec(w, cta.alloc);
            w.u64(cta.kernelBase);
            w.u32(static_cast<std::uint32_t>(cta.warpIdxs.size()));
            for (const std::uint16_t widx : cta.warpIdxs)
                w.u16(widx);
        }

        w.u32(static_cast<std::uint32_t>(s.freeWarpSlots.size()));
        for (const std::uint16_t slot : s.freeWarpSlots)
            w.u16(slot);
        w.u32(s.liveWarps);
        w.u64(s.ageCounter);

        for (const int q : s.quotas)
            w.i32(q);
        for (const unsigned res : s.resident)
            w.u32(res);
        w.u32(s.quotaGen);

        w.u64(s.issuableMask);
        w.u64(s.memBlockedMask);
        w.u64(s.shortBlockedMask);
        w.u64(s.barrierMask);
        w.u64(s.aluNextMask);
        w.u64(s.sfuNextMask);
        w.u64(s.ldstNextMask);

        w.u32(static_cast<std::uint32_t>(s.schedLists.size()));
        for (const std::vector<std::uint16_t> &list : s.schedLists) {
            w.u32(static_cast<std::uint32_t>(list.size()));
            for (const std::uint16_t widx : list)
                w.u16(widx);
        }
        for (const std::uint64_t mask : s.schedListMask)
            w.u64(mask);
        for (const int last : s.lastIssued)
            w.i32(last);
        for (const unsigned pos : s.rrPos)
            w.u32(pos);

        for (const Cycle busy : s.aluBusyUntil)
            w.u64(busy);
        w.u64(s.sfuBusyUntil);
        w.u64(s.ldstBusyUntil);
        w.i32(s.ldstOwner);

        for (const auto &slot : s.wbWheel) {
            w.u32(static_cast<std::uint32_t>(slot.size()));
            for (const SmCore::WbEntry &e : slot) {
                w.u16(e.warp);
                w.u32(e.epoch);
                w.u32(e.regMask);
            }
        }
        for (const auto &slot : s.memWheel) {
            w.u32(static_cast<std::uint32_t>(slot.size()));
            for (const std::uint16_t widx : slot)
                w.u16(widx);
        }
        for (const auto &slot : s.fetchWheel) {
            w.u32(static_cast<std::uint32_t>(slot.size()));
            for (const SmCore::FetchEntry &e : slot) {
                w.u16(e.warp);
                w.u32(e.epoch);
            }
        }
        w.u32(s.wbWheelCount);
        w.u32(s.memWheelCount);
        w.u32(s.fetchWheelCount);

        save(w, s.l1);

        w.u32(static_cast<std::uint32_t>(s.loads.size()));
        for (const SmCore::PendingLoad &l : s.loads) {
            w.u16(l.warp);
            w.u32(l.epoch);
            w.u32(l.regMask);
            w.u16(l.transLeft);
            w.b(l.valid);
            w.u8(static_cast<std::uint8_t>(l.kernel));
            w.u32(l.issuedAt);
        }
        w.u32(static_cast<std::uint32_t>(s.freeLoads.size()));
        for (const std::uint16_t idx : s.freeLoads)
            w.u16(idx);
        w.u32(s.activeLoads);

        w.u32(static_cast<std::uint32_t>(s.outRequests.size()));
        for (const MemRequest &m : s.outRequests)
            writeRequest(w, m);
        w.u32(static_cast<std::uint32_t>(s.respQueue.size()));
        for (const MemResponse &m : s.respQueue)
            writeResponse(w, m);

        w.u32(static_cast<std::uint32_t>(s.fetchQueue.size()));
        for (const SmCore::FetchEntry &e : s.fetchQueue) {
            w.u16(e.warp);
            w.u32(e.epoch);
        }

        // Scheduler scan memos: serialized, not invalidated, so the
        // restored engine replays the same memoized stall charges.
        w.u32(static_cast<std::uint32_t>(s.scanCache.size()));
        for (const SmCore::ScanCacheEntry &e : s.scanCache) {
            w.b(e.valid);
            w.u64(e.validUntil);
            w.u32(static_cast<std::uint32_t>(e.kind));
            w.u8(static_cast<std::uint8_t>(e.culprit));
        }

        w.u32(static_cast<std::uint32_t>(s.ctaCompletions.size()));
        for (const KernelId kid : s.ctaCompletions)
            w.i32(kid);

        writeStats<SmStats>(w, s.smStats);

        w.b(s.recordTelemetry);
        for (const Histogram &h : s.memLatency)
            save(w, h);
    }

    static void
    load(SnapReader &r, SmCore &s, Gpu &gpu)
    {
        s.schedKind = static_cast<SchedulerKind>(r.u8());
        s.rng.setRawState(r.u64());
        s.resourcePool.used = readResourceVec(r);

        const std::uint32_t nwarps = r.u32();
        checkCount(nwarps, s.warps.size(), "warp slot");
        for (std::size_t i = 0; i < s.warps.size(); ++i) {
            WarpHot &h = s.hot[i];
            WarpState &c = s.warps[i];
            const bool has_program = r.b();
            h.pendingShort = r.u32();
            h.pendingLong = r.u32();
            h.activeMask = r.u32();
            h.pc = r.u32();
            h.ibuf = r.u16();
            h.active = r.b();
            h.finished = r.b();
            h.atBarrier = r.b();
            c.epoch = r.u32();
            c.ctaSlot = r.i32();
            c.kernel = r.i32();
            c.warpInCta = r.u32();
            c.activeThreads = r.u32();
            c.iter = r.u32();
            c.fetchPending = r.b();
            c.fetchReadyAt = r.u64();
            c.divStack.resize(r.u32());
            for (auto &[mask, pc] : c.divStack) {
                mask = r.u32();
                pc = r.u16();
            }
            c.age = r.u64();
            if (has_program) {
                if (c.kernel < 0 ||
                    static_cast<std::size_t>(c.kernel) >=
                        gpu.kernels.size()) {
                    throw SnapshotError(
                        "snapshot corrupted: warp references kernel " +
                        std::to_string(c.kernel));
                }
                h.program = &gpu.kernels[c.kernel]->program;
            } else {
                h.program = nullptr;
            }
        }

        const std::uint32_t nctas = r.u32();
        checkCount(nctas, s.ctas.size(), "CTA slot");
        for (CtaSlot &cta : s.ctas) {
            cta.active = r.b();
            cta.kernel = r.i32();
            cta.ctaGlobalId = r.u32();
            cta.warpsTotal = r.u32();
            cta.warpsFinished = r.u32();
            cta.barrierWaiting = r.u32();
            cta.alloc = readResourceVec(r);
            cta.kernelBase = r.u64();
            cta.warpIdxs.resize(r.u32());
            for (std::uint16_t &widx : cta.warpIdxs)
                widx = r.u16();
            if (cta.active) {
                if (cta.kernel < 0 ||
                    static_cast<std::size_t>(cta.kernel) >=
                        gpu.kernels.size()) {
                    throw SnapshotError(
                        "snapshot corrupted: CTA references kernel " +
                        std::to_string(cta.kernel));
                }
                cta.params = &gpu.kernels[cta.kernel]->params;
            } else {
                cta.params = nullptr;
            }
        }

        s.freeWarpSlots.resize(r.u32());
        for (std::uint16_t &slot : s.freeWarpSlots)
            slot = r.u16();
        s.liveWarps = r.u32();
        s.ageCounter = r.u64();

        for (int &q : s.quotas)
            q = r.i32();
        for (unsigned &res : s.resident)
            res = r.u32();
        s.quotaGen = r.u32();

        s.issuableMask = r.u64();
        s.memBlockedMask = r.u64();
        s.shortBlockedMask = r.u64();
        s.barrierMask = r.u64();
        s.aluNextMask = r.u64();
        s.sfuNextMask = r.u64();
        s.ldstNextMask = r.u64();

        const std::uint32_t nscheds = r.u32();
        checkCount(nscheds, s.schedLists.size(), "scheduler");
        for (std::vector<std::uint16_t> &list : s.schedLists) {
            list.resize(r.u32());
            for (std::uint16_t &widx : list)
                widx = r.u16();
        }
        for (std::uint64_t &mask : s.schedListMask)
            mask = r.u64();
        for (int &last : s.lastIssued)
            last = r.i32();
        for (unsigned &pos : s.rrPos)
            pos = r.u32();

        for (Cycle &busy : s.aluBusyUntil)
            busy = r.u64();
        s.sfuBusyUntil = r.u64();
        s.ldstBusyUntil = r.u64();
        s.ldstOwner = r.i32();

        for (auto &slot : s.wbWheel) {
            slot.resize(r.u32());
            for (SmCore::WbEntry &e : slot) {
                e.warp = r.u16();
                e.epoch = r.u32();
                e.regMask = r.u32();
            }
        }
        for (auto &slot : s.memWheel) {
            slot.resize(r.u32());
            for (std::uint16_t &widx : slot)
                widx = r.u16();
        }
        for (auto &slot : s.fetchWheel) {
            slot.resize(r.u32());
            for (SmCore::FetchEntry &e : slot) {
                e.warp = r.u16();
                e.epoch = r.u32();
            }
        }
        s.wbWheelCount = r.u32();
        s.memWheelCount = r.u32();
        s.fetchWheelCount = r.u32();

        load(r, s.l1);

        s.loads.resize(r.u32());
        for (SmCore::PendingLoad &l : s.loads) {
            l.warp = r.u16();
            l.epoch = r.u32();
            l.regMask = r.u32();
            l.transLeft = r.u16();
            l.valid = r.b();
            l.kernel = static_cast<std::int8_t>(r.u8());
            l.issuedAt = r.u32();
        }
        s.freeLoads.resize(r.u32());
        for (std::uint16_t &idx : s.freeLoads)
            idx = r.u16();
        s.activeLoads = r.u32();

        s.outRequests.resize(r.u32());
        for (MemRequest &m : s.outRequests)
            m = readRequest(r);
        s.respQueue.resize(r.u32());
        for (MemResponse &m : s.respQueue)
            m = readResponse(r);

        s.fetchQueue.clear();
        const std::uint32_t nfetch = r.u32();
        for (std::uint32_t i = 0; i < nfetch; ++i) {
            SmCore::FetchEntry e;
            e.warp = r.u16();
            e.epoch = r.u32();
            s.fetchQueue.push(e);
        }

        const std::uint32_t nscan = r.u32();
        checkCount(nscan, s.scanCache.size(), "scan memo");
        for (SmCore::ScanCacheEntry &e : s.scanCache) {
            e.valid = r.b();
            e.validUntil = r.u64();
            const std::uint32_t kind = r.u32();
            if (kind >= numStallKinds) {
                throw SnapshotError(
                    "snapshot corrupted: stall kind " +
                    std::to_string(kind));
            }
            e.kind = static_cast<StallKind>(kind);
            e.culprit = static_cast<std::int8_t>(r.u8());
        }

        s.ctaCompletions.resize(r.u32());
        for (KernelId &kid : s.ctaCompletions)
            kid = r.i32();

        readStats<SmStats>(r, s.smStats);

        s.recordTelemetry = r.b();
        for (Histogram &h : s.memLatency)
            load(r, h);

        // Engine-meta counters (memo hits, scan counts) describe how
        // the simulator ran, not the simulated machine; they restart
        // at zero like they do on any fresh process.
        s.engineScanMemoHits = 0;
        s.engineSchedScans = 0;
    }

    // ---- Whole machine ----

    static std::vector<std::uint8_t>
    save(const Gpu &gpu)
    {
        SnapWriter w;
        w.tag("MCHN");
        w.str(snapshotMachineFingerprint(gpu.cfg));
        w.u64(gpu.now);

        w.tag("KERN");
        w.u32(static_cast<std::uint32_t>(gpu.kernels.size()));
        for (const auto &k : gpu.kernels) {
            writeKernelParams(w, k->params);
            w.u64(k->instTarget);
            w.u32(k->nextCta);
            w.u32(k->ctasCompleted);
            w.b(k->halted);
            w.u64(k->launchCycle);
            w.u64(k->finishCycle);
            w.b(k->done);
        }

        w.tag("POLI");
        w.str(gpu.policy->name());
        gpu.policy->saveState(w);

        w.tag("SMCO");
        w.u32(static_cast<std::uint32_t>(gpu.sms.size()));
        for (const auto &sm : gpu.sms)
            save(w, *sm);

        w.tag("PART");
        w.u32(static_cast<std::uint32_t>(gpu.partitions.size()));
        for (const auto &part : gpu.partitions)
            save(w, *part);

        w.tag("ICNT");
        w.u64(gpu.icnt.routed);
        w.u64(gpu.icnt.delivered);

        w.tag("AUDT");
        w.b(gpu.auditor != nullptr);
        if (gpu.auditor) {
            w.u64(gpu.auditor->nextAudit);
            w.u64(gpu.auditor->audits);
        }

        w.tag("ENGS");
        w.b(gpu.ctaDispatchDirty);
        w.u64(gpu.quotaGenSeen);
        w.b(gpu.dispatchBlocked);
        w.u64(gpu.dispatchBlockedUntil);

        w.tag("ENDS");
        return w.take();
    }

    static void
    load(SnapReader &r, Gpu &gpu)
    {
        r.tag("MCHN");
        const std::string fingerprint = r.str();
        const std::string own =
            snapshotMachineFingerprint(gpu.cfg);
        if (fingerprint != own) {
            throw SnapshotError(
                "snapshot was captured on a different machine "
                "configuration (fingerprints differ)");
        }
        const Cycle captured = r.u64();

        r.tag("KERN");
        const std::uint32_t nkernels = r.u32();
        if (nkernels > maxConcurrentKernels) {
            throw SnapshotError(
                "snapshot corrupted: " + std::to_string(nkernels) +
                " kernels exceeds the concurrency limit");
        }
        for (std::uint32_t i = 0; i < nkernels; ++i) {
            const KernelParams params = readKernelParams(r);
            const std::uint64_t inst_target = r.u64();
            // Re-launch through the normal path: rebuilds the program
            // and base address deterministically from the params, then
            // overwrite the runtime fields captured at the boundary.
            const KernelId kid = gpu.launchKernel(params, inst_target);
            KernelInstance &k = *gpu.kernels[kid];
            k.nextCta = r.u32();
            k.ctasCompleted = r.u32();
            k.halted = r.b();
            k.launchCycle = r.u64();
            k.finishCycle = r.u64();
            k.done = r.b();
        }

        r.tag("POLI");
        const std::string policy_name = r.str();
        if (policy_name != gpu.policy->name()) {
            throw SnapshotError(
                "snapshot was captured under policy '" + policy_name +
                "', this machine runs '" + gpu.policy->name() + "'");
        }
        gpu.policy->loadState(r);

        r.tag("SMCO");
        const std::uint32_t nsms = r.u32();
        checkCount(nsms, gpu.sms.size(), "SM");
        for (const auto &sm : gpu.sms)
            load(r, *sm, gpu);

        r.tag("PART");
        const std::uint32_t nparts = r.u32();
        checkCount(nparts, gpu.partitions.size(), "memory partition");
        for (const auto &part : gpu.partitions)
            load(r, *part);

        r.tag("ICNT");
        gpu.icnt.routed = r.u64();
        gpu.icnt.delivered = r.u64();

        r.tag("AUDT");
        // Audit progress transfers only when both sides audit; a
        // restore into an audit-enabled machine from a no-audit
        // capture (bisection-by-replay) starts auditing immediately.
        const bool had_auditor = r.b();
        if (had_auditor) {
            const Cycle next_audit = r.u64();
            const std::uint64_t audits = r.u64();
            if (gpu.auditor) {
                gpu.auditor->nextAudit = next_audit;
                gpu.auditor->audits = audits;
            }
        }

        r.tag("ENGS");
        gpu.ctaDispatchDirty = r.b();
        gpu.quotaGenSeen = r.u64();
        gpu.dispatchBlocked = r.b();
        gpu.dispatchBlockedUntil = r.u64();

        r.tag("ENDS");
        r.finish();

        gpu.now = captured;
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
    return frameSnapshot(SnapshotAccess::save(gpu));
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
    SnapshotAccess::load(r, gpu);
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
    info.machineFingerprint = r.str();
    info.captureCycle = r.u64();
    return info;
}

SnapshotInfo
probeSnapshotFile(const std::string &path)
{
    return probeSnapshot(readSnapshotBytes(path));
}

} // namespace wsl
