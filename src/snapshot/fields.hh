/**
 * @file
 * Snapshot field lists of the plain value types that several
 * snapshotted components embed. Each list is written once and drives
 * both SnapWriter and SnapReader (see io.hh).
 */

#ifndef WSL_SNAPSHOT_FIELDS_HH
#define WSL_SNAPSHOT_FIELDS_HH

#include <cstdint>
#include <vector>

#include "mem/request.hh"
#include "sm/resources.hh"
#include "snapshot/io.hh"
#include "workloads/kernel_params.hh"

namespace wsl {

template <class Ar, ConstOr<ResourceVec> R>
void
fields(Ar &ar, R &v)
{
    ar.u32(v.regs);
    ar.u32(v.shm);
    ar.u32(v.threads);
    ar.u32(v.ctas);
}

template <class Ar, ConstOr<MemRequest> M>
void
fields(Ar &ar, M &m)
{
    ar.u64(m.line);
    ar.b(m.write);
    ar.i32(m.sm);
    ar.u64(m.readyAt);
}

template <class Ar, ConstOr<MemResponse> M>
void
fields(Ar &ar, M &m)
{
    ar.u64(m.line);
    ar.i32(m.sm);
    ar.u64(m.readyAt);
}

template <class Ar, ConstOr<KernelParams> P>
void
fields(Ar &ar, P &p)
{
    ar.str(p.name);
    ar.u32(p.gridDim);
    ar.u32(p.blockDim);
    ar.u32(p.regsPerThread);
    ar.u32(p.shmPerCta);
    ar.u32(p.mix.alu);
    ar.u32(p.mix.sfu);
    ar.u32(p.mix.ldGlobal);
    ar.u32(p.mix.stGlobal);
    ar.u32(p.mix.ldShared);
    ar.u32(p.mix.stShared);
    ar.u32(p.mix.depDist);
    ar.b(p.mix.barrierPerIter);
    ar.u32(p.mix.divBranches);
    ar.u32(p.mix.divPathLen);
    ar.f64(p.mix.divFraction);
    ar.u32(p.loopIters);
    ar.u8(p.mem.pattern);
    ar.u64(p.mem.footprintPerCta);
    ar.u32(p.mem.transactionsPerAccess);
    ar.u32(p.mem.reuseDwell);
    ar.u8(p.cls);
    ar.f64(p.ifetchMissRate);
    ar.u32(p.shmConflictFactor);
}

/** A kernel's parameters as the snapshot's KERN section stores them:
 *  equal bytes mean an identical kernel, to the last bit of every
 *  double. */
inline std::vector<std::uint8_t>
kernelParamsBytes(const KernelParams &p)
{
    SnapWriter w;
    fields(w, p);
    return w.take();
}

} // namespace wsl

#endif // WSL_SNAPSHOT_FIELDS_HH
