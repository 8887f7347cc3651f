#include "core/policies.hh"

#include <algorithm>

#include "common/log.hh"
#include "snapshot/io.hh"

namespace wsl {

std::vector<KernelId>
liveKernels(const Gpu &gpu)
{
    std::vector<KernelId> live;
    for (std::size_t k = 0; k < gpu.numKernels(); ++k)
        if (!gpu.kernel(static_cast<KernelId>(k)).done)
            live.push_back(static_cast<KernelId>(k));
    return live;
}

int
evenQuota(const KernelParams &params, const GpuConfig &cfg,
          unsigned num_live)
{
    WSL_ASSERT(num_live > 0, "even quota needs at least one kernel");
    const ResourceVec slice =
        ResourceVec::capacity(cfg).dividedBy(num_live);
    const ResourceVec need = ResourceVec::ofCta(params);
    unsigned quota = cfg.maxCtasPerSm;
    auto limit = [&quota](unsigned cap, unsigned cost) {
        if (cost > 0)
            quota = std::min(quota, cap / cost);
    };
    limit(slice.regs, need.regs);
    limit(slice.shm, need.shm);
    limit(slice.threads, need.threads);
    limit(slice.ctas, need.ctas);
    return static_cast<int>(quota);
}

std::vector<unsigned>
spatialGroups(unsigned num_sms, unsigned num_live)
{
    std::vector<unsigned> groups(num_sms, 0);
    if (num_live == 0)
        return groups;
    // Distribute remainder SMs to the later groups so the first
    // kernels match the paper's equal 8/8 split for K = 2.
    const unsigned base = num_sms / num_live;
    const unsigned extra = num_sms % num_live;
    unsigned sm = 0;
    for (unsigned g = 0; g < num_live; ++g) {
        unsigned count = base + (g >= num_live - extra ? 1 : 0);
        for (unsigned i = 0; i < count && sm < num_sms; ++i)
            groups[sm++] = g;
    }
    return groups;
}

void
EvenPolicy::onKernelSetChanged(Gpu &gpu, Cycle now)
{
    (void)now;
    const std::vector<KernelId> live = liveKernels(gpu);
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        gpu.sm(s).clearQuotas();
        if (live.size() <= 1)
            continue;  // a lone kernel takes the whole SM
        for (KernelId kid : live) {
            const int q = evenQuota(gpu.kernel(kid).params,
                                    gpu.config(),
                                    static_cast<unsigned>(live.size()));
            gpu.sm(s).setQuota(kid, q);
        }
    }
}

void
SpatialPolicy::onKernelSetChanged(Gpu &gpu, Cycle now)
{
    (void)now;
    const std::vector<KernelId> live = liveKernels(gpu);
    smOwner.assign(gpu.numSms(), invalidKernel);
    if (live.empty())
        return;
    const std::vector<unsigned> groups =
        spatialGroups(gpu.numSms(), static_cast<unsigned>(live.size()));
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        smOwner[s] = live[groups[s]];
        gpu.sm(s).clearQuotas();
    }
}

bool
SpatialPolicy::mayDispatch(const Gpu &gpu, SmId sm, KernelId kid) const
{
    (void)gpu;
    if (smOwner.empty())
        return true;
    return smOwner[sm] == kid;
}

template <class Ar, class Self>
void
SpatialPolicy::state(Ar &ar, Self &self)
{
    ar.seq(self.smOwner, [&](auto &kid) { ar.i32(kid); });
}

void
SpatialPolicy::saveState(SnapWriter &w) const
{
    state(w, *this);
}

void
SpatialPolicy::loadState(SnapReader &r)
{
    state(r, *this);
}

void
TimeSlicePolicy::tick(Gpu &gpu, Cycle now)
{
    const std::vector<KernelId> live = liveKernels(gpu);
    if (live.empty()) {
        owner = invalidKernel;
        return;
    }
    owner = live[(now / slice) % live.size()];
}

bool
TimeSlicePolicy::mayDispatch(const Gpu &gpu, SmId sm,
                             KernelId kid) const
{
    (void)gpu;
    (void)sm;
    return owner == invalidKernel || kid == owner;
}

template <class Ar, class Self>
void
TimeSlicePolicy::state(Ar &ar, Self &self)
{
    ar.u64(self.slice);
    ar.i32(self.owner);
}

void
TimeSlicePolicy::saveState(SnapWriter &w) const
{
    state(w, *this);
}

void
TimeSlicePolicy::loadState(SnapReader &r)
{
    state(r, *this);
}

void
FixedQuotaPolicy::onKernelSetChanged(Gpu &gpu, Cycle now)
{
    (void)now;
    const std::vector<KernelId> live = liveKernels(gpu);
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        gpu.sm(s).clearQuotas();
        if (live.size() <= 1)
            continue;
        for (KernelId kid : live) {
            if (static_cast<std::size_t>(kid) < quotas.size())
                gpu.sm(s).setQuota(kid, quotas[kid]);
        }
    }
}

template <class Ar, class Self>
void
FixedQuotaPolicy::state(Ar &ar, Self &self)
{
    ar.seq(self.quotas, [&](auto &q) { ar.i32(q); });
}

void
FixedQuotaPolicy::saveState(SnapWriter &w) const
{
    state(w, *this);
}

void
FixedQuotaPolicy::loadState(SnapReader &r)
{
    state(r, *this);
}

} // namespace wsl
