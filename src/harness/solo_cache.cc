#include "harness/solo_cache.hh"

#include <sstream>

#include "snapshot/fields.hh"

namespace wsl {

std::string
configFingerprint(const GpuConfig &c)
{
    // Serialize every field; a parameter added to GpuConfig must be
    // appended here or distinct configs could share solo results.
    std::ostringstream os;
    os << c.numSms << ',' << c.simtWidth << ',' << c.numSchedulers
       << ',' << static_cast<int>(c.scheduler) << ','
       << c.maxThreadsPerSm << ',' << c.numRegsPerSm << ','
       << c.maxCtasPerSm << ',' << c.sharedMemPerSm << ','
       << c.ibufferEntries << ',' << c.fetchWidth << ','
       << c.fetchLatency << ',' << c.ifetchMissLatency << ','
       << c.aluLatency << ',' << c.sfuLatency << ',' << c.shmLatency
       << ',' << c.aluInitiation << ',' << c.sfuInitiation << ','
       << c.ldstInitiation << ',' << c.numAluPipes << ',' << c.l1Size
       << ',' << c.l1Assoc << ',' << c.l1Mshrs << ',' << c.l1HitLatency
       << ',' << c.l1MissQueue << ',' << c.icntLatency << ','
       << c.icntWidth << ',' << c.numMemPartitions << ','
       << c.l2SizePerPartition << ',' << c.l2Assoc << ','
       << c.l2HitLatency << ',' << c.l2Mshrs << ',' << c.dramBanks
       << ',' << c.dramQueue << ',' << c.tCL << ',' << c.tRP << ','
       << c.tRC << ',' << c.tRAS << ',' << c.tRCD << ',' << c.tRRD
       << ',' << c.dramBurst << ',' << c.dramRowBytes << ',' << c.seed
       << ',' << c.auditCadence << ',' << c.watchdogCycles;
    return os.str();
}

std::string
kernelFingerprint(const KernelParams &p)
{
    const std::vector<std::uint8_t> bytes = kernelParamsBytes(p);
    return {bytes.begin(), bytes.end()};
}

const SoloResult &
SoloCache::get(const KernelParams &params, const GpuConfig &cfg,
               Cycle window, int cta_quota)
{
    Key key{kernelFingerprint(params), configFingerprint(cfg), window,
            cta_quota};
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto [it, inserted] = entries.try_emplace(key, nullptr);
        if (inserted) {
            it->second = std::make_shared<Entry>();
            missCount.fetch_add(1, std::memory_order_relaxed);
        } else {
            hitCount.fetch_add(1, std::memory_order_relaxed);
        }
        entry = it->second;
    }
    // Simulate outside the map lock; racing requests for the same key
    // block here until the first one finishes.
    std::call_once(entry->once, [&] {
        entry->result = runSoloForCycles(params, cfg, window, cta_quota);
    });
    return entry->result;
}

std::size_t
SoloCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return entries.size();
}

void
SoloCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex);
    entries.clear();
    hitCount.store(0);
    missCount.store(0);
}

SoloCache &
SoloCache::global()
{
    static SoloCache cache;
    return cache;
}

} // namespace wsl
