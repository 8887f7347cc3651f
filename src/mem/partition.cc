#include "mem/partition.hh"

#include "common/log.hh"

namespace wsl {

MemPartition::MemPartition(const GpuConfig &c, unsigned idx)
    : cfg(c), index(idx),
      l2(CacheParams{c.l2SizePerPartition, c.l2Assoc, c.l2Mshrs, 64}),
      dram(c)
{
}

bool
MemPartition::busy() const
{
    return !reqQueue.empty() || dram.busy() || l2.mshrsInUse() > 0;
}

void
MemPartition::tick(Cycle now)
{
    if (recordTelemetry) {
        mshrHist.record(l2.mshrsInUse());
        dramHist.record(dram.queueDepth());
    }
    // Idle partition: nothing queued, nothing in flight. (Telemetry
    // above still samples the zero depths so histograms are unchanged.)
    if (reqQueue.empty() && !dram.busy())
        return;
    // Retire DRAM work first so fills can satisfy same-cycle arrivals.
    dramDone.clear();
    dram.tick(now, dramDone);
    for (const auto &done : dramDone) {
        l2.fill(done.line, fillScratch);
        if (fillScratch.evictedDirty)
            dram.push({fillScratch.evictedLine, true, now});
        for (std::uint64_t token : fillScratch.tokens) {
            outResponses.push_back(
                {done.line, static_cast<SmId>(token),
                 now + cfg.icntLatency});
            ++pushedResponses;
        }
    }

    // Service up to icntWidth arrived requests in order.
    unsigned served = 0;
    while (served < cfg.icntWidth && !reqQueue.empty()) {
        const MemRequest &req = reqQueue.front();
        if (req.readyAt > now)
            break;
        const bool present = l2.probe(req.line);
        if (req.write) {
            // Write-no-allocate: hits dirty the line, misses go straight
            // to DRAM.
            if (!present && !dram.canAccept())
                break;
            l2.write(req.line, true);
            if (!present)
                dram.push({req.line, true, now});
        } else {
            const bool in_flight = l2.mshrHit(req.line);
            if (!present && !in_flight &&
                (!dram.canAccept() || !l2.mshrAvailable())) {
                break;  // backpressure: retry next cycle
            }
            if (!l2.canAcceptRead(req.line))
                break;  // MSHR target list full: retry next cycle
            auto result =
                l2.read(req.line, static_cast<std::uint64_t>(req.sm));
            switch (result) {
              case Cache::ReadResult::Hit:
                outResponses.push_back(
                    {req.line, req.sm,
                     now + cfg.l2HitLatency + cfg.icntLatency});
                ++pushedResponses;
                break;
              case Cache::ReadResult::MissNew:
                dram.push({req.line, false, now + cfg.l2HitLatency});
                break;
              case Cache::ReadResult::MissMerged:
                // The MSHR response will cover this requester.
                break;
              case Cache::ReadResult::Blocked:
                simBug("L2 read blocked after canAcceptRead precheck");
            }
        }
        reqQueue.pop();
        ++servicedRequests;
        ++served;
    }
}

PartitionStats
MemPartition::stats() const
{
    PartitionStats s = dram.stats;
    s.l2Accesses = l2.accesses;
    s.l2Misses = l2.misses;
    return s;
}

void
MemPartition::reset()
{
    l2.reset();
    reqQueue.clear();
    // Dropped queue entries retire nothing; realign the conservation
    // counters so the auditor's accepted == serviced + queued check
    // stays true across experiment-phase resets. Staged responses are
    // dropped undelivered, so un-count them the same way.
    pushedResponses -= outResponses.size();
    outResponses.clear();
    servicedRequests = acceptedRequests;
}

} // namespace wsl
