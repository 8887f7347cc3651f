#include "gpu/staging.hh"

#include "mem/partition.hh"
#include "mem/request.hh"
#include "sm/sm_core.hh"

namespace wsl {

void
InterconnectStage::mergeRequests(
    const std::vector<SmCore *> &sms,
    const std::vector<MemPartition *> &partitions)
{
    // Partitions with queue room, as a set and a count. Partitions
    // only fill during the merge, so an SM none of whose staged
    // requests is bound for an open partition would route nothing and
    // is skipped, and the merge ends once every partition is full.
    // Above 64 partitions several share a bit and a bit stays set
    // while any of them may have room.
    const bool exact = partitions.size() <= 64;
    std::uint64_t open = 0;
    std::size_t openCount = 0;
    for (unsigned p = 0; p < partitions.size(); ++p) {
        if (partitions[p]->canAcceptRequest()) {
            open |= partitionBit(p);
            ++openCount;
        }
    }
    for (SmCore *sm : sms) {
        if (openCount == 0)
            return;
        if ((sm->stagedPartitions() & open) == 0)
            continue;
        sm->routeStaged([&](const MemRequest &req, unsigned home) {
            MemPartition &part = *partitions[home];
            if (!part.canAcceptRequest())
                return false;
            part.pushRequest(req);
            ++routed;
            if (!part.canAcceptRequest()) {
                --openCount;
                if (exact)
                    open &= ~partitionBit(home);
            }
            return true;
        });
    }
}

void
InterconnectStage::deliverResponses(
    const std::vector<MemPartition *> &partitions,
    const std::vector<SmCore *> &sms)
{
    for (MemPartition *part : partitions) {
        auto &resps = part->responses();
        for (const MemResponse &resp : resps) {
            sms[resp.sm]->deliverResponse(resp);
            ++delivered;
        }
        resps.clear();
    }
}

} // namespace wsl
