/**
 * @file
 * One memory partition: an L2 slice (write-back, allocate-on-read) in
 * front of a GDDR5 channel. Six of these serve the 16 SMs (Table I).
 */

#ifndef WSL_MEM_PARTITION_HH
#define WSL_MEM_PARTITION_HH

#include <vector>

#include "common/config.hh"
#include "common/histogram.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/request.hh"

namespace wsl {

struct AuditAccess;
struct SnapshotAccess;

/**
 * Memory partition. Requests arrive time-stamped from the interconnect;
 * responses carry their own interconnect latency back to the SMs.
 */
class MemPartition
{
  public:
    MemPartition(const GpuConfig &cfg, unsigned index);

    /** True while the input queue has room (interconnect backpressure). */
    bool canAcceptRequest() const { return reqQueue.size() < 64; }

    /** Enqueue a request from the interconnect. */
    void
    pushRequest(const MemRequest &req)
    {
        ++acceptedRequests;
        reqQueue.push(req);
    }

    /** Advance one core cycle. */
    void tick(Cycle now);

    /** Responses ready to route back to the SMs (drained by the GPU). */
    std::vector<MemResponse> &responses() { return outResponses; }

    /** True while any request is queued or in flight. */
    bool busy() const;

    /** Aggregate counters (L2 + DRAM). */
    PartitionStats stats() const;

    const Cache &l2Cache() const { return l2; }

    /** Switch per-cycle queue-depth histogram recording on or off. */
    void setTelemetryRecording(bool on) { recordTelemetry = on; }

    /** L2 MSHR occupancy sampled each cycle (telemetry runs only). */
    const Histogram &mshrOccupancyHistogram() const { return mshrHist; }
    /** DRAM scheduling-queue depth sampled each cycle. */
    const Histogram &dramQueueHistogram() const { return dramHist; }

    /** Drop cached state between experiment phases. */
    void reset();

  private:
    friend struct AuditAccess;
    friend struct SnapshotAccess;

    void serviceRequest(const MemRequest &req, Cycle now);

    const GpuConfig cfg;
    [[maybe_unused]] unsigned index;
    Cache l2;
    DramChannel dram;
    RingQueue<MemRequest> reqQueue{64};
    /** Request-conservation counters for the integrity auditor:
     *  accepted == serviced + reqQueue.size() at every tick boundary. */
    std::uint64_t acceptedRequests = 0;
    std::uint64_t servicedRequests = 0;
    /** Responses ever staged into outResponses; the auditor checks the
     *  sum over partitions against the interconnect stage's delivered
     *  count plus the still-staged responses (response conservation
     *  across the parallel-tick merge). */
    std::uint64_t pushedResponses = 0;
    std::vector<MemResponse> outResponses;
    std::vector<DramCompletion> dramDone;  //!< scratch, reused per tick
    Cache::FillResult fillScratch;         //!< scratch, reused per fill
    PartitionStats l2Stats;
    bool recordTelemetry = false;
    Histogram mshrHist;
    Histogram dramHist;
};

} // namespace wsl

#endif // WSL_MEM_PARTITION_HH
