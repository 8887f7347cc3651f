/**
 * @file
 * GDDR5 channel model with FR-FCFS scheduling (paper Table I). Banks
 * track open rows; the scheduler prefers row hits over oldest-first.
 * Timings are expressed in core cycles (pre-scaled in GpuConfig).
 *
 * The scheduling window is organized as per-bank arrival-ordered
 * queues with bank/row indices precomputed at push, replacing the
 * original single-vector O(n) scan with per-entry address math. A
 * blocked tick memoizes the exact cycle at which the next command can
 * issue, so fully-stalled channels cost O(1) per cycle.
 */

#ifndef WSL_MEM_DRAM_HH
#define WSL_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace wsl {

struct AuditAccess;
struct SnapshotAccess;

/** One scheduled DRAM transaction. */
struct DramRequest
{
    Addr line = 0;
    bool write = false;
    Cycle arrive = 0;
};

/** A finished DRAM read (writes complete silently). */
struct DramCompletion
{
    Addr line = 0;
    Cycle readyAt = 0;
};

/**
 * One memory channel: a FR-FCFS scheduling window over banked GDDR5
 * with row-buffer timing (tRCD/tRP/tRAS/tRRD/tCL) and a shared data bus
 * (dramBurst cycles per 128 B transaction).
 */
class DramChannel
{
  public:
    explicit DramChannel(const GpuConfig &cfg);

    /** True if the scheduling window can take another request. */
    bool canAccept() const { return queued < cfg.dramQueue; }

    /** Enqueue a transaction (caller observes canAccept first; eviction
     *  writebacks may push past the limit to avoid deadlock). */
    void push(const DramRequest &req);

    /**
     * Advance one core cycle: issue at most one command, retire finished
     * reads into `completed`.
     */
    void tick(Cycle now, std::vector<DramCompletion> &completed);

    bool busy() const { return queued != 0 || !inFlight.empty(); }
    std::size_t queueDepth() const { return queued; }

    PartitionStats stats;

  private:
    friend struct AuditAccess;
    friend struct SnapshotAccess;

    /** A queued transaction with its address geometry precomputed. */
    struct BankEntry
    {
        Addr line;
        Cycle arrive;
        std::uint64_t seq;  //!< global push order (FCFS tiebreak)
        std::uint64_t row;
        bool write;
    };

    struct Bank
    {
        std::int64_t openRow = -1;
        Cycle readyAt = 0;        //!< earliest next column command
        Cycle lastActivate = 0;
        std::vector<BankEntry> q; //!< seq-ascending (arrival order)
    };

    unsigned bankOf(Addr line) const;
    std::uint64_t rowOf(Addr line) const;

    const GpuConfig cfg;
    std::vector<Bank> banks;
    std::size_t queued = 0;       //!< total entries across bank queues
    std::uint64_t nextSeq = 0;
    struct Transfer { Addr line; bool write; Cycle doneAt; };
    RingQueue<Transfer> inFlight; //!< doneAt strictly increasing
    Cycle busBusyUntil = 0;
    Cycle lastActivateAny = 0;
    // Blocked-tick memo: when the last scheduling pass could not issue
    // a command, horizonAt holds the exact first cycle at which the
    // outcome can change (arrival, bank-ready, bus, or tRRD edge).
    bool horizonValid = false;
    Cycle horizonAt = 0;
};

} // namespace wsl

#endif // WSL_MEM_DRAM_HH
