/**
 * @file
 * Scheduler-hot warp state, split out of WarpState into a packed
 * structure-of-arrays row. The scheduler's hot path (updateIssuable,
 * which keeps the scan's bitmasks, and the issue it picks) reads
 * exactly these fields; keeping
 * them in their own 32-byte rows means a scan touches two warps per
 * cache line instead of dragging in the cold remainder (divergence
 * stack, fetch bookkeeping, CTA linkage) that only the issue and
 * fetch paths need. The rows live contiguously in one per-SM arena
 * (SmCore::hot), parallel to the cold WarpState vector and indexed by
 * the same warp slot.
 */

#ifndef WSL_SM_WARP_SOA_HH
#define WSL_SM_WARP_SOA_HH

#include <cstdint>

namespace wsl {

struct KernelProgram;

/**
 * One warp slot's scheduler-hot row. 32 bytes, cache-line aligned in
 * pairs: program pointer (next-instruction lookup), the two scoreboard
 * masks, the SIMT lane mask, pc, i-buffer depth, and the three
 * liveness/blocking flags. Everything else about a warp is cold and
 * stays in WarpState.
 */
struct alignas(32) WarpHot
{
    const KernelProgram *program = nullptr;

    // Scoreboard: registers with in-flight writes. "Long" = global
    // loads (drives the Long Memory Latency stall class), "short" =
    // ALU/SFU/shared-memory results.
    std::uint32_t pendingShort = 0;
    std::uint32_t pendingLong = 0;

    /** Currently active SIMT lanes. */
    std::uint32_t activeMask = 0xffffffffu;

    std::uint32_t pc = 0;  //!< index into program body

    std::uint16_t ibuf = 0;  //!< decoded instructions buffered

    bool active = false;    //!< slot holds a live warp
    bool finished = false;  //!< ran to completion (slot not yet freed)
    bool atBarrier = false;

    bool
    issuable() const
    {
        return active && !finished && !atBarrier && ibuf > 0;
    }

    /** Recycle the row for a new warp (all fields are defaults; the
     *  slot epoch lives in the cold WarpState). */
    void
    reset()
    {
        program = nullptr;
        pendingShort = 0;
        pendingLong = 0;
        activeMask = 0xffffffffu;
        pc = 0;
        ibuf = 0;
        active = false;
        finished = false;
        atBarrier = false;
    }
};

static_assert(sizeof(WarpHot) == 32,
              "WarpHot must stay two-rows-per-cache-line; rebalance "
              "fields against WarpState before growing it");

} // namespace wsl

#endif // WSL_SM_WARP_SOA_HH
