/**
 * @file
 * Messages exchanged between SMs and memory partitions over the
 * interconnect. All traffic is line-granular (128 B transactions).
 */

#ifndef WSL_MEM_REQUEST_HH
#define WSL_MEM_REQUEST_HH

#include <cstdint>

#include "common/types.hh"

namespace wsl {

/** SM -> partition memory transaction. */
struct MemRequest
{
    Addr line = 0;        //!< line-aligned address
    bool write = false;
    SmId sm = -1;         //!< requesting SM (responses route back here)
    Cycle readyAt = 0;    //!< arrival time at the partition
};

/** Partition -> SM read response (a full line fill). */
struct MemResponse
{
    Addr line = 0;
    SmId sm = -1;
    Cycle readyAt = 0;    //!< arrival time at the SM
};

/** Line-align a byte address. */
constexpr Addr
lineAddr(Addr addr)
{
    return addr & ~static_cast<Addr>(lineSize - 1);
}

/**
 * Memory partition owning an address: consecutive lines interleave
 * across partitions (GPGPU-Sim style channel interleaving), preserving
 * DRAM row locality for streaming access patterns.
 */
inline unsigned
partitionOf(Addr line, unsigned num_partitions)
{
    return static_cast<unsigned>((line / lineSize) % num_partitions);
}

/** A partition's bit in a 64-bit partition set. Above 64 partitions
 *  several share a bit, so such a set can only over-cover. */
constexpr std::uint64_t
partitionBit(unsigned partition)
{
    return std::uint64_t{1} << (partition % 64);
}

} // namespace wsl

#endif // WSL_MEM_REQUEST_HH
