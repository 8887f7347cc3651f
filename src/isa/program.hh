/**
 * @file
 * Kernel program representation: a loop body each warp executes a fixed
 * number of times. This captures the steady-state structure of the
 * throughput kernels the paper evaluates without a functional front end.
 */

#ifndef WSL_ISA_PROGRAM_HH
#define WSL_ISA_PROGRAM_HH

#include <cstdint>
#include <vector>

#include "isa/instruction.hh"

namespace wsl {

/**
 * A kernel's executable image. Every warp runs: loopIters iterations of
 * body, then terminates. A warp's dynamic position is (iter, pc) with pc
 * indexing into body.
 */
struct KernelProgram
{
    std::vector<Instruction> body;
    unsigned loopIters = 1;

    /** Dynamic warp instructions one warp executes to completion. */
    std::uint64_t
    dynamicLength() const
    {
        return static_cast<std::uint64_t>(body.size()) * loopIters;
    }

    /** Highest register id referenced, or -1 for an empty program. */
    int maxRegister() const;

    /** Count of body instructions executing on the given unit. */
    unsigned countUnit(UnitKind kind) const;

    /** Sanity-check structural invariants; panics on violation. */
    void validate() const;
};

} // namespace wsl

#endif // WSL_ISA_PROGRAM_HH
