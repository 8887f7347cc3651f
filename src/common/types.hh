/**
 * @file
 * Fundamental scalar types and constants shared across the simulator.
 */

#ifndef WSL_COMMON_TYPES_HH
#define WSL_COMMON_TYPES_HH

#include <cstdint>

namespace wsl {

/** Simulation time in core clock cycles. */
using Cycle = std::uint64_t;

/** Byte address in the simulated global memory space. */
using Addr = std::uint64_t;

/** Sentinel cycle meaning "no event pending". */
constexpr Cycle neverCycle = ~Cycle{0};

/** Index of a kernel instance in the GPU's kernel table. */
using KernelId = int;

/** Index of a streaming multiprocessor. */
using SmId = int;

/** Sentinel for "no kernel". */
constexpr KernelId invalidKernel = -1;

/** Threads per warp (fixed, as in all NVIDIA generations modeled). */
constexpr unsigned warpSize = 32;

/** Cache line / memory transaction size in bytes. */
constexpr unsigned lineSize = 128;

/** Maximum number of kernels that can share the GPU concurrently. */
constexpr unsigned maxConcurrentKernels = 4;

} // namespace wsl

#endif // WSL_COMMON_TYPES_HH
