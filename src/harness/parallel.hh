/**
 * @file
 * Parallel experiment engine. The evaluation workload — solo
 * characterizations, the pair x policy co-run matrix, the oracle's
 * fixed-quota search — is a set of completely independent `Gpu`
 * simulations, each already deterministically seeded from its own
 * GpuConfig. parallelFor() fans such jobs out over a `std::jthread`
 * pool behind an atomic job counter; results are written by index, so
 * output ordering (and content: every simulation is self-contained) is
 * bit-identical to a serial run regardless of thread count.
 */

#ifndef WSL_HARNESS_PARALLEL_HH
#define WSL_HARNESS_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

namespace wsl {

/**
 * Read a worker-thread count strictly, as the tools' --jobs flags do:
 * a decimal count and nothing else, where 0 selects the hardware
 * concurrency. Anything malformed or overflowing yields nothing, for
 * the caller to refuse.
 */
std::optional<unsigned> parseJobCount(std::string_view text);

/**
 * Parse a worker-thread count by parseJobCount's rule, but warn and
 * fall back to serial (1) on anything it refuses. `what` names the
 * source ("WSL_JOBS") in the warning. A null/empty `text` silently
 * means serial.
 */
unsigned parseJobs(const char *text, const char *what);

/** Worker threads from the WSL_JOBS environment variable (default 1). */
unsigned defaultJobs();

/**
 * Run fn(0) ... fn(n-1), fanning out over `jobs` worker threads
 * (clamped to [1, n]; 1 runs inline). Indices are handed out through
 * an atomic counter, so threads never contend on work items; `fn` must
 * only write state owned by its index. The first exception thrown by
 * any job is rethrown on the calling thread after all workers join.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

/**
 * Map `fn` over [0, n) into a vector, in parallel. Results land at
 * their own index: deterministic ordering for free.
 */
template <typename T, typename F>
std::vector<T>
parallelMap(std::size_t n, unsigned jobs, F &&fn)
{
    std::vector<T> out(n);
    parallelFor(n, jobs, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

} // namespace wsl

#endif // WSL_HARNESS_PARALLEL_HH
