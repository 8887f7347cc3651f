/**
 * @file
 * Memoized solo characterizations. Figure-3 occupancy sweeps, the
 * co-run instruction-target methodology, and the per-figure bench
 * drivers all need "kernel X alone under config C for W cycles at
 * quota Q" — frequently the *same* (X, C, W, Q). The cache keys each
 * solo run on that tuple (kernel and config are fingerprinted
 * field-by-field) and simulates it at most once, concurrency-safely:
 * concurrent requests for one key block on a std::once_flag while a
 * single thread runs the simulation.
 *
 * Cached entries hold plain SoloResult values (counters only — no
 * telemetry samplers or histograms), so a cached result can never
 * alias live per-run recording state.
 */

#ifndef WSL_HARNESS_SOLO_CACHE_HH
#define WSL_HARNESS_SOLO_CACHE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/config.hh"
#include "harness/runner.hh"
#include "workloads/benchmarks.hh"

namespace wsl {

/**
 * Every field of a GpuConfig, serialized. Two configs fingerprint
 * equal iff every parameter (including the seed and scheduler) is
 * equal, so distinct machines never share cache entries.
 */
std::string configFingerprint(const GpuConfig &cfg);

/**
 * Every field of a KernelParams, as the snapshot stores it
 * (kernelParamsBytes): doubles keep all their bits. Included in the
 * cache key so ad-hoc kernels (sensitivity sweeps that perturb a
 * benchmark, however slightly) cannot collide with the canonical
 * benchmark of the same name.
 */
std::string kernelFingerprint(const KernelParams &params);

/** Thread-safe memo of runSoloForCycles() results. */
class SoloCache
{
  public:
    /**
     * The solo result for {kernel, config, window, quota}, simulating
     * it on a miss. The returned reference stays valid until clear().
     */
    const SoloResult &get(const KernelParams &params,
                          const GpuConfig &cfg, Cycle window,
                          int cta_quota = -1);

    /** Lookups answered from the cache. */
    std::uint64_t hits() const { return hitCount.load(); }
    /** Lookups that ran a simulation. */
    std::uint64_t misses() const { return missCount.load(); }
    std::size_t size() const;

    /** Drop all entries and reset the counters. */
    void clear();

    /** Process-wide instance shared by harness helpers and drivers. */
    static SoloCache &global();

  private:
    struct Key
    {
        std::string kernel;
        std::string config;
        Cycle window;
        int quota;

        bool
        operator<(const Key &other) const
        {
            if (int c = kernel.compare(other.kernel))
                return c < 0;
            if (int c = config.compare(other.config))
                return c < 0;
            if (window != other.window)
                return window < other.window;
            return quota < other.quota;
        }
    };

    struct Entry
    {
        std::once_flag once;
        SoloResult result;
    };

    mutable std::mutex mutex;
    std::map<Key, std::shared_ptr<Entry>> entries;
    std::atomic<std::uint64_t> hitCount{0};
    std::atomic<std::uint64_t> missCount{0};
};

} // namespace wsl

#endif // WSL_HARNESS_SOLO_CACHE_HH
