/**
 * @file
 * Lightweight event tracing for debugging and analysis. A global,
 * default-off ring buffer records typed simulator events (CTA
 * lifecycle, kernel lifecycle, partitioning decisions); the CLI and
 * tests can enable it and dump or inspect the stream. When disabled
 * the recording path is a single branch.
 */

#ifndef WSL_TRACE_TRACER_HH
#define WSL_TRACE_TRACER_HH

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace wsl {

/** Kinds of traced simulator events. */
enum class TraceEvent : std::uint8_t
{
    CtaLaunch,      //!< a=cta global id, b=sm
    CtaComplete,    //!< a=kernel's completed count, b=sm
    KernelLaunch,   //!< a=grid dim
    KernelFinish,   //!< a=1 if halted at target, 0 if grid completed
    ProfileStart,   //!< a=profiling round
    Decision,       //!< a=packed CTA quotas (8 bits each), b=spatial
    Reprofile,      //!< a=profiling round
};

const char *traceEventName(TraceEvent event);

/** One trace record. */
struct TraceRecord
{
    Cycle cycle = 0;
    TraceEvent event = TraceEvent::CtaLaunch;
    KernelId kernel = invalidKernel;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
};

/**
 * Global tracer. Enable with a bounded capacity; the newest records
 * win when the ring is full. global() returns a per-thread instance:
 * simulations fanned out by the parallel experiment engine record
 * into (default-off) thread-local rings and never synchronize; the
 * CLI enables and dumps only the main thread's tracer.
 */
class Tracer
{
  public:
    static Tracer &global();

    /** Start recording into a ring of `capacity` records. */
    void enable(std::size_t capacity = 65536);
    /** Stop recording and drop the buffer. */
    void disable();
    bool enabled() const { return active; }

    void
    record(Cycle cycle, TraceEvent event, KernelId kernel,
           std::uint32_t a = 0, std::uint32_t b = 0)
    {
        if (!active)
            return;
        if (ring.size() >= cap)
            ring.pop_front();
        ring.push_back({cycle, event, kernel, a, b});
        ++total;
    }

    const std::deque<TraceRecord> &records() const { return ring; }
    /** Records of one event kind, in order. */
    std::vector<TraceRecord> ofKind(TraceEvent event) const;
    /** Events recorded since enable() (including evicted ones). */
    std::uint64_t totalRecorded() const { return total; }
    void clear();

    /**
     * Register the benchmark name behind a kernel id so dumps print
     * names instead of table indices. Kept even while disabled (it is
     * launch-time metadata, not an event).
     */
    void setKernelName(KernelId kid, const std::string &name);
    /** Registered name, or "" if the kernel id is unknown. */
    const std::string &kernelName(KernelId kid) const;
    /** Number of kernel ids with a registered name. */
    std::size_t numKernelNames() const { return names.size(); }

    /** Human-readable dump, one event per line. Kernels print by
     *  benchmark name when registered; Decision events decode their
     *  packed quotas into `k0=Q0 k1=Q1 ...` form. */
    void dump(std::ostream &os) const;

  private:
    bool active = false;
    std::size_t cap = 0;
    std::uint64_t total = 0;
    std::deque<TraceRecord> ring;
    std::vector<std::string> names;  //!< indexed by KernelId
};

/** Pack up to four small CTA quotas into a trace word. */
std::uint32_t packQuotas(const std::vector<int> &ctas);

} // namespace wsl

#endif // WSL_TRACE_TRACER_HH
