/**
 * @file
 * Unified counter/gauge registry. The simulator has grown ad-hoc
 * counters in every layer — SmStats/PartitionStats structs, the solo
 * cache's hit/miss atomics, the interconnect stage's conservation
 * totals, the auditor's audit count, the engine profiler's phase
 * timings — each with its own accessor and none exportable in a
 * standard format. The registry absorbs them behind one pull-model
 * interface: subsystems register *providers* (callbacks that append
 * current samples), and the exporters walk the providers only when a
 * dump is requested. A registry that is never exported costs nothing
 * at simulation time.
 *
 * Exporters: Prometheus text exposition format (one `# TYPE` line per
 * metric family, labels rendered inline) and a flat JSON object
 * (label sets folded into the key), both deterministic in
 * registration order.
 */

#ifndef WSL_OBS_REGISTRY_HH
#define WSL_OBS_REGISTRY_HH

#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace wsl {

class Auditor;
class EngineProfiler;
class Gpu;
struct GpuStats;

/** One sampled metric value at export time. */
struct MetricSample
{
    /** Prometheus-legal family name (e.g. "wsl_sm_warp_insts"). */
    std::string name;
    /** Label pairs, e.g. {{"kernel","0"},{"kind","MemLatency"}}. */
    std::vector<std::pair<std::string, std::string>> labels;
    double value = 0.0;
    /** "counter" (monotone) or "gauge". */
    const char *type = "counter";
    /** One-line help text (first sample of a family wins). */
    std::string help;
};

/** Pull-model metric registry; see file comment. */
class CounterRegistry
{
  public:
    using Provider = std::function<void(std::vector<MetricSample> &)>;

    /**
     * Register a sample source. Providers run in registration order
     * at every export; whatever they capture must outlive the
     * registry's last export.
     */
    void addProvider(Provider provider);

    /** Convenience: one fixed-name counter/gauge backed by a
     *  callback. */
    void addCounter(std::string name, std::string help,
                    std::function<double()> sample);
    void addGauge(std::string name, std::string help,
                  std::function<double()> sample);

    /** Run every provider and collect the current samples. */
    std::vector<MetricSample> collect() const;

    /** Prometheus text exposition format. */
    void writePrometheus(std::ostream &os) const;

    /** Flat JSON object: {"name{label=\"v\"}": value, ...}. */
    void writeJson(std::ostream &os) const;

    std::size_t numProviders() const { return providers.size(); }

  private:
    std::vector<Provider> providers;
};

/** Sanitize an arbitrary metric name to [a-zA-Z_][a-zA-Z0-9_]*. */
std::string promSafeName(std::string_view raw);

/**
 * Register every counter the machine exposes: the aggregated
 * SmStats/PartitionStats families (per-kernel and per-stall-kind
 * arrays become labeled series), the global cycle clock, the
 * interconnect conservation totals, per-SM engine counters (scan-memo
 * hits, scans, bulk-skipped cycles), and — when present — the
 * auditor's audit count. The Gpu must outlive the registry's exports.
 */
void registerGpuCounters(CounterRegistry &registry, const Gpu &gpu);

/**
 * Register the aggregated stats surface from a snapshot. For
 * exporters that outlive the Gpu (the CLI writes its manifest after
 * runCoSchedule returns); the snapshot is copied into the provider.
 */
void registerStatsCounters(CounterRegistry &registry, GpuStats stats);

/** Register process-wide harness counters (solo cache hits/misses/
 *  size). */
void registerHarnessCounters(CounterRegistry &registry);

} // namespace wsl

#endif // WSL_OBS_REGISTRY_HH
