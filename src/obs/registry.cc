#include "obs/registry.hh"

#include <cctype>
#include <map>

#include "check/auditor.hh"
#include "gpu/gpu.hh"
#include "harness/runner.hh"
#include "harness/solo_cache.hh"
#include "obs/json.hh"
#include "report/table.hh"

namespace wsl {

void
CounterRegistry::addProvider(Provider provider)
{
    providers.push_back(std::move(provider));
}

void
CounterRegistry::addCounter(std::string name, std::string help,
                            std::function<double()> sample)
{
    addProvider([name = std::move(name), help = std::move(help),
                 sample = std::move(sample)](
                    std::vector<MetricSample> &out) {
        out.push_back({name, {}, sample(), "counter", help});
    });
}

void
CounterRegistry::addGauge(std::string name, std::string help,
                          std::function<double()> sample)
{
    addProvider([name = std::move(name), help = std::move(help),
                 sample = std::move(sample)](
                    std::vector<MetricSample> &out) {
        out.push_back({name, {}, sample(), "gauge", help});
    });
}

std::vector<MetricSample>
CounterRegistry::collect() const
{
    std::vector<MetricSample> samples;
    for (const Provider &provider : providers)
        provider(samples);
    return samples;
}

std::string
promSafeName(std::string_view raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    if (out.empty() ||
        std::isdigit(static_cast<unsigned char>(out[0])))
        out.insert(out.begin(), '_');
    return out;
}

namespace {

std::string
labelSuffix(const MetricSample &s)
{
    if (s.labels.empty())
        return {};
    std::string out = "{";
    for (std::size_t i = 0; i < s.labels.size(); ++i) {
        if (i)
            out += ',';
        out += s.labels[i].first;
        out += "=\"";
        out += jsonEscaped(s.labels[i].second);
        out += '"';
    }
    out += '}';
    return out;
}

/** Print a metric value the way both exporters need it: integral
 *  counters exactly, everything else with round-trip precision. */
std::string
formatValue(double v)
{
    return JsonValue::makeNumber(v).dump();
}

void
appendFlattenedStats(const GpuStats &stats,
                     std::vector<MetricSample> &out)
{
    for (const auto &[name, value] : flattenStats(stats)) {
        const bool rate =
            name == "ipc" || name.find("rate") != std::string::npos ||
            name.find("mpki") != std::string::npos;
        out.push_back({"wsl_" + promSafeName(name),
                       {},
                       value,
                       rate ? "gauge" : "counter",
                       "aggregated simulator statistic"});
    }
}

} // namespace

void
CounterRegistry::writePrometheus(std::ostream &os) const
{
    const std::vector<MetricSample> samples = collect();
    // Prometheus wants one # TYPE header per family, with the family's
    // series grouped under it; group while preserving first-seen order.
    std::vector<std::string> order;
    std::map<std::string, std::vector<const MetricSample *>> families;
    for (const MetricSample &s : samples) {
        auto &family = families[s.name];
        if (family.empty())
            order.push_back(s.name);
        family.push_back(&s);
    }
    for (const std::string &name : order) {
        const auto &family = families[name];
        if (!family.front()->help.empty())
            os << "# HELP " << name << ' ' << family.front()->help
               << '\n';
        os << "# TYPE " << name << ' ' << family.front()->type << '\n';
        for (const MetricSample *s : family)
            os << name << labelSuffix(*s) << ' '
               << formatValue(s->value) << '\n';
    }
}

void
CounterRegistry::writeJson(std::ostream &os) const
{
    JsonValue obj = JsonValue::makeObject();
    for (const MetricSample &s : collect())
        obj.set(s.name + labelSuffix(s), JsonValue::makeNumber(s.value));
    obj.write(os);
    os << '\n';
}

void
registerGpuCounters(CounterRegistry &registry, const Gpu &gpu)
{
    // The whole aggregated stats surface, via the same flattenStats
    // the CLI reports use — a counter added to SmStats/PartitionStats
    // shows up here with no registry change.
    registry.addProvider([&gpu](std::vector<MetricSample> &out) {
        appendFlattenedStats(gpu.collectStats(), out);
    });
    // Engine-meta counters: interconnect conservation totals, the
    // scheduler scan/memo split, and the audit count. These describe
    // how the simulator ran, so they live outside the stats identity
    // surface (a restored run restarts the scan counters at zero).
    registry.addProvider([&gpu](std::vector<MetricSample> &out) {
        out.push_back({"wsl_icnt_routed_requests",
                       {},
                       static_cast<double>(
                           gpu.interconnect().routedRequests()),
                       "counter",
                       "requests accepted into partition queues"});
        out.push_back({"wsl_icnt_delivered_responses",
                       {},
                       static_cast<double>(
                           gpu.interconnect().deliveredResponses()),
                       "counter",
                       "responses handed back to SMs"});
        std::uint64_t scans = 0, memo_hits = 0;
        for (unsigned s = 0; s < gpu.numSms(); ++s) {
            scans += gpu.sm(s).schedulerScans();
            memo_hits += gpu.sm(s).scanMemoHits();
        }
        out.push_back({"wsl_sched_scans",
                       {},
                       static_cast<double>(scans),
                       "counter",
                       "full warp-scheduler issue scans"});
        out.push_back({"wsl_sched_scan_memo_hits",
                       {},
                       static_cast<double>(memo_hits),
                       "counter",
                       "scheduler scans replayed from the memo"});
        if (const Auditor *auditor = gpu.integrityAuditor())
            out.push_back({"wsl_audits_run",
                           {},
                           static_cast<double>(auditor->auditsRun()),
                           "counter",
                           "invariant audits executed"});
    });
}

void
registerStatsCounters(CounterRegistry &registry, GpuStats stats)
{
    registry.addProvider(
        [stats = std::move(stats)](std::vector<MetricSample> &out) {
            appendFlattenedStats(stats, out);
        });
}

void
registerHarnessCounters(CounterRegistry &registry)
{
    registry.addProvider([](std::vector<MetricSample> &out) {
        SoloCache &cache = SoloCache::global();
        out.push_back({"wsl_solo_cache_hits",
                       {},
                       static_cast<double>(cache.hits()),
                       "counter",
                       "solo characterizations answered from cache"});
        out.push_back({"wsl_solo_cache_misses",
                       {},
                       static_cast<double>(cache.misses()),
                       "counter",
                       "solo characterizations simulated"});
        out.push_back({"wsl_solo_cache_size",
                       {},
                       static_cast<double>(cache.size()),
                       "gauge",
                       "cached solo results"});
        out.push_back({"wsl_batch_jobs",
                       {},
                       static_cast<double>(batchJobsRun()),
                       "counter",
                       "co-schedule batch jobs started"});
        out.push_back({"wsl_batch_jobs_failed",
                       {},
                       static_cast<double>(batchJobsFailed()),
                       "counter",
                       "batch jobs that ended with a JobError"});
    });
}

} // namespace wsl
