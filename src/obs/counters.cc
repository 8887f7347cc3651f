#include "obs/counters.hh"

#include <cctype>
#include <map>

#include "harness/runner.hh"
#include "harness/solo_cache.hh"
#include "obs/json.hh"
#include "report/table.hh"

namespace wsl {

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

} // namespace

void
writePrometheus(std::ostream &os, const std::vector<MetricSample> &samples)
{
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
        // Integral counters print exactly, everything else with
        // round-trip precision.
        for (const MetricSample *s : family)
            os << name << labelSuffix(*s) << ' '
               << JsonValue::makeNumber(s->value).dump() << '\n';
    }
}

void
appendStatsCounters(std::vector<MetricSample> &out, const GpuStats &stats)
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

void
appendHarnessCounters(std::vector<MetricSample> &out)
{
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
}

} // namespace wsl
