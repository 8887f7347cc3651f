#include "obs/manifest.hh"

#include <thread>

#include "harness/solo_cache.hh"
#include "obs/json.hh"

namespace wsl {

std::string
gitDescribeString()
{
#ifdef WSL_GIT_DESCRIBE
    return WSL_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

void
RunManifest::writeJson(std::ostream &os) const
{
    JsonValue root = JsonValue::makeObject();
    root.set("schema", JsonValue::makeString(schema));
    root.set("tool", JsonValue::makeString(tool));
    root.set("git_describe", JsonValue::makeString(gitDescribe));
    root.set("hardware_threads",
             JsonValue::makeNumber(hardwareThreads));
    root.set("config_fingerprint",
             JsonValue::makeString(configFingerprint));
    root.set("simulated_cycles",
             JsonValue::makeNumber(
                 static_cast<double>(simulatedCycles)));
    if (snapshot.valid()) {
        JsonValue snap = JsonValue::makeObject();
        snap.set("format_version",
                 JsonValue::makeNumber(snapshot.formatVersion));
        snap.set("capture_cycle",
                 JsonValue::makeNumber(
                     static_cast<double>(snapshot.captureCycle)));
        snap.set("machine_fingerprint",
                 JsonValue::makeString(snapshot.machineFingerprint));
        root.set("snapshot", std::move(snap));
    }
    JsonValue names = JsonValue::makeArray();
    for (const std::string &file : files)
        names.append(JsonValue::makeString(file));
    root.set("files", std::move(names));
    JsonValue dump = JsonValue::makeObject();
    for (const auto &[name, value] : counters)
        dump.set(name, JsonValue::makeNumber(value));
    root.set("counters", std::move(dump));
    root.write(os);
    os << '\n';
}

RunManifest
buildRunManifest(std::string tool, const GpuConfig &cfg,
                 const std::vector<MetricSample> &counters,
                 Cycle simulated_cycles)
{
    RunManifest m;
    m.tool = std::move(tool);
    m.gitDescribe = gitDescribeString();
    m.hardwareThreads = std::thread::hardware_concurrency();
    m.configFingerprint = configFingerprint(cfg);
    m.simulatedCycles = simulated_cycles;
    for (const MetricSample &s : counters) {
        std::string key = s.name;
        for (const auto &[label, value] : s.labels)
            key += "." + label + "." + value;
        m.counters.emplace_back(std::move(key), s.value);
    }
    return m;
}

} // namespace wsl
