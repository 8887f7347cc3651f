#include "obs/report.hh"

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>

#include "obs/json.hh"
#include "obs/manifest.hh"

namespace wsl {

bool
checkManifest(const JsonValue &doc, std::string &error)
{
    if (!doc.isObject()) {
        error = "manifest is not a JSON object";
        return false;
    }
    const std::string schema = doc.stringOr("schema", "");
    if (schema != RunManifest::schema) {
        error = schema.empty() ? "missing schema tag"
                               : "unknown schema '" + schema + "'";
        return false;
    }
    for (const char *key : {"tool", "git_describe",
                            "config_fingerprint"}) {
        const JsonValue *v = doc.find(key);
        if (!v || !v->isString() || v->asString().empty()) {
            error = std::string("missing or empty '") + key + "'";
            return false;
        }
    }
    if (!doc.hasNumber("hardware_threads") ||
        doc.numberOr("hardware_threads", 0) < 1) {
        error = "missing or non-positive 'hardware_threads'";
        return false;
    }
    const JsonValue *files = doc.findArray("files");
    if (!files) {
        error = "missing 'files' array";
        return false;
    }
    for (const JsonValue &file : files->items()) {
        if (!file.isString() || file.asString().empty() ||
            file.asString().find('/') != std::string::npos ||
            file.asString() == "manifest.json") {
            error = "'files' holds an entry that is not a file name";
            return false;
        }
    }
    const JsonValue *counters = doc.findObject("counters");
    if (!counters) {
        error = "missing 'counters' object";
        return false;
    }
    for (const auto &[name, value] : counters->members()) {
        if (!value.isNumber()) {
            error = "counter '" + name + "' is not a number";
            return false;
        }
    }
    return true;
}

bool
checkBundle(const std::string &dir, std::string &error)
{
    namespace fs = std::filesystem;
    const auto fail = [&](const std::string &file, const std::string &why) {
        error = (fs::path(dir) / file).string() + ": " + why;
        return false;
    };
    JsonValue manifest;
    if (!loadJsonFile((fs::path(dir) / "manifest.json").string(), manifest,
                      error))
        return false;
    std::string why;
    if (!checkManifest(manifest, why))
        return fail("manifest.json", "malformed manifest: " + why);

    std::set<std::string> listed = {"manifest.json"};
    for (const JsonValue &file : manifest.findArray("files")->items())
        listed.insert(file.asString());
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (!listed.count(name))
            return fail(name, "not listed in manifest.json");
    }
    for (const std::string &name : listed) {
        const fs::path path = fs::path(dir) / name;
        if (!fs::is_regular_file(path))
            return fail(name, "listed in manifest.json but missing");
        if (path.extension() != ".json")
            continue;
        JsonValue doc;
        if (!loadJsonFile(path.string(), doc, error))
            return false;
        std::ostringstream rendered;
        if ((name == "decisions.json" &&
             !renderDecisionLog(doc, rendered, why)) ||
            (name == "slo.json" && !renderSloReport(doc, rendered, why)))
            return fail(name, why);
    }
    return true;
}

namespace {

/** Flatten numeric/bool leaves to dotted paths (bools as 0/1). Array
 *  elements get numeric path components; strings are skipped (they
 *  are labels, not measurements). */
void
flattenLeaves(const JsonValue &v, const std::string &prefix,
              std::map<std::string, double> &out,
              std::map<std::string, bool> &is_bool)
{
    switch (v.kind()) {
      case JsonValue::Kind::Number:
        out[prefix] = v.asNumber();
        return;
      case JsonValue::Kind::Bool:
        out[prefix] = v.asBool() ? 1.0 : 0.0;
        is_bool[prefix] = true;
        return;
      case JsonValue::Kind::Object:
        for (const auto &[key, member] : v.members())
            flattenLeaves(member,
                          prefix.empty() ? key : prefix + "." + key,
                          out, is_bool);
        return;
      case JsonValue::Kind::Array: {
        const auto &items = v.items();
        for (std::size_t i = 0; i < items.size(); ++i)
            flattenLeaves(items[i], prefix + "." + std::to_string(i),
                          out, is_bool);
        return;
      }
      default:
        return;
    }
}

bool
contains(const std::string &haystack, const char *needle)
{
    return haystack.find(needle) != std::string::npos;
}

bool
throughputKey(const std::string &key)
{
    return contains(key, "per_sec") || contains(key, "speedup");
}

bool
threadSensitiveKey(const std::string &key)
{
    return contains(key, "tick") || contains(key, "speedup") ||
           contains(key, "parallel") || contains(key, "threads");
}

/** The document's recorded host thread count; 0 when absent. */
double
hardwareThreadsOf(const JsonValue &doc)
{
    if (doc.hasNumber("hardware_threads"))
        return doc.numberOr("hardware_threads", 0);
    // BENCH dumps nest it under a "host" or "meta" object in some
    // shapes; accept one level of nesting.
    for (const auto &[key, member] : doc.members())
        if (member.isObject() &&
            member.hasNumber("hardware_threads"))
            return member.numberOr("hardware_threads", 0);
    return 0;
}

} // namespace

DiffResult
diffResults(const JsonValue &base, const JsonValue &fresh,
            double threshold)
{
    DiffResult diff;
    if (!base.isObject() || !fresh.isObject()) {
        diff.malformed = true;
        diff.malformedReason = !base.isObject()
                                   ? "baseline is not a JSON object"
                                   : "fresh run is not a JSON object";
        return diff;
    }
    // A manifest input must be a *valid* manifest; a malformed one
    // exits 2 rather than silently diffing garbage.
    for (const auto *doc : {&base, &fresh}) {
        if (doc->stringOr("schema", "") == RunManifest::schema) {
            std::string error;
            if (!checkManifest(*doc, error)) {
                diff.malformed = true;
                diff.malformedReason =
                    (doc == &base ? "baseline: " : "fresh: ") + error;
                return diff;
            }
        }
    }

    std::map<std::string, double> base_vals, fresh_vals;
    std::map<std::string, bool> base_bool, fresh_bool;
    flattenLeaves(base, "", base_vals, base_bool);
    flattenLeaves(fresh, "", fresh_vals, fresh_bool);
    if (base_vals.empty() || fresh_vals.empty()) {
        diff.malformed = true;
        diff.malformedReason = "no numeric keys to compare";
        return diff;
    }

    const double base_threads = hardwareThreadsOf(base);
    const double fresh_threads = hardwareThreadsOf(fresh);
    const bool hosts_differ = base_threads != 0 &&
                              fresh_threads != 0 &&
                              base_threads != fresh_threads;

    for (const auto &[key, base_value] : base_vals) {
        const auto it = fresh_vals.find(key);
        if (it == fresh_vals.end()) {
            diff.onlyBase.push_back(key);
            continue;
        }
        DiffResult::Line line;
        line.key = key;
        line.base = base_value;
        line.fresh = it->second;
        if (hosts_differ && threadSensitiveKey(key)) {
            line.skipped = true;
        } else if (base_bool.count(key)) {
            line.regressed = base_value != 0.0 && it->second == 0.0;
        } else if (throughputKey(key)) {
            line.regressed =
                it->second < (1.0 - threshold) * base_value;
        }
        diff.lines.push_back(std::move(line));
    }
    for (const auto &[key, value] : fresh_vals)
        if (!base_vals.count(key))
            diff.onlyFresh.push_back(key);
    return diff;
}

void
writeDiff(const DiffResult &diff, std::ostream &os)
{
    if (diff.malformed) {
        os << "malformed input: " << diff.malformedReason << "\n";
        return;
    }
    std::size_t width = 4;
    for (const DiffResult::Line &line : diff.lines)
        width = std::max(width, line.key.size());
    for (const DiffResult::Line &line : diff.lines) {
        os << std::left << std::setw(static_cast<int>(width))
           << line.key << "  " << std::right << std::setw(14)
           << line.base << " -> " << std::setw(14) << line.fresh;
        if (line.skipped)
            os << "  [skipped: host thread counts differ]";
        else if (line.regressed)
            os << "  REGRESSION";
        os << "\n";
    }
    for (const std::string &key : diff.onlyBase)
        os << key << "  (baseline only)\n";
    for (const std::string &key : diff.onlyFresh)
        os << key << "  (fresh only)\n";
    if (diff.anyRegression())
        os << "RESULT: regression detected\n";
    else
        os << "RESULT: ok\n";
}

bool
renderDecisionLog(const JsonValue &doc, std::ostream &os,
                  std::string &error)
{
    if (!doc.isObject() ||
        doc.stringOr("schema", "") != "wslicer-decisions-v1") {
        error = "not a wslicer-decisions-v1 document";
        return false;
    }
    const JsonValue *decisions = doc.findArray("decisions");
    if (!decisions) {
        error = "missing 'decisions' array";
        return false;
    }
    if (const JsonValue *snap = doc.findObject("snapshot")) {
        os << "restored from snapshot: format v"
           << static_cast<unsigned>(snap->numberOr("format_version", 0))
           << ", captured @ cycle "
           << static_cast<std::uint64_t>(
                  snap->numberOr("capture_cycle", 0))
           << ", machine "
           << snap->stringOr("machine_fingerprint", "?") << "\n";
    }
    if (decisions->items().empty()) {
        os << "no decisions recorded (single-kernel run, or the "
              "policy never repartitioned)\n";
        return true;
    }
    unsigned index = 0;
    for (const JsonValue &d : decisions->items()) {
        os << "=== decision " << index++ << " @ cycle "
           << static_cast<std::uint64_t>(d.numberOr("cycle", 0))
           << " (round "
           << static_cast<unsigned>(d.numberOr("round", 0))
           << ") ===\n";
        const JsonValue *kernels = d.findArray("kernels");
        const JsonValue *chosen = d.findArray("chosen_ctas");
        const JsonValue *norm = d.findArray("norm_perf");
        const JsonValue *predicted = d.findArray("predicted_ipc");
        const JsonValue *realized = d.findArray("realized_ipc");
        const bool spatial = d.boolOr("spatial", false);

        if (kernels) {
            for (std::size_t i = 0; i < kernels->items().size();
                 ++i) {
                const JsonValue &k = kernels->items()[i];
                os << "  k"
                   << static_cast<int>(k.numberOr("id", -1)) << " '"
                   << k.stringOr("name", "?") << "': perf curve [";
                if (const JsonValue *perf = k.findArray("perf")) {
                    for (std::size_t j = 0;
                         j < perf->items().size(); ++j) {
                        if (j)
                            os << ", ";
                        os << perf->items()[j].asNumber();
                    }
                }
                os << "]";
                if (!spatial && chosen &&
                    i < chosen->items().size())
                    os << " -> "
                       << static_cast<int>(
                              chosen->items()[i].asNumber())
                       << " CTAs";
                if (norm && i < norm->items().size())
                    os << " (keeps "
                       << norm->items()[i].asNumber() * 100.0
                       << "% of peak)";
                os << "\n";
            }
        }

        if (const JsonValue *steps = d.findArray("steps")) {
            os << "  water-filling steps:\n";
            for (const JsonValue &s : steps->items()) {
                os << "    k"
                   << static_cast<int>(s.numberOr("kernel", -1))
                   << " -> "
                   << static_cast<int>(s.numberOr("ctas_after", 0))
                   << " CTAs (level " << s.numberOr("level", 0)
                   << "): "
                   << (s.boolOr("accepted", false)
                           ? "accepted"
                           : "refused by " +
                                 s.stringOr("reason", "?"))
                   << "\n";
            }
        }

        if (spatial) {
            os << "  verdict: SPATIAL FALLBACK — min normalized perf "
               << d.numberOr("min_norm_perf", 0) << " below required "
               << d.numberOr("required_perf", 0)
               << " (a kernel would lose too much; SMs are split "
                  "between kernels instead)\n";
        } else {
            os << "  verdict: intra-SM split, min normalized perf "
               << d.numberOr("min_norm_perf", 0) << " >= required "
               << d.numberOr("required_perf", 0) << "\n";
        }

        if (predicted && realized) {
            for (std::size_t i = 0; i < predicted->items().size();
                 ++i) {
                const double pred = predicted->items()[i].asNumber();
                const double real =
                    i < realized->items().size()
                        ? realized->items()[i].asNumber()
                        : -1.0;
                os << "  k" << i << " predicted IPC " << pred;
                if (real >= 0.0) {
                    os << ", realized " << real;
                    if (pred > 0.0)
                        os << " (" << real / pred * 100.0
                           << "% of prediction)";
                } else {
                    os << ", realized n/a (window never settled)";
                }
                os << "\n";
            }
        }
    }
    return true;
}

bool
renderSloReport(const JsonValue &doc, std::ostream &os,
                std::string &error)
{
    if (!doc.isObject() ||
        doc.stringOr("schema", "") != "wslicer-serve-v1") {
        error = "not a wslicer-serve-v1 document";
        return false;
    }
    const JsonValue *classes = doc.findArray("classes");
    if (!classes) {
        error = "missing 'classes' array";
        return false;
    }
    os << "serve SLO report, Jain fairness over goodput rates: "
       << doc.numberOr("fairness_index", 0) << "\n";
    bool ledger_ok = true;
    for (const JsonValue &c : classes->items()) {
        auto n = [&](std::string_view key) {
            return static_cast<std::uint64_t>(c.numberOr(key, 0));
        };
        const std::uint64_t arrivals = n("arrivals");
        const std::uint64_t admitted = n("admitted");
        const std::uint64_t rejected = n("rejected_queue_full") +
                                       n("rejected_quarantined") +
                                       n("rejected_malformed");
        const std::uint64_t settled = n("completed") + n("shed") +
                                      n("timed_out") + n("failed") +
                                      n("pending_at_end");
        // Conservation law: every arrival lands in exactly one
        // bucket. A broken ledger means the service lost a request
        // silently — the one thing the structured outcomes exist to
        // prevent.
        const bool ok =
            arrivals == admitted + rejected && admitted == settled;
        ledger_ok = ledger_ok && ok;

        os << "\n=== class '" << c.stringOr("class", "?") << "' ("
           << c.stringOr("bench", "?") << ")"
           << (c.boolOr("quarantined", false) ? " [QUARANTINED]" : "")
           << " ===\n";
        os << "  arrivals " << arrivals << ": admitted " << admitted
           << ", rejected " << rejected << " (queue-full "
           << n("rejected_queue_full") << ", quarantined "
           << n("rejected_quarantined") << ", malformed "
           << n("rejected_malformed") << ")\n";
        os << "  admitted " << admitted << ": completed "
           << n("completed") << ", shed " << n("shed")
           << ", timed out " << n("timed_out") << ", failed "
           << n("failed") << ", in flight at end "
           << n("pending_at_end") << "\n";
        os << "  goodput " << n("goodput") << " / " << arrivals
           << " arrivals, deadline misses " << n("deadline_miss")
           << "\n";
        if (const JsonValue *lat = c.findObject("latency")) {
            if (lat->numberOr("count", 0) > 0)
                os << "  latency: mean " << lat->numberOr("mean", 0)
                   << ", p50 "
                   << static_cast<std::uint64_t>(
                          lat->numberOr("p50", 0))
                   << ", p99 "
                   << static_cast<std::uint64_t>(
                          lat->numberOr("p99", 0))
                   << " cycles\n";
        }
        if (const JsonValue *qd = c.findObject("queue_delay")) {
            if (qd->numberOr("count", 0) > 0)
                os << "  queue delay: mean " << qd->numberOr("mean", 0)
                   << ", p99 "
                   << static_cast<std::uint64_t>(qd->numberOr("p99", 0))
                   << " cycles\n";
        }
        if (n("faults_injected") || n("retries") || n("preemptions"))
            os << "  chaos: " << n("faults_injected")
               << " faults injected (" << n("faults_stall")
               << " stalls), " << n("retries") << " retries, "
               << n("preemptions") << " preemptions\n";
        os << "  accounting: " << (ok ? "ok" : "BROKEN") << "\n";
    }
    os << "\nledger: " << (ledger_ok ? "ok" : "BROKEN — see above")
       << "\n";
    return true;
}

} // namespace wsl
