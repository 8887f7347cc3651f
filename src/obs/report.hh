/**
 * @file
 * The analysis half of `wslicer-report`: validate run bundles and
 * their manifests, diff two result JSONs (manifests or BENCH dumps)
 * for regressions, and render decision logs as human-readable "why
 * this split" reports. Apart from checkBundle, which reads a
 * directory, these are pure functions over parsed JsonValue documents
 * so tests can drive them with crafted fixtures; the tool binary is a
 * thin argv wrapper.
 */

#ifndef WSL_OBS_REPORT_HH
#define WSL_OBS_REPORT_HH

#include <ostream>
#include <string>
#include <vector>

namespace wsl {

class JsonValue;

/**
 * Validate a parsed run manifest: schema tag, tool, git_describe,
 * numeric hardware_threads, config_fingerprint, a files array of
 * plain file names, and a counters object with numeric values.
 * Returns false and fills `error` with the first problem found.
 */
bool checkManifest(const JsonValue &doc, std::string &error);

/**
 * Validate the run bundle in `dir` (`wslicer-sim --obs DIR`): its
 * manifest.json passes checkManifest, every file the manifest lists
 * exists, the directory holds nothing the manifest does not list,
 * every .json file parses, decisions.json renders as a decision log
 * and slo.json as an SLO report. Returns false and fills `error`,
 * naming the file, with the first problem found.
 */
bool checkBundle(const std::string &dir, std::string &error);

/** Result of diffing two result documents. */
struct DiffResult
{
    /** Set when either input is not a usable result document; the
     *  diff is meaningless and the tool must exit 2. */
    bool malformed = false;
    std::string malformedReason;

    struct Line
    {
        std::string key;
        double base = 0.0;
        double fresh = 0.0;
        bool regressed = false;
        /** Skipped from regression judgment because the recording
         *  hosts' thread counts differ and the key is
         *  thread-sensitive. */
        bool skipped = false;
    };
    /** Every numeric/bool key present in both documents. */
    std::vector<Line> lines;
    /** Keys present in only one document (informational). */
    std::vector<std::string> onlyBase;
    std::vector<std::string> onlyFresh;

    bool
    anyRegression() const
    {
        for (const Line &line : lines)
            if (line.regressed)
                return true;
        return false;
    }

    /** 0 = clean, 1 = regression, 2 = malformed input. */
    int
    exitCode() const
    {
        if (malformed)
            return 2;
        return anyRegression() ? 1 : 0;
    }
};

/**
 * Compare two result documents (run manifests or BENCH JSONs),
 * `base` being the trusted baseline. Keys are flattened
 * dot-separated paths to numeric/bool leaves.
 *
 * Regression rules:
 *  - throughput-like keys (containing "per_sec" or "speedup"):
 *    fresh < (1 - threshold) x base regresses;
 *  - boolean keys: true in base, false in fresh regresses (e.g. the
 *    bench_sweep `identical` bit-identity flag);
 *  - other numeric keys are reported but never regress (counters
 *    legitimately move).
 *
 * When the two documents record different `hardware_threads`,
 * thread-sensitive keys (containing "tick", "speedup", "parallel",
 * or "threads") are excluded from regression judgment entirely —
 * a 1-thread box's tick_speedup says nothing about an 8-thread
 * box's (the PR 5 baseline trap).
 *
 * @param threshold  allowed fractional throughput loss (default 20%)
 */
DiffResult diffResults(const JsonValue &base, const JsonValue &fresh,
                       double threshold = 0.20);

/** Render a diff as an aligned human-readable table. */
void writeDiff(const DiffResult &diff, std::ostream &os);

/**
 * Render a decision-log JSON document ("wslicer-decisions-v1") as a
 * human-readable report: per decision, the inputs, the candidate
 * raises with their accept/refuse reasons, the chosen split, and
 * predicted vs realized IPC. Returns false (and writes nothing but
 * `error`) when the document does not look like a decision log.
 */
bool renderDecisionLog(const JsonValue &doc, std::ostream &os,
                       std::string &error);

/**
 * Render a serving-run SLO report ("wslicer-serve-v1") as a
 * human-readable per-class summary: outcome accounting (every arrival
 * must land in exactly one bucket — the renderer re-checks the
 * conservation law and flags a broken ledger), goodput and
 * deadline-miss rates, latency percentiles, and the fault/quarantine
 * trail. Returns false (and writes only `error`) when the document is
 * not a serve report.
 */
bool renderSloReport(const JsonValue &doc, std::ostream &os,
                     std::string &error);

} // namespace wsl

#endif // WSL_OBS_REPORT_HH
