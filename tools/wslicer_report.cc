/**
 * @file
 * wslicer-report: offline analysis of wslicer run artifacts.
 *
 *   wslicer-report explain <decisions.json>
 *       Render a Dynamic-policy decision log as a "why this split"
 *       report: water-filling inputs, candidate raises and why each
 *       was accepted or refused, the chosen partition, and predicted
 *       vs realized IPC.
 *
 *   wslicer-report check <DIR>
 *       Validate a run bundle (`wslicer-sim --obs DIR`): its manifest,
 *       that DIR holds exactly the files the manifest lists, and that
 *       each JSON file parses and, for decisions.json and slo.json,
 *       renders. Exit 0 when the bundle is sound, 2 naming the first
 *       bad file otherwise.
 *
 *   wslicer-report diff <base.json> <fresh.json> [--threshold X]
 *       Compare two manifests or BENCH JSONs. Exit 0 when clean,
 *       1 when a throughput key fell by more than the fraction X
 *       (0 <= X < 1, default 0.2) or a bit-identity key regressed,
 *       2 when either input or X is malformed. Thread-sensitive
 *       keys are skipped when the two runs were recorded on hosts
 *       with different hardware_threads.
 *
 *   wslicer-report slo <serve.json>
 *       Render a serving-run SLO report (a serve bundle's slo.json)
 *       as a per-class summary and re-check its outcome-conservation
 *       ledger. Exit 0 on a clean ledger, 1 when the ledger is
 *       broken, 2 when the input is not a serve report.
 */

#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "obs/json.hh"
#include "obs/report.hh"
#include "parse_number.hh"

namespace {

int
usage()
{
    std::cerr
        << "usage: wslicer-report explain <decisions.json>\n"
        << "       wslicer-report check <DIR>\n"
        << "       wslicer-report diff <base.json> <fresh.json>"
        << " [--threshold X]\n"
        << "       wslicer-report slo <serve.json>\n";
    return 2;
}

/** Load and parse a JSON file, reporting any failure on stderr. */
bool
loadJson(const std::string &path, wsl::JsonValue &out)
{
    std::string error;
    if (wsl::loadJsonFile(path, out, error))
        return true;
    std::cerr << "wslicer-report: " << error << "\n";
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string cmd = argv[1];

    if (cmd == "explain") {
        wsl::JsonValue doc;
        if (!loadJson(argv[2], doc))
            return 2;
        std::string error;
        if (!wsl::renderDecisionLog(doc, std::cout, error)) {
            std::cerr << "wslicer-report: " << argv[2] << ": "
                      << error << "\n";
            return 2;
        }
        return 0;
    }

    if (cmd == "check") {
        std::string error;
        if (!wsl::checkBundle(argv[2], error)) {
            std::cerr << "wslicer-report: " << error << "\n";
            return 2;
        }
        std::cout << argv[2] << ": ok\n";
        return 0;
    }

    if (cmd == "slo") {
        wsl::JsonValue doc;
        if (!loadJson(argv[2], doc))
            return 2;
        std::string error;
        std::ostringstream rendered;
        if (!wsl::renderSloReport(doc, rendered, error)) {
            std::cerr << "wslicer-report: " << argv[2] << ": "
                      << error << "\n";
            return 2;
        }
        std::cout << rendered.str();
        // The renderer re-verifies the outcome-conservation ledger;
        // surface a broken one as a failing exit for CI gates.
        return rendered.str().find("BROKEN") == std::string::npos ? 0
                                                                  : 1;
    }

    if (cmd == "diff") {
        if (argc < 4)
            return usage();
        double threshold = 0.20;
        for (int i = 4; i < argc; ++i) {
            if (std::string(argv[i]) != "--threshold" || i + 1 >= argc)
                return usage();
            // A fraction of the baseline: 1 or more would pass any drop.
            const std::optional<double> t =
                wsl::parseNumber<double>(argv[++i]);
            if (!t || *t < 0 || *t >= 1) {
                std::cerr << "wslicer-report: --threshold: '" << argv[i]
                          << "' is not a fraction in [0, 1)\n";
                return usage();
            }
            threshold = *t;
        }
        wsl::JsonValue base, fresh;
        if (!loadJson(argv[2], base) || !loadJson(argv[3], fresh))
            return 2;
        const wsl::DiffResult diff =
            wsl::diffResults(base, fresh, threshold);
        wsl::writeDiff(diff, std::cout);
        return diff.exitCode();
    }

    return usage();
}
