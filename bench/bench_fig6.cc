/**
 * @file
 * Reproduces paper Figure 6 (normalized IPC of Spatial / Even / Dynamic
 * / Oracle over the Left-Over baseline for all 30 application pairs,
 * with per-category and overall geometric means) and Table III (the
 * CTA partitions chosen by Warped-Slicer vs. Even, including spatial
 * fallbacks).
 *
 * Environment:
 *   WSL_WINDOW  characterization window (default 50000 cycles)
 *   WSL_ORACLE  0 disables the exhaustive oracle search (default on)
 *   WSL_JOBS    worker threads for the experiment matrix (default 1)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/policies.hh"
#include "harness/parallel.hh"
#include "harness/runner.hh"

using namespace wsl;

namespace {

bool
oracleEnabled()
{
    const char *env = std::getenv("WSL_ORACLE");
    return !env || std::atoi(env) != 0;
}

} // namespace

int
main()
{
    const GpuConfig cfg = GpuConfig::baseline();
    const Cycle window = defaultWindow();
    const unsigned jobs = defaultJobs();
    Characterization chars(cfg, window);
    const bool run_oracle = oracleEnabled();

    std::printf("Figure 6: normalized IPC vs Left-Over for 30 pairs "
                "(window %llu cycles)%s\n\n",
                static_cast<unsigned long long>(window),
                run_oracle ? "" : " [oracle disabled]");
    std::printf("%-18s %-16s %8s %8s %8s %8s   %-12s %-8s\n", "Pair",
                "Category", "Spatial", "Even", "Dynamic", "Oracle",
                "Dyn CTAs", "Even CTAs");

    struct Row
    {
        std::string category;
        double spatial, even, dynamic, oracle;
    };
    std::vector<Row> rows;

    // Build the whole pair x policy matrix (plus the oracle's
    // fixed-quota search space) as one batch of independent jobs;
    // results come back in construction order, so each pair's runs sit
    // at a known offset.
    const std::vector<WorkloadPair> pairs = evaluationPairs();
    std::vector<CoRunJob> batch;
    std::vector<std::size_t> first_job;  //!< batch index of each pair
    for (const WorkloadPair &pair : pairs) {
        first_job.push_back(batch.size());
        for (PolicyKind kind :
             {PolicyKind::LeftOver, PolicyKind::Spatial,
              PolicyKind::Even, PolicyKind::Dynamic}) {
            CoRunJob job;
            job.apps = {pair.first, pair.second};
            job.kind = kind;
            if (kind == PolicyKind::Dynamic)
                job.opts.slicer = scaledSlicerOptions(window);
            batch.push_back(job);
        }
        if (run_oracle) {
            const std::vector<KernelParams> apps = {
                benchmark(pair.first), benchmark(pair.second)};
            for (const std::vector<int> &combo :
                 enumerateFeasibleCombos(apps, cfg)) {
                CoRunJob job;
                job.apps = {pair.first, pair.second};
                job.kind = PolicyKind::LeftOver;
                job.opts.fixedQuotas = combo;
                batch.push_back(job);
            }
        }
    }
    first_job.push_back(batch.size());

    const std::vector<CoRunResult> results =
        runCoScheduleBatch(chars, batch, jobs);

    for (std::size_t p = 0; p < pairs.size(); ++p) {
        const WorkloadPair &pair = pairs[p];
        const std::vector<KernelParams> apps = {benchmark(pair.first),
                                                benchmark(pair.second)};
        const CoRunResult &left = results[first_job[p] + 0];
        const CoRunResult &spatial = results[first_job[p] + 1];
        const CoRunResult &even = results[first_job[p] + 2];
        const CoRunResult &dynamic = results[first_job[p] + 3];

        // Oracle: the best of every approach, including every feasible
        // fixed CTA combination (exhaustive, as in the paper).
        double oracle = std::max({left.sysIpc, spatial.sysIpc,
                                  even.sysIpc, dynamic.sysIpc});
        for (std::size_t j = first_job[p] + 4; j < first_job[p + 1];
             ++j)
            oracle = std::max(oracle, results[j].sysIpc);

        Row row;
        row.category = pair.category;
        row.spatial = spatial.sysIpc / left.sysIpc;
        row.even = even.sysIpc / left.sysIpc;
        row.dynamic = dynamic.sysIpc / left.sysIpc;
        row.oracle = oracle / left.sysIpc;
        rows.push_back(row);

        char dyn_ctas[32];
        if (dynamic.spatialFallback)
            std::snprintf(dyn_ctas, sizeof(dyn_ctas), "spatial");
        else if (dynamic.chosenCtas.size() == 2)
            std::snprintf(dyn_ctas, sizeof(dyn_ctas), "(%d,%d)",
                          dynamic.chosenCtas[0], dynamic.chosenCtas[1]);
        else
            std::snprintf(dyn_ctas, sizeof(dyn_ctas), "-");
        const int even_a = evenQuota(apps[0], cfg, 2);
        const int even_b = evenQuota(apps[1], cfg, 2);

        std::printf("%-18s %-16s %8.3f %8.3f %8.3f %8.3f   %-12s "
                    "(%d,%d)\n",
                    (pair.first + "_" + pair.second).c_str(),
                    pair.category.c_str(), row.spatial, row.even,
                    row.dynamic, row.oracle, dyn_ctas, even_a, even_b);
        std::fflush(stdout);
    }

    // Geometric means per category and overall.
    std::map<std::string, std::vector<Row>> by_cat;
    for (const Row &r : rows)
        by_cat[r.category].push_back(r);
    auto print_gmean = [](const std::string &label,
                          const std::vector<Row> &rs) {
        std::vector<double> sp, ev, dy, orc;
        for (const Row &r : rs) {
            sp.push_back(r.spatial);
            ev.push_back(r.even);
            dy.push_back(r.dynamic);
            orc.push_back(r.oracle);
        }
        std::printf("%-18s %-16s %8.3f %8.3f %8.3f %8.3f\n",
                    "GMEAN", label.c_str(), geomean(sp), geomean(ev),
                    geomean(dy), geomean(orc));
    };
    std::printf("\n");
    for (const auto &[cat, rs] : by_cat)
        print_gmean(cat, rs);
    print_gmean("ALL", rows);

    std::printf("\nPaper reference: Dynamic +23%% vs Left-Over, +14%% vs "
                "Even, +17%% vs Spatial (GMEAN over 30 pairs);\n"
                "Oracle slightly above Dynamic; Spatial only slightly "
                "above Left-Over.\n");
    return 0;
}
