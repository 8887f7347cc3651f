/**
 * @file
 * Reproduces paper Section V-H: the larger-resource machine (256 KB
 * register file, 96 KB shared memory, 32 CTA slots, 64 warps per SM).
 * The paper reports Warped-Slicer still improving performance and
 * fairness over the Left-Over baseline by ~26% each.
 */

#include <cstdio>
#include <vector>

#include "harness/parallel.hh"
#include "harness/runner.hh"

using namespace wsl;

int
main()
{
    const GpuConfig cfg = GpuConfig::largeResource();
    const Cycle window = defaultWindow();
    Characterization chars(cfg, window);

    std::printf("Section V-H: large-resource configuration "
                "(256KB RF, 96KB shm, 32 CTAs, 64 warps)\n\n");
    std::printf("%-18s %8s %8s %8s %9s\n", "Pair", "Spatial", "Even",
                "Dynamic", "Fairness");

    // Every pair under the four policies, as one batch on WSL_JOBS
    // workers against the large machine's characterization.
    const std::vector<WorkloadPair> pairs = evaluationPairs();
    std::vector<CoRunJob> batch;
    for (const WorkloadPair &pair : pairs) {
        for (PolicyKind kind :
             {PolicyKind::LeftOver, PolicyKind::Spatial, PolicyKind::Even,
              PolicyKind::Dynamic}) {
            CoRunJob job;
            job.apps = {pair.first, pair.second};
            job.kind = kind;
            if (kind == PolicyKind::Dynamic)
                job.opts.slicer = scaledSlicerOptions(window);
            batch.push_back(job);
        }
    }
    std::vector<CoRunResult> results =
        runCoScheduleBatch(chars, batch, defaultJobs());
    if (reportFailedJobs(results))
        return 1;

    std::vector<double> sp, ev, dy, fair_dyn, fair_lo;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
        const WorkloadPair &pair = pairs[p];
        CoRunResult &left = results[4 * p];
        const CoRunResult &spatial = results[4 * p + 1];
        const CoRunResult &even = results[4 * p + 2];
        CoRunResult &dynamic = results[4 * p + 3];

        sp.push_back(spatial.sysIpc / left.sysIpc);
        ev.push_back(even.sysIpc / left.sysIpc);
        dy.push_back(dynamic.sysIpc / left.sysIpc);
        const std::string names[2] = {pair.first, pair.second};
        for (unsigned i = 0; i < 2; ++i) {
            left.apps[i].aloneCycles = chars.aloneCycles(names[i]);
            dynamic.apps[i].aloneCycles = chars.aloneCycles(names[i]);
        }
        fair_lo.push_back(minimumSpeedup(left.apps));
        fair_dyn.push_back(minimumSpeedup(dynamic.apps));
        std::printf("%-18s %8.3f %8.3f %8.3f %9.3f\n",
                    (pair.first + "_" + pair.second).c_str(),
                    sp.back(), ev.back(), dy.back(),
                    fair_dyn.back() / fair_lo.back());
    }
    std::printf("\n%-18s %8.3f %8.3f %8.3f %9.3f\n", "GMEAN",
                geomean(sp), geomean(ev), geomean(dy),
                geomean(fair_dyn) / geomean(fair_lo));
    std::printf("\nPaper reference: with the larger machine, Dynamic "
                "still improves both performance and fairness\nover "
                "Left-Over by ~26%%.\n");
    return 0;
}
