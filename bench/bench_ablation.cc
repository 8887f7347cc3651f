/**
 * @file
 * Ablation study of Warped-Slicer's design choices (DESIGN.md §4).
 * Over a representative subset of pairs (two per category), measures
 * the contribution of:
 *   - the Equation 3 bandwidth scaling of profile samples,
 *   - the shared-bandwidth interference constraint in water-filling,
 *   - the warm-up period before the first profile,
 *   - the phase monitor,
 *   - the spatial-multitasking fallback threshold.
 */

#include <cstdio>
#include <vector>

#include "harness/parallel.hh"
#include "harness/runner.hh"

using namespace wsl;

namespace {

const std::vector<WorkloadPair> kSubset = {
    {"IMG", "NN", "Compute+Cache"},   {"MM", "MVP", "Compute+Cache"},
    {"HOT", "BLK", "Compute+Memory"}, {"MM", "LBM", "Compute+Memory"},
    {"HOT", "IMG", "Compute+Compute"}, {"MM", "DXT", "Compute+Compute"},
};

} // namespace

int
main()
{
    const GpuConfig cfg = GpuConfig::baseline();
    const Cycle window = defaultWindow();
    Characterization chars(cfg, window);
    const WarpedSlicerOptions base = scaledSlicerOptions(window);

    std::printf("Ablation: Warped-Slicer design choices "
                "(GMEAN normalized IPC over %zu pairs)\n\n",
                kSubset.size());

    struct Variant
    {
        const char *name;
        WarpedSlicerOptions opts;
    };
    std::vector<Variant> variants;
    variants.push_back({"full design (default)", base});
    {
        WarpedSlicerOptions o = base;
        o.bwScaling = false;
        variants.push_back({"- Eq.3 bandwidth scaling", o});
    }
    {
        WarpedSlicerOptions o = base;
        o.bwConstraint = false;
        variants.push_back({"- bandwidth constraint", o});
    }
    {
        WarpedSlicerOptions o = base;
        o.bwScaling = false;
        o.bwConstraint = false;
        variants.push_back({"- both bandwidth terms", o});
    }
    {
        WarpedSlicerOptions o = base;
        o.warmup = 0;
        variants.push_back({"- warm-up (profile at t=0)", o});
    }
    {
        WarpedSlicerOptions o = base;
        o.phaseMonitor = false;
        variants.push_back({"- phase monitor", o});
    }
    {
        WarpedSlicerOptions o = base;
        o.lossThresholdScale = 0.0;  // never fall back
        variants.push_back({"- spatial fallback", o});
    }
    {
        WarpedSlicerOptions o = base;
        o.profileLength /= 4;
        variants.push_back({"quarter-length profile", o});
    }

    // One batch on WSL_JOBS workers: each pair's Left-Over run once,
    // then every variant's Dynamic runs.
    std::vector<CoRunJob> batch;
    for (const WorkloadPair &pair : kSubset) {
        CoRunJob job;
        job.apps = {pair.first, pair.second};
        batch.push_back(job);
    }
    for (const Variant &v : variants) {
        for (const WorkloadPair &pair : kSubset) {
            CoRunJob job;
            job.apps = {pair.first, pair.second};
            job.kind = PolicyKind::Dynamic;
            job.opts.slicer = v.opts;
            batch.push_back(job);
        }
    }
    const std::vector<CoRunResult> results =
        runCoScheduleBatch(chars, batch, defaultJobs());
    if (reportFailedJobs(results))
        return 1;

    const std::size_t n = kSubset.size();
    double ref = 0.0;
    for (std::size_t v = 0; v < variants.size(); ++v) {
        std::vector<double> vals;
        for (std::size_t p = 0; p < n; ++p)
            vals.push_back(results[n + v * n + p].sysIpc /
                           results[p].sysIpc);
        const double g = geomean(vals);
        if (ref == 0.0)
            ref = g;
        std::printf("  %-28s %6.3f (%+.1f%% vs full)\n", variants[v].name,
                    g, 100.0 * (g - ref) / ref);
    }
    return 0;
}
