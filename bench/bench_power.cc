/**
 * @file
 * Reproduces paper Section V-G: power and energy of Warped-Slicer vs
 * the Left-Over baseline over the 30 evaluation pairs. The paper
 * reports +3.1% average dynamic power (higher utilization) and -16%
 * total energy (shorter execution) via GPUWattch/McPAT.
 */

#include <cstdio>
#include <vector>

#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "power/power_model.hh"

using namespace wsl;

int
main()
{
    const GpuConfig cfg = GpuConfig::baseline();
    const Cycle window = defaultWindow();
    Characterization chars(cfg, window);

    std::printf("Section V-G: power and energy vs Left-Over "
                "(30 pairs)\n\n");
    std::printf("%-18s %10s %10s %10s %10s\n", "Pair", "LO dynW",
                "Dyn dynW", "LO E(mJ)", "Dyn E(mJ)");

    // Left-Over then Dynamic for each pair, as one batch on WSL_JOBS
    // workers.
    const std::vector<WorkloadPair> pairs = evaluationPairs();
    std::vector<CoRunJob> batch;
    for (const WorkloadPair &pair : pairs) {
        for (PolicyKind kind : {PolicyKind::LeftOver, PolicyKind::Dynamic}) {
            CoRunJob job;
            job.apps = {pair.first, pair.second};
            job.kind = kind;
            if (kind == PolicyKind::Dynamic)
                job.opts.slicer = scaledSlicerOptions(window);
            batch.push_back(job);
        }
    }
    const std::vector<CoRunResult> results =
        runCoScheduleBatch(chars, batch, defaultJobs());
    if (reportFailedJobs(results))
        return 1;

    std::vector<double> power_ratio, energy_ratio;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
        const WorkloadPair &pair = pairs[p];
        const PowerReport lo = computePower(results[2 * p].stats);
        const PowerReport dy = computePower(results[2 * p + 1].stats);
        power_ratio.push_back(dy.dynamicPowerW / lo.dynamicPowerW);
        energy_ratio.push_back(dy.totalEnergyJ / lo.totalEnergyJ);
        std::printf("%-18s %10.1f %10.1f %10.3f %10.3f\n",
                    (pair.first + "_" + pair.second).c_str(),
                    lo.dynamicPowerW, dy.dynamicPowerW,
                    lo.totalEnergyJ * 1e3, dy.totalEnergyJ * 1e3);
    }

    const double p = geomean(power_ratio);
    const double e = geomean(energy_ratio);
    std::printf("\nGMEAN dynamic power: %+.1f%% vs Left-Over "
                "(paper: +3.1%%)\n",
                100.0 * (p - 1.0));
    std::printf("GMEAN total energy:  %+.1f%% vs Left-Over "
                "(paper: -16%%)\n",
                100.0 * (e - 1.0));
    return 0;
}
