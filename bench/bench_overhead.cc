/**
 * @file
 * Reproduces paper Section V-I: implementation overhead of the
 * Warped-Slicer hardware. The design needs per-SM sampling counters
 * (per-kernel instruction counts, memory-stall counters, bandwidth
 * counters) plus one global unit running Algorithm 1. We inventory the
 * storage the implementation actually samples and apply the paper's
 * published synthesis results (NCSU PDK 45 nm) for the roll-up, since
 * re-synthesis is outside a simulator's scope (see DESIGN.md).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "common/config.hh"
#include "common/types.hh"
#include "core/policies.hh"
#include "gpu/gpu.hh"
#include "telemetry/telemetry.hh"
#include "workloads/benchmarks.hh"

using namespace wsl;

namespace {

/**
 * Wall-clock seconds to simulate `cycles` of the MM+BFS co-run, with
 * the telemetry sampler attached (interval > 0) or absent. Measures
 * the simulator's own recording overhead, not the modeled hardware.
 */
double
timeRun(Cycle cycles, Cycle interval)
{
    Gpu gpu(GpuConfig::baseline(),
            std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(benchmark("MM"));
    gpu.launchKernel(benchmark("BFS"));
    TelemetrySampler sampler(TelemetryConfig{interval, 4096});
    if (sampler.enabled())
        gpu.attachTelemetry(&sampler);
    const auto t0 = std::chrono::steady_clock::now();
    gpu.run(cycles);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Best of three runs, to shed scheduling noise. */
double
bestOfThree(Cycle cycles, Cycle interval)
{
    double best = timeRun(cycles, interval);
    for (int i = 0; i < 2; ++i)
        best = std::min(best, timeRun(cycles, interval));
    return best;
}

} // namespace

int
main()
{
    const GpuConfig cfg = GpuConfig::baseline();

    // Counters the profiling logic samples per SM (one set per
    // concurrently resident kernel where applicable):
    //   - warp instructions issued per kernel   (48-bit x kernels)
    //   - long-memory-latency stall counter     (32-bit)
    //   - L1 miss (bandwidth) counter           (32-bit)
    //   - resident CTA count per kernel         (8-bit x kernels)
    //   - per-kernel CTA quota registers        (8-bit x kernels)
    const unsigned per_kernel_bits = 48 + 8 + 8;
    const unsigned shared_bits = 32 + 32;
    const unsigned per_sm_bits =
        per_kernel_bits * maxConcurrentKernels + shared_bits;
    const unsigned total_sampling_bits = per_sm_bits * cfg.numSms;

    // Global decision logic: Q/M vectors for K kernels x N CTA levels
    // (Algorithm 1 is O(K*N) space) plus the water-filling FSM.
    const unsigned qm_bits =
        maxConcurrentKernels * cfg.maxCtasPerSm * (16 + 4);
    // Paper-published synthesis results (45 nm):
    const double sampling_area_um2_per_sm = 714.0;
    const double global_area_mm2 = 0.04;
    const double gpu_area_mm2 = 704.0;   // 16 SMs from GPUWattch
    const double dynamic_power_mw = 54.0;
    const double leakage_power_mw = 0.27;
    const double gpu_dynamic_w = 37.7;
    const double gpu_leakage_w = 34.6;

    const double total_area_mm2 =
        sampling_area_um2_per_sm * cfg.numSms / 1e6 + global_area_mm2;

    std::printf("Section V-I: implementation overhead\n\n");
    std::printf("Sampling state: %u bits/SM (%u bits total for %u "
                "SMs)\n",
                per_sm_bits, total_sampling_bits, cfg.numSms);
    std::printf("Algorithm 1 working set: %u bits (Q/M vectors, "
                "K=%u, N=%u)\n",
                qm_bits, maxConcurrentKernels, cfg.maxCtasPerSm);
    std::printf("\nUsing the paper's 45 nm synthesis results:\n");
    std::printf("  sampling counters: %.0f um^2 per SM\n",
                sampling_area_um2_per_sm);
    std::printf("  global logic:      %.2f mm^2\n", global_area_mm2);
    std::printf("  total area:        %.3f mm^2 of %.0f mm^2 GPU "
                "(%.3f%% overhead; paper: 0.01%%)\n",
                total_area_mm2, gpu_area_mm2,
                100.0 * total_area_mm2 / gpu_area_mm2);
    std::printf("  dynamic power:     %.1f mW of %.1f W (%.3f%%; "
                "paper: 0.14%%)\n",
                dynamic_power_mw, gpu_dynamic_w,
                100.0 * dynamic_power_mw / 1000.0 / gpu_dynamic_w);
    std::printf("  leakage power:     %.2f mW of %.1f W (%.4f%%; "
                "paper: 0.001%%)\n",
                leakage_power_mw, gpu_leakage_w,
                100.0 * leakage_power_mw / 1000.0 / gpu_leakage_w);

    // ---- Simulator-side telemetry overhead (host wall clock) ----
    const Cycle bench_cycles = 150000;
    const double off_s = bestOfThree(bench_cycles, 0);
    const double on_s = bestOfThree(bench_cycles, 5000);
    std::printf("\nTelemetry recording overhead (MM+BFS co-run, "
                "%llu cycles, best of 3):\n",
                static_cast<unsigned long long>(bench_cycles));
    std::printf("  telemetry off: %.3f s (%.0f Kcycles/s)\n", off_s,
                bench_cycles / off_s / 1000.0);
    std::printf("  telemetry on:  %.3f s (%.0f Kcycles/s, interval "
                "5000)\n",
                on_s, bench_cycles / on_s / 1000.0);
    std::printf("  sampler cost:  %+.2f%% (on/off ratio of best-of-3 "
                "wall clock)\n",
                100.0 * (on_s - off_s) / off_s);
    return 0;
}
