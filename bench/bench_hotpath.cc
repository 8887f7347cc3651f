/**
 * @file
 * Hot-path microbenchmark for the cycle engine: isolates per-component
 * tick costs (SM core under load, DRAM channel under FR-FCFS load,
 * idle memory partition, idle whole-GPU tick) and reports end-to-end
 * simulation throughput in cycles/second for a compute-bound (MM) and
 * a memory-stalled (LBM) workload.
 *
 * Usage: bench_hotpath [--out FILE]   (default BENCH_hotpath.json)
 *
 * Numbers are wall-clock and machine-dependent: the JSON is a tracking
 * artifact, not a correctness gate.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hh"
#include "core/policies.hh"
#include "gpu/gpu.hh"
#include "mem/dram.hh"
#include "mem/partition.hh"
#include "workloads/benchmarks.hh"

using namespace wsl;

namespace {

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct RunCost
{
    Cycle cycles = 0;
    double secs = 0;
};

/** Simulate `window` cycles of one kernel on `sms` SMs / `parts`
 *  partitions and return simulated cycles + wall seconds. */
RunCost
runWorkload(const char *bench, Cycle window, unsigned sms,
            unsigned parts)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.numSms = sms;
    cfg.numMemPartitions = parts;
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(benchmark(bench));
    const auto t0 = std::chrono::steady_clock::now();
    gpu.run(window);
    return {gpu.cycle(), seconds(t0)};
}

/** Per-tick cost of a kernel-free GPU (pipeline bookkeeping floor). */
double
idleGpuTickNs(Cycle window)
{
    Gpu gpu(GpuConfig::baseline(), std::make_unique<LeftOverPolicy>());
    const auto t0 = std::chrono::steady_clock::now();
    gpu.run(window);
    return seconds(t0) * 1e9 / static_cast<double>(window);
}

/** Per-tick cost of one DRAM channel kept under FR-FCFS load: the
 *  queue is topped up with requests spread over rows and banks. */
double
dramTickNsLoaded(Cycle window)
{
    const GpuConfig cfg = GpuConfig::baseline();
    DramChannel ch(cfg);
    std::vector<DramCompletion> done;
    Addr line = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (Cycle now = 0; now < window; ++now) {
        while (ch.canAccept()) {
            // Stride lines so consecutive requests hit different rows
            // and banks, exercising the scheduler rather than a
            // single open-row streak.
            line += 128 * 37;
            ch.push({line, false, now});
        }
        done.clear();
        ch.tick(now, done);
    }
    return seconds(t0) * 1e9 / static_cast<double>(window);
}

/** Per-tick cost of an idle memory partition (early-out path). */
double
partitionTickNsIdle(Cycle window)
{
    const GpuConfig cfg = GpuConfig::baseline();
    MemPartition part(cfg, 0);
    const auto t0 = std::chrono::steady_clock::now();
    for (Cycle now = 0; now < window; ++now)
        part.tick(now);
    return seconds(t0) * 1e9 / static_cast<double>(window);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_hotpath.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--out FILE]\n", argv[0]);
            return 2;
        }
    }

    constexpr Cycle window = 200000;
    constexpr Cycle micro_window = 2000000;

    // Per-component tick costs.
    const double idle_ns = idleGpuTickNs(window);
    const double dram_ns = dramTickNsLoaded(micro_window);
    const double part_ns = partitionTickNsIdle(micro_window);
    // Single-SM runs put one loaded core plus one partition on the
    // critical path, isolating SmCore::tick without the other 15.
    const RunCost sm_compute = runWorkload("MM", window, 1, 1);
    const RunCost sm_memory = runWorkload("LBM", window, 1, 1);
    const double sm_compute_ns =
        sm_compute.secs * 1e9 / static_cast<double>(sm_compute.cycles);
    const double sm_memory_ns =
        sm_memory.secs * 1e9 / static_cast<double>(sm_memory.cycles);

    std::printf("component tick costs:\n");
    std::printf("  idle GPU tick:        %8.1f ns\n", idle_ns);
    std::printf("  SM tick (MM, 1 SM):   %8.1f ns\n", sm_compute_ns);
    std::printf("  SM tick (LBM, 1 SM):  %8.1f ns\n", sm_memory_ns);
    std::printf("  DRAM channel, loaded: %8.1f ns\n", dram_ns);
    std::printf("  partition, idle:      %8.1f ns\n", part_ns);

    // End-to-end throughput, full 16-SM GPU.
    struct Row
    {
        const char *label;
        const char *bench;
        RunCost cost;
    };
    Row rows[] = {{"compute", "MM", {}}, {"memory", "LBM", {}}};
    const GpuConfig base = GpuConfig::baseline();
    for (Row &r : rows) {
        r.cost = runWorkload(r.bench, window, base.numSms,
                             base.numMemPartitions);
        std::printf("%s (%s): %.2f Mcyc/s\n", r.label, r.bench,
                    r.cost.cycles / r.cost.secs / 1e6);
    }

    std::ofstream os(out_path);
    if (!os) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 1;
    }
    os << "{\n"
       << "  \"window_cycles\": " << window << ",\n"
       << "  \"hardware_threads\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"micro_window_cycles\": " << micro_window << ",\n"
       << "  \"idle_gpu_tick_ns\": " << idle_ns << ",\n"
       << "  \"sm_tick_ns_compute\": " << sm_compute_ns << ",\n"
       << "  \"sm_tick_ns_memory\": " << sm_memory_ns << ",\n"
       << "  \"dram_tick_ns_loaded\": " << dram_ns << ",\n"
       << "  \"partition_tick_ns_idle\": " << part_ns << ",\n"
       << "  \"workloads\": {\n";
    for (std::size_t i = 0; i < 2; ++i) {
        const Row &r = rows[i];
        os << "    \"" << r.label << "\": {\n"
           << "      \"bench\": \"" << r.bench << "\",\n"
           << "      \"cycles\": " << r.cost.cycles << ",\n"
           << "      \"seconds\": " << r.cost.secs << ",\n"
           << "      \"cycles_per_sec\": "
           << r.cost.cycles / r.cost.secs << "\n"
           << "    }" << (i == 0 ? "," : "") << "\n";
    }
    os << "  }\n}\n";
    std::printf("(wrote %s)\n", out_path.c_str());
    return 0;
}
