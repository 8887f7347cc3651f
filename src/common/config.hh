/**
 * @file
 * GPU configuration (paper Table I plus derived microarchitectural
 * parameters). All timing values are expressed in core clock cycles; the
 * GDDR5 timings from Table I are specified at the 924 MHz memory clock in
 * the paper and are scaled to the 1400 MHz core clock here (factor ~1.5).
 */

#ifndef WSL_COMMON_CONFIG_HH
#define WSL_COMMON_CONFIG_HH

#include <cstdint>

#include "common/types.hh"

namespace wsl {

/** Warp scheduler selection (paper evaluates GTO and round-robin). */
enum class SchedulerKind { Gto, Lrr };

/**
 * Full machine configuration. Default-constructed values reproduce the
 * paper's Table I baseline; largeResource() gives the Section V-H config.
 */
struct GpuConfig
{
    // ---- GPU organization (Table I) ----
    unsigned numSms = 16;          //!< "Compute Units: 16"
    unsigned simtWidth = 16;       //!< lanes per cluster; "SIMT Width 16x2"
    unsigned numSchedulers = 2;    //!< warp schedulers per SM, default GTO
    SchedulerKind scheduler = SchedulerKind::Gto;

    // ---- Per-SM resources (Table I) ----
    unsigned maxThreadsPerSm = 1536;  //!< at most 64 warps (validate())
    unsigned numRegsPerSm = 32768;  //!< 32-bit registers (128 KB file)
    unsigned maxCtasPerSm = 8;
    unsigned sharedMemPerSm = 48 * 1024;

    // ---- Front end ----
    unsigned ibufferEntries = 2;   //!< decoded instructions per warp buffer
    unsigned fetchWidth = 2;       //!< warps whose i-buffer refills per cycle
    unsigned fetchLatency = 2;     //!< i-cache hit refill latency
    unsigned ifetchMissLatency = 80; //!< i-cache miss refill latency

    // ---- Execution pipelines ----
    unsigned aluLatency = 10;      //!< result latency of ALU-class ops
    unsigned sfuLatency = 20;      //!< result latency of SFU-class ops
    unsigned shmLatency = 24;      //!< shared-memory load latency
    unsigned aluInitiation = 2;    //!< cycles a warp occupies an ALU pipe
    unsigned sfuInitiation = 4;    //!< cycles a warp occupies the SFU pipe
    unsigned ldstInitiation = 2;   //!< address-generation occupancy
    unsigned numAluPipes = 2;      //!< one 16-wide cluster per scheduler

    // ---- L1 data cache (Table I: 16KB 4-way, 64 MSHR) ----
    unsigned l1Size = 16 * 1024;
    unsigned l1Assoc = 4;
    unsigned l1Mshrs = 64;
    unsigned l1HitLatency = 30;
    unsigned l1MissQueue = 16;     //!< requests accepted towards icnt / cycle buffer

    // ---- Interconnect ----
    unsigned icntLatency = 40;     //!< one-way SM <-> partition latency
    unsigned icntWidth = 2;        //!< transactions per partition per cycle

    // ---- L2 + DRAM (Table I: 128KB/channel 8-way, 6 MCs, FR-FCFS) ----
    unsigned numMemPartitions = 6;
    unsigned l2SizePerPartition = 128 * 1024;
    unsigned l2Assoc = 8;
    unsigned l2HitLatency = 60;
    unsigned l2Mshrs = 32;
    unsigned dramBanks = 16;
    unsigned dramQueue = 64;       //!< FR-FCFS scheduling window
    // GDDR5 timings from Table I (tCL=12 tRP=12 tRC=40 tRAS=28 tRCD=12
    // tRRD=6 at 924 MHz), scaled to core cycles (x1400/924 ~ 1.52).
    unsigned tCL = 18;
    unsigned tRP = 18;
    unsigned tRC = 60;
    unsigned tRAS = 42;
    unsigned tRCD = 18;
    unsigned tRRD = 9;
    unsigned dramBurst = 6;        //!< data-bus cycles per 128 B transaction
    unsigned dramRowBytes = 2048;  //!< row-buffer size per bank

    // ---- Simulation control ----
    std::uint64_t seed = 1;

    // ---- Integrity layer (check/) ----
    /** Invariant-audit cadence in cycles; 0 disables audits. Audits
     *  are read-only, so stats and telemetry are byte-identical with
     *  audits on or off; a failed check throws InvariantViolation. */
    Cycle auditCadence = 0;
    /** No-progress watchdog: when warps are resident but no
     *  instruction issues, no CTA launches, and no memory request
     *  completes for this many cycles, Gpu::run() throws a
     *  DeadlockError with a structured machine dump. 0 disables. */
    Cycle watchdogCycles = 0;

    /** Maximum warps resident per SM under this config. */
    unsigned maxWarpsPerSm() const { return maxThreadsPerSm / warpSize; }

    /**
     * Reject inconsistent parameter combinations with a ConfigError
     * whose message names the offending field and the constraint.
     * Called by the Gpu constructor (so every harness path is covered)
     * and by the CLI drivers before any run.
     */
    void validate() const;

    /** Table I baseline machine. */
    static GpuConfig baseline() { return {}; }

    /**
     * Section V-H larger machine: 256 KB register file, 96 KB shared
     * memory, 32 CTA slots, 64 warps (2048 threads) per SM.
     */
    static GpuConfig
    largeResource()
    {
        GpuConfig c;
        c.numRegsPerSm = 65536;
        c.sharedMemPerSm = 96 * 1024;
        c.maxCtasPerSm = 32;
        c.maxThreadsPerSm = 64 * warpSize;
        return c;
    }

    /**
     * Datacenter-scale machine (CLI: --preset dc): 128 SMs over 32
     * memory partitions with 256 KB of L2 per partition and the
     * Section V-H large-resource SM (64 warps, 256 KB register file,
     * 96 KB shared memory). Not a paper configuration — it exercises
     * the tick engine's per-cycle glue and the interconnect merge at
     * modern-GPU component counts (the dc-corun benchmark workload).
     */
    static GpuConfig
    datacenter()
    {
        GpuConfig c = largeResource();
        c.numSms = 128;
        c.numMemPartitions = 32;
        c.l2SizePerPartition = 256 * 1024;
        return c;
    }
};

} // namespace wsl

#endif // WSL_COMMON_CONFIG_HH
