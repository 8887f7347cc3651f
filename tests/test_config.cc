/**
 * @file
 * Unit tests for the machine configuration (paper Table I).
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/config.hh"
#include "expect_throw.hh"

using namespace wsl;

TEST(Config, BaselineMatchesTableI)
{
    const GpuConfig cfg = GpuConfig::baseline();
    EXPECT_EQ(cfg.numSms, 16u);
    EXPECT_EQ(cfg.maxThreadsPerSm, 1536u);
    EXPECT_EQ(cfg.numRegsPerSm, 32768u);
    EXPECT_EQ(cfg.maxCtasPerSm, 8u);
    EXPECT_EQ(cfg.sharedMemPerSm, 48u * 1024u);
    EXPECT_EQ(cfg.numSchedulers, 2u);
    EXPECT_EQ(cfg.scheduler, SchedulerKind::Gto);
    EXPECT_EQ(cfg.l1Size, 16u * 1024u);
    EXPECT_EQ(cfg.l1Assoc, 4u);
    EXPECT_EQ(cfg.l1Mshrs, 64u);
    EXPECT_EQ(cfg.numMemPartitions, 6u);
    EXPECT_EQ(cfg.l2SizePerPartition, 128u * 1024u);
    EXPECT_EQ(cfg.l2Assoc, 8u);
}

TEST(Config, GddrTimingsScaleTableIRatios)
{
    // Table I gives tCL=12 tRP=12 tRC=40 tRAS=28 tRCD=12 tRRD=6 at the
    // memory clock; after scaling to core cycles the ratios must hold.
    const GpuConfig cfg = GpuConfig::baseline();
    EXPECT_DOUBLE_EQ(static_cast<double>(cfg.tCL) / cfg.tRP, 1.0);
    EXPECT_DOUBLE_EQ(static_cast<double>(cfg.tRC) / cfg.tCL,
                     40.0 / 12.0);
    EXPECT_DOUBLE_EQ(static_cast<double>(cfg.tRAS) / cfg.tCL,
                     28.0 / 12.0);
    EXPECT_DOUBLE_EQ(static_cast<double>(cfg.tRRD) / cfg.tCL,
                     6.0 / 12.0);
}

TEST(Config, MaxWarps)
{
    EXPECT_EQ(GpuConfig::baseline().maxWarpsPerSm(), 48u);
    EXPECT_EQ(GpuConfig::largeResource().maxWarpsPerSm(), 64u);
}

// ---- validate() (simulation integrity layer) ----

TEST(ConfigValidate, AcceptsShippedConfigs)
{
    EXPECT_NO_THROW(GpuConfig::baseline().validate());
    EXPECT_NO_THROW(GpuConfig::largeResource().validate());
}

TEST(ConfigValidate, RejectsZeroSms)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.numSms = 0;
    WSL_EXPECT_THROW_MSG(cfg.validate(), ConfigError, "numSms");
}

TEST(ConfigValidate, RejectsZeroSchedulers)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.numSchedulers = 0;
    WSL_EXPECT_THROW_MSG(cfg.validate(), ConfigError, "numSchedulers");
}

TEST(ConfigValidate, RejectsThreadsNotMultipleOfWarp)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.maxThreadsPerSm = cfg.simtWidth + 1;
    WSL_EXPECT_THROW_MSG(cfg.validate(), ConfigError,
                         "maxThreadsPerSm");
}

TEST(ConfigValidate, RejectsMoreThan64WarpsPerSm)
{
    // The scheduler tracks an SM's warps in 64-bit masks.
    GpuConfig cfg = GpuConfig::baseline();
    cfg.maxThreadsPerSm = 65 * warpSize;
    WSL_EXPECT_THROW_MSG(cfg.validate(), ConfigError, "maxThreadsPerSm");
    cfg.maxThreadsPerSm = 64 * warpSize;
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_NO_THROW(GpuConfig::largeResource().validate());
    EXPECT_NO_THROW(GpuConfig::datacenter().validate());
}

TEST(ConfigValidate, RejectsInconsistentL1Geometry)
{
    GpuConfig cfg = GpuConfig::baseline();
    // 16 KB with 5-way associativity: size not a multiple of a way.
    cfg.l1Assoc = 5;
    WSL_EXPECT_THROW_MSG(cfg.validate(), ConfigError, "L1");
}

TEST(ConfigValidate, RejectsZeroMshrs)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.l1Mshrs = 0;
    WSL_EXPECT_THROW_MSG(cfg.validate(), ConfigError, "l1Mshrs");
}

TEST(ConfigValidate, RejectsZeroPartitions)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.numMemPartitions = 0;
    WSL_EXPECT_THROW_MSG(cfg.validate(), ConfigError,
                         "numMemPartitions");
}

TEST(ConfigValidate, RejectsBadDramRowBytes)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.dramRowBytes = lineSize + 1;
    WSL_EXPECT_THROW_MSG(cfg.validate(), ConfigError, "dramRowBytes");
}

TEST(ConfigValidate, RejectsWheelLatenciesOutsideOneTo255)
{
    // The SM retires each of these through a 256-slot timing wheel: 0
    // would come due a full turn late and 256 or more wraps early.
    const std::pair<const char *, unsigned GpuConfig::*> latencies[] = {
        {"aluLatency", &GpuConfig::aluLatency},
        {"sfuLatency", &GpuConfig::sfuLatency},
        {"shmLatency", &GpuConfig::shmLatency},
        {"l1HitLatency", &GpuConfig::l1HitLatency},
        {"fetchLatency", &GpuConfig::fetchLatency},
        {"ifetchMissLatency", &GpuConfig::ifetchMissLatency}};
    for (const auto &[name, field] : latencies) {
        SCOPED_TRACE(name);
        GpuConfig cfg = GpuConfig::baseline();
        for (unsigned bad : {0u, 256u}) {
            cfg.*field = bad;
            WSL_EXPECT_THROW_MSG(cfg.validate(), ConfigError,
                                 std::string(name) + " " +
                                     std::to_string(bad));
            WSL_EXPECT_THROW_MSG(cfg.validate(), ConfigError,
                                 "256-slot timing wheel");
        }
        for (unsigned good : {1u, 255u}) {
            cfg.*field = good;
            EXPECT_NO_THROW(cfg.validate());
        }
    }
}

TEST(ConfigValidate, MessagesAreActionable)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.ibufferEntries = 0;
    try {
        cfg.validate();
        FAIL() << "validate() accepted ibufferEntries = 0";
    } catch (const ConfigError &e) {
        // The message names the offending parameter so the user can
        // fix the config without reading simulator source.
        EXPECT_NE(std::string(e.what()).find("invalid GpuConfig"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("ibufferEntries"),
                  std::string::npos);
    }
}

TEST(Config, LargeResourceMatchesSectionVH)
{
    const GpuConfig cfg = GpuConfig::largeResource();
    EXPECT_EQ(cfg.numRegsPerSm, 65536u);       // 256 KB register file
    EXPECT_EQ(cfg.sharedMemPerSm, 96u * 1024u);
    EXPECT_EQ(cfg.maxCtasPerSm, 32u);
    EXPECT_EQ(cfg.maxThreadsPerSm, 2048u);     // 64 warps
    // Unchanged parts of the machine.
    EXPECT_EQ(cfg.numSms, 16u);
    EXPECT_EQ(cfg.numMemPartitions, 6u);
}
