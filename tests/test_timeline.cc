/**
 * @file
 * Tests for the Chrome trace-event JSON exporter: the document must be
 * well-formed JSON and carry the per-kernel, per-SM, and per-partition
 * tracks the viewer renders.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <sstream>
#include <string>

#include "core/policies.hh"
#include "core/warped_slicer.hh"
#include "gpu/gpu.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/timeline.hh"
#include "workloads/benchmarks.hh"

using namespace wsl;

namespace {

/**
 * Minimal recursive-descent JSON well-formedness checker. Accepts the
 * value grammar of RFC 8259 (objects, arrays, strings with escapes,
 * numbers, true/false/null); rejects trailing garbage.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos == s.size();
    }

  private:
    void
    skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    bool eat(char c)
    {
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    value()
    {
        skipWs();
        if (pos >= s.size())
            return false;
        switch (s[pos]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default:  return number();
        }
    }

    bool
    object()
    {
        if (!eat('{'))
            return false;
        skipWs();
        if (eat('}'))
            return true;
        do {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (!eat(':'))
                return false;
            if (!value())
                return false;
            skipWs();
        } while (eat(','));
        return eat('}');
    }

    bool
    array()
    {
        if (!eat('['))
            return false;
        skipWs();
        if (eat(']'))
            return true;
        do {
            if (!value())
                return false;
            skipWs();
        } while (eat(','));
        return eat(']');
    }

    bool
    string()
    {
        if (!eat('"'))
            return false;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\') {
                ++pos;
                if (pos >= s.size())
                    return false;
            }
            ++pos;
        }
        return eat('"');
    }

    bool
    number()
    {
        const std::size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '+' || s[pos] == '-'))
            ++pos;
        return pos > start;
    }

    bool
    literal(const char *word)
    {
        const std::string w(word);
        if (s.compare(pos, w.size(), w) != 0)
            return false;
        pos += w.size();
        return true;
    }

    const std::string &s;
    std::size_t pos = 0;
};

unsigned
countOccurrences(const std::string &text, const std::string &needle)
{
    unsigned n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++n;
    return n;
}

} // namespace

TEST(Timeline, EmptyTraceStillWellFormed)
{
    const TelemetrySampler sampler(TelemetryConfig{1000, 4096});
    std::ostringstream os;
    writeChromeTrace(os, sampler, 1000);
    EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
    EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
}

TEST(Timeline, CoRunProducesAllTrackKinds)
{
    Gpu gpu(GpuConfig::baseline(), std::make_unique<LeftOverPolicy>());
    TelemetrySampler sampler(TelemetryConfig{5000, 4096});
    gpu.attachTelemetry(&sampler);
    gpu.launchKernel(benchmark("MM"));
    gpu.launchKernel(benchmark("BFS"));
    gpu.run(20000);
    sampler.finish(gpu);

    std::ostringstream os;
    writeChromeTrace(os, sampler, gpu.cycle());
    const std::string out = os.str();

    ASSERT_TRUE(JsonChecker(out).valid());
    // Process groups.
    EXPECT_NE(out.find("\"Kernels\""), std::string::npos);
    EXPECT_NE(out.find("\"SMs\""), std::string::npos);
    EXPECT_NE(out.find("\"Memory Partitions\""), std::string::npos);
    // Per-kernel slice tracks named after the benchmarks.
    EXPECT_NE(out.find("\"MM\""), std::string::npos);
    EXPECT_NE(out.find("\"BFS\""), std::string::npos);
    EXPECT_GE(countOccurrences(out, "\"ph\":\"X\""), 2u);
    // One named thread per SM.
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        EXPECT_NE(out.find("\"SM " + std::to_string(s) + "\""),
                  std::string::npos)
            << s;
    }
    // CTA lifecycle instants and sampler counter events.
    EXPECT_GE(countOccurrences(out, "cta_launch"), 1u);
    EXPECT_GE(countOccurrences(out, "\"ph\":\"C\""), 1u);
    EXPECT_NE(out.find("sm0_ipc"), std::string::npos);
    EXPECT_NE(out.find("gpu_ipc"), std::string::npos);
}

TEST(Timeline, DecisionInstantDecodesQuotas)
{
    WarpedSlicerOptions opts;
    opts.warmup = 1000;
    opts.profileLength = 1500;
    Gpu gpu(GpuConfig::baseline(),
            std::make_unique<WarpedSlicerPolicy>(opts));
    TelemetrySampler sampler(TelemetryConfig{10000, 4096});
    gpu.attachTelemetry(&sampler);
    gpu.launchKernel(benchmark("IMG"), 1'000'000'000);
    gpu.launchKernel(benchmark("NN"), 1'000'000'000);
    gpu.run(60000);

    std::ostringstream os;
    writeChromeTrace(os, sampler, gpu.cycle());
    const std::string out = os.str();
    ASSERT_TRUE(JsonChecker(out).valid());
    EXPECT_NE(out.find("\"decision\""), std::string::npos);
    EXPECT_NE(out.find("\"k0\":"), std::string::npos);
    EXPECT_NE(out.find("\"spatial\":"), std::string::npos);
    EXPECT_NE(out.find("profile_start"), std::string::npos);
}

TEST(Timeline, OpenSlicesCloseAtEndCycle)
{
    TelemetrySampler sampler(TelemetryConfig{1000, 4096});
    KernelInstance k;
    k.id = 0;
    k.params.name = "RUNNER";
    k.params.gridDim = 64;
    k.launchCycle = 100;
    sampler.recordLaunch(k);
    // No KernelFinish: the slice must still close at end_cycle.
    std::ostringstream os;
    writeChromeTrace(os, sampler, 5000);
    const std::string out = os.str();
    ASSERT_TRUE(JsonChecker(out).valid());
    EXPECT_NE(out.find("\"RUNNER\""), std::string::npos);
    EXPECT_NE(out.find("\"dur\":4900"), std::string::npos);
    EXPECT_NE(out.find("\"end\":\"running\""), std::string::npos);
}
