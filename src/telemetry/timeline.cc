#include "telemetry/timeline.hh"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "obs/json.hh"
#include "telemetry/telemetry.hh"

namespace wsl {

namespace {

// Process ids grouping the tracks in the trace viewer.
constexpr int pidKernels = 1;
constexpr int pidSms = 2;
constexpr int pidParts = 3;

// Thread 0 of the kernel process carries the scheduler's instants.
constexpr int tidScheduler = 0;

/** Emits one JSON object per event, handling the separating commas. */
class EventWriter
{
  public:
    explicit EventWriter(std::ostream &s) : os(s) {}

    void
    emit(const std::string &body)
    {
        if (!first)
            os << ",\n";
        first = false;
        os << "    {" << body << "}";
    }

    void
    metadata(const char *what, int pid, int tid, const std::string &name)
    {
        std::ostringstream b;
        b << "\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid
          << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
          << jsonEscaped(name) << "\"}";
        emit(b.str());
    }

    void
    slice(const std::string &name, int pid, int tid, Cycle ts,
          Cycle dur, const std::string &args)
    {
        std::ostringstream b;
        b << "\"name\":\"" << jsonEscaped(name)
          << "\",\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
          << ",\"ts\":" << ts << ",\"dur\":" << dur;
        if (!args.empty())
            b << ",\"args\":{" << args << "}";
        emit(b.str());
    }

    void
    instant(const std::string &name, int pid, int tid, Cycle ts,
            const std::string &args)
    {
        std::ostringstream b;
        b << "\"name\":\"" << jsonEscaped(name)
          << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid
          << ",\"tid\":" << tid << ",\"ts\":" << ts;
        if (!args.empty())
            b << ",\"args\":{" << args << "}";
        emit(b.str());
    }

    void
    counter(const std::string &name, int pid, Cycle ts,
            const std::string &series, double value)
    {
        std::ostringstream b;
        b << "\"name\":\"" << jsonEscaped(name)
          << "\",\"ph\":\"C\",\"pid\":" << pid << ",\"tid\":0,\"ts\":"
          << ts << ",\"args\":{\"" << series << "\":" << value << "}";
        emit(b.str());
    }

  private:
    std::ostream &os;
    bool first = true;
};

std::string
kernelLabel(const TelemetrySampler &sampler, KernelId kid)
{
    const std::string &name = sampler.kernelName(kid);
    if (!name.empty())
        return name;
    return "kernel" + std::to_string(kid);
}

} // namespace

void
writeChromeTrace(std::ostream &os, const TelemetrySampler &sampler,
                 Cycle end_cycle)
{
    os << "{\n  \"displayTimeUnit\": \"ns\",\n"
       << "  \"traceEvents\": [\n";
    EventWriter w(os);

    // ---- Track metadata ----
    w.metadata("process_name", pidKernels, 0, "Kernels");
    w.metadata("process_name", pidSms, 0, "SMs");
    w.metadata("process_name", pidParts, 0, "Memory Partitions");
    w.metadata("thread_name", pidKernels, tidScheduler, "scheduler");

    // Discover kernels and SMs from the event stream itself so the
    // exporter needs no GPU handle.
    std::map<KernelId, Cycle> launchAt;
    std::map<KernelId, std::pair<Cycle, bool>> finishAt;
    int maxSm = -1;
    for (const SimEventRecord &r : sampler.events()) {
        switch (r.event) {
          case SimEvent::KernelLaunch:
            launchAt.emplace(r.kernel, r.cycle);
            break;
          case SimEvent::KernelFinish:
            finishAt[r.kernel] = {r.cycle, r.a != 0};
            break;
          case SimEvent::CtaLaunch:
          case SimEvent::CtaComplete:
            maxSm = std::max(maxSm, static_cast<int>(r.b));
            break;
          default:
            break;
        }
    }
    for (const auto &[kid, cycle] : launchAt) {
        (void)cycle;
        w.metadata("thread_name", pidKernels, 1 + kid,
                   kernelLabel(sampler, kid));
    }
    for (int s = 0; s <= maxSm; ++s)
        w.metadata("thread_name", pidSms, s, "SM " + std::to_string(s));

    // ---- Kernel lifetime slices ----
    for (const auto &[kid, start] : launchAt) {
        Cycle end = end_cycle;
        std::string args;
        auto it = finishAt.find(kid);
        if (it != finishAt.end()) {
            end = it->second.first;
            args = it->second.second ? "\"end\":\"inst_target\""
                                     : "\"end\":\"grid_complete\"";
        } else {
            args = "\"end\":\"running\"";
        }
        w.slice(kernelLabel(sampler, kid), pidKernels, 1 + kid, start,
                end > start ? end - start : 0, args);
    }

    // ---- Per-event instants ----
    for (const SimEventRecord &r : sampler.events()) {
        std::ostringstream args;
        switch (r.event) {
          case SimEvent::CtaLaunch:
            args << "\"cta\":" << r.a << ",\"kernel\":\""
                 << jsonEscaped(kernelLabel(sampler, r.kernel)) << "\"";
            w.instant("cta_launch", pidSms, static_cast<int>(r.b),
                      r.cycle, args.str());
            break;
          case SimEvent::CtaComplete:
            args << "\"completed\":" << r.a << ",\"kernel\":\""
                 << jsonEscaped(kernelLabel(sampler, r.kernel)) << "\"";
            w.instant("cta_complete", pidSms, static_cast<int>(r.b),
                      r.cycle, args.str());
            break;
          case SimEvent::ProfileStart:
          case SimEvent::Reprofile:
            args << "\"round\":" << r.a;
            w.instant(r.event == SimEvent::ProfileStart ? "profile_start"
                                                        : "reprofile",
                      pidKernels, tidScheduler, r.cycle, args.str());
            break;
          case SimEvent::Decision: {
            // One quota per live kernel: the quotas end at the last
            // nonzero entry (k0 always prints).
            std::size_t last = 0;
            for (std::size_t i = 0; i < r.quotas.size(); ++i)
                if (r.quotas[i])
                    last = i;
            for (std::size_t i = 0; i <= last; ++i) {
                if (i)
                    args << ",";
                args << "\"k" << i << "\":" << r.quotas[i];
            }
            args << ",\"spatial\":" << (r.b ? "true" : "false");
            w.instant("decision", pidKernels, tidScheduler, r.cycle,
                      args.str());
            break;
          }
          default:
            break;
        }
    }

    // ---- Counter tracks from the interval series ----
    for (const TelemetryInterval &iv : sampler.intervals()) {
        const Cycle ts = iv.end;
        const std::uint64_t len = iv.end - iv.start;
        if (len == 0)
            continue;
        w.counter("gpu_ipc", pidKernels, ts, "ipc",
                  static_cast<double>(iv.gpu.warpInstsIssued) /
                      static_cast<double>(len));
        for (std::size_t k = 0; k < sampler.numKernels(); ++k) {
            w.counter("k" + std::to_string(k) + "_resident_ctas",
                      pidKernels, ts, "ctas",
                      static_cast<double>(iv.residentCtas[k]));
        }
        for (std::size_t s = 0; s < iv.sms.size(); ++s) {
            const SmStats &sm = iv.sms[s];
            if (sm.cycles == 0)
                continue;
            w.counter("sm" + std::to_string(s) + "_ipc", pidSms, ts, "ipc",
                      static_cast<double>(sm.warpInstsIssued) /
                          static_cast<double>(sm.cycles));
        }
        for (std::size_t p = 0; p < iv.parts.size(); ++p) {
            const PartitionStats &pt = iv.parts[p];
            if (pt.l2Accesses) {
                w.counter("part" + std::to_string(p) + "_l2_miss_rate",
                          pidParts, ts, "rate",
                          static_cast<double>(pt.l2Misses) /
                              static_cast<double>(pt.l2Accesses));
            }
            const std::uint64_t rows = pt.dramRowHits + pt.dramRowMisses;
            if (rows) {
                w.counter("part" + std::to_string(p) +
                              "_dram_row_hit_rate",
                          pidParts, ts, "rate",
                          static_cast<double>(pt.dramRowHits) /
                              static_cast<double>(rows));
            }
        }
    }

    os << "\n  ]\n}\n";
}

} // namespace wsl
