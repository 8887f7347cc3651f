#include "serve/slo.hh"

#include <cstdio>

#include "obs/counters.hh"
#include "obs/json.hh"

namespace wsl {

namespace {

std::string
fixed(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

void
histogramJson(std::ostream &os, const Histogram &h)
{
    os << "{\"count\":" << h.count() << ",\"mean\":"
       << fixed(h.mean()) << ",\"min\":" << h.min() << ",\"max\":"
       << h.max() << ",\"p50\":" << h.percentile(0.5) << ",\"p90\":"
       << h.percentile(0.9) << ",\"p99\":" << h.percentile(0.99)
       << "}";
}

} // namespace

SloTracker::SloTracker(const std::vector<TenantClass> &classes)
    : names(classes), slos(classes.size())
{
}

void
SloTracker::recordOutcome(const ServeJob &job)
{
    ClassSlo &s = slos[job.tenant];
    ++s.arrivals;
    switch (job.outcome) {
      case JobOutcome::Completed:
        ++s.admitted;
        ++s.completed;
        s.latency.record(job.finishCycle - job.arrival);
        if (job.startCycle >= job.arrival)
            s.queueDelay.record(job.startCycle - job.arrival);
        if (job.deadlineMet)
            ++s.goodput;
        else
            ++s.deadlineMiss;
        break;
      case JobOutcome::Rejected:
        switch (job.reason) {
          case RejectReason::QueueFull:   ++s.rejectedQueueFull; break;
          case RejectReason::Quarantined: ++s.rejectedQuarantined; break;
          case RejectReason::Malformed:   ++s.rejectedMalformed; break;
          default:                        ++s.rejectedQueueFull; break;
        }
        break;
      case JobOutcome::Shed:
        ++s.admitted;
        ++s.shed;
        break;
      case JobOutcome::TimedOut:
        ++s.admitted;
        ++s.timedOut;
        ++s.deadlineMiss;
        break;
      case JobOutcome::Failed:
        ++s.admitted;
        ++s.failed;
        break;
      case JobOutcome::Pending:
      case JobOutcome::Running:
        ++s.admitted;
        ++s.pendingAtEnd;
        break;
    }
}

double
SloTracker::fairnessIndex() const
{
    double sum = 0.0, sq = 0.0;
    unsigned n = 0;
    for (const ClassSlo &s : slos) {
        if (s.arrivals == 0)
            continue;
        const double rate =
            static_cast<double>(s.goodput) / s.arrivals;
        sum += rate;
        sq += rate * rate;
        ++n;
    }
    if (n == 0 || sq == 0.0)
        return 1.0;
    return (sum * sum) / (n * sq);
}

void
SloTracker::writeJson(std::ostream &os) const
{
    os << "{\"schema\":\"wslicer-serve-v1\",\"fairness_index\":"
       << fixed(fairnessIndex()) << ",\"classes\":[";
    for (std::size_t i = 0; i < slos.size(); ++i) {
        const ClassSlo &s = slos[i];
        if (i)
            os << ",";
        os << "{\"class\":\"" << jsonEscaped(names[i].name)
           << "\",\"bench\":\"" << jsonEscaped(names[i].bench)
           << "\",\"arrivals\":" << s.arrivals
           << ",\"admitted\":" << s.admitted
           << ",\"completed\":" << s.completed
           << ",\"goodput\":" << s.goodput
           << ",\"deadline_miss\":" << s.deadlineMiss
           << ",\"rejected_queue_full\":" << s.rejectedQueueFull
           << ",\"rejected_quarantined\":" << s.rejectedQuarantined
           << ",\"rejected_malformed\":" << s.rejectedMalformed
           << ",\"shed\":" << s.shed
           << ",\"timed_out\":" << s.timedOut
           << ",\"failed\":" << s.failed
           << ",\"pending_at_end\":" << s.pendingAtEnd
           << ",\"retries\":" << s.retries
           << ",\"preemptions\":" << s.preemptions
           << ",\"faults_injected\":" << s.faultsInjected
           << ",\"faults_stall\":" << s.faultsStall
           << ",\"quarantined\":"
           << (s.quarantined ? "true" : "false")
           << ",\"latency\":";
        histogramJson(os, s.latency);
        os << ",\"queue_delay\":";
        histogramJson(os, s.queueDelay);
        os << "}";
    }
    os << "]}";
}

void
SloTracker::appendCounters(std::vector<MetricSample> &out) const
{
    for (std::size_t i = 0; i < slos.size(); ++i) {
        const ClassSlo &s = slos[i];
        const std::vector<std::pair<std::string, std::string>> label = {
            {"class", names[i].name}};
        auto add = [&](const char *name, double v, const char *help,
                       const char *type = "counter") {
            out.push_back({name, label, v, type, help});
        };
        add("wsl_serve_arrivals",
            static_cast<double>(s.arrivals),
            "kernel-launch requests, admitted or not");
        add("wsl_serve_admitted",
            static_cast<double>(s.admitted),
            "requests accepted into the bounded queue");
        add("wsl_serve_completed",
            static_cast<double>(s.completed),
            "jobs that reached their instruction target");
        add("wsl_serve_goodput",
            static_cast<double>(s.goodput),
            "jobs completed within their deadline");
        add("wsl_serve_deadline_miss",
            static_cast<double>(s.deadlineMiss),
            "jobs that finished late or timed out");
        add("wsl_serve_rejected",
            static_cast<double>(s.rejectedQueueFull +
                                s.rejectedQuarantined +
                                s.rejectedMalformed),
            "requests refused at admission");
        add("wsl_serve_shed", static_cast<double>(s.shed),
            "admitted jobs dropped by overload shedding");
        add("wsl_serve_timed_out",
            static_cast<double>(s.timedOut),
            "admitted jobs whose deadline passed unserved");
        add("wsl_serve_failed", static_cast<double>(s.failed),
            "jobs that exhausted their fault-retry budget");
        add("wsl_serve_retries", static_cast<double>(s.retries),
            "fault-recovery retries (capped exponential backoff)");
        add("wsl_serve_preemptions",
            static_cast<double>(s.preemptions),
            "evictions in favor of tighter-deadline jobs");
        add("wsl_serve_faults_injected",
            static_cast<double>(s.faultsInjected),
            "chaos faults attributed to this class");
        add("wsl_serve_quarantined",
            s.quarantined ? 1.0 : 0.0,
            "1 when the class is quarantined", "gauge");
    }
}

} // namespace wsl
