/**
 * @file
 * Serving-layer tests: admission-control decision paths, capped
 * exponential backoff (including shift-overflow attempts), SLO
 * deadline accounting and the outcome-conservation ledger, arrival
 * determinism in all three modes, seeded fault-plan properties, and
 * end-to-end runServe runs — clean and chaotic — that must be
 * byte-deterministic under a fixed seed, quarantine the faulting
 * tenant, and keep the other tenants' ledgers clean.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "check/sim_error.hh"
#include "expect_throw.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "serve/admission.hh"
#include "serve/engine.hh"

using namespace wsl;

namespace {

/** Small characterization window so a full serve run stays cheap;
 *  the solo lookups land in the process-wide cache. */
constexpr Cycle kWindow = 20000;

TenantClass
probeClass()
{
    TenantClass cls;
    cls.name = "probe";
    cls.bench = "MM";
    cls.slackFactor = 2.0;
    cls.maxQueue = 2;
    cls.maxInFlight = 1;
    return cls;
}

ServeJob
probeJob()
{
    ServeJob job;
    job.tenant = 0;
    job.bench = "MM";
    job.arrival = 1000;
    job.estServiceCycles = 1000;
    job.deadline = 3000;  // arrival + slackFactor x estimate
    return job;
}

ServeOptions
smallServeOptions(std::uint64_t seed)
{
    ServeOptions so;
    so.cfg = GpuConfig();
    so.kind = PolicyKind::Dynamic;
    so.window = kWindow;
    so.seed = seed;
    so.arrivals.ratePer10k = 2.0;
    return resolveServeOptions(so);
}

std::string
sloJson(const ServeResult &r)
{
    std::ostringstream os;
    r.slo.writeJson(os);
    return os.str();
}

/** Per-class conservation: every arrival lands in exactly one
 *  terminal bucket, and the admitted sub-ledger closes too. */
void
expectLedgerConserved(const ServeResult &r)
{
    std::uint64_t total = 0;
    for (std::size_t t = 0; t < r.slo.numClasses(); ++t) {
        const ClassSlo &s = r.slo.of(static_cast<unsigned>(t));
        const std::uint64_t rejected = s.rejectedQueueFull +
                                       s.rejectedQuarantined +
                                       s.rejectedMalformed;
        EXPECT_EQ(s.arrivals, s.admitted + rejected)
            << "class " << t << ": arrivals leak past admission";
        EXPECT_EQ(s.admitted, s.completed + s.shed + s.timedOut +
                                  s.failed + s.pendingAtEnd)
            << "class " << t << ": admitted jobs leak";
        EXPECT_EQ(s.goodput + s.deadlineMiss, s.completed + s.timedOut)
            << "class " << t << ": deadline accounting leaks";
        total += s.arrivals;
    }
    EXPECT_EQ(total, r.jobs.size());
}

} // namespace

// ---- Admission control ----

TEST(ServeAdmission, DecisionPathsAreStructured)
{
    AdmissionController ctl({probeClass()});

    // Happy path: well-formed, unquarantined, queue space, feasible.
    EXPECT_TRUE(ctl.admit(probeJob(), 0, 0, 1).admitted);

    // Unknown kernel name: refused before any load accounting.
    ServeJob garbage = probeJob();
    garbage.bench = "__no_such_kernel__";
    AdmissionDecision d = ctl.admit(garbage, 0, 0, 1);
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, RejectReason::Malformed);
    EXPECT_FALSE(isShedReason(d.reason));

    // Bounded queue at capacity.
    d = ctl.admit(probeJob(), 2, 0, 1);
    EXPECT_EQ(d.reason, RejectReason::QueueFull);

    // Deadline infeasible given the committed backlog: a shed, not a
    // reject — the request was well-formed, the service chose load.
    d = ctl.admit(probeJob(), 0, 10000, 2);
    EXPECT_EQ(d.reason, RejectReason::Infeasible);
    EXPECT_TRUE(isShedReason(d.reason));

    // Zero parallelism degrades to the full backlog as the wait.
    d = ctl.admit(probeJob(), 0, 1500, 0);
    EXPECT_EQ(d.reason, RejectReason::Infeasible);

    // Quarantine is sticky and beats every load consideration.
    ctl.quarantine(0);
    EXPECT_TRUE(ctl.quarantined(0));
    EXPECT_EQ(ctl.numQuarantined(), 1u);
    d = ctl.admit(probeJob(), 0, 0, 1);
    EXPECT_EQ(d.reason, RejectReason::Quarantined);
}

TEST(ServeAdmission, BackoffDelayIsCappedAndShiftSafe)
{
    EXPECT_EQ(backoffDelay(0, 100, 1000), 100u);
    EXPECT_EQ(backoffDelay(1, 100, 1000), 200u);
    EXPECT_EQ(backoffDelay(3, 100, 1000), 800u);
    EXPECT_EQ(backoffDelay(4, 100, 1000), 1000u);  // 1600 capped
    EXPECT_EQ(backoffDelay(40, 100, 1000), 1000u);

    // Degenerate knobs: no base means no backoff; a cap below the
    // base is raised to it.
    EXPECT_EQ(backoffDelay(9, 0, 1000), 0u);
    EXPECT_EQ(backoffDelay(0, 500, 100), 500u);

    // Attempts that would overflow the 64-bit shift saturate at the
    // cap instead of wrapping.
    const Cycle huge = std::numeric_limits<Cycle>::max();
    EXPECT_EQ(backoffDelay(63, 2, huge), huge);
    EXPECT_EQ(backoffDelay(200, 1, 12345), 12345u);
}

// ---- SLO accounting ----

TEST(ServeSlo, DeadlineAccountingAndOutcomeBuckets)
{
    SloTracker slo({probeClass()});

    ServeJob on_time = probeJob();
    on_time.outcome = JobOutcome::Completed;
    on_time.startCycle = 1200;
    on_time.finishCycle = 2500;
    on_time.deadlineMet = true;
    slo.recordOutcome(on_time);

    ServeJob late = probeJob();
    late.outcome = JobOutcome::Completed;
    late.startCycle = 2000;
    late.finishCycle = 5000;
    late.deadlineMet = false;
    slo.recordOutcome(late);

    ServeJob expired = probeJob();
    expired.outcome = JobOutcome::TimedOut;
    expired.finishCycle = 3000;
    slo.recordOutcome(expired);

    ServeJob refused = probeJob();
    refused.outcome = JobOutcome::Rejected;
    refused.reason = RejectReason::QueueFull;
    slo.recordOutcome(refused);

    ServeJob dropped = probeJob();
    dropped.outcome = JobOutcome::Shed;
    dropped.reason = RejectReason::Infeasible;
    slo.recordOutcome(dropped);

    ServeJob faulty = probeJob();
    faulty.outcome = JobOutcome::Failed;
    slo.recordOutcome(faulty);

    ServeJob stuck = probeJob();
    stuck.outcome = JobOutcome::Running;
    slo.recordOutcome(stuck);

    const ClassSlo &s = slo.of(0);
    EXPECT_EQ(s.arrivals, 7u);
    EXPECT_EQ(s.admitted, 6u);
    EXPECT_EQ(s.completed, 2u);
    EXPECT_EQ(s.goodput, 1u);
    EXPECT_EQ(s.deadlineMiss, 2u);  // the late finish + the timeout
    EXPECT_EQ(s.rejectedQueueFull, 1u);
    EXPECT_EQ(s.shed, 1u);
    EXPECT_EQ(s.timedOut, 1u);
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.pendingAtEnd, 1u);
    EXPECT_EQ(s.latency.count(), 2u);
    EXPECT_EQ(s.queueDelay.count(), 2u);

    // One class: Jain fairness is trivially perfect.
    EXPECT_DOUBLE_EQ(slo.fairnessIndex(), 1.0);
}

TEST(ServeSlo, JsonRoundTripsThroughTheReportRenderer)
{
    SloTracker slo(defaultTenantClasses());
    ServeJob job = probeJob();
    job.outcome = JobOutcome::Completed;
    job.deadlineMet = true;
    job.startCycle = 1100;
    job.finishCycle = 2000;
    slo.recordOutcome(job);

    std::ostringstream os;
    slo.writeJson(os);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(os.str(), doc, error)) << error;
    std::ostringstream rendered;
    ASSERT_TRUE(renderSloReport(doc, rendered, error)) << error;
    EXPECT_NE(rendered.str().find("ledger: ok"), std::string::npos);
    EXPECT_EQ(rendered.str().find("BROKEN"), std::string::npos);

    // A non-serve document is refused, not misrendered.
    ASSERT_TRUE(parseJson("{\"schema\":\"other\"}", doc, error));
    EXPECT_FALSE(renderSloReport(doc, rendered, error));
}

// ---- Arrival engine ----

TEST(ServeArrival, OpenLoopIsDeterministicAndHorizonBounded)
{
    const std::vector<TenantClass> classes = defaultTenantClasses();
    ArrivalConfig cfg;
    cfg.ratePer10k = 4.0;
    cfg.horizon = 200'000;

    ArrivalEngine a(classes, cfg, 99);
    ArrivalEngine b(classes, cfg, 99);
    std::vector<ArrivalSpec> sa, sb;
    while (a.peek())
        sa.push_back(a.pop());
    while (b.peek())
        sb.push_back(b.pop());

    ASSERT_FALSE(sa.empty());
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].cycle, sb[i].cycle);
        EXPECT_EQ(sa[i].tenant, sb[i].tenant);
        if (i) {
            EXPECT_GE(sa[i].cycle, sa[i - 1].cycle);
        }
        EXPECT_LT(sa[i].cycle, cfg.horizon);
        EXPECT_LT(sa[i].tenant, classes.size());
    }
}

TEST(ServeArrival, TraceReplaysSortedWithInputOrderTieBreak)
{
    const std::vector<TenantClass> classes = defaultTenantClasses();
    ArrivalConfig cfg;
    cfg.mode = ArrivalConfig::Mode::Trace;
    cfg.trace = {{50, 0, false}, {10, 1, false}, {50, 2, false}};

    ArrivalEngine eng(classes, cfg, 1);
    eng.injectMalformed(0, 5);

    ArrivalSpec s = eng.pop();
    EXPECT_EQ(s.cycle, 5u);
    EXPECT_TRUE(s.malformed);
    EXPECT_EQ(eng.pop().tenant, 1u);
    EXPECT_EQ(eng.pop().tenant, 0u);  // ties keep input order
    EXPECT_EQ(eng.pop().tenant, 2u);
    EXPECT_FALSE(eng.peek().has_value());

    cfg.trace = {{10, 7, false}};
    WSL_EXPECT_THROW_MSG(ArrivalEngine(classes, cfg, 1), ConfigError,
                         "names tenant");
}

TEST(ServeArrival, ClosedLoopSelfLimitsToItsPopulation)
{
    const std::vector<TenantClass> classes = {probeClass()};
    ArrivalConfig cfg;
    cfg.mode = ArrivalConfig::Mode::ClosedLoop;
    cfg.usersPerTenant = 2;
    cfg.meanThinkTime = 500;

    ArrivalEngine eng(classes, cfg, 5);
    ASSERT_TRUE(eng.peek().has_value());
    const Cycle first = eng.pop().cycle;
    EXPECT_GE(first, 1u);
    eng.pop();
    // The population is in flight: no third arrival until feedback.
    EXPECT_FALSE(eng.peek().has_value());

    eng.onJobDone(0, 10'000);
    ASSERT_TRUE(eng.peek().has_value());
    EXPECT_GT(eng.peek()->cycle, 10'000u);
}

// ---- Fault plans ----

TEST(ServeChaos, SeededPlanIsDeterministicAndWellFormed)
{
    const Cycle horizon = 80'000;
    const unsigned count = 9;
    const FaultPlan plan = FaultPlan::seeded(7, count, horizon, 3);
    const FaultPlan again = FaultPlan::seeded(7, count, horizon, 3);

    ASSERT_EQ(plan.faults.size(), count);
    ASSERT_EQ(again.faults.size(), count);
    std::vector<unsigned> perTenant(3, 0);
    for (std::size_t i = 0; i < plan.faults.size(); ++i) {
        const Fault &f = plan.faults[i];
        EXPECT_EQ(f.cycle, again.faults[i].cycle);
        EXPECT_EQ(f.tenant, again.faults[i].tenant);
        EXPECT_EQ(f.kind, again.faults[i].kind);
        // Margins keep faults off the cold start and the drain.
        EXPECT_GE(f.cycle, horizon / 8);
        EXPECT_LE(f.cycle, horizon * 7 / 8);
        if (i) {
            EXPECT_GE(f.cycle, plan.faults[i - 1].cycle);
        }
        ASSERT_LT(f.tenant, 3u);
        ++perTenant[f.tenant];
    }
    // One seeded victim draws most of the plan so the quarantine
    // threshold is reachable.
    EXPECT_GE(*std::max_element(perTenant.begin(), perTenant.end()),
              count / 2);

    EXPECT_TRUE(FaultPlan::seeded(7, 0, horizon, 3).empty());
    EXPECT_TRUE(FaultPlan::seeded(7, 4, 8, 3).empty());
}

// ---- End-to-end serving runs ----

TEST(Serve, CleanRunConservesOutcomesAndIsDeterministic)
{
    const ServeOptions so = smallServeOptions(21);
    const ServeResult first = runServe(so);
    const ServeResult second = runServe(so);

    EXPECT_EQ(first.invariantViolations, 0u);
    EXPECT_EQ(first.faultsInjected, 0u);
    EXPECT_GT(first.jobs.size(), 0u);
    std::uint64_t completed = 0;
    for (std::size_t t = 0; t < first.slo.numClasses(); ++t)
        completed += first.slo.of(static_cast<unsigned>(t)).completed;
    EXPECT_GT(completed, 0u);
    expectLedgerConserved(first);

    // Byte-identical reports: the run is a pure function of options.
    EXPECT_EQ(sloJson(first), sloJson(second));
    EXPECT_EQ(first.endCycle, second.endCycle);
    EXPECT_EQ(first.threadInsts, second.threadInsts);
}

TEST(Serve, ChaosQuarantinesTheFaultyTenantOnly)
{
    ServeOptions so = smallServeOptions(21);
    // Three faults on the interactive tenant (its quarantine
    // threshold) plus a malformed arrival for the batch tenant. The
    // fault cycles are early and overdue-firing, so each lands the
    // next time the victim is resident.
    so.chaos.faults = {{1000, 0, FaultKind::Recoverable},
                       {2000, 0, FaultKind::Recoverable},
                       {3000, 0, FaultKind::Stall},
                       {4000, 1, FaultKind::Malformed}};
    const ServeResult r = runServe(so);
    const ServeResult again = runServe(so);

    EXPECT_EQ(r.invariantViolations, 0u);
    expectLedgerConserved(r);

    // The victim crossed the threshold and was cut loose...
    ASSERT_EQ(r.quarantinedClasses.size(), 1u);
    EXPECT_EQ(r.quarantinedClasses[0], so.classes[0].name);
    EXPECT_TRUE(r.slo.of(0).quarantined);
    EXPECT_EQ(r.slo.of(0).faultsInjected, 3u);
    EXPECT_GE(r.restores, 1u);
    EXPECT_GE(r.snapshots, r.restores);

    // ...the malformed arrival was refused structurally...
    EXPECT_EQ(r.slo.of(1).rejectedMalformed, 1u);

    // ...and the unaffected tenants kept serving.
    for (unsigned t = 1; t < r.slo.numClasses(); ++t) {
        EXPECT_FALSE(r.slo.of(t).quarantined);
        EXPECT_GT(r.slo.of(t).completed, 0u) << "class " << t;
    }

    // Chaos runs are exactly as deterministic as clean ones.
    EXPECT_EQ(sloJson(r), sloJson(again));
    EXPECT_EQ(r.quarantinedClasses, again.quarantinedClasses);
    EXPECT_EQ(r.endCycle, again.endCycle);
}

TEST(Serve, ResolveServeOptionsIsIdempotent)
{
    ServeOptions a;
    a.window = kWindow;
    a = resolveServeOptions(a);
    const ServeOptions b = resolveServeOptions(a);

    EXPECT_EQ(a.horizon, b.horizon);
    EXPECT_EQ(a.quantum, b.quantum);
    EXPECT_EQ(a.backoffBase, b.backoffBase);
    EXPECT_EQ(a.backoffCap, b.backoffCap);
    EXPECT_EQ(a.stallPenalty, b.stallPenalty);
    EXPECT_EQ(a.drainGrace, b.drainGrace);
    EXPECT_EQ(a.maxBatch, b.maxBatch);
    EXPECT_EQ(a.classes.size(), b.classes.size());
    EXPECT_GT(a.horizon, 0u);
    EXPECT_GT(a.quantum, 0u);
    EXPECT_LE(a.maxBatch, maxConcurrentKernels);
    EXPECT_GE(a.maxBatch, 1u);
}
