/**
 * @file
 * Invariant auditor: a registry of read-only consistency checks run
 * against the whole machine at a configurable cadence. Each check
 * cross-derives some piece of cached accounting (allocator sums, MSHR
 * occupancy, scoreboard masks, the PR 3 readiness bitmasks) from the
 * ground-truth state it summarizes and reports any mismatch; a failed
 * audit throws InvariantViolation naming every failed check.
 *
 * Audits are scheduled from Gpu::run() *after* the tick for a cycle
 * completes: the first after the first tick, then one every `cadence`
 * cycles.
 */

#ifndef WSL_CHECK_AUDITOR_HH
#define WSL_CHECK_AUDITOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace wsl {

class Gpu;
struct SnapshotAccess;

class Auditor
{
  public:
    /**
     * A check inspects the machine and appends one message per
     * violation it finds; it must not mutate anything.
     */
    using CheckFn =
        std::function<void(const Gpu &, std::vector<std::string> &)>;

    /**
     * @param cadence  cycles between audits (>= 1)
     * @param with_standard_checks  register the built-in suite
     */
    explicit Auditor(Cycle cadence, bool with_standard_checks = true);

    /** Add a custom check; `name` prefixes its violation messages. */
    void registerCheck(std::string name, CheckFn fn);

    /** First cycle at or after which the next audit is due. */
    Cycle nextAuditAt() const { return nextAudit; }

    /**
     * Run every registered check against the machine's current state
     * and schedule the next audit. Throws InvariantViolation listing
     * every violation when any check fails.
     */
    void runChecks(const Gpu &gpu);

    /** Audits executed so far (for tests and tooling). */
    std::uint64_t auditsRun() const { return audits; }

    Cycle cadence() const { return auditCadence; }

  private:
    friend struct SnapshotAccess;

    Cycle auditCadence;
    Cycle nextAudit = 0;
    std::uint64_t audits = 0;
    std::vector<std::pair<std::string, CheckFn>> checks;
};

} // namespace wsl

#endif // WSL_CHECK_AUDITOR_HH
