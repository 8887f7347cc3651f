/**
 * @file
 * Whole-machine snapshot & restore. A snapshot captures every bit of
 * simulated state at a tick boundary — SM cores (hot/cold warp state,
 * caches, pipelines, timing wheels), memory partitions (L2, DRAM bank
 * queues, staging), the kernel table, the slicing policy's internal
 * state, stats counters, and the deterministic engine memos — so a
 * restored machine continues bit-identically to one that never
 * stopped.
 *
 * Layout contract: each snapshotted type lists its fields once, in a
 * field list that SnapWriter runs to save and SnapReader runs to
 * restore (io.hh), so the two directions cannot drift apart; the few
 * steps that really differ (kernel relaunch, pointer re-derivation,
 * fingerprint and policy checks) are spelled out inside that list.
 * Any change to the bytes bumps snapshotFormatVersion, and
 * tests/golden/results.txt pins the bytes of nine machine states.
 *
 * Consumers: the serving layer's chaos rollback, resumable sweeps
 * (--snapshot/--restore in wslicer-sim), the fuzzer's round-trip
 * check, and bisection-by-replay (re-running a failure window under
 * --audit=1 from the nearest checkpoint).
 */

#ifndef WSL_SNAPSHOT_SNAPSHOT_HH
#define WSL_SNAPSHOT_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "snapshot/format.hh"

namespace wsl {

class Gpu;

/**
 * Fingerprint of the *simulated machine* a snapshot belongs to: every
 * GpuConfig field, with the read-only integrity knobs (auditCadence,
 * watchdogCycles) canonicalized away, plus the snapshot format
 * version. Two configs with equal fingerprints produce bit-identical
 * machines, so a snapshot may be restored into an audit-enabled
 * machine for bisection-by-replay.
 */
std::string snapshotMachineFingerprint(const GpuConfig &cfg);

/**
 * Serialize the full machine state into a framed snapshot (magic,
 * version, checksummed payload). Only legal between ticks (any cycle
 * boundary). Throws SnapshotError when a telemetry sampler is
 * attached: interval samplers hold unserialized baselines, so a
 * restored run could not reproduce their output.
 */
std::vector<std::uint8_t> saveSnapshot(const Gpu &gpu);

/**
 * Restore a snapshot into `gpu`, which must be freshly constructed
 * (cycle 0, no kernels launched) with a config whose machine
 * fingerprint and policy name match the snapshot's. Kernels are
 * re-launched through the normal path (rebuilding programs and base
 * addresses deterministically) and then every runtime field is
 * overwritten from the payload. Throws SnapshotError on any frame,
 * fingerprint, policy, or structural mismatch; the machine must be
 * considered unusable after a failed restore.
 *
 * After a successful restore, gpu.run(n) continues bit-identically to
 * a machine that ran through the capture point without stopping.
 */
void restoreSnapshot(Gpu &gpu, const std::vector<std::uint8_t> &file);

/** saveSnapshot + atomic file write (temp + rename). */
void writeSnapshotFile(const Gpu &gpu, const std::string &path);

/** readSnapshotBytes + restoreSnapshot. */
void restoreSnapshotFile(Gpu &gpu, const std::string &path);

/**
 * Validate a snapshot's frame and read its provenance header (format
 * version, capture cycle, machine fingerprint) without touching a
 * Gpu. Throws SnapshotError on a damaged or mismatched frame.
 */
SnapshotInfo probeSnapshot(const std::vector<std::uint8_t> &file);

/** probeSnapshot on a file. */
SnapshotInfo probeSnapshotFile(const std::string &path);

} // namespace wsl

#endif // WSL_SNAPSHOT_SNAPSHOT_HH
