/**
 * @file
 * Snapshot format constants and the provenance record. Split from
 * io.hh so observability code (manifest, decision log) can name the
 * format version and carry provenance without pulling in the byte
 * stream machinery.
 */

#ifndef WSL_SNAPSHOT_FORMAT_HH
#define WSL_SNAPSHOT_FORMAT_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace wsl {

/**
 * Bumped whenever the serialized machine layout changes in any way.
 * Restore refuses files of a different version outright: the format
 * has no field-level compatibility story, by design — a snapshot is a
 * bit-exact machine image, not an interchange format.
 */
inline constexpr std::uint32_t snapshotFormatVersion = 3;

/** Leading magic of every snapshot file. */
inline constexpr char snapshotMagic[8] = {'W', 'S', 'L', 'S',
                                          'N', 'A', 'P', '\0'};

/**
 * Provenance of a snapshot: enough to tell later whether a restored
 * result is comparable to a cold one. Recorded into run manifests and
 * decision logs when a run was restored from (or saved) a checkpoint.
 * `formatVersion == 0` means "no snapshot involved".
 */
struct SnapshotInfo
{
    std::uint32_t formatVersion = 0;
    Cycle captureCycle = 0;
    /** Canonicalized machine fingerprint (read-only integrity knobs
     *  neutralized; see snapshotMachineFingerprint). */
    std::string machineFingerprint;

    bool valid() const { return formatVersion != 0; }
};

} // namespace wsl

#endif // WSL_SNAPSHOT_FORMAT_HH
