/**
 * @file
 * Byte-stream primitives for machine snapshots. SnapWriter appends
 * fixed-width little-endian scalars to a growing buffer; SnapReader
 * consumes them back and throws a typed SnapshotError on truncation
 * or a section-tag mismatch, so a damaged file can never half-restore
 * a machine. Framing (magic, version, payload checksum) lives in
 * io.cc; component field layouts live in snapshot.cc.
 */

#ifndef WSL_SNAPSHOT_IO_HH
#define WSL_SNAPSHOT_IO_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "check/sim_error.hh"
#include "snapshot/format.hh"

namespace wsl {

/** Append-only little-endian byte sink for snapshot payloads. */
class SnapWriter
{
  public:
    void u8(std::uint8_t v) { data.push_back(v); }
    void b(bool v) { u8(v ? 1 : 0); }

    void
    u16(std::uint16_t v)
    {
        raw(&v, sizeof v);
    }

    void
    u32(std::uint32_t v)
    {
        raw(&v, sizeof v);
    }

    void
    u64(std::uint64_t v)
    {
        raw(&v, sizeof v);
    }

    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void
    f64(double v)
    {
        u64(std::bit_cast<std::uint64_t>(v));
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        data.insert(data.end(), s.begin(), s.end());
    }

    /** Four-character section marker; the reader checks it so a
     *  layout skew fails loudly at the section boundary instead of
     *  silently misparsing everything after it. */
    void
    tag(const char (&name)[5])
    {
        raw(name, 4);
    }

    const std::vector<std::uint8_t> &bytes() const { return data; }
    std::vector<std::uint8_t> take() { return std::move(data); }

  private:
    /** Grow-then-memcpy rather than a range insert: g++ 12 reports
     *  false -Wstringop-overflow/-Warray-bounds on the latter. */
    void
    raw(const void *p, std::size_t n)
    {
        const std::size_t at = data.size();
        data.resize(at + n);
        std::memcpy(data.data() + at, p, n);
    }

    static_assert(std::endian::native == std::endian::little,
                  "snapshot layout assumes a little-endian host");

    std::vector<std::uint8_t> data;
};

/** Consuming reader over a snapshot payload; throws SnapshotError on
 *  truncation or tag mismatch. */
class SnapReader
{
  public:
    SnapReader(const std::uint8_t *begin, std::size_t size)
        : cur(begin), end(begin + size)
    {
    }

    explicit SnapReader(const std::vector<std::uint8_t> &bytes)
        : SnapReader(bytes.data(), bytes.size())
    {
    }

    std::uint8_t
    u8()
    {
        need(1, "u8");
        return *cur++;
    }

    bool b() { return u8() != 0; }

    std::uint16_t
    u16()
    {
        std::uint16_t v;
        raw(&v, sizeof v, "u16");
        return v;
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v;
        raw(&v, sizeof v, "u32");
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v;
        raw(&v, sizeof v, "u64");
        return v;
    }

    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double f64() { return std::bit_cast<double>(u64()); }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        need(n, "string body");
        std::string s(reinterpret_cast<const char *>(cur), n);
        cur += n;
        return s;
    }

    void
    tag(const char (&name)[5])
    {
        need(4, "section tag");
        if (std::memcmp(cur, name, 4) != 0) {
            throw SnapshotError(
                std::string("snapshot corrupted: expected section '") +
                name + "', found '" +
                std::string(reinterpret_cast<const char *>(cur), 4) +
                "'");
        }
        cur += 4;
    }

    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end - cur);
    }

    /** Every byte must be consumed; trailing garbage means the file
     *  and the code disagree about the layout. */
    void
    finish() const
    {
        if (cur != end) {
            throw SnapshotError(
                "snapshot corrupted: " + std::to_string(remaining()) +
                " unconsumed payload bytes");
        }
    }

  private:
    void
    need(std::size_t n, const char *what) const
    {
        if (static_cast<std::size_t>(end - cur) < n) {
            throw SnapshotError(
                std::string("snapshot truncated while reading ") +
                what);
        }
    }

    void
    raw(void *p, std::size_t n, const char *what)
    {
        need(n, what);
        std::memcpy(p, cur, n);
        cur += n;
    }

    const std::uint8_t *cur;
    const std::uint8_t *end;
};

// ---- Small vector helpers shared by component serializers ----

inline void
writeI32Vec(SnapWriter &w, const std::vector<int> &v)
{
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const int x : v)
        w.i32(x);
}

inline std::vector<int>
readI32Vec(SnapReader &r)
{
    std::vector<int> v(r.u32());
    for (int &x : v)
        x = r.i32();
    return v;
}

inline void
writeU32Vec(SnapWriter &w, const std::vector<unsigned> &v)
{
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const unsigned x : v)
        w.u32(x);
}

inline std::vector<unsigned>
readU32Vec(SnapReader &r)
{
    std::vector<unsigned> v(r.u32());
    for (unsigned &x : v)
        x = r.u32();
    return v;
}

inline void
writeU64Vec(SnapWriter &w, const std::vector<std::uint64_t> &v)
{
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const std::uint64_t x : v)
        w.u64(x);
}

inline std::vector<std::uint64_t>
readU64Vec(SnapReader &r)
{
    std::vector<std::uint64_t> v(r.u32());
    for (std::uint64_t &x : v)
        x = r.u64();
    return v;
}

inline void
writeF64Vec(SnapWriter &w, const std::vector<double> &v)
{
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const double x : v)
        w.f64(x);
}

inline std::vector<double>
readF64Vec(SnapReader &r)
{
    std::vector<double> v(r.u32());
    for (double &x : v)
        x = r.f64();
    return v;
}

// ---- File framing ----

/** FNV-1a over the payload; cheap, deterministic, good enough to
 *  catch bit rot and truncation-with-padding. */
std::uint64_t snapshotChecksum(const std::uint8_t *data,
                               std::size_t size);

/** Wrap a payload in the on-disk frame:
 *  magic(8) | formatVersion(u32) | payloadSize(u64) | payload |
 *  fnv1a(payload)(u64). */
std::vector<std::uint8_t>
frameSnapshot(const std::vector<std::uint8_t> &payload);

/**
 * Validate a framed snapshot and return its payload. Throws
 * SnapshotError with a distinct message for: short/bad magic, wrong
 * format version, truncated payload, and checksum mismatch.
 */
std::vector<std::uint8_t>
unframeSnapshot(const std::vector<std::uint8_t> &file);

/** Write bytes to `path` atomically (temp file + rename) so a crash
 *  mid-checkpoint never leaves a half-written snapshot behind. */
void writeSnapshotBytes(const std::string &path,
                        const std::vector<std::uint8_t> &bytes);

/** Slurp a snapshot file; throws SnapshotError when unreadable. */
std::vector<std::uint8_t> readSnapshotBytes(const std::string &path);

} // namespace wsl

#endif // WSL_SNAPSHOT_IO_HH
