/**
 * @file
 * Byte-stream archives for machine snapshots. Every snapshotted type
 * has one field list, `fields(Ar &ar, T &x)` (or a component's
 * `state`), written once against this interface: SnapWriter drives it
 * over a const object and appends each field, SnapReader drives the
 * same list over a mutable one and assigns each field back, so save
 * and restore cannot disagree about order or width. Each call names
 * the field's wire width (`ar.u32(x)` writes or reads 4 bytes whatever
 * x's type). Steps that really differ between the two directions sit
 * under `if constexpr (Ar::loading)`. SnapReader throws a typed
 * SnapshotError on truncation, a section-tag mismatch, a count that
 * does not match this machine, or a length longer than the bytes
 * left, so a damaged file can never half-restore a machine. Framing
 * (magic, version, payload checksum) lives in io.cc.
 */

#ifndef WSL_SNAPSHOT_IO_HH
#define WSL_SNAPSHOT_IO_HH

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/sim_error.hh"
#include "snapshot/format.hh"

namespace wsl {

/** `T` is `U` or `const U`: a field list takes const objects when
 *  saving and mutable ones when loading. */
template <class T, class U>
concept ConstOr = std::same_as<std::remove_const_t<T>, U>;

/** A value with a fixed wire width: an integer, bool or enum. */
template <class T>
concept SnapScalar = std::is_integral_v<T> || std::is_enum_v<T>;

/** Append-only little-endian byte sink for snapshot payloads. */
class SnapWriter
{
  public:
    static constexpr bool loading = false;

    // Each form names the wire width; the value converts to it.
    template <SnapScalar T> void u8(T v) { put<std::uint8_t>(v); }
    template <SnapScalar T> void u16(T v) { put<std::uint16_t>(v); }
    template <SnapScalar T> void u32(T v) { put<std::uint32_t>(v); }
    template <SnapScalar T> void u64(T v) { put<std::uint64_t>(v); }
    template <SnapScalar T> void i32(T v) { put<std::int32_t>(v); }
    template <SnapScalar T> void i64(T v) { put<std::int64_t>(v); }
    void b(bool v) { u8(v ? 1 : 0); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u32(s.size());
        raw(s.data(), s.size());
    }

    /** Four-character section marker; the reader checks it so a
     *  layout skew fails loudly at the section boundary instead of
     *  silently misparsing everything after it. */
    void
    tag(const char (&name)[5])
    {
        raw(name, 4);
    }

    /** A count the machine's shape fixes (SMs, warp slots, cache
     *  ways); the reader requires its own. */
    void fixed(std::size_t n, const char *) { u32(n); }

    /** A u32 length, then `each` on every element. */
    template <class C, class F>
    void
    seq(const C &c, F &&each)
    {
        u32(c.size());
        for (const auto &x : c)
            each(x);
    }

    std::vector<std::uint8_t> take() { return std::move(data); }

  private:
    template <class W, class T>
    void
    put(T v)
    {
        const W w = static_cast<W>(v);
        raw(&w, sizeof w);
    }

    /** Grow-then-memcpy rather than a range insert: g++ 12 reports
     *  false -Wstringop-overflow/-Warray-bounds on the latter. */
    void
    raw(const void *p, std::size_t n)
    {
        const std::size_t at = data.size();
        data.resize(at + n);
        if (n)
            std::memcpy(data.data() + at, p, n);
    }

    static_assert(std::endian::native == std::endian::little,
                  "snapshot layout assumes a little-endian host");

    std::vector<std::uint8_t> data;
};

/** Consuming reader over a snapshot payload; throws SnapshotError on
 *  truncation, tag or count mismatch, or an impossible length. */
class SnapReader
{
  public:
    static constexpr bool loading = true;

    explicit SnapReader(const std::vector<std::uint8_t> &bytes)
        : cur(bytes.data()), end(bytes.data() + bytes.size())
    {
    }

    // Each form reads the named wire width and assigns it to x.
    template <SnapScalar T> void u8(T &x) { get<std::uint8_t>(x, "u8"); }
    template <SnapScalar T> void u16(T &x) { get<std::uint16_t>(x, "u16"); }
    template <SnapScalar T> void u32(T &x) { get<std::uint32_t>(x, "u32"); }
    template <SnapScalar T> void u64(T &x) { get<std::uint64_t>(x, "u64"); }
    template <SnapScalar T> void i32(T &x) { get<std::int32_t>(x, "i32"); }
    template <SnapScalar T> void i64(T &x) { get<std::int64_t>(x, "i64"); }
    void b(bool &x) { get<std::uint8_t>(x, "bool"); }

    void
    f64(double &x)
    {
        std::uint64_t v;
        u64(v);
        x = std::bit_cast<double>(v);
    }

    void
    str(std::string &s)
    {
        std::uint32_t n;
        u32(n);
        need(n, "string body");
        s.assign(reinterpret_cast<const char *>(cur), n);
        cur += n;
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

    /** The stored count must equal this machine's `want`. */
    void
    fixed(std::size_t want, const char *what)
    {
        std::uint32_t got;
        u32(got);
        if (got != want) {
            throw SnapshotError(
                std::string("snapshot structure mismatch: ") + what +
                " count is " + std::to_string(got) +
                ", this machine has " + std::to_string(want));
        }
    }

    /** Replace `c` with a stored sequence, reading each element with
     *  `each`. Containers without resize() (RingQueue) are refilled
     *  by push(). */
    template <class C, class F>
    void
    seq(C &c, F &&each)
    {
        const std::uint32_t n = length();
        if constexpr (requires { c.resize(n); }) {
            c.resize(n);
            for (auto &x : c)
                each(x);
        } else {
            c.clear();
            for (std::uint32_t i = 0; i < n; ++i) {
                std::remove_cvref_t<decltype(*c.begin())> x{};
                each(x);
                c.push(std::move(x));
            }
        }
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
    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end - cur);
    }

    /** A sequence length, checked before anything is allocated:
     *  every element takes at least one byte, so a length above the
     *  bytes left is corrupt whatever its elements are. */
    std::uint32_t
    length()
    {
        std::uint32_t n;
        u32(n);
        if (n > remaining()) {
            throw SnapshotError(
                "snapshot corrupted: sequence length " +
                std::to_string(n) + " exceeds the " +
                std::to_string(remaining()) + " payload bytes left");
        }
        return n;
    }

    template <class W, class T>
    void
    get(T &x, const char *what)
    {
        need(sizeof(W), what);
        W v;
        std::memcpy(&v, cur, sizeof v);
        cur += sizeof v;
        x = static_cast<T>(v);
    }

    void
    need(std::size_t n, const char *what) const
    {
        if (remaining() < n) {
            throw SnapshotError(
                std::string("snapshot truncated while reading ") +
                what);
        }
    }

    const std::uint8_t *cur;
    const std::uint8_t *end;
};

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
