#include "snapshot/io.hh"

#include <cstdio>
#include <fstream>

namespace wsl {

std::uint64_t
snapshotChecksum(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace {

constexpr std::size_t headerSize = 8 + 4 + 8; // magic, version, size
constexpr std::size_t footerSize = 8;         // checksum

} // namespace

std::vector<std::uint8_t>
frameSnapshot(const std::vector<std::uint8_t> &payload)
{
    // memcpy into a sized buffer: g++ 12 reports false
    // -Wstringop-overflow/-Warray-bounds on range inserts here.
    std::vector<std::uint8_t> out(headerSize + payload.size() +
                                  footerSize);
    const std::uint32_t version = snapshotFormatVersion;
    const std::uint64_t size = payload.size();
    const std::uint64_t sum =
        snapshotChecksum(payload.data(), payload.size());
    std::uint8_t *p = out.data();
    std::memcpy(p, snapshotMagic, 8);
    std::memcpy(p + 8, &version, sizeof version);
    std::memcpy(p + 12, &size, sizeof size);
    if (!payload.empty())
        std::memcpy(p + headerSize, payload.data(), payload.size());
    std::memcpy(p + headerSize + payload.size(), &sum, sizeof sum);
    return out;
}

std::vector<std::uint8_t>
unframeSnapshot(const std::vector<std::uint8_t> &file)
{
    if (file.size() < headerSize + footerSize ||
        std::memcmp(file.data(), snapshotMagic, 8) != 0) {
        throw SnapshotError(
            "not a wslicer snapshot (short file or bad magic)");
    }
    std::uint32_t version;
    std::uint64_t size;
    std::memcpy(&version, file.data() + 8, sizeof version);
    std::memcpy(&size, file.data() + 12, sizeof size);
    if (version != snapshotFormatVersion) {
        throw SnapshotError(
            "snapshot format version " + std::to_string(version) +
            " does not match this build's version " +
            std::to_string(snapshotFormatVersion));
    }
    if (file.size() != headerSize + size + footerSize)
        throw SnapshotError("snapshot truncated: payload size header "
                            "disagrees with file length");
    std::uint64_t stored;
    std::memcpy(&stored, file.data() + headerSize + size,
                sizeof stored);
    const std::uint64_t actual =
        snapshotChecksum(file.data() + headerSize, size);
    if (stored != actual)
        throw SnapshotError("snapshot corrupted: payload checksum "
                            "mismatch");
    return {file.begin() + headerSize,
            file.begin() + headerSize + static_cast<std::ptrdiff_t>(size)};
}

void
writeSnapshotBytes(const std::string &path,
                   const std::vector<std::uint8_t> &bytes)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw SnapshotError("cannot open '" + tmp +
                                "' for writing");
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out)
            throw SnapshotError("short write to '" + tmp + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw SnapshotError("cannot rename '" + tmp + "' to '" + path +
                            "'");
    }
}

std::vector<std::uint8_t>
readSnapshotBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SnapshotError("cannot open snapshot '" + path + "'");
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return bytes;
}

} // namespace wsl
