#include "uqsim/snapshot/snapshot.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace uqsim {
namespace snapshot {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

// Header: magic(8) version(4) reserved(4) config(8) seed(8)
// sim_time(8) executed(8) trace(8) = 56 bytes.
constexpr std::size_t kHeaderSize = 56;
// Footer: file crc(8) + footer magic(8).
constexpr std::size_t kFooterSize = 16;
static_assert(kHeaderSize + 8 * kLayerCount + kFooterSize ==
              kSnapshotSize);

void
putLe(std::vector<std::uint8_t>& out, std::uint64_t value, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

std::uint64_t
getLe(const std::uint8_t* p, int bytes)
{
    std::uint64_t value = 0;
    for (int i = 0; i < bytes; ++i)
        value |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return value;
}

}  // namespace

const char*
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Engine: return "ENGINE";
      case Layer::Clients: return "CLIENTS";
      case Layer::Dispatcher: return "DISPATCHER";
      case Layer::Network: return "NETWORK";
      case Layer::Disks: return "DISKS";
      case Layer::Faults: return "FAULTS";
      case Layer::Stats: return "STATS";
    }
    return "?";
}

std::uint64_t
crc64(const void* data, std::size_t size)
{
    // CRC-64/XZ: reflected ECMA-182 polynomial, init/xorout ~0.
    static const std::uint64_t* table = []() {
        static std::uint64_t t[256];
        constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ULL;
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint64_t crc = i;
            for (int bit = 0; bit < 8; ++bit) {
                crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
            }
            t[i] = crc;
        }
        return t;
    }();
    std::uint64_t crc = ~std::uint64_t{0};
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i)
        crc = table[(crc ^ bytes[i]) & 0xFF] ^ (crc >> 8);
    return ~crc;
}

std::string
hex(std::uint64_t value)
{
    char buffer[19];
    std::snprintf(buffer, sizeof buffer, "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

void
Digest::u64(std::uint64_t value)
{
    std::uint64_t h = hash_;
    for (int i = 0; i < 8; ++i)
        h = (h ^ ((value >> (8 * i)) & 0xFF)) * kFnvPrime;
    hash_ = h;
}

void
Digest::i64(std::int64_t value)
{
    u64(static_cast<std::uint64_t>(value));
}

void
Digest::f64(double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    u64(bits);
}

void
Digest::str(std::string_view text)
{
    std::uint64_t h = hash_;
    for (const char c : text)
        h = (h ^ static_cast<std::uint8_t>(c)) * kFnvPrime;
    // Length terminator so "ab"+"c" != "a"+"bc" across str() calls.
    hash_ = (h ^ 0xFF) * kFnvPrime;
}

std::vector<std::uint8_t>
encode(const Snapshot& snapshot)
{
    const SnapshotMeta& meta = snapshot.meta;
    std::vector<std::uint8_t> out(kMagic, kMagic + 8);
    out.reserve(kSnapshotSize);
    putLe(out, kFormatVersion, 4);
    putLe(out, 0, 4);  // reserved
    putLe(out, meta.configDigest, 8);
    putLe(out, meta.masterSeed, 8);
    putLe(out, static_cast<std::uint64_t>(meta.simTime), 8);
    putLe(out, meta.executedEvents, 8);
    putLe(out, meta.traceDigest, 8);
    for (const std::uint64_t fold : snapshot.folds)
        putLe(out, fold, 8);
    putLe(out, crc64(out.data(), out.size()), 8);
    out.insert(out.end(), kFooterMagic, kFooterMagic + 8);
    return out;
}

Snapshot
decode(const std::vector<std::uint8_t>& bytes)
{
    const std::size_t size = bytes.size();
    if (size < kHeaderSize + kFooterSize) {
        throw SnapshotFormatError(
            "truncated snapshot: " + std::to_string(size) +
            " bytes, smaller than header + footer");
    }
    if (std::memcmp(bytes.data(), kMagic, 8) != 0)
        throw SnapshotFormatError("bad magic: not a uqsim snapshot");
    const std::size_t footer_start = size - kFooterSize;
    if (std::memcmp(bytes.data() + footer_start + 8, kFooterMagic,
                    8) != 0) {
        throw SnapshotFormatError(
            "bad footer magic: truncated or corrupt snapshot");
    }
    const std::uint64_t stored_crc = getLe(bytes.data() + footer_start, 8);
    const std::uint64_t actual_crc = crc64(bytes.data(), footer_start);
    if (stored_crc != actual_crc) {
        throw SnapshotFormatError("file checksum mismatch: stored " +
                                  hex(stored_crc) + ", computed " +
                                  hex(actual_crc));
    }
    // The version precedes the size check so a file of another
    // version, whatever its layout, names both versions.
    const std::uint64_t version = getLe(bytes.data() + 8, 4);
    if (version != kFormatVersion) {
        throw SnapshotFormatError(
            "unsupported snapshot version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(kFormatVersion) + ")");
    }
    if (size != kSnapshotSize) {
        throw SnapshotFormatError(
            "snapshot is " + std::to_string(size) + " bytes, version " +
            std::to_string(kFormatVersion) + " files are " +
            std::to_string(kSnapshotSize));
    }

    Snapshot snapshot;
    SnapshotMeta& meta = snapshot.meta;
    meta.configDigest = getLe(bytes.data() + 16, 8);
    meta.masterSeed = getLe(bytes.data() + 24, 8);
    meta.simTime = static_cast<std::int64_t>(getLe(bytes.data() + 32, 8));
    meta.executedEvents = getLe(bytes.data() + 40, 8);
    meta.traceDigest = getLe(bytes.data() + 48, 8);
    for (std::size_t i = 0; i < kLayerCount; ++i)
        snapshot.folds[i] = getLe(bytes.data() + kHeaderSize + 8 * i, 8);
    return snapshot;
}

void
writeFile(const std::string& path, const Snapshot& snapshot)
{
    const std::vector<std::uint8_t> bytes = encode(snapshot);
    const std::string tmp = path + ".tmp";
    std::FILE* file = std::fopen(tmp.c_str(), "wb");
    if (file == nullptr) {
        throw SnapshotError("cannot open snapshot for writing: " +
                            tmp + ": " + std::strerror(errno));
    }
    const std::size_t written =
        std::fwrite(bytes.data(), 1, bytes.size(), file);
    const bool flushed = std::fflush(file) == 0;
    const bool closed = std::fclose(file) == 0;
    if (written != bytes.size() || !flushed || !closed) {
        std::remove(tmp.c_str());
        throw SnapshotError("cannot write snapshot: " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw SnapshotError("cannot rename snapshot into place: " +
                            path + ": " + std::strerror(errno));
    }
}

Snapshot
readFile(const std::string& path)
{
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        throw SnapshotError("cannot open snapshot: " + path + ": " +
                            std::strerror(errno));
    }
    std::vector<std::uint8_t> bytes;
    std::uint8_t buffer[4096];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0)
        bytes.insert(bytes.end(), buffer, buffer + got);
    const bool read_error = std::ferror(file) != 0;
    std::fclose(file);
    if (read_error)
        throw SnapshotError("cannot read snapshot: " + path);
    try {
        return decode(bytes);
    } catch (const SnapshotFormatError& error) {
        throw SnapshotFormatError(path + ": " + error.what());
    }
}

}  // namespace snapshot
}  // namespace uqsim
