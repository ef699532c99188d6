#include "uqsim/snapshot/snapshot.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace uqsim {
namespace snapshot {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

// Header: magic(8) version(4) section_count(4) config(8) seed(8)
// sim_time(8) executed(8) trace(8) = 56 bytes.
constexpr std::size_t kHeaderSize = 56;
// Section table entry: id(4) flags(4) offset(8) length(8) crc(8).
constexpr std::size_t kTableEntrySize = 32;
// Footer: file crc(8) + footer magic(8).
constexpr std::size_t kFooterSize = 16;

void
putLe32(std::vector<std::uint8_t>& out, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

void
putLe64(std::vector<std::uint8_t>& out, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

std::uint32_t
getLe32(const std::uint8_t* p)
{
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return value;
}

std::uint64_t
getLe64(const std::uint8_t* p)
{
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return value;
}

std::uint64_t
f64Bits(double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

double
f64FromBits(std::uint64_t bits)
{
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    return value;
}

std::string
hex(std::uint64_t value)
{
    char buffer[19];
    std::snprintf(buffer, sizeof buffer, "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

bool
knownSection(std::uint32_t id)
{
    return id >= static_cast<std::uint32_t>(SectionId::Engine) &&
           id <= static_cast<std::uint32_t>(SectionId::Stats);
}

}  // namespace

const char*
sectionName(SectionId id)
{
    switch (id) {
      case SectionId::Engine: return "ENGINE";
      case SectionId::Clients: return "CLIENTS";
      case SectionId::Dispatcher: return "DISPATCHER";
      case SectionId::Network: return "NETWORK";
      case SectionId::Disks: return "DISKS";
      case SectionId::Faults: return "FAULTS";
      case SectionId::Stats: return "STATS";
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
    u64(f64Bits(value));
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

// ------------------------------------------------------ SnapshotWriter

void
SnapshotWriter::beginSection(SectionId id)
{
    if (sectionOpen_)
        throw std::logic_error("beginSection with a section open");
    for (const Section& section : sections_) {
        if (section.id == id) {
            throw std::logic_error(std::string("duplicate section ") +
                                   sectionName(id));
        }
    }
    sections_.push_back(Section{id, {}});
    sectionOpen_ = true;
}

void
SnapshotWriter::endSection()
{
    if (!sectionOpen_)
        throw std::logic_error("endSection without beginSection");
    sectionOpen_ = false;
}

void
SnapshotWriter::putU8(std::uint8_t value)
{
    if (!sectionOpen_)
        throw std::logic_error("put outside a section");
    sections_.back().bytes.push_back(value);
}

void
SnapshotWriter::putU32(std::uint32_t value)
{
    if (!sectionOpen_)
        throw std::logic_error("put outside a section");
    putLe32(sections_.back().bytes, value);
}

void
SnapshotWriter::putU64(std::uint64_t value)
{
    if (!sectionOpen_)
        throw std::logic_error("put outside a section");
    putLe64(sections_.back().bytes, value);
}

void
SnapshotWriter::putI64(std::int64_t value)
{
    putU64(static_cast<std::uint64_t>(value));
}

void
SnapshotWriter::putF64(double value)
{
    putU64(f64Bits(value));
}

void
SnapshotWriter::putString(std::string_view text)
{
    putU32(static_cast<std::uint32_t>(text.size()));
    if (!sectionOpen_)
        throw std::logic_error("put outside a section");
    std::vector<std::uint8_t>& bytes = sections_.back().bytes;
    bytes.insert(bytes.end(), text.begin(), text.end());
}

std::vector<std::uint8_t>
SnapshotWriter::assemble() const
{
    if (sectionOpen_)
        throw std::logic_error("assemble with a section open");
    std::vector<std::uint8_t> out(kMagic, kMagic + 8);
    putLe32(out, kFormatVersion);
    putLe32(out, static_cast<std::uint32_t>(sections_.size()));
    putLe64(out, meta_.configDigest);
    putLe64(out, meta_.masterSeed);
    putLe64(out, static_cast<std::uint64_t>(meta_.simTime));
    putLe64(out, meta_.executedEvents);
    putLe64(out, meta_.traceDigest);

    std::size_t offset =
        kHeaderSize + sections_.size() * kTableEntrySize;
    for (const Section& section : sections_) {
        putLe32(out, static_cast<std::uint32_t>(section.id));
        putLe32(out, 0);  // flags, reserved
        putLe64(out, offset);
        putLe64(out, section.bytes.size());
        putLe64(out, crc64(section.bytes.data(), section.bytes.size()));
        offset += section.bytes.size();
    }
    for (const Section& section : sections_) {
        out.insert(out.end(), section.bytes.begin(),
                   section.bytes.end());
    }
    putLe64(out, crc64(out.data(), out.size()));
    out.insert(out.end(), kFooterMagic, kFooterMagic + 8);
    return out;
}

void
SnapshotWriter::writeFile(const std::string& path) const
{
    const std::vector<std::uint8_t> bytes = assemble();
    const std::string tmp = path + ".tmp";
    std::FILE* file = std::fopen(tmp.c_str(), "wb");
    if (file == nullptr) {
        throw SnapshotError("cannot open snapshot for writing: " +
                            tmp + ": " + std::strerror(errno));
    }
    const std::size_t written =
        std::fwrite(bytes.data(), 1, bytes.size(), file);
    const bool flushed = std::fflush(file) == 0;
    std::fclose(file);
    if (written != bytes.size() || !flushed) {
        std::remove(tmp.c_str());
        throw SnapshotError("short write to snapshot: " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw SnapshotError("cannot rename snapshot into place: " +
                            path + ": " + std::strerror(errno));
    }
}

// ------------------------------------------------------ SnapshotReader

SnapshotReader
SnapshotReader::fromFile(const std::string& path)
{
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        throw SnapshotError("cannot open snapshot: " + path + ": " +
                            std::strerror(errno));
    }
    std::vector<std::uint8_t> bytes;
    std::uint8_t buffer[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0)
        bytes.insert(bytes.end(), buffer, buffer + got);
    const bool read_error = std::ferror(file) != 0;
    std::fclose(file);
    if (read_error)
        throw SnapshotError("cannot read snapshot: " + path);
    try {
        return fromBytes(std::move(bytes));
    } catch (const SnapshotFormatError& error) {
        throw SnapshotFormatError(path + ": " + error.what());
    }
}

SnapshotReader
SnapshotReader::fromBytes(std::vector<std::uint8_t> bytes)
{
    SnapshotReader reader;
    reader.bytes_ = std::move(bytes);
    reader.parse();
    return reader;
}

void
SnapshotReader::parse()
{
    if (bytes_.size() < kHeaderSize + kFooterSize) {
        throw SnapshotFormatError(
            "truncated snapshot: " + std::to_string(bytes_.size()) +
            " bytes, smaller than header + footer");
    }
    if (std::memcmp(bytes_.data(), kMagic, 8) != 0)
        throw SnapshotFormatError("bad magic: not a uqsim snapshot");
    const std::size_t footer_start = bytes_.size() - kFooterSize;
    if (std::memcmp(bytes_.data() + footer_start + 8, kFooterMagic,
                    8) != 0) {
        throw SnapshotFormatError(
            "bad footer magic: truncated or corrupt snapshot");
    }
    const std::uint64_t stored_crc =
        getLe64(bytes_.data() + footer_start);
    const std::uint64_t actual_crc = crc64(bytes_.data(), footer_start);
    if (stored_crc != actual_crc) {
        throw SnapshotFormatError("file checksum mismatch: stored " +
                                  hex(stored_crc) + ", computed " +
                                  hex(actual_crc));
    }

    const std::uint32_t version = getLe32(bytes_.data() + 8);
    if (version != kFormatVersion) {
        throw SnapshotFormatError(
            "unsupported snapshot version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(kFormatVersion) + ")");
    }
    const std::uint32_t section_count = getLe32(bytes_.data() + 12);
    meta_.configDigest = getLe64(bytes_.data() + 16);
    meta_.masterSeed = getLe64(bytes_.data() + 24);
    meta_.simTime =
        static_cast<std::int64_t>(getLe64(bytes_.data() + 32));
    meta_.executedEvents = getLe64(bytes_.data() + 40);
    meta_.traceDigest = getLe64(bytes_.data() + 48);

    const std::size_t table_end =
        kHeaderSize +
        static_cast<std::size_t>(section_count) * kTableEntrySize;
    if (table_end > footer_start) {
        throw SnapshotFormatError(
            "section table overruns the file (" +
            std::to_string(section_count) + " sections)");
    }
    for (std::uint32_t i = 0; i < section_count; ++i) {
        const std::uint8_t* entry =
            bytes_.data() + kHeaderSize + i * kTableEntrySize;
        const std::uint32_t raw_id = getLe32(entry);
        if (!knownSection(raw_id)) {
            throw SnapshotFormatError("unknown section id " +
                                      std::to_string(raw_id));
        }
        const auto id = static_cast<SectionId>(raw_id);
        const std::uint64_t offset = getLe64(entry + 8);
        const std::uint64_t length = getLe64(entry + 16);
        const std::uint64_t section_crc = getLe64(entry + 24);
        if (offset < table_end || offset + length > footer_start ||
            offset + length < offset) {
            throw SnapshotFormatError(
                std::string("section ") + sectionName(id) +
                " out of bounds (offset " + std::to_string(offset) +
                ", length " + std::to_string(length) + ")");
        }
        const std::uint64_t actual = crc64(
            bytes_.data() + offset, static_cast<std::size_t>(length));
        if (actual != section_crc) {
            throw SnapshotFormatError(
                std::string("section ") + sectionName(id) +
                " checksum mismatch: stored " + hex(section_crc) +
                ", computed " + hex(actual));
        }
        if (!sectionsById_
                 .emplace(id,
                          SectionView{static_cast<std::size_t>(offset),
                                      static_cast<std::size_t>(length)})
                 .second) {
            throw SnapshotFormatError(std::string("duplicate section ") +
                                      sectionName(id));
        }
        order_.push_back(id);
    }
}

bool
SnapshotReader::hasSection(SectionId id) const
{
    return sectionsById_.count(id) != 0;
}

void
SnapshotReader::openSection(SectionId id)
{
    const auto it = sectionsById_.find(id);
    if (it == sectionsById_.end()) {
        throw SnapshotFormatError(std::string("snapshot has no ") +
                                  sectionName(id) + " section");
    }
    current_ = id;
    sectionOpen_ = true;
    cursor_ = it->second.offset;
    end_ = it->second.offset + it->second.length;
}

void
SnapshotReader::closeSection()
{
    if (!sectionOpen_)
        throw std::logic_error("closeSection without openSection");
    if (cursor_ != end_) {
        throw SnapshotFormatError(
            std::string(sectionName(current_)) + " section has " +
            std::to_string(end_ - cursor_) + " unread trailing bytes");
    }
    sectionOpen_ = false;
}

const std::uint8_t*
SnapshotReader::need(const char* field, std::size_t bytes)
{
    if (!sectionOpen_)
        throw std::logic_error("read outside a section");
    if (cursor_ + bytes > end_) {
        throw SnapshotFormatError(
            std::string(sectionName(current_)) + " section truncated "
            "reading field '" + field + "'");
    }
    const std::uint8_t* p = bytes_.data() + cursor_;
    cursor_ += bytes;
    return p;
}

std::uint8_t
SnapshotReader::getU8(const char* field)
{
    return *need(field, 1);
}

std::uint32_t
SnapshotReader::getU32(const char* field)
{
    return getLe32(need(field, 4));
}

std::uint64_t
SnapshotReader::getU64(const char* field)
{
    return getLe64(need(field, 8));
}

std::int64_t
SnapshotReader::getI64(const char* field)
{
    return static_cast<std::int64_t>(getU64(field));
}

double
SnapshotReader::getF64(const char* field)
{
    return f64FromBits(getU64(field));
}

bool
SnapshotReader::getBool(const char* field)
{
    return getU8(field) != 0;
}

std::string
SnapshotReader::getString(const char* field)
{
    const std::uint32_t length = getU32(field);
    const std::uint8_t* p = need(field, length);
    return std::string(reinterpret_cast<const char*>(p), length);
}

void
SnapshotReader::mismatch(const char* field, const std::string& stored,
                         const std::string& live) const
{
    throw SnapshotStateError(
        std::string(sectionName(current_)) + " section: field '" +
        field + "': snapshot " + stored + " != live " + live);
}

void
SnapshotReader::requireU64(const char* field, std::uint64_t live)
{
    const std::uint64_t stored = getU64(field);
    if (stored != live)
        mismatch(field, std::to_string(stored), std::to_string(live));
}

void
SnapshotReader::requireU32(const char* field, std::uint32_t live)
{
    const std::uint32_t stored = getU32(field);
    if (stored != live)
        mismatch(field, std::to_string(stored), std::to_string(live));
}

void
SnapshotReader::requireI64(const char* field, std::int64_t live)
{
    const std::int64_t stored = getI64(field);
    if (stored != live)
        mismatch(field, std::to_string(stored), std::to_string(live));
}

void
SnapshotReader::requireF64(const char* field, double live)
{
    const std::uint64_t stored = getU64(field);
    if (stored != f64Bits(live)) {
        mismatch(field,
                 std::to_string(f64FromBits(stored)) + " (" +
                     hex(stored) + ")",
                 std::to_string(live) + " (" + hex(f64Bits(live)) +
                     ")");
    }
}

void
SnapshotReader::requireBool(const char* field, bool live)
{
    const bool stored = getBool(field);
    if (stored != live) {
        mismatch(field, stored ? "true" : "false",
                 live ? "true" : "false");
    }
}

void
SnapshotReader::requireString(const char* field, std::string_view live)
{
    const std::string stored = getString(field);
    if (stored != live) {
        mismatch(field, "\"" + stored + "\"",
                 "\"" + std::string(live) + "\"");
    }
}

}  // namespace snapshot
}  // namespace uqsim
