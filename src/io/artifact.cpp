#include "io/artifact.hpp"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace powergear::io {

namespace {

/// 8-byte file magic: ASCII "PGART" + NUL + "v1".
constexpr std::uint8_t kMagic[8] = {'P', 'G', 'A', 'R', 'T', 0, 'v', '1'};
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/// Header layout (offsets in bytes):
///   0  magic[8]
///   8  stage[8]            zero-padded ASCII tag
///  16  container version   u32
///  20  payload version     u32
///  24  payload size        u64
///  32  payload checksum    u64 (FNV-1a)
std::optional<ArtifactInfo> parse_header(const std::uint8_t* p, std::size_t n) {
    if (n < kHeaderSize) return std::nullopt;
    if (std::memcmp(p, kMagic, sizeof kMagic) != 0) return std::nullopt;
    ArtifactInfo info;
    const char* stage = reinterpret_cast<const char*>(p + 8);
    info.stage.assign(stage, strnlen(stage, 8));
    if (get_u32(p + 16) != kArtifactVersion) return std::nullopt;
    info.payload_version = get_u32(p + 20);
    info.payload_size = get_u64(p + 24);
    info.checksum = get_u64(p + 32);
    return info;
}

} // namespace

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t seed) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

Hasher& Hasher::feed(std::uint64_t v) {
    std::uint8_t buf[9] = {1};
    for (int i = 0; i < 8; ++i) buf[1 + i] = static_cast<std::uint8_t>(v >> (8 * i));
    h_ = fnv1a(buf, sizeof buf, h_);
    return *this;
}

Hasher& Hasher::feed(double v) {
    std::uint8_t buf[9] = {2};
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i)
        buf[1 + i] = static_cast<std::uint8_t>(bits >> (8 * i));
    h_ = fnv1a(buf, sizeof buf, h_);
    return *this;
}

Hasher& Hasher::feed(const std::string& s) {
    const std::uint8_t tag = 3;
    h_ = fnv1a(&tag, 1, h_);
    h_ = fnv1a(s.data(), s.size(), h_);
    // Length terminates the stream so feed("ab")+feed("c") != feed("abc").
    return feed(static_cast<std::uint64_t>(s.size()));
}

void Writer::u32(std::uint32_t v) { put_u32(bytes_, v); }
void Writer::u64(std::uint64_t v) { put_u64(bytes_, v); }
void Writer::f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(const std::string& s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void Reader::need(std::size_t n) const {
    if (size_ - pos_ < n)
        throw std::runtime_error("artifact: truncated payload (need " +
                                 std::to_string(n) + " bytes, have " +
                                 std::to_string(size_ - pos_) + ")");
}

std::uint8_t Reader::u8() {
    need(1);
    return data_[pos_++];
}

std::uint32_t Reader::u32() {
    need(4);
    const std::uint32_t v = get_u32(data_ + pos_);
    pos_ += 4;
    return v;
}

std::uint64_t Reader::u64() {
    need(8);
    const std::uint64_t v = get_u64(data_ + pos_);
    pos_ += 8;
    return v;
}

float Reader::f32() { return std::bit_cast<float>(u32()); }
double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
}

void Reader::expect_done(const char* what) const {
    if (!done())
        throw std::runtime_error(std::string("artifact: ") + what + ": " +
                                 std::to_string(remaining()) +
                                 " trailing bytes after payload");
}

std::vector<std::uint8_t> frame(const std::string& stage,
                                std::uint32_t payload_version,
                                std::vector<std::uint8_t> payload) {
    if (stage.empty() || stage.size() > 8)
        throw std::invalid_argument("artifact: stage tag must be 1-8 bytes");
    std::vector<std::uint8_t> out;
    out.reserve(kHeaderSize + payload.size());
    // Element-wise (not insert(range)): GCC 12's -Wstringop-overflow flags
    // the range insert from a constexpr array as a false positive.
    for (const std::uint8_t b : kMagic) out.push_back(b);
    for (std::size_t i = 0; i < 8; ++i)
        out.push_back(i < stage.size() ? static_cast<std::uint8_t>(stage[i]) : 0);
    put_u32(out, kArtifactVersion);
    put_u32(out, payload_version);
    put_u64(out, payload.size());
    put_u64(out, fnv1a(payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

std::vector<std::uint8_t> unframe(const std::vector<std::uint8_t>& file,
                                  const std::string& expected_stage,
                                  std::uint32_t expected_payload_version,
                                  ArtifactInfo* info_out) {
    if (file.size() < kHeaderSize)
        throw std::runtime_error("artifact: file shorter than the " +
                                 std::to_string(kHeaderSize) + "-byte header");
    if (std::memcmp(file.data(), kMagic, sizeof kMagic) != 0)
        throw std::runtime_error(
            "artifact: bad magic (not a powergear-art-v1 file)");
    const std::optional<ArtifactInfo> info =
        parse_header(file.data(), file.size());
    if (!info)
        throw std::runtime_error("artifact: unsupported container version");
    if (info->stage != expected_stage)
        throw std::runtime_error("artifact: stage mismatch: expected '" +
                                 expected_stage + "', found '" + info->stage +
                                 "'");
    // The stage tag is zero-padded to 8 bytes; bytes past the tag's NUL are
    // invisible to the strnlen-based parse above, so reject them explicitly —
    // a corrupted header must never load successfully.
    for (std::size_t i = 8 + info->stage.size(); i < 16; ++i)
        if (file[i] != 0)
            throw std::runtime_error(
                "artifact: nonzero padding in stage tag (corrupt header)");
    if (info->payload_version != expected_payload_version)
        throw std::runtime_error(
            "artifact: " + expected_stage + " payload version " +
            std::to_string(info->payload_version) + " unsupported (want " +
            std::to_string(expected_payload_version) + ")");
    if (file.size() - kHeaderSize != info->payload_size)
        throw std::runtime_error(
            "artifact: payload size mismatch (header says " +
            std::to_string(info->payload_size) + " bytes, file holds " +
            std::to_string(file.size() - kHeaderSize) + ")");
    std::vector<std::uint8_t> payload(file.begin() + kHeaderSize, file.end());
    if (fnv1a(payload.data(), payload.size()) != info->checksum)
        throw std::runtime_error(
            "artifact: checksum mismatch (corrupt " + expected_stage +
            " payload)");
    if (info_out) *info_out = *info;
    return payload;
}

std::optional<ArtifactInfo> peek_header(const void* data, std::size_t n) {
    return parse_header(static_cast<const std::uint8_t*>(data), n);
}

std::optional<ArtifactInfo> peek_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) return std::nullopt;
    std::uint8_t buf[kHeaderSize];
    const std::size_t n = std::fread(buf, 1, sizeof buf, f);
    std::fclose(f);
    return parse_header(buf, n);
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) return std::nullopt;
    std::vector<std::uint8_t> out;
    std::uint8_t buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.insert(out.end(), buf, buf + n);
    const bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad) return std::nullopt;
    return out;
}

void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
    // Unique temp name per writer so concurrent stores of one key never
    // interleave; rename() then publishes a complete file or nothing.
    static std::atomic<std::uint64_t> counter{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(counter.fetch_add(1)) + "." +
        std::to_string(static_cast<std::uint64_t>(::getpid()));
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f) throw std::runtime_error("artifact: cannot open for writing: " + tmp);
    const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool flushed = std::fclose(f) == 0;
    if (written != bytes.size() || !flushed) {
        std::remove(tmp.c_str());
        throw std::runtime_error("artifact: write failed: " + tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::remove(tmp.c_str());
        throw std::runtime_error("artifact: cannot rename " + tmp + " -> " +
                                 path + ": " + ec.message());
    }
}

} // namespace powergear::io
