// powergear-art-v1: the single binary artifact container every pipeline
// stage persists through.
//
// A framed artifact is [header | payload]. The 40-byte header carries a
// magic, the container format version, an 8-byte stage tag ("hls", "sim",
// "graph", "sample", "model"), a per-stage payload schema version, the
// payload size and a FNV-1a checksum of the payload bytes. Readers verify
// all five before touching the payload, so a truncated, corrupt or
// mis-staged file fails loudly with a diagnostic instead of decoding into
// garbage. All multi-byte fields are written little-endian byte by byte and
// floats as IEEE-754 bit patterns, so files are bit-identical across
// machines and round trips are bit-exact.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace powergear::io {

/// Container format name, printed by `powergear --version` and documented
/// in DESIGN.md §9.
constexpr char kArtifactFormatName[] = "powergear-art-v1";

/// Container format version (the "v1" in powergear-art-v1).
constexpr std::uint32_t kArtifactVersion = 1;

/// 64-bit FNV-1a over a byte range, optionally chained from a prior hash.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

/// Incremental FNV-1a hasher for deriving cache keys from typed fields.
/// Every feed mixes a type-tag byte first, so feed(1u64) and feed("\x01")
/// land on different keys.
class Hasher {
public:
    Hasher& feed(std::uint64_t v);
    Hasher& feed(std::int64_t v) { return feed(static_cast<std::uint64_t>(v)); }
    Hasher& feed(int v) { return feed(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
    Hasher& feed(bool v) { return feed(static_cast<std::uint64_t>(v ? 1 : 0)); }
    Hasher& feed(double v); ///< hashes the IEEE-754 bit pattern
    Hasher& feed(const std::string& s);
    std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Little-endian payload builder. Primitives append to an owned byte
/// vector; floats are stored as bit patterns (bit-exact round trips).
class Writer {
public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f32(float v);
    void f64(double v);
    void str(const std::string& s); ///< u64 length + raw bytes

    const std::vector<std::uint8_t>& bytes() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

private:
    std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian payload reader. Every read validates the
/// remaining size and throws std::runtime_error("artifact: truncated ...")
/// on overrun, so short files cannot be silently decoded.
class Reader {
public:
    Reader(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size) {}
    explicit Reader(const std::vector<std::uint8_t>& bytes)
        : Reader(bytes.data(), bytes.size()) {}

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    float f32();
    double f64();
    std::string str();

    std::size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }
    /// Throw unless the whole payload was consumed (schema drift guard).
    void expect_done(const char* what) const;

private:
    void need(std::size_t n) const;

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/// Parsed artifact header.
struct ArtifactInfo {
    std::string stage;             ///< stage tag, e.g. "sample"
    std::uint32_t payload_version = 0;
    std::uint64_t payload_size = 0;
    std::uint64_t checksum = 0;    ///< FNV-1a of the payload bytes
};

/// Size in bytes of the fixed artifact header.
constexpr std::size_t kHeaderSize = 40;

/// Frame a payload: prepend the powergear-art-v1 header (stage tag at most
/// 8 ASCII bytes, zero padded) with the payload's checksum.
std::vector<std::uint8_t> frame(const std::string& stage,
                                std::uint32_t payload_version,
                                std::vector<std::uint8_t> payload);

/// Validate a framed artifact and return its payload. Throws
/// std::runtime_error naming the failure (bad magic, container-version or
/// stage mismatch, payload-version mismatch, size mismatch, checksum
/// mismatch). `info_out`, when given, receives the parsed header.
std::vector<std::uint8_t> unframe(const std::vector<std::uint8_t>& file,
                                  const std::string& expected_stage,
                                  std::uint32_t expected_payload_version,
                                  ArtifactInfo* info_out = nullptr);

/// Parse just the header of a framed artifact file on disk — no payload
/// read, no checksum verification. Returns nullopt when the file is absent,
/// shorter than a header, or not a powergear artifact.
std::optional<ArtifactInfo> peek_file(const std::string& path);

/// Parse an in-memory header prefix (the first kHeaderSize bytes of a frame)
/// without touching any payload. Returns nullopt on short input, bad magic
/// or container-version mismatch. The wire transport (io/wire) uses this to
/// learn the payload length before reading it off a socket.
std::optional<ArtifactInfo> peek_header(const void* data, std::size_t n);

/// Whole-file helpers. read_file returns nullopt when the file cannot be
/// opened; write_file_atomic writes to a unique temp name in the target
/// directory and renames into place (concurrent writers of the same path
/// race benignly: one complete file wins). Throws on I/O failure.
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path);
void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);

} // namespace powergear::io
