#include "dse/stream.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "io/artifact.hpp"

namespace powergear::dse {

namespace {

/// Golden-ratio stride, bumped to the next value coprime to `n` so
/// g -> (g * stride) mod n is a bijection. n - 1 is always coprime to n,
/// so the bump terminates before wrapping.
std::uint64_t pick_stride(std::uint64_t n) {
    if (n <= 2) return 1;
    auto s = static_cast<std::uint64_t>(0.6180339887498949 *
                                        static_cast<double>(n));
    if (s < 1) s = 1;
    if (s >= n) s = n - 1;
    while (std::gcd(s, n) != 1) ++s;
    return s;
}

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(a) * b) % m);
}

/// Positions a chunked sweep covers: the first `limit` (0 = all).
std::uint64_t swept_positions(std::uint64_t space_size, std::uint64_t limit) {
    return limit > 0 && limit < space_size ? limit : space_size;
}

} // namespace

CandidateStream::CandidateStream(std::uint64_t space_size)
    : size_(space_size) {
    if (size_ == 0)
        throw std::invalid_argument("CandidateStream: empty design space");
    stride_ = pick_stride(size_);
}

std::optional<std::uint64_t> CandidateStream::next() {
    if (pos_ >= size_) return std::nullopt;
    return mulmod(pos_++, stride_, size_);
}

std::size_t CandidateStream::next_chunk(std::size_t max,
                                        std::vector<std::uint64_t>& out) {
    std::size_t produced = 0;
    while (produced < max) {
        const std::optional<std::uint64_t> idx = next();
        if (!idx) break;
        out.push_back(*idx);
        ++produced;
    }
    return produced;
}

std::uint64_t CandidateStream::signature() const {
    return io::Hasher()
        .feed(std::string("dse-stream"))
        .feed(size_)
        .feed(stride_)
        .value();
}

CandidateStream::Cursor CandidateStream::cursor() const {
    return Cursor{signature(), pos_};
}

void CandidateStream::seek(const Cursor& c) {
    if (c.signature != signature())
        throw std::invalid_argument(
            "CandidateStream::seek: cursor from a different stream geometry");
    if (c.pos > size_)
        throw std::invalid_argument(
            "CandidateStream::seek: cursor position out of range");
    pos_ = c.pos;
}

std::uint64_t CandidateStream::num_chunks(std::uint64_t space_size,
                                          std::uint64_t chunk,
                                          std::uint64_t limit) {
    if (space_size == 0 || chunk == 0) return 0;
    const std::uint64_t positions = swept_positions(space_size, limit);
    // Ceiling without `positions + chunk - 1`, which wraps for huge chunks.
    return positions / chunk + (positions % chunk != 0 ? 1 : 0);
}

std::vector<std::uint64_t> CandidateStream::chunk_indices(
    std::uint64_t space_size, std::uint64_t chunk_id, std::uint64_t chunk,
    std::uint64_t limit) {
    std::vector<std::uint64_t> out;
    if (chunk_id >= num_chunks(space_size, chunk, limit)) return out;
    const std::uint64_t positions = swept_positions(space_size, limit);
    const std::uint64_t stride = pick_stride(space_size);
    // chunk_id < num_chunks keeps begin < positions, so neither sum wraps.
    const std::uint64_t begin = chunk_id * chunk;
    const std::uint64_t end = begin + std::min(chunk, positions - begin);
    out.reserve(static_cast<std::size_t>(end - begin));
    for (std::uint64_t g = begin; g < end; ++g)
        out.push_back(mulmod(g, stride, space_size));
    return out;
}

} // namespace powergear::dse
