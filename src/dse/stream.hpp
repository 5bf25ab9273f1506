// Lazy candidate enumeration over a directive design space.
//
// A CandidateStream yields the indices of a design space (0..size-1) in a
// deterministic pseudo-random order without materializing anything: the
// visit order is the bijection  g -> (g * stride) mod size  with a stride
// coprime to size chosen near the golden ratio, the same low-discrepancy
// trick hls::DesignSpace::sample uses — early prefixes of the stream cover
// the space evenly, so a budget-truncated sweep is already a decent sample.
// Memory per stream is O(1) at any space size.
//
// Splitting a sweep: `chunk_indices` cuts the same global visit order into
// fixed-size chunks, identical for every caller; that is what the sharded
// sweep's work-stealing manifest claims (dse/shard.hpp). A streaming sweep
// is capped by StreamConfig::max_points, not by the stream.
//
// Resumability: `cursor()` captures the stream position bound to a
// signature hash of the stream geometry (size, stride). `seek` rejects a
// cursor minted by a different geometry or past the end, so a stale cursor
// degrades to an error, never to silently scanning the wrong points.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace powergear::dse {

class CandidateStream {
public:
    struct Cursor {
        std::uint64_t signature = 0; ///< stream geometry this cursor binds to
        std::uint64_t pos = 0;       ///< next position in the visit order
    };

    /// Stream over space indices [0, space_size). Throws
    /// std::invalid_argument on an empty space.
    explicit CandidateStream(std::uint64_t space_size);

    std::uint64_t space_size() const { return size_; }
    bool done() const { return pos_ >= size_; }

    /// Next space index, or nullopt when the stream is drained.
    std::optional<std::uint64_t> next();
    /// Append up to `max` next indices to `out`; returns how many.
    std::size_t next_chunk(std::size_t max, std::vector<std::uint64_t>& out);

    Cursor cursor() const;
    /// Resume from a cursor minted by a stream over the same space.
    /// Throws std::invalid_argument on a signature mismatch or
    /// out-of-range position.
    void seek(const Cursor& c);

    /// Geometry signature (what cursors bind to).
    std::uint64_t signature() const;

    // --- chunk addressing (the sharded sweep's work-stealing units) -------
    /// Number of `chunk`-sized units covering the first
    /// min(space_size, limit) positions (limit 0 = the whole space).
    static std::uint64_t num_chunks(std::uint64_t space_size,
                                    std::uint64_t chunk,
                                    std::uint64_t limit = 0);
    /// Space indices of chunk `chunk_id` — identical for every worker.
    static std::vector<std::uint64_t> chunk_indices(std::uint64_t space_size,
                                                    std::uint64_t chunk_id,
                                                    std::uint64_t chunk,
                                                    std::uint64_t limit = 0);

private:
    std::uint64_t size_ = 0;
    std::uint64_t stride_ = 1;
    std::uint64_t pos_ = 0; ///< next position in the visit order
};

} // namespace powergear::dse
