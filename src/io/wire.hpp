// Serve wire protocol: request/response codecs over powergear-art-v1 frames.
//
// The estimation daemon (core/serve) and its clients exchange a stream of
// framed artifacts on a Unix-domain socket — the exact container every
// pipeline stage persists through (io/artifact), with two new stage tags:
//
//   stage tag   payload                         direction
//   "req"       ServeRequest  (op + sample)     client -> server
//   "resp"      ServeResponse (estimate/info)   server -> client
//
// Reusing the container buys the protocol everything files already have:
// magic + stage + version negotiation, a payload length (so frames can be
// read off a byte stream without any extra length prefix) and an FNV-1a
// checksum that rejects corrupt or torn frames before decoding. A malformed
// frame therefore fails with the same six diagnostics the artifact loaders
// emit (short header, bad magic, stage mismatch, version mismatch, size
// mismatch, checksum mismatch).
//
// An Estimate request carries one encoded dataset::Sample (the "sample"
// stage payload bytes, io::encode_sample); the admission queue coalesces
// many concurrent requests into one PowerGear::estimate_batch call — one
// fused block-diagonal forward per chunk of up to gnn::kBatchChunk samples
// (gnn/batch.hpp) — so a client wanting batch semantics simply pipelines N
// requests and reads N responses (matched by id — control responses may
// interleave). Coalescing never changes a result: per-sample answers are
// independent of batch composition (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/un.h>

#include "io/artifact.hpp"

namespace powergear::io {

// Stage tags and payload schema versions of the serve wire protocol.
constexpr char kStageServeReq[] = "req";
constexpr char kStageServeResp[] = "resp";
constexpr std::uint32_t kServeReqVersion = 1;
constexpr std::uint32_t kServeRespVersion = 1;

/// Upper bound on a single frame's payload accepted off a socket. Graph
/// samples are a few hundred KB at paper scale; anything near this limit is
/// a protocol error, not a workload.
constexpr std::uint64_t kServeMaxPayload = 64ull << 20;

/// Request operations.
enum class ServeOp : std::uint8_t {
    Estimate = 1, ///< estimate one sample (coalesced into batches)
    Ping = 2,     ///< liveness + model info (generation, member count)
    Reload = 3,   ///< hot-swap the model from the server's artifact path
    Shutdown = 4, ///< drain in-flight requests, then exit cleanly
};

/// True when `op` is one of the defined operations (decode guard).
bool serve_op_valid(std::uint8_t op);

struct ServeRequest {
    std::uint64_t id = 0; ///< client-chosen correlation id, echoed back
    ServeOp op = ServeOp::Ping;
    /// Estimate only: the "sample" stage payload bytes (io::encode_sample).
    std::vector<std::uint8_t> sample_payload;
};

struct ServeResponse {
    std::uint64_t id = 0;  ///< echo of the request id
    ServeOp op = ServeOp::Ping;
    std::uint8_t status = 0; ///< 0 = ok, 1 = error (see `error`)
    std::string error;       ///< diagnostic when status != 0

    // Estimate results (op == Estimate, status == 0).
    double watts = 0.0;
    double member_spread = 0.0;

    /// Model generation that produced this answer: 1 for the initially
    /// loaded artifact, +1 per completed hot-swap. Lets clients observe
    /// that a reload boundary is atomic.
    std::uint64_t model_generation = 0;
    std::uint32_t model_members = 0; ///< ensemble size (Ping/Reload)
};

// --- payload codecs ----------------------------------------------------------
std::vector<std::uint8_t> encode_serve_request(const ServeRequest& req);
/// Strict decode: throws std::runtime_error on unknown op, truncated or
/// trailing bytes, or an Estimate request without a sample payload.
ServeRequest decode_serve_request(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_serve_response(const ServeResponse& resp);
ServeResponse decode_serve_response(const std::vector<std::uint8_t>& payload);

// --- framed socket transport -------------------------------------------------
/// The Unix-domain address for `path`. Throws std::invalid_argument when the
/// path is empty or too long for sun_path.
sockaddr_un unix_address(const std::string& path);

/// Write a full framed artifact to `fd`, retrying short writes. Returns
/// false when the peer is gone (EPIPE/ECONNRESET) or a send timeout
/// (SO_SNDTIMEO) expired; throws on other errors.
bool send_frame(int fd, const std::vector<std::uint8_t>& framed);

/// Size (header + payload) of the frame that starts at `bytes`, or 0 while
/// fewer than kHeaderSize of its bytes are at hand. Throws
/// std::runtime_error on a malformed header or an oversized payload.
std::size_t frame_size(const std::uint8_t* bytes, std::size_t n);

/// The diagnostic for a stream that ended `n` bytes into the frame that
/// starts at `bytes` (0 < n < that frame's size).
std::runtime_error truncated_frame(const std::uint8_t* bytes, std::size_t n);

/// Read one framed artifact off a blocking `fd`. Returns nullopt on clean
/// EOF before any byte of a frame; throws std::runtime_error on a malformed
/// header, an oversized payload (frame_size), or a stream truncated
/// mid-frame (truncated_frame). The returned bytes are a complete frame —
/// validate with io::unframe as usual.
std::optional<std::vector<std::uint8_t>> recv_frame(int fd);

} // namespace powergear::io
