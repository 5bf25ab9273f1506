#include "io/wire.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace powergear::io {

bool serve_op_valid(std::uint8_t op) {
    return op >= static_cast<std::uint8_t>(ServeOp::Estimate) &&
           op <= static_cast<std::uint8_t>(ServeOp::Shutdown);
}

std::vector<std::uint8_t> encode_serve_request(const ServeRequest& req) {
    Writer w;
    w.u64(req.id);
    w.u8(static_cast<std::uint8_t>(req.op));
    w.u64(req.sample_payload.size());
    for (const std::uint8_t b : req.sample_payload) w.u8(b);
    return w.take();
}

ServeRequest decode_serve_request(const std::vector<std::uint8_t>& payload) {
    Reader r(payload);
    ServeRequest req;
    req.id = r.u64();
    const std::uint8_t op = r.u8();
    if (!serve_op_valid(op))
        throw std::runtime_error("serve: unknown request op " +
                                 std::to_string(op));
    req.op = static_cast<ServeOp>(op);
    const std::uint64_t n = r.u64();
    if (n > kServeMaxPayload)
        throw std::runtime_error("serve: sample payload of " +
                                 std::to_string(n) + " bytes exceeds limit");
    req.sample_payload.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) req.sample_payload.push_back(r.u8());
    r.expect_done("serve request");
    if (req.op == ServeOp::Estimate && req.sample_payload.empty())
        throw std::runtime_error("serve: estimate request without a sample");
    return req;
}

std::vector<std::uint8_t> encode_serve_response(const ServeResponse& resp) {
    Writer w;
    w.u64(resp.id);
    w.u8(static_cast<std::uint8_t>(resp.op));
    w.u8(resp.status);
    w.str(resp.error);
    w.f64(resp.watts);
    w.f64(resp.member_spread);
    w.u64(resp.model_generation);
    w.u32(resp.model_members);
    return w.take();
}

ServeResponse decode_serve_response(const std::vector<std::uint8_t>& payload) {
    Reader r(payload);
    ServeResponse resp;
    resp.id = r.u64();
    const std::uint8_t op = r.u8();
    if (!serve_op_valid(op))
        throw std::runtime_error("serve: unknown response op " +
                                 std::to_string(op));
    resp.op = static_cast<ServeOp>(op);
    resp.status = r.u8();
    resp.error = r.str();
    resp.watts = r.f64();
    resp.member_spread = r.f64();
    resp.model_generation = r.u64();
    resp.model_members = r.u32();
    r.expect_done("serve response");
    return resp;
}

sockaddr_un unix_address(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path))
        throw std::invalid_argument(
            "serve: socket path must be 1.." +
            std::to_string(sizeof(addr.sun_path) - 1) + " bytes (got '" +
            path + "')");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

namespace {

/// Read exactly `n` bytes into `out`. Returns the byte count actually read:
/// n on success, 0 on EOF before the first byte, and anything in between on
/// a stream truncated mid-read. Throws on hard I/O errors.
std::size_t read_exact(int fd, std::uint8_t* out, std::size_t n) {
    std::size_t got = 0;
    while (got < n) {
        const ssize_t k = ::read(fd, out + got, n - got);
        if (k > 0) {
            got += static_cast<std::size_t>(k);
            continue;
        }
        if (k == 0) return got; // peer closed
        if (errno == EINTR) continue;
        if (errno == ECONNRESET) return got;
        throw std::runtime_error(std::string("serve: socket read failed: ") +
                                 std::strerror(errno));
    }
    return got;
}

} // namespace

bool send_frame(int fd, const std::vector<std::uint8_t>& framed) {
    std::size_t sent = 0;
    while (sent < framed.size()) {
        // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
        const ssize_t k = ::send(fd, framed.data() + sent, framed.size() - sent,
                                 MSG_NOSIGNAL);
        if (k > 0) {
            sent += static_cast<std::size_t>(k);
            continue;
        }
        if (k < 0 && errno == EINTR) continue;
        if (k < 0 && (errno == EPIPE || errno == ECONNRESET ||
                      errno == EAGAIN || errno == EWOULDBLOCK))
            return false;
        throw std::runtime_error(std::string("serve: socket write failed: ") +
                                 std::strerror(errno));
    }
    return true;
}

std::size_t frame_size(const std::uint8_t* bytes, std::size_t n) {
    if (n < kHeaderSize) return 0;
    const std::optional<ArtifactInfo> info = peek_header(bytes, kHeaderSize);
    if (!info)
        throw std::runtime_error(
            "serve: malformed frame header (bad magic or container version)");
    if (info->payload_size > kServeMaxPayload)
        throw std::runtime_error("serve: frame payload of " +
                                 std::to_string(info->payload_size) +
                                 " bytes exceeds limit");
    return kHeaderSize + static_cast<std::size_t>(info->payload_size);
}

std::runtime_error truncated_frame(const std::uint8_t* bytes, std::size_t n) {
    if (n < kHeaderSize)
        return std::runtime_error("serve: stream truncated inside a frame "
                                  "header (" +
                                  std::to_string(n) + " of " +
                                  std::to_string(kHeaderSize) + " bytes)");
    return std::runtime_error("serve: stream truncated inside a frame "
                              "payload (" +
                              std::to_string(n - kHeaderSize) + " of " +
                              std::to_string(frame_size(bytes, n) -
                                             kHeaderSize) +
                              " bytes)");
}

std::optional<std::vector<std::uint8_t>> recv_frame(int fd) {
    std::vector<std::uint8_t> frame(kHeaderSize);
    std::size_t got = read_exact(fd, frame.data(), kHeaderSize);
    if (got == 0) return std::nullopt; // clean EOF between frames
    if (got < kHeaderSize) throw truncated_frame(frame.data(), got);
    frame.resize(frame_size(frame.data(), got));
    got += read_exact(fd, frame.data() + got, frame.size() - got);
    if (got < frame.size()) throw truncated_frame(frame.data(), got);
    return frame;
}

} // namespace powergear::io
