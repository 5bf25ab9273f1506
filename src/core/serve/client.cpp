#include "core/serve/client.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include <sys/socket.h>
#include <unistd.h>

#include "io/serial.hpp"

namespace powergear::core::serve {

Client::Client(std::string socket_path) : path_(std::move(socket_path)) {
    const sockaddr_un addr = io::unix_address(path_);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0)
        throw std::runtime_error(std::string("serve: socket() failed: ") +
                                 std::strerror(errno));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
        const std::string msg = std::strerror(errno);
        ::close(fd_);
        fd_ = -1;
        throw std::runtime_error("serve: cannot connect to " + path_ + ": " +
                                 msg);
    }
}

Client::~Client() {
    if (fd_ >= 0) ::close(fd_);
}

void Client::send_request(const io::ServeRequest& req) {
    const std::vector<std::uint8_t> framed = io::frame(
        io::kStageServeReq, io::kServeReqVersion, io::encode_serve_request(req));
    if (!io::send_frame(fd_, framed))
        throw std::runtime_error("serve: server closed the connection");
}

io::ServeResponse Client::read_response() {
    const std::optional<std::vector<std::uint8_t>> frame = io::recv_frame(fd_);
    if (!frame)
        throw std::runtime_error(
            "serve: connection closed before a response arrived");
    return io::decode_serve_response(
        io::unframe(*frame, io::kStageServeResp, io::kServeRespVersion));
}

Estimate Client::estimate(const dataset::Sample& s) {
    const dataset::Sample* one[] = {&s};
    return estimate_batch(std::span<const dataset::Sample* const>(one, 1))[0];
}

std::vector<Estimate> Client::estimate_batch(
    std::span<const dataset::Sample* const> samples) {
    const std::vector<io::ServeResponse> resps = estimate_raw(samples);
    std::vector<Estimate> out;
    out.reserve(resps.size());
    for (const io::ServeResponse& r : resps) {
        if (r.status != 0)
            throw std::runtime_error("serve: estimate failed: " + r.error);
        out.push_back(Estimate{r.watts, r.member_spread});
    }
    return out;
}

std::vector<io::ServeResponse> Client::estimate_raw(
    std::span<const dataset::Sample* const> samples) {
    // Pipeline every request before reading anything back: the daemon's
    // admission queue sees them (near-)simultaneously and coalesces.
    std::unordered_map<std::uint64_t, std::size_t> index_of;
    index_of.reserve(samples.size());
    for (const dataset::Sample* s : samples) {
        io::ServeRequest req;
        req.id = next_id_++;
        req.op = io::ServeOp::Estimate;
        req.sample_payload = io::encode_sample(*s);
        index_of.emplace(req.id, index_of.size());
        send_request(req);
    }
    std::vector<io::ServeResponse> out(samples.size());
    for (std::size_t got = 0; got < samples.size(); ++got) {
        io::ServeResponse resp = read_response();
        const auto it = index_of.find(resp.id);
        if (it == index_of.end())
            throw std::runtime_error(
                "serve: response for unknown request id " +
                std::to_string(resp.id));
        out[it->second] = std::move(resp);
        index_of.erase(it);
    }
    return out;
}

io::ServeResponse Client::control(io::ServeOp op) {
    io::ServeRequest req;
    req.id = next_id_++;
    req.op = op;
    send_request(req);
    io::ServeResponse resp = read_response();
    if (resp.id != req.id)
        throw std::runtime_error("serve: control response id mismatch");
    return resp;
}

Client::ServerInfo Client::ping() {
    const io::ServeResponse resp = control(io::ServeOp::Ping);
    if (resp.status != 0)
        throw std::runtime_error("serve: ping failed: " + resp.error);
    return ServerInfo{resp.model_generation, resp.model_members};
}

Client::ServerInfo Client::reload() {
    const io::ServeResponse resp = control(io::ServeOp::Reload);
    if (resp.status != 0)
        throw std::runtime_error("serve: reload failed: " + resp.error);
    return ServerInfo{resp.model_generation, resp.model_members};
}

void Client::shutdown_server() {
    const io::ServeResponse resp = control(io::ServeOp::Shutdown);
    if (resp.status != 0)
        throw std::runtime_error("serve: shutdown failed: " + resp.error);
}

} // namespace powergear::core::serve
