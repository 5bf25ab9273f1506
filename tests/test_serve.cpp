// Serve daemon tests: wire codec round trips, malformed-frame rejection on
// a live socket, request coalescing (bit-identical to a serial
// estimate_batch), model hot-swap atomicity under concurrent load, and
// socket lifecycle (stale-file takeover, live-daemon refusal, clean drain),
// and surviving fd exhaustion on accept.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/powergear.hpp"
#include "core/serve/client.hpp"
#include "core/serve/server.hpp"
#include "dataset/generator.hpp"
#include "dataset/splits.hpp"
#include "io/serial.hpp"
#include "io/wire.hpp"

using namespace powergear;
using core::serve::Client;
using core::serve::Server;
using core::serve::ServerConfig;

namespace {

/// Unique short socket path per test (sun_path is ~108 bytes).
std::string fresh_socket_path() {
    static std::atomic<int> counter{0};
    return "/tmp/pgserve_t" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

struct TempFile {
    std::string path;
    explicit TempFile(const std::string& p) : path(p) {}
    ~TempFile() { std::remove(path.c_str()); }
};

core::PowerGear::Options tiny_opts() {
    core::PowerGear::Options o;
    o.kind = dataset::PowerKind::Total;
    o.hidden = 8;
    o.epochs = 2;
    o.folds = 2;
    o.seeds = 1;
    return o;
}

dataset::Dataset tiny_dataset(const char* kernel, int n = 8) {
    dataset::GeneratorOptions o;
    o.samples_per_dataset = n;
    o.problem_size = 8;
    return dataset::generate_dataset(kernel, o);
}

/// Two distinct trained models (different training kernels, so they answer
/// differently), a shared eval pool, and the serial ground-truth answers of
/// each model on it. Built once; the hot-swap test alternates the two
/// artifacts on disk to make the swap boundary observable.
struct ServeWorld {
    dataset::Dataset eval = tiny_dataset("mvt", 6);
    core::PowerGear model_a{tiny_opts()};
    core::PowerGear model_b{tiny_opts()};
    std::vector<std::uint8_t> artifact_a, artifact_b;
    std::vector<core::Estimate> expect_a, expect_b;

    ServeWorld() {
        model_a.fit(dataset::pool_of(tiny_dataset("atax")));
        model_b.fit(dataset::pool_of(tiny_dataset("bicg")));
        const core::SamplePool pool = dataset::pool_of(eval);
        expect_a = model_a.estimate_batch(pool);
        expect_b = model_b.estimate_batch(pool);
        const std::string tmp =
            "/tmp/pgserve_world_" + std::to_string(::getpid()) + ".pgm";
        model_a.save(tmp);
        artifact_a = *io::read_file(tmp);
        model_b.save(tmp);
        artifact_b = *io::read_file(tmp);
        std::remove(tmp.c_str());
    }
};

const ServeWorld& world() {
    static const ServeWorld w;
    return w;
}

std::vector<const dataset::Sample*> eval_ptrs() {
    std::vector<const dataset::Sample*> ptrs;
    for (const auto& s : world().eval.samples) ptrs.push_back(&s);
    return ptrs;
}

/// Write one of the two trained artifacts to `path` (atomically, like every
/// artifact write).
void put_model(const std::string& path, bool a) {
    io::write_file_atomic(path, a ? world().artifact_a : world().artifact_b);
}

/// Raw connection for crafting malformed traffic below the Client layer.
struct RawConn {
    int fd = -1;
    explicit RawConn(const std::string& path) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof addr),
                  0)
            << std::strerror(errno);
    }
    ~RawConn() {
        if (fd >= 0) ::close(fd);
    }
    void send_bytes(const std::vector<std::uint8_t>& bytes) {
        ASSERT_TRUE(io::send_frame(fd, bytes)); // plain exact write
    }
    io::ServeResponse read_response() {
        const auto frame = io::recv_frame(fd);
        if (!frame) throw std::runtime_error("connection closed");
        return io::decode_serve_response(
            io::unframe(*frame, io::kStageServeResp, io::kServeRespVersion));
    }
};

std::vector<std::uint8_t> framed_ping(std::uint64_t id) {
    io::ServeRequest req;
    req.id = id;
    req.op = io::ServeOp::Ping;
    return io::frame(io::kStageServeReq, io::kServeReqVersion,
                     io::encode_serve_request(req));
}

} // namespace

TEST(ServeWire, RequestAndResponseRoundTripBitExact) {
    io::ServeRequest req;
    req.id = 0xDEADBEEFCAFEull;
    req.op = io::ServeOp::Estimate;
    req.sample_payload = io::encode_sample(world().eval.samples.front());
    const io::ServeRequest back =
        io::decode_serve_request(io::encode_serve_request(req));
    EXPECT_EQ(back.id, req.id);
    EXPECT_EQ(back.op, req.op);
    EXPECT_EQ(back.sample_payload, req.sample_payload);

    io::ServeResponse resp;
    resp.id = 7;
    resp.op = io::ServeOp::Estimate;
    resp.status = 0;
    resp.watts = 0.123456789012345;
    resp.member_spread = 3.9e-17;
    resp.model_generation = 42;
    resp.model_members = 6;
    const io::ServeResponse rback =
        io::decode_serve_response(io::encode_serve_response(resp));
    EXPECT_EQ(rback.id, resp.id);
    EXPECT_EQ(rback.status, resp.status);
    // Bit-exact doubles, the same guarantee every artifact codec gives.
    EXPECT_EQ(std::memcmp(&rback.watts, &resp.watts, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&rback.member_spread, &resp.member_spread,
                          sizeof(double)),
              0);
    EXPECT_EQ(rback.model_generation, resp.model_generation);
    EXPECT_EQ(rback.model_members, resp.model_members);

    io::ServeResponse err;
    err.id = 9;
    err.op = io::ServeOp::Reload;
    err.status = 1;
    err.error = "serve: reload failed";
    EXPECT_EQ(io::decode_serve_response(io::encode_serve_response(err)).error,
              err.error);
}

TEST(ServeWire, DecodeRejectsBadPayloads) {
    // Unknown op byte.
    io::ServeRequest req;
    req.id = 1;
    req.op = io::ServeOp::Ping;
    std::vector<std::uint8_t> bytes = io::encode_serve_request(req);
    bytes[8] = 99; // op byte follows the 8-byte id
    EXPECT_THROW(io::decode_serve_request(bytes), std::runtime_error);
    // Estimate without a sample.
    io::ServeRequest empty;
    empty.op = io::ServeOp::Estimate;
    EXPECT_THROW(io::decode_serve_request(io::encode_serve_request(empty)),
                 std::runtime_error);
    // Trailing garbage.
    bytes = io::encode_serve_request(req);
    bytes.push_back(0);
    EXPECT_THROW(io::decode_serve_request(bytes), std::runtime_error);
}

TEST(ServeSocket, MalformedFramesRejectedSixWays) {
    const std::string sock = fresh_socket_path();
    const std::string model = sock + ".pgm";
    TempFile model_guard(model);
    put_model(model, true);
    Server server(ServerConfig{sock, model});
    server.start();

    const std::vector<std::uint8_t> good = framed_ping(1);

    // Frame-complete defects: the server answers with the unframe
    // diagnostic and KEEPS the connection (stream stays in sync).
    struct InSyncCase {
        const char* name;
        std::vector<std::uint8_t> bytes;
        const char* diagnostic;
    };
    std::vector<InSyncCase> in_sync;
    {
        // 1. stage mismatch: a response frame where a request belongs.
        io::ServeResponse resp;
        in_sync.push_back({"stage", io::frame(io::kStageServeResp,
                                              io::kServeRespVersion,
                                              io::encode_serve_response(resp)),
                           "stage mismatch"});
        // 2. wrong payload version.
        io::ServeRequest ping;
        ping.id = 2;
        in_sync.push_back(
            {"version", io::frame(io::kStageServeReq, io::kServeReqVersion + 7,
                                  io::encode_serve_request(ping)),
             "unsupported"});
        // 3. corrupt payload byte -> checksum mismatch.
        std::vector<std::uint8_t> corrupt = framed_ping(3);
        corrupt.back() ^= 0xFF;
        in_sync.push_back({"checksum", corrupt, "checksum mismatch"});
        // 4. defect below the frame layer: unknown op in a valid frame.
        io::ServeRequest bad_op;
        bad_op.id = 4;
        std::vector<std::uint8_t> payload = io::encode_serve_request(bad_op);
        payload[8] = 99;
        in_sync.push_back({"op", io::frame(io::kStageServeReq,
                                           io::kServeReqVersion, payload),
                           "unknown request op"});
    }
    for (const InSyncCase& c : in_sync) {
        SCOPED_TRACE(c.name);
        RawConn conn(sock);
        conn.send_bytes(c.bytes);
        const io::ServeResponse err = conn.read_response();
        EXPECT_EQ(err.status, 1);
        EXPECT_NE(err.error.find(c.diagnostic), std::string::npos)
            << err.error;
        // The stream is still usable: a good ping on the same connection.
        conn.send_bytes(good);
        EXPECT_EQ(conn.read_response().status, 0);
    }

    // Stream-breaking defects: the server answers once, then drops the
    // connection (frame boundaries are lost).
    {
        SCOPED_TRACE("bad magic");
        RawConn conn(sock);
        std::vector<std::uint8_t> bad = good;
        bad[0] ^= 0xFF;
        conn.send_bytes(bad);
        const io::ServeResponse err = conn.read_response();
        EXPECT_EQ(err.status, 1);
        EXPECT_NE(err.error.find("malformed frame header"), std::string::npos)
            << err.error;
        EXPECT_FALSE(io::recv_frame(conn.fd).has_value()); // server hung up
    }
    {
        SCOPED_TRACE("truncated header");
        RawConn conn(sock);
        conn.send_bytes({good.begin(), good.begin() + 10});
        ::shutdown(conn.fd, SHUT_WR);
        const io::ServeResponse err = conn.read_response();
        EXPECT_EQ(err.status, 1);
        EXPECT_NE(err.error.find("truncated inside a frame header"),
                  std::string::npos)
            << err.error;
    }
    {
        SCOPED_TRACE("truncated payload");
        RawConn conn(sock);
        conn.send_bytes({good.begin(), good.end() - 3});
        ::shutdown(conn.fd, SHUT_WR);
        const io::ServeResponse err = conn.read_response();
        EXPECT_EQ(err.status, 1);
        EXPECT_NE(err.error.find("truncated inside a frame payload"),
                  std::string::npos)
            << err.error;
    }

    // The daemon survived all of it.
    Client client(sock);
    EXPECT_EQ(client.ping().generation, 1u);
    EXPECT_GT(server.stats().errors, 0u);
    server.stop();
}

TEST(ServeSocket, CoalescedAnswersAreBitIdenticalToSerial) {
    const std::string sock = fresh_socket_path();
    const std::string model = sock + ".pgm";
    TempFile model_guard(model);
    put_model(model, true);
    ServerConfig cfg{sock, model};
    cfg.batch_window_us = 2000; // encourage coalescing across connections
    Server server(cfg);
    server.start();

    const std::vector<const dataset::Sample*> ptrs = eval_ptrs();
    const std::vector<core::Estimate>& expect = world().expect_a;

    // One pipelined connection: every answer bit-identical to the serial
    // estimate_batch of the same model.
    {
        Client client(sock);
        const std::vector<core::Estimate> got = client.estimate_batch(
            std::span<const dataset::Sample* const>(ptrs.data(), ptrs.size()));
        ASSERT_EQ(got.size(), expect.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].watts, expect[i].watts) << i;
            EXPECT_EQ(got[i].member_spread, expect[i].member_spread) << i;
        }
    }

    // Four concurrent connections hammering the same pool: coalescing mixes
    // their samples into shared batches, and every answer must still be
    // bit-identical (per-sample results are independent of batch shape).
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&] {
            Client client(sock);
            for (int round = 0; round < 3; ++round) {
                const std::vector<core::Estimate> got = client.estimate_batch(
                    std::span<const dataset::Sample* const>(ptrs.data(),
                                                            ptrs.size()));
                for (std::size_t i = 0; i < got.size(); ++i)
                    if (got[i].watts != expect[i].watts ||
                        got[i].member_spread != expect[i].member_spread)
                        mismatches.fetch_add(1);
            }
        });
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(server.stats().errors, 0u);
    server.stop();
    // Coalescing actually happened: fewer batches than requests.
    EXPECT_GT(server.stats().requests, server.stats().batches);
}

TEST(ServeSocket, HotSwapIsAtomicWithZeroFailuresAcross100Reloads) {
    const std::string sock = fresh_socket_path();
    const std::string model = sock + ".pgm";
    TempFile model_guard(model);
    put_model(model, true); // generation 1 = model A
    Server server(ServerConfig{sock, model});
    server.start();

    const std::vector<const dataset::Sample*> ptrs = eval_ptrs();
    constexpr int kReloads = 120;

    std::atomic<bool> done{false};
    std::atomic<int> failures{0};
    std::atomic<int> boundary_violations{0};
    std::atomic<std::uint64_t> answered{0};

    std::vector<std::thread> clients;
    for (int t = 0; t < 3; ++t)
        clients.emplace_back([&] {
            Client client(sock);
            bool last_round = false;
            // do/while + a final round after `done`: every thread checks at
            // least one full sweep even if the reloader finishes first.
            while (!last_round) {
                last_round = done.load(std::memory_order_relaxed);
                const std::vector<io::ServeResponse> got = client.estimate_raw(
                    std::span<const dataset::Sample* const>(ptrs.data(),
                                                            ptrs.size()));
                for (std::size_t i = 0; i < got.size(); ++i) {
                    if (got[i].status != 0) {
                        failures.fetch_add(1);
                        continue;
                    }
                    // Reload r installs model B when r is odd, A when even,
                    // so generation g (= r+1) serves A when odd, B when
                    // even. An answer inconsistent with the generation it
                    // names would mean a torn swap.
                    const std::vector<core::Estimate>& expect =
                        (got[i].model_generation % 2 == 1) ? world().expect_a
                                                           : world().expect_b;
                    if (got[i].watts != expect[i].watts ||
                        got[i].member_spread != expect[i].member_spread)
                        boundary_violations.fetch_add(1);
                    answered.fetch_add(1);
                }
            }
        });

    for (int r = 1; r <= kReloads; ++r) {
        put_model(model, r % 2 == 0); // odd reload -> B, even -> A
        EXPECT_EQ(server.reload(), static_cast<std::uint64_t>(r) + 1);
    }
    done.store(true);
    for (std::thread& t : clients) t.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(boundary_violations.load(), 0);
    EXPECT_GT(answered.load(), 0u);
    EXPECT_EQ(server.stats().reloads, static_cast<std::uint64_t>(kReloads));
    EXPECT_EQ(server.stats().errors, 0u);
    EXPECT_EQ(server.generation(), static_cast<std::uint64_t>(kReloads) + 1);
    server.stop();
}

TEST(ServeSocket, ShutdownRequestDrainsCleanly) {
    const std::string sock = fresh_socket_path();
    const std::string model = sock + ".pgm";
    TempFile model_guard(model);
    put_model(model, true);
    Server server(ServerConfig{sock, model});
    server.start();

    Client client(sock);
    const core::Estimate e = client.estimate(world().eval.samples.front());
    EXPECT_EQ(e.watts, world().expect_a.front().watts);
    client.shutdown_server();
    server.wait();
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.stats().requests, 1u);
    // Socket file removed on drain.
    EXPECT_NE(::access(sock.c_str(), F_OK), 0);
}

// Running out of fds is ordinary load, not a reason to stop serving. Lower
// RLIMIT_NOFILE, fill the fd table, queue one more connection so the
// daemon's accept() fails with EMFILE, then free some fds: the queued
// connection and a fresh client must both be served.
TEST(ServeSocket, SurvivesFdExhaustionOnAccept) {
    const std::string sock = fresh_socket_path();
    const std::string model = sock + ".pgm";
    TempFile model_guard(model);
    put_model(model, true); // also builds world() while fds are plentiful
    Server server(ServerConfig{sock, model});
    server.start();

    // Restores the fd limit and closes every filler fd, even when an
    // assertion returns early.
    struct FdPressure {
        rlimit saved{};
        std::vector<int> fillers;
        FdPressure() = default;
        FdPressure(const FdPressure&) = delete;
        FdPressure& operator=(const FdPressure&) = delete;
        ~FdPressure() {
            for (int fd : fillers) ::close(fd);
            ::setrlimit(RLIMIT_NOFILE, &saved);
        }
    } pressure;
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &pressure.saved), 0);
    const int probe = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(probe, 0);
    pressure.fillers.push_back(probe);
    rlimit low = pressure.saved;
    low.rlim_cur =
        std::min<rlim_t>(low.rlim_cur, static_cast<rlim_t>(probe) + 48);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);

    // Live connections first; a ping round trip proves each was accepted.
    std::vector<std::unique_ptr<RawConn>> live;
    for (std::uint64_t i = 0; i < 8; ++i) {
        live.push_back(std::make_unique<RawConn>(sock));
        live.back()->send_bytes(framed_ping(i));
        ASSERT_EQ(live.back()->read_response().id, i);
    }
    // Then fill every remaining slot.
    for (int fd; (fd = ::dup(probe)) >= 0;) pressure.fillers.push_back(fd);
    ASSERT_EQ(errno, EMFILE);
    ASSERT_GT(pressure.fillers.size(), 8u);

    // Free exactly one slot and take it for a new client socket. The daemon
    // has nothing pending to accept, so the slot is ours; the connection
    // then waits in the backlog while every accept() fails with EMFILE.
    ::close(pressure.fillers.back());
    pressure.fillers.pop_back();
    RawConn queued(sock);
    const timeval timeout{5, 0};
    ASSERT_EQ(::setsockopt(queued.fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof timeout),
              0);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    for (int i = 0; i < 8; ++i) {
        ::close(pressure.fillers.back());
        pressure.fillers.pop_back();
    }
    try {
        queued.send_bytes(framed_ping(99));
        EXPECT_EQ(queued.read_response().id, 99u);
        Client client(sock);
        EXPECT_EQ(client.ping().generation, 1u);
        const core::Estimate e = client.estimate(world().eval.samples.front());
        EXPECT_EQ(e.watts, world().expect_a.front().watts);
    } catch (const std::exception& e) {
        ADD_FAILURE() << "daemon stopped serving after fd exhaustion: "
                      << e.what();
    }
    live.clear();
    server.stop();
}

TEST(ServeSocket, StaleSocketReplacedLiveDaemonRefused) {
    const std::string sock = fresh_socket_path();
    const std::string model = sock + ".pgm";
    TempFile model_guard(model);
    put_model(model, true);

    // A dead daemon's leftover: a bound-but-unserved socket file.
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof addr),
                  0);
        ::close(fd); // no unlink: the file stays behind
    }
    Server server(ServerConfig{sock, model});
    server.start(); // must take over the stale file

    // A second daemon on a LIVE socket must refuse.
    Server intruder(ServerConfig{sock, model});
    try {
        intruder.start();
        FAIL() << "second daemon bound over a live one";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("already serving"),
                  std::string::npos);
    }
    Client client(sock);
    EXPECT_EQ(client.ping().members, 2u);
    server.stop();
}

TEST(ServeSocket, ConfigValidation) {
    ServerConfig bad{"/tmp/x.sock", "/tmp/x.pgm"};
    bad.max_batch = 0;
    EXPECT_THROW(Server{bad}, std::invalid_argument);
    ServerConfig bad2{"/tmp/x.sock", "/tmp/x.pgm"};
    bad2.max_queue = 1;
    bad2.max_batch = 8;
    EXPECT_THROW(Server{bad2}, std::invalid_argument);
    Server missing(ServerConfig{fresh_socket_path(), "/nonexistent/m.pgm"});
    EXPECT_THROW(missing.start(), std::exception);
}
