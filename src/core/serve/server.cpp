#include "core/serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "io/serial.hpp"
#include "obs/obs.hpp"

namespace powergear::core::serve {

namespace {

/// The I/O thread's wake-up period: how often it rechecks the stop and
/// reload flags, and how long it leaves the listen socket alone when
/// accept() runs out of fds.
constexpr int kPollTickMs = 100;

/// Most bytes one wake reads off one connection, so a large frame cannot
/// monopolise the I/O thread.
constexpr std::size_t kReadChunk = 64 << 10;

/// Longest a response write may block on a client that stopped reading;
/// past it the client is shut down instead of stalling a daemon thread.
constexpr timeval kSendTimeout{2, 0};

/// accept() failures that an ordinary resource limit causes. They clear once
/// connections close, so the daemon waits them out instead of stopping.
bool transient_accept_error(int err) {
    return err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM;
}

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

Server::Conn::~Conn() { ::close(fd); }

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {
    if (cfg_.max_batch < 1)
        throw std::invalid_argument("serve: max_batch must be >= 1");
    if (cfg_.max_queue < cfg_.max_batch)
        throw std::invalid_argument("serve: max_queue must be >= max_batch");
    if (cfg_.batch_window_us < 0)
        throw std::invalid_argument("serve: batch_window_us must be >= 0");
}

Server::~Server() {
    poke_stop();
    wait();
}

void Server::start() {
    if (running())
        throw std::logic_error("serve: server already started");

    // Load the model first: a bad artifact must fail before the socket
    // exists, not after clients started connecting.
    auto model = std::make_shared<PowerGear>(PowerGear::Options{});
    model->load(cfg_.model_path);
    if (model->num_members() <= 0)
        throw std::runtime_error("serve: model artifact '" + cfg_.model_path +
                                 "' holds no trained members");
    {
        std::lock_guard<std::mutex> lock(model_mu_);
        state_.model = std::move(model);
        state_.generation = 1;
    }

    const sockaddr_un addr = io::unix_address(cfg_.socket_path);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        throw std::runtime_error(std::string("serve: socket() failed: ") +
                                 std::strerror(errno));
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0) {
        if (errno != EADDRINUSE) {
            const std::string msg = std::strerror(errno);
            ::close(listen_fd_);
            listen_fd_ = -1;
            throw std::runtime_error("serve: cannot bind " + cfg_.socket_path +
                                     ": " + msg);
        }
        // The path exists. A connect() probe distinguishes a live daemon
        // (refuse to fight over the socket) from a stale file left by a
        // crashed one (replace it).
        const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
        const bool alive =
            probe >= 0 &&
            ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0;
        if (probe >= 0) ::close(probe);
        if (alive) {
            ::close(listen_fd_);
            listen_fd_ = -1;
            throw std::runtime_error("serve: a daemon is already serving on " +
                                     cfg_.socket_path);
        }
        ::unlink(cfg_.socket_path.c_str());
        if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) != 0) {
            const std::string msg = std::strerror(errno);
            ::close(listen_fd_);
            listen_fd_ = -1;
            throw std::runtime_error("serve: cannot bind " + cfg_.socket_path +
                                     ": " + msg);
        }
    }
    // Non-blocking, so a connection that vanishes between poll() and
    // accept() cannot stall the I/O thread.
    if (::listen(listen_fd_, 128) != 0 ||
        ::fcntl(listen_fd_, F_SETFL, O_NONBLOCK) != 0) {
        const std::string msg = std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        ::unlink(cfg_.socket_path.c_str());
        throw std::runtime_error("serve: listen() failed: " + msg);
    }

    stop_flag_.store(false, std::memory_order_relaxed);
    reload_flag_.store(false, std::memory_order_relaxed);
    stopping_ = false; // a restarted server; no thread runs yet
    running_.store(true, std::memory_order_release);
    batcher_thread_ = std::thread(&Server::batcher_loop, this);
    io_thread_ = std::thread(&Server::io_loop, this);
}

void Server::run() {
    start();
    wait();
}

void Server::stop() {
    poke_stop();
    wait();
}

void Server::wait() {
    // The I/O thread sets stopping_ only after its last enqueue, so the
    // batcher drains what is left and exits after it.
    if (io_thread_.joinable()) io_thread_.join();
    if (batcher_thread_.joinable()) batcher_thread_.join();
    running_.store(false, std::memory_order_release);
}

std::uint64_t Server::reload() {
    // Build the replacement fully outside the lock: a slow or failing load
    // must never stall or corrupt in-flight estimation.
    auto fresh = std::make_shared<PowerGear>(PowerGear::Options{});
    fresh->load(cfg_.model_path);
    if (fresh->num_members() <= 0)
        throw std::runtime_error("serve: reload of '" + cfg_.model_path +
                                 "' produced no trained members");
    std::uint64_t gen;
    {
        std::lock_guard<std::mutex> lock(model_mu_);
        state_.model = std::move(fresh);
        gen = ++state_.generation;
    }
    n_reloads_.fetch_add(1, std::memory_order_relaxed);
    obs::add(obs::Phase::Serve, "reloads");
    return gen;
}

std::uint64_t Server::generation() const {
    std::lock_guard<std::mutex> lock(model_mu_);
    return state_.generation;
}

Server::Stats Server::stats() const {
    Stats s;
    s.requests = n_requests_.load(std::memory_order_relaxed);
    s.batches = n_batches_.load(std::memory_order_relaxed);
    s.reloads = n_reloads_.load(std::memory_order_relaxed);
    s.errors = n_errors_.load(std::memory_order_relaxed);
    return s;
}

Server::ModelState Server::model_snapshot() const {
    std::lock_guard<std::mutex> lock(model_mu_);
    return state_;
}

void Server::respond(Conn& conn, const io::ServeResponse& resp) {
    const std::vector<std::uint8_t> frame =
        io::frame(io::kStageServeResp, io::kServeRespVersion,
                  io::encode_serve_response(resp));
    std::lock_guard<std::mutex> lock(conn.write_mu);
    bool sent = false;
    try {
        sent = io::send_frame(conn.fd, frame);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "serve: dropping a client: %s\n", e.what());
    }
    // A vanished or non-reading client is its problem, not the daemon's:
    // shut it down; the I/O thread then sees EOF and lets go of it.
    if (!sent) ::shutdown(conn.fd, SHUT_RDWR);
}

void Server::respond_error(Conn& conn, const std::string& what,
                           std::uint64_t id, io::ServeOp op) {
    n_errors_.fetch_add(1, std::memory_order_relaxed);
    obs::add(obs::Phase::Serve, "errors");
    io::ServeResponse err;
    err.id = id;
    err.op = op;
    err.status = 1;
    err.error = what;
    respond(conn, err);
}

io::ServeResponse Server::handle_control(const io::ServeRequest& req) {
    io::ServeResponse resp;
    resp.id = req.id;
    resp.op = req.op;
    switch (req.op) {
    case io::ServeOp::Ping:
    case io::ServeOp::Shutdown: {
        const ModelState ms = model_snapshot();
        resp.model_generation = ms.generation;
        resp.model_members =
            static_cast<std::uint32_t>(ms.model->num_members());
        break;
    }
    case io::ServeOp::Reload:
        try {
            resp.model_generation = reload();
            const ModelState ms = model_snapshot();
            resp.model_members =
                static_cast<std::uint32_t>(ms.model->num_members());
        } catch (const std::exception& e) {
            resp.status = 1;
            resp.error = e.what();
            n_errors_.fetch_add(1, std::memory_order_relaxed);
            obs::add(obs::Phase::Serve, "errors");
        }
        break;
    case io::ServeOp::Estimate:
        resp.status = 1;
        resp.error = "serve: estimate is not a control op";
        break;
    }
    return resp;
}

void Server::io_loop() {
    std::vector<std::shared_ptr<Conn>> conns;
    std::vector<pollfd> fds;
    auto accept_resume = std::chrono::steady_clock::time_point{};
    bool backing_off = false;
    while (!stop_flag_.load(std::memory_order_relaxed)) {
        // SIGHUP lands here: the handler only flips the atomic, the swap
        // itself runs on this thread with full library access.
        if (reload_flag_.exchange(false, std::memory_order_relaxed)) {
            try {
                reload();
            } catch (const std::exception& e) {
                std::fprintf(stderr, "serve: reload failed: %s\n", e.what());
                n_errors_.fetch_add(1, std::memory_order_relaxed);
                obs::add(obs::Phase::Serve, "reload_errors");
            }
        }
        // poll() skips negative fds: that is how an accept back-off leaves
        // the listen socket out of one tick.
        const bool accepting =
            std::chrono::steady_clock::now() >= accept_resume;
        fds.assign(1, pollfd{accepting ? listen_fd_ : -1, POLLIN, 0});
        for (const std::shared_ptr<Conn>& c : conns)
            fds.push_back(pollfd{c->fd, POLLIN, 0});
        if (::poll(fds.data(), fds.size(), kPollTickMs) < 0) {
            if (errno == EINTR) continue;
            std::fprintf(stderr, "serve: poll() failed: %s\n",
                         std::strerror(errno));
            break;
        }

        // A finished connection drops out here; its fd closes once no
        // queued request still holds it.
        for (std::size_t i = 1; i < fds.size(); ++i)
            if (fds[i].revents != 0 && !read_some(conns[i - 1]))
                conns[i - 1].reset();
        std::erase(conns, nullptr);

        if ((fds[0].revents & POLLIN) == 0) continue;
        const int cfd = ::accept(listen_fd_, nullptr, nullptr);
        if (cfd >= 0) {
            backing_off = false;
            ::setsockopt(cfd, SOL_SOCKET, SO_SNDTIMEO, &kSendTimeout,
                         sizeof kSendTimeout);
            conns.push_back(std::make_shared<Conn>(cfd));
        } else if (transient_accept_error(errno)) {
            // The connection stays queued in the backlog; retry after one
            // tick. Logged once per episode, not once per retry.
            if (!backing_off)
                std::fprintf(stderr,
                             "serve: accept() failed: %s; backing off\n",
                             std::strerror(errno));
            backing_off = true;
            obs::add(obs::Phase::Serve, "accept_backoffs");
            accept_resume = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(kPollTickMs);
        } else if (errno != EINTR && errno != ECONNABORTED &&
                   errno != EAGAIN && errno != EWOULDBLOCK) {
            std::fprintf(stderr, "serve: accept() failed: %s\n",
                         std::strerror(errno));
            break;
        }
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(cfg_.socket_path.c_str());

    // Drain: frames that already arrived are still answered. Read every
    // connection until it has nothing more or ends, then tell the batcher
    // that no request can follow.
    for (const std::shared_ptr<Conn>& c : conns) {
        pollfd p{c->fd, POLLIN, 0};
        while (::poll(&p, 1, 0) == 1 && read_some(c)) {
        }
    }
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        stopping_ = true;
    }
    queue_cv_.notify_all();
}

bool Server::read_some(const std::shared_ptr<Conn>& conn) {
    // Read no further than the end of the current frame: the buffer holds
    // at most one frame, and the rest of a pipelined burst waits in the
    // socket rather than in daemon memory.
    std::vector<std::uint8_t>& in = conn->in;
    const std::size_t have = in.size();
    const std::size_t want = have < io::kHeaderSize
                                 ? io::kHeaderSize
                                 : io::frame_size(in.data(), have);
    in.resize(have + std::min(want - have, kReadChunk));
    const ssize_t k =
        ::recv(conn->fd, in.data() + have, in.size() - have, MSG_DONTWAIT);
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        in.resize(have);
        return true;
    }
    in.resize(have + static_cast<std::size_t>(std::max<ssize_t>(k, 0)));
    try {
        if (k <= 0) { // orderly close, reset, or our own shutdown
            if (have > 0) throw io::truncated_frame(in.data(), have);
            return false;
        }
        const std::size_t size = io::frame_size(in.data(), in.size());
        if (size != 0 && size == in.size())
            handle_frame(conn, std::exchange(in, {}));
    } catch (const std::exception& e) {
        // Bad magic / truncated stream: frame boundaries are lost, so
        // report once and drop the connection.
        respond_error(*conn, e.what());
        ::shutdown(conn->fd, SHUT_RDWR);
        return false;
    }
    return true;
}

void Server::handle_frame(const std::shared_ptr<Conn>& conn,
                          const std::vector<std::uint8_t>& frame) {
    io::ServeRequest req;
    try {
        req = io::decode_serve_request(
            io::unframe(frame, io::kStageServeReq, io::kServeReqVersion));
    } catch (const std::exception& e) {
        // The frame was complete, so the stream stays in sync: answer with
        // a diagnostic and keep serving.
        respond_error(*conn, e.what());
        return;
    }

    if (req.op != io::ServeOp::Estimate) {
        const io::ServeResponse resp = handle_control(req);
        respond(*conn, resp);
        if (req.op == io::ServeOp::Shutdown && resp.status == 0) poke_stop();
        return;
    }

    Pending p;
    p.conn = conn;
    p.id = req.id;
    try {
        p.sample = io::decode_sample(req.sample_payload);
    } catch (const std::exception& e) {
        respond_error(*conn, e.what(), req.id, req.op);
        return;
    }
    p.enqueue_ns = now_ns();
    {
        std::unique_lock<std::mutex> lock(queue_mu_);
        // Backpressure: a full admission queue pauses all reads instead of
        // dropping or buffering unboundedly.
        space_cv_.wait(lock, [&] {
            return static_cast<int>(queue_.size()) < cfg_.max_queue;
        });
        queue_.push_back(std::move(p));
    }
    queue_cv_.notify_one();
}

void Server::batcher_loop() {
    for (;;) {
        std::vector<Pending> batch;
        {
            std::unique_lock<std::mutex> lock(queue_mu_);
            queue_cv_.wait(lock,
                           [&] { return !queue_.empty() || stopping_; });
            if (queue_.empty()) break; // drained and nothing can refill it

            // Coalescing linger: once one request is pending, give
            // concurrent connections batch_window_us to land theirs so one
            // estimate_batch fan-out covers them all. Never linger during
            // drain — latency matters more than batch shape then.
            if (static_cast<int>(queue_.size()) < cfg_.max_batch &&
                cfg_.batch_window_us > 0 && !stopping_) {
                queue_cv_.wait_for(
                    lock, std::chrono::microseconds(cfg_.batch_window_us),
                    [&] {
                        return static_cast<int>(queue_.size()) >=
                                   cfg_.max_batch ||
                               stopping_;
                    });
            }
            const std::size_t n =
                std::min(queue_.size(),
                         static_cast<std::size_t>(cfg_.max_batch));
            batch.reserve(n);
            for (std::size_t i = 0; i < n; ++i) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
        }
        space_cv_.notify_all();

        // One snapshot per batch: the swap boundary is exactly a batch
        // boundary, so every response in it names one model generation and
        // a concurrent reload can never mix members within a request.
        const ModelState ms = model_snapshot();
        std::vector<const dataset::Sample*> ptrs;
        ptrs.reserve(batch.size());
        for (const Pending& p : batch) ptrs.push_back(&p.sample);
        const SamplePool pool{SamplePool::View(ptrs.data(), ptrs.size())};

        std::vector<Estimate> ests;
        std::string failure;
        try {
            ests = ms.model->estimate_batch(pool);
        } catch (const std::exception& e) {
            failure = e.what();
        }
        n_batches_.fetch_add(1, std::memory_order_relaxed);
        obs::add(obs::Phase::Serve, "batches");

        const std::uint64_t done_ns = now_ns();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            io::ServeResponse resp;
            resp.id = batch[i].id;
            resp.op = io::ServeOp::Estimate;
            resp.model_generation = ms.generation;
            if (failure.empty()) {
                resp.watts = ests[i].watts;
                resp.member_spread = ests[i].member_spread;
                n_requests_.fetch_add(1, std::memory_order_relaxed);
                obs::add(obs::Phase::Serve, "requests");
            } else {
                resp.status = 1;
                resp.error = failure;
                n_errors_.fetch_add(1, std::memory_order_relaxed);
                obs::add(obs::Phase::Serve, "errors");
            }
            respond(*batch[i].conn, resp);
            obs::record(obs::Phase::Serve,
                        static_cast<double>(done_ns - batch[i].enqueue_ns) *
                            1e-9);
        }
    }
}

} // namespace powergear::core::serve
