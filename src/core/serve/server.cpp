#include "core/serve/server.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "io/serial.hpp"
#include "obs/obs.hpp"

namespace powergear::core::serve {

namespace {

/// The accept loop's wake-up period: how often it rechecks the stop and
/// reload flags, and how long it backs off when accept() runs out of fds.
constexpr int kPollTickMs = 100;

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

/// Fill a sockaddr_un for `path`, rejecting paths the address cannot hold.
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

} // namespace

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

    const sockaddr_un addr = unix_address(cfg_.socket_path);
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
    if (::listen(listen_fd_, 128) != 0) {
        const std::string msg = std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        ::unlink(cfg_.socket_path.c_str());
        throw std::runtime_error("serve: listen() failed: " + msg);
    }

    stop_flag_.store(false, std::memory_order_relaxed);
    reload_flag_.store(false, std::memory_order_relaxed);
    running_.store(true, std::memory_order_release);
    batcher_thread_ = std::thread(&Server::batcher_loop, this);
    accept_thread_ = std::thread(&Server::accept_loop, this);
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
    // Join order mirrors the dependency chain: the accept thread initiates
    // shutdown and stops spawning readers, readers stop feeding the queue,
    // and the batcher drains what is left before exiting.
    if (accept_thread_.joinable()) accept_thread_.join();
    {
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (std::thread& t : reader_threads_)
            if (t.joinable()) t.join();
    }
    if (batcher_thread_.joinable()) batcher_thread_.join();
    {
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (const std::shared_ptr<Conn>& c : conns_)
            if (c->fd >= 0) ::close(c->fd);
        conns_.clear();
        reader_threads_.clear();
    }
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
    // A vanished client is its problem, not the daemon's: send_frame
    // returns false on EPIPE and the reader will see EOF and clean up.
    (void)io::send_frame(conn.fd, frame);
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

void Server::accept_loop() {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
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
        const int r = ::poll(&pfd, 1, kPollTickMs);
        if (r < 0) {
            if (errno == EINTR) continue;
            std::fprintf(stderr, "serve: poll() failed: %s\n",
                         std::strerror(errno));
            break;
        }
        if (r == 0) continue;
        const int cfd = ::accept(listen_fd_, nullptr, nullptr);
        if (cfd < 0) {
            if (errno == EINTR || errno == ECONNABORTED) continue;
            if (transient_accept_error(errno)) {
                // The connection stays queued in the backlog; retry after
                // one tick. Logged once per episode, not once per retry.
                if (!backing_off)
                    std::fprintf(stderr,
                                 "serve: accept() failed: %s; backing off\n",
                                 std::strerror(errno));
                backing_off = true;
                obs::add(obs::Phase::Serve, "accept_backoffs");
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(kPollTickMs));
                continue;
            }
            std::fprintf(stderr, "serve: accept() failed: %s\n",
                         std::strerror(errno));
            break;
        }
        backing_off = false;
        auto conn = std::make_shared<Conn>();
        conn->fd = cfd;
        {
            // Count the reader before it exists so the batcher's
            // "all readers done" drain condition can never observe a
            // spawned-but-uncounted thread.
            std::lock_guard<std::mutex> lock(queue_mu_);
            ++active_readers_;
        }
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns_.push_back(conn);
        reader_threads_.emplace_back(&Server::reader_loop, this, conn);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(cfg_.socket_path.c_str());
    begin_shutdown();
}

void Server::begin_shutdown() {
    {
        // Wake readers blocked in recv_frame: their next read returns EOF.
        // Write sides stay open so queued requests still get answers.
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (const std::shared_ptr<Conn>& c : conns_)
            if (c->fd >= 0) ::shutdown(c->fd, SHUT_RD);
    }
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        stopping_ = true;
    }
    queue_cv_.notify_all();
    space_cv_.notify_all();
}

void Server::reader_loop(std::shared_ptr<Conn> conn) {
    for (;;) {
        std::optional<std::vector<std::uint8_t>> frame;
        try {
            frame = io::recv_frame(conn->fd);
        } catch (const std::exception& e) {
            // Bad magic / truncated stream: frame boundaries are lost, so
            // report once and drop the connection.
            n_errors_.fetch_add(1, std::memory_order_relaxed);
            obs::add(obs::Phase::Serve, "errors");
            io::ServeResponse err;
            err.status = 1;
            err.error = e.what();
            respond(*conn, err);
            // Drop the connection: shutdown (not close) so the client sees
            // EOF now, while the fd stays valid for wait() to close — a
            // racing respond() on it gets EPIPE, never a recycled fd.
            ::shutdown(conn->fd, SHUT_RDWR);
            break;
        }
        if (!frame) break; // clean EOF

        io::ServeRequest req;
        try {
            const std::vector<std::uint8_t> payload = io::unframe(
                *frame, io::kStageServeReq, io::kServeReqVersion);
            req = io::decode_serve_request(payload);
        } catch (const std::exception& e) {
            // The frame was complete (recv_frame succeeded), so the stream
            // stays in sync: answer with a diagnostic and keep serving.
            n_errors_.fetch_add(1, std::memory_order_relaxed);
            obs::add(obs::Phase::Serve, "errors");
            io::ServeResponse err;
            err.status = 1;
            err.error = e.what();
            respond(*conn, err);
            continue;
        }

        if (req.op != io::ServeOp::Estimate) {
            const io::ServeResponse resp = handle_control(req);
            respond(*conn, resp);
            if (req.op == io::ServeOp::Shutdown && resp.status == 0)
                poke_stop();
            continue;
        }

        Pending p;
        p.conn = conn;
        p.id = req.id;
        try {
            p.sample = io::decode_sample(req.sample_payload);
        } catch (const std::exception& e) {
            n_errors_.fetch_add(1, std::memory_order_relaxed);
            obs::add(obs::Phase::Serve, "errors");
            io::ServeResponse err;
            err.id = req.id;
            err.op = req.op;
            err.status = 1;
            err.error = e.what();
            respond(*conn, err);
            continue;
        }
        p.enqueue_ns = now_ns();
        {
            std::unique_lock<std::mutex> lock(queue_mu_);
            // Backpressure: a full admission queue blocks this connection's
            // reads instead of dropping or buffering unboundedly.
            space_cv_.wait(lock, [&] {
                return static_cast<int>(queue_.size()) < cfg_.max_queue ||
                       stopping_;
            });
            queue_.push_back(std::move(p));
        }
        queue_cv_.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        --active_readers_;
    }
    queue_cv_.notify_all();
}

void Server::batcher_loop() {
    for (;;) {
        std::vector<Pending> batch;
        {
            std::unique_lock<std::mutex> lock(queue_mu_);
            queue_cv_.wait(lock, [&] {
                return !queue_.empty() ||
                       (stopping_ && active_readers_ == 0);
            });
            if (queue_.empty()) break; // drained and no reader can refill

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
