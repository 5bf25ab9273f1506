// powergear serve — long-lived batched estimation daemon.
//
// A Server loads an ensemble artifact once and answers estimation requests
// over a Unix-domain socket, so repeated queries (a DSE inner loop, a CI
// power check, many concurrent tools) stop paying process startup and model
// load per call. The wire protocol is io/wire: powergear-art-v1 frames with
// "req"/"resp" stage tags and per-frame checksums.
//
// Threading model (two threads at any connection count; all shared state
// mutex/cv-guarded, TSan-clean):
//
//   I/O thread         poll()s the listen socket and every connection. Each
//                      wake does one bounded non-blocking recv into that
//                      connection's frame buffer, never past the end of the
//                      frame, and handles the frame once it is complete:
//                      control ops (ping, reload, shutdown) are answered
//                      inline; Estimate requests are decoded to a
//                      dataset::Sample and pushed into the admission queue.
//                      A full queue blocks this thread, so every
//                      connection's reads pause — natural backpressure,
//                      never a drop. It also acts on the reload/stop flags
//                      that signal handlers (SIGHUP/SIGTERM in the CLI) set.
//   batcher thread     pops up to max_batch pending requests (lingering
//                      batch_window_us once one arrives, to coalesce
//                      concurrent clients), snapshots the current model and
//                      runs ONE PowerGear::estimate_batch over the whole
//                      batch — which itself merges the samples into
//                      block-diagonal GraphBatch chunks and executes fused
//                      forwards (gnn/batch.hpp). Answers remain
//                      bit-identical to serial estimate_batch regardless of
//                      how requests coalesce: every kernel accumulates each
//                      output element independently over an ascending
//                      reduction index, so batch composition never changes
//                      per-element arithmetic (DESIGN.md §13).
//
// Each connection owns its fd and closes it when the last reference drops:
// the I/O thread lets go at EOF, and a queued request keeps the fd open
// until it is answered, so no response can land on a recycled fd. Accepted
// sockets carry a constant send timeout: a client that stops reading its
// answers is shut down instead of stalling either thread.
//
// Model hot-swap: the live model is a shared_ptr<const PowerGear> plus a
// generation counter, swapped under a mutex. In-flight batches keep their
// snapshot alive, so a reload never drops or corrupts a request; every
// response names the generation that produced it, making the swap boundary
// observable (and testably atomic). Reloads re-read the artifact path the
// server was started with.
//
// Observability: per-request latency (admission to response write) is
// recorded under the obs "serve" phase with requests/batches/reloads/errors
// counters; the CLI writes the report on drain when --metrics is given.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/powergear.hpp"
#include "dataset/sample.hpp"
#include "io/wire.hpp"

namespace powergear::core::serve {

struct ServerConfig {
    std::string socket_path; ///< Unix-domain socket to bind (<= ~100 chars)
    std::string model_path;  ///< ensemble artifact; re-read on every reload
    int max_batch = 64;          ///< admission-queue coalescing cap
    int batch_window_us = 200;   ///< linger for stragglers once a request lands
    int max_queue = 1024;        ///< pending-request bound (reads pause past it)
};

class Server {
public:
    explicit Server(ServerConfig cfg);
    ~Server(); ///< stops and joins if still running

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Load the model, bind the socket (replacing a stale socket file left
    /// by a dead daemon) and spawn the I/O + batcher threads. Throws on
    /// a missing/corrupt model, an unbindable path, or a live daemon
    /// already serving on it.
    void start();

    /// Block until the server has fully drained and stopped (a Shutdown
    /// request, poke_stop() or stop() ends it).
    void wait();

    /// start() + wait().
    void run();

    /// Initiate drain + shutdown and block until complete. In-flight and
    /// queued requests are still answered; new connections are refused.
    void stop();

    /// Async-signal-safe shutdown request (atomic flag; the I/O thread
    /// acts on it within its poll interval). The CLI's SIGTERM/SIGINT
    /// handlers call this.
    void poke_stop() { stop_flag_.store(true, std::memory_order_relaxed); }

    /// Async-signal-safe hot-swap request — the SIGHUP handler. The I/O
    /// thread performs the actual reload(); a failed reload keeps the old
    /// model serving and bumps the "reload_errors" counter.
    void poke_reload() { reload_flag_.store(true, std::memory_order_relaxed); }

    /// Synchronous hot-swap: re-read the model artifact and atomically
    /// replace the live ensemble. Returns the new generation. Throws (and
    /// keeps the old model) when the artifact cannot be loaded.
    std::uint64_t reload();

    /// Generation of the live model: 1 after start(), +1 per reload.
    std::uint64_t generation() const;

    bool running() const { return running_.load(std::memory_order_acquire); }

    struct Stats {
        std::uint64_t requests = 0; ///< estimate requests answered
        std::uint64_t batches = 0;  ///< estimate_batch calls issued
        std::uint64_t reloads = 0;  ///< completed hot-swaps
        std::uint64_t errors = 0;   ///< error responses + failed reloads
    };
    Stats stats() const;

private:
    struct Conn {
        explicit Conn(int fd) : fd(fd) {}
        ~Conn();
        Conn(const Conn&) = delete;
        Conn& operator=(const Conn&) = delete;

        const int fd;
        std::mutex write_mu;          ///< batcher + I/O thread both respond
        std::vector<std::uint8_t> in; ///< partial frame (I/O thread only)
    };

    struct Pending {
        std::shared_ptr<Conn> conn;
        std::uint64_t id = 0;
        dataset::Sample sample;
        std::uint64_t enqueue_ns = 0;
    };

    struct ModelState {
        std::shared_ptr<const PowerGear> model;
        std::uint64_t generation = 0;
    };

    void io_loop();
    bool read_some(const std::shared_ptr<Conn>& conn);
    void handle_frame(const std::shared_ptr<Conn>& conn,
                      const std::vector<std::uint8_t>& frame);
    void batcher_loop();
    ModelState model_snapshot() const;
    void respond(Conn& conn, const io::ServeResponse& resp);
    void respond_error(Conn& conn, const std::string& what,
                       std::uint64_t id = 0,
                       io::ServeOp op = io::ServeOp::Ping);
    io::ServeResponse handle_control(const io::ServeRequest& req);

    ServerConfig cfg_;

    int listen_fd_ = -1;
    std::thread io_thread_;
    std::thread batcher_thread_;

    mutable std::mutex model_mu_;
    ModelState state_;

    std::mutex queue_mu_;
    std::condition_variable queue_cv_;   ///< batcher waits for work
    std::condition_variable space_cv_;   ///< I/O thread waits for queue space
    std::deque<Pending> queue_;
    bool stopping_ = false; ///< no request can arrive any more; queue drains

    std::atomic<bool> running_{false};
    std::atomic<bool> stop_flag_{false};
    std::atomic<bool> reload_flag_{false};
    std::atomic<std::uint64_t> n_requests_{0};
    std::atomic<std::uint64_t> n_batches_{0};
    std::atomic<std::uint64_t> n_reloads_{0};
    std::atomic<std::uint64_t> n_errors_{0};
};

} // namespace powergear::core::serve
