#include "util/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/env.hpp"

namespace powergear::util {

namespace {

/// True on threads currently executing parallel_for tasks (workers and the
/// submitting thread while it helps); nested fan-outs run inline there.
thread_local bool t_in_parallel_task = false;

/// Fixed-size worker pool draining a FIFO of thunks. Workers are detached
/// lazily on first parallel use and live until the pool is replaced (a
/// set_parallel_jobs resize) or the process exits.
class ThreadPool {
public:
    explicit ThreadPool(int threads) {
        workers_.reserve(static_cast<std::size_t>(threads));
        for (int i = 0; i < threads; ++i)
            workers_.emplace_back([this] { worker_loop(); });
    }

    ~ThreadPool() {
        {
            std::lock_guard<std::mutex> lock(m_);
            stop_ = true;
        }
        cv_.notify_all();
        for (std::thread& w : workers_) w.join();
    }

    int threads() const { return static_cast<int>(workers_.size()); }

    void submit(std::function<void()> task) {
        {
            std::lock_guard<std::mutex> lock(m_);
            queue_.push_back(std::move(task));
        }
        cv_.notify_one();
    }

private:
    void worker_loop() {
        t_in_parallel_task = true;
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(m_);
                cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
                if (stop_ && queue_.empty()) return;
                task = std::move(queue_.front());
                queue_.pop_front();
            }
            task();
        }
    }

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex m_;
    std::condition_variable cv_;
    bool stop_ = false;
};

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool; // guarded by g_pool_mutex
int g_jobs_override = 0;            // 0 = resolve from env/hardware
int g_resolved_jobs = 0;            // 0 = not yet resolved

int resolve_jobs() {
    if (g_jobs_override > 0) return g_jobs_override;
    const int env = env_int("POWERGEAR_JOBS", 0);
    if (env > 0) return env;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

/// The pool for the current job count, or nullptr when running serially.
/// Workers beyond the submitting thread: jobs - 1.
ThreadPool* global_pool() {
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_resolved_jobs == 0) g_resolved_jobs = resolve_jobs();
    if (g_resolved_jobs <= 1) return nullptr;
    if (!g_pool || g_pool->threads() != g_resolved_jobs - 1)
        g_pool = std::make_unique<ThreadPool>(g_resolved_jobs - 1);
    return g_pool.get();
}

} // namespace

int parallel_jobs() {
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_resolved_jobs == 0) g_resolved_jobs = resolve_jobs();
    return g_resolved_jobs;
}

void set_parallel_jobs(int jobs) {
    if (t_in_parallel_task)
        throw std::logic_error("set_parallel_jobs inside a parallel task");
    std::unique_ptr<ThreadPool> retired;
    {
        std::lock_guard<std::mutex> lock(g_pool_mutex);
        g_jobs_override = jobs > 0 ? jobs : 0;
        g_resolved_jobs = resolve_jobs();
        if (g_pool && g_pool->threads() != g_resolved_jobs - 1)
            retired = std::move(g_pool); // join outside would still hold lock
    }
    // Joins the old workers after releasing the lock (they never re-enter it).
    retired.reset();
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    ThreadPool* pool = t_in_parallel_task ? nullptr : global_pool();
    if (!pool || n == 1) {
        for (std::size_t i = 0; i < n; ++i) fn(i);
        return;
    }

    // Shared fan-out state lives on this frame; we block until every helper
    // finished, so stack references stay valid for the helpers' lifetime.
    std::atomic<std::size_t> next{0};
    std::mutex err_mutex;
    std::size_t err_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr err;

    auto drain = [&] {
        const bool was_in_task = t_in_parallel_task;
        t_in_parallel_task = true;
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) break;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(err_mutex);
                if (i < err_index) {
                    err_index = i;
                    err = std::current_exception();
                }
            }
        }
        t_in_parallel_task = was_in_task;
    };

    const int helpers = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(pool->threads()), n - 1));
    // `pending` is only touched under done_mutex, and the last helper
    // notifies while still holding it. The submitter can therefore only see
    // zero, return and free this frame after that helper has released the
    // lock and stopped touching done_mutex/done_cv.
    int pending = helpers;
    std::mutex done_mutex;
    std::condition_variable done_cv;
    for (int k = 0; k < helpers; ++k) {
        pool->submit([&] {
            drain();
            std::lock_guard<std::mutex> lock(done_mutex);
            if (--pending == 0) done_cv.notify_one();
        });
    }
    drain(); // the submitting thread participates
    {
        std::unique_lock<std::mutex> lock(done_mutex);
        done_cv.wait(lock, [&] { return pending == 0; });
    }
    if (err) std::rethrow_exception(err);
}

} // namespace powergear::util
