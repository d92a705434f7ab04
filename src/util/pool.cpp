#include "util/pool.hpp"

#include <exception>
#include <memory>

#include "util/error.hpp"

namespace pd::util {

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads == 0) threads = 1;
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> fn) {
    {
        std::lock_guard lock(mutex_);
        if (stopping_) fail("pool", "submit on a stopping ThreadPool");
        queue_.push_back(std::move(fn));
    }
    cv_.notify_one();
}

void ThreadPool::workerLoop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(mutex_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();  // packaged_task: exceptions land in the job's future
    }
}

namespace {

/// What runLanes shares with its tickets. Tickets own it jointly with the
/// caller, so one that starts after runLanes returned touches only this.
struct LaneTickets {
    std::mutex mutex;
    std::condition_variable idle;
    /// The loop body while runLanes runs it; null once closed.
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t started = 0;  ///< helpers that got a lane
    std::size_t running = 0;  ///< helpers still inside body
    std::exception_ptr error;
};

}  // namespace

std::size_t runLanes(ThreadPool* pool, std::size_t lanes,
                     const std::function<void(std::size_t lane)>& body) {
    if (pool == nullptr || lanes <= 1) {
        body(0);
        return 1;
    }
    auto tickets = std::make_shared<LaneTickets>();
    tickets->body = &body;
    for (std::size_t k = 1; k < lanes; ++k) {
        pool->post([tickets] {
            const std::function<void(std::size_t)>* fn = nullptr;
            std::size_t lane = 0;
            {
                std::lock_guard lock(tickets->mutex);
                if (tickets->body == nullptr) return;  // closed
                fn = tickets->body;
                lane = ++tickets->started;
                ++tickets->running;
            }
            std::exception_ptr error;
            try {
                (*fn)(lane);
            } catch (...) {
                error = std::current_exception();
            }
            std::lock_guard lock(tickets->mutex);
            if (error && !tickets->error) tickets->error = error;
            if (--tickets->running == 0) tickets->idle.notify_all();
        });
    }
    std::exception_ptr error;
    try {
        body(0);
    } catch (...) {
        error = std::current_exception();
    }
    std::unique_lock lock(tickets->mutex);
    tickets->body = nullptr;
    tickets->idle.wait(lock, [&] { return tickets->running == 0; });
    if (!error) error = tickets->error;
    const std::size_t ran = 1 + tickets->started;
    lock.unlock();
    if (error) std::rethrow_exception(error);
    return ran;
}

}  // namespace pd::util
