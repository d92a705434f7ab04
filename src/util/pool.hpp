// Fixed-size worker pool with a FIFO work queue, and runLanes(), which
// lends a pool's idle workers to a parallel loop without ever waiting
// for one.
//
// submit() hands back a future so the caller chooses the result order:
// the batch engine collects futures in spec order, making batch output
// deterministic and independent of how jobs were scheduled across
// workers. Exceptions thrown by a task are captured in its future
// (std::packaged_task semantics) — a crashing task never takes a worker
// thread down.
//
// Lives in util (not engine) because both the batch engine's job fan-out
// and core's intra-job probe sweep share it; core must not depend on
// engine.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace pd::util {

class ThreadPool {
public:
    /// Spawns `threads` workers (at least one).
    explicit ThreadPool(std::size_t threads);

    /// Drains the queue, then joins all workers.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Enqueues `fn`; the future carries its return value or exception.
    template <typename Fn>
    auto submit(Fn&& fn) -> std::future<decltype(fn())> {
        using R = decltype(fn());
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
        std::future<R> fut = task->get_future();
        enqueue([task] { (*task)(); });
        return fut;
    }

    /// Enqueues `fn` with no future; `fn` must not throw.
    void post(std::function<void()> fn) { enqueue(std::move(fn)); }

    [[nodiscard]] std::size_t threadCount() const { return workers_.size(); }

private:
    void enqueue(std::function<void()> fn);
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

/// Runs `body(0)` on the calling thread and offers `lanes - 1` helper
/// tickets to `pool`. A ticket that a worker starts while body(0) is
/// still running calls body(k) with the next free lane number k in
/// [1, lanes); a ticket that starts later returns at once. Returns once
/// body(0) has returned and every started ticket has finished, and
/// rethrows the first exception of any lane. It never waits for a ticket
/// no worker has picked up, so it is safe to call from a task of the same
/// pool, and a pool whose every worker is busy costs only queue entries:
/// the caller then runs the whole loop as lane 0. `body` must therefore
/// hand out its work dynamically (an atomic cursor), never by lane number.
/// Returns the number of lanes that ran, the caller's included.
std::size_t runLanes(ThreadPool* pool, std::size_t lanes,
                     const std::function<void(std::size_t lane)>& body);

}  // namespace pd::util
