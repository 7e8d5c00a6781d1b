#include "common/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "common/logging.hpp"

namespace vboost {

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    queues_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(sleepMu_);
        stop_.store(true, std::memory_order_release);
    }
    sleepCv_.notify_all();
    for (auto &t : workers_)
        t.join();
}

ThreadPool &
ThreadPool::global()
{
    // vblint: allow(VB004, shared worker-pool singleton; §7 discipline keeps results thread-count invariant)
    static ThreadPool pool;
    return pool;
}

unsigned
ThreadPool::resolveThreads(int requested)
{
    if (requested < 0)
        fatal("ThreadPool: negative thread count ", requested);
    if (requested == 0)
        return std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(requested);
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    const std::size_t victim =
        nextQueue_.fetch_add(1, std::memory_order_relaxed) %
        queues_.size();
    // pending_ rises before the task becomes visible so a concurrent
    // pop can never drive it below zero, and the sleep mutex is taken
    // so a worker between its predicate check and wait cannot miss
    // the notify.
    {
        std::lock_guard<std::mutex> sleep_lk(sleepMu_);
        pending_.fetch_add(1, std::memory_order_release);
    }
    {
        std::lock_guard<std::mutex> lk(queues_[victim]->mu);
        queues_[victim]->tasks.push_back(std::move(task));
    }
    sleepCv_.notify_one();
}

std::future<void>
ThreadPool::submit(std::function<void()> task)
{
    auto promise = std::make_shared<std::promise<void>>();
    auto future = promise->get_future();
    enqueue([promise, task = std::move(task)]() mutable {
        try {
            task();
            promise->set_value();
        } catch (...) {
            promise->set_exception(std::current_exception());
        }
    });
    return future;
}

bool
ThreadPool::tryAcquireTask(unsigned self, std::function<void()> &out)
{
    // Own queue first, newest task (LIFO keeps nested forks hot).
    {
        auto &q = *queues_[self];
        std::lock_guard<std::mutex> lk(q.mu);
        if (!q.tasks.empty()) {
            out = std::move(q.tasks.back());
            q.tasks.pop_back();
            return true;
        }
    }
    // Steal oldest task from another worker (FIFO spreads big jobs).
    for (std::size_t k = 1; k < queues_.size(); ++k) {
        auto &q = *queues_[(self + k) % queues_.size()];
        std::lock_guard<std::mutex> lk(q.mu);
        if (!q.tasks.empty()) {
            out = std::move(q.tasks.front());
            q.tasks.pop_front();
            return true;
        }
    }
    return false;
}

bool
ThreadPool::tryRunOneTask()
{
    for (auto &qptr : queues_) {
        std::function<void()> task;
        {
            std::lock_guard<std::mutex> lk(qptr->mu);
            if (qptr->tasks.empty())
                continue;
            task = std::move(qptr->tasks.front());
            qptr->tasks.pop_front();
        }
        pending_.fetch_sub(1, std::memory_order_acq_rel);
        task();
        return true;
    }
    return false;
}

void
ThreadPool::workerLoop(unsigned index)
{
    for (;;) {
        std::function<void()> task;
        if (tryAcquireTask(index, task)) {
            pending_.fetch_sub(1, std::memory_order_acq_rel);
            task();
            continue;
        }
        std::unique_lock<std::mutex> lk(sleepMu_);
        sleepCv_.wait(lk, [this] {
            return stop_.load(std::memory_order_acquire) ||
                   pending_.load(std::memory_order_acquire) > 0;
        });
        if (stop_.load(std::memory_order_acquire) &&
            pending_.load(std::memory_order_acquire) == 0)
            return;
    }
}

void
ThreadPool::parallelFor(
    std::size_t n, const std::function<void(std::size_t, unsigned)> &body,
    unsigned max_participants)
{
    if (n == 0)
        return;
    if (max_participants == 0)
        max_participants = workerCount() + 1;
    const unsigned participants = static_cast<unsigned>(
        std::min<std::size_t>(n, max_participants));

    if (participants <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i, 0);
        return;
    }

    // Shared region state: a dynamic index race, a count of finished
    // iterations and first-exception capture. Helpers may outlive this
    // stack frame, so everything lives in a shared_ptr.
    struct Region
    {
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> finished{0};
        std::atomic<bool> abort{false};
        std::mutex mu;
        std::condition_variable done;
        std::exception_ptr error;
    };
    auto region = std::make_shared<Region>();

    // Every claimed index counts as finished once its body returns
    // (or is skipped after an abort), so the joiner waits for claimed
    // work only, never for a helper that wakes up after all of it was
    // taken. Such a late helper claims an index >= n and returns
    // without touching body.
    auto participate = [region, &body, n](unsigned slot) {
        for (;;) {
            const std::size_t i =
                region->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            if (!region->abort.load(std::memory_order_acquire)) {
                try {
                    body(i, slot);
                } catch (...) {
                    {
                        std::lock_guard<std::mutex> lk(region->mu);
                        if (!region->error)
                            region->error = std::current_exception();
                    }
                    region->abort.store(true, std::memory_order_release);
                }
            }
            if (region->finished.fetch_add(1, std::memory_order_acq_rel) +
                    1 ==
                n) {
                std::lock_guard<std::mutex> lk(region->mu);
                region->done.notify_all();
            }
        }
    };

    for (unsigned slot = 1; slot < participants; ++slot)
        enqueue([participate, slot] { participate(slot); });

    // The caller claims indices until none are left, so once it
    // returns every iteration is claimed.
    participate(0);

    // Join: help drain the pool instead of blocking, so nested
    // parallelFor regions queued behind us still make progress.
    const auto all_finished = [&region, n] {
        return region->finished.load(std::memory_order_acquire) == n;
    };
    while (!all_finished()) {
        if (!tryRunOneTask()) {
            std::unique_lock<std::mutex> lk(region->mu);
            region->done.wait_for(lk, std::chrono::microseconds(200),
                                  all_finished);
        }
    }

    if (region->error)
        std::rethrow_exception(region->error);
}

void
parallelFor(std::size_t n, int num_threads,
            const std::function<void(std::size_t, unsigned)> &body)
{
    const unsigned resolved = ThreadPool::resolveThreads(num_threads);
    if (resolved <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i, 0);
        return;
    }
    ThreadPool::global().parallelFor(n, body, resolved);
}

} // namespace vboost
