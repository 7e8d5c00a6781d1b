/**
 * @file
 * Work-stealing thread pool for the Monte-Carlo experiment engine.
 *
 * Each worker owns a deque: the owner pushes and pops at the back
 * (LIFO, cache-friendly for nested forks) while idle workers steal
 * from the front (FIFO, oldest-first). External submissions are
 * distributed round-robin across the worker deques.
 *
 * parallelFor() is the primitive the fault-injection runner builds on:
 * the calling thread *participates* (it never just blocks), helper
 * tasks are enqueued for the remaining participants, and a blocked
 * joiner steals unrelated pool work while it waits. Because every
 * participant — including nested ones spawned from inside a pool
 * worker — makes progress on its own region, nested parallelFor calls
 * cannot deadlock even when every pool thread is busy.
 *
 * Scheduling is dynamic (participants race on an atomic index), so
 * callers that need determinism must make each index's work
 * self-contained and reduce results by index afterwards; see
 * fi::FaultInjectionRunner for the canonical pattern.
 */

#ifndef VBOOST_COMMON_THREAD_POOL_HPP
#define VBOOST_COMMON_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace vboost {

/** Work-stealing pool of long-lived worker threads. */
class ThreadPool
{
  public:
    /**
     * @param threads worker thread count; 0 = hardware_concurrency.
     *        A machine reporting 0/1 hardware threads still gets one
     *        worker so submit() always makes progress.
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Joins all workers; pending tasks are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned workerCount() const
    { return static_cast<unsigned>(workers_.size()); }

    /**
     * Process-wide shared pool (hardware_concurrency workers),
     * constructed on first use. All Monte-Carlo engines share it so
     * nested experiments cannot oversubscribe the machine.
     */
    static ThreadPool &global();

    /**
     * Resolve a user-facing thread-count knob: 0 = all hardware
     * threads, otherwise the requested count (minimum 1).
     */
    static unsigned resolveThreads(int requested);

    /**
     * Enqueue one task. The future carries any exception the task
     * throws.
     */
    std::future<void> submit(std::function<void()> task);

    /**
     * Run body(i, slot) for every i in [0, n), using up to
     * max_participants concurrent participants (calling thread
     * included; 0 = one per worker plus the caller). Each concurrently
     * executing participant has a distinct slot in
     * [0, max_participants), so callers can hand each one exclusive
     * scratch state. Iterations are claimed dynamically, and the
     * caller returns once every iteration has finished: it never
     * waits for a helper that starts after the work is all taken
     * (such a helper finds nothing to do). The first exception is
     * rethrown on the caller after every claimed iteration finished.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t, unsigned)> &body,
                     unsigned max_participants = 0);

  private:
    /** One worker's deque; owner pops back, thieves pop front. */
    struct WorkerQueue
    {
        std::mutex mu;
        std::deque<std::function<void()>> tasks;
    };

    /** Worker main loop. */
    void workerLoop(unsigned index);

    /** Pop from own back, else steal from another front. */
    bool tryAcquireTask(unsigned self, std::function<void()> &out);

    /** Steal-and-run one queued task from any worker (joiner help). */
    bool tryRunOneTask();

    void enqueue(std::function<void()> task);

    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> workers_;
    std::atomic<std::size_t> nextQueue_{0};
    std::atomic<std::size_t> pending_{0};
    std::atomic<bool> stop_{false};
    std::mutex sleepMu_;
    std::condition_variable sleepCv_;
};

/**
 * Convenience wrapper over ThreadPool::global(): run body(i, slot)
 * for i in [0, n) on num_threads participants (0 = all hardware
 * threads). num_threads == 1 runs inline with no pool involvement.
 */
void parallelFor(std::size_t n, int num_threads,
                 const std::function<void(std::size_t, unsigned)> &body);

} // namespace vboost

#endif // VBOOST_COMMON_THREAD_POOL_HPP
