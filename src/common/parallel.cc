#include "common/parallel.hh"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.hh"

namespace mbavf
{

namespace
{

/**
 * One runTasks() invocation: a counted range of task indices claimed
 * with an atomic cursor. The batch stays in the pool's queue until
 * every index is claimed; completion is tracked separately so the
 * submitter can wait for in-flight tasks after the queue entry is
 * gone.
 */
struct Batch
{
    std::size_t numTasks = 0;
    const std::function<void(std::size_t)> *task = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> remaining{0};
};

class Pool
{
  public:
    /**
     * MBAVF_THREADS is read (and validated) here rather than in
     * ensureStartedLocked(): a fatal() there would std::exit() with
     * mutex_ held and self-deadlock in this static object's
     * destructor. During construction no destructor is registered
     * yet, so the fatal exits cleanly.
     */
    Pool() : envThreads_(envThreads()) {}

    ~Pool() { stopWorkers(); }

    unsigned
    width()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ensureStartedLocked();
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    void
    resize(unsigned n)
    {
        stopWorkers();
        std::lock_guard<std::mutex> lock(mutex_);
        requested_ = n;
        started_ = false;
    }

    unsigned
    ensureAtLeast(unsigned n)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ensureStartedLocked();
            if (workers_.size() + 1 >= n)
                return static_cast<unsigned>(workers_.size()) + 1;
        }
        resize(n);
        return width();
    }

    void
    run(std::size_t num_tasks,
        const std::function<void(std::size_t)> &task)
    {
        if (num_tasks == 0)
            return;
        auto batch = std::make_shared<Batch>();
        batch->numTasks = num_tasks;
        batch->task = &task;
        batch->remaining.store(num_tasks, std::memory_order_relaxed);

        bool serial;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ensureStartedLocked();
            serial = workers_.empty();
            if (!serial)
                queue_.push_back(batch);
        }
        if (serial) {
            // No workers: execute inline, no queue round-trip.
            for (std::size_t i = 0; i < num_tasks; ++i) {
                (*batch->task)(i);
                batch->remaining.fetch_sub(
                    1, std::memory_order_acq_rel);
            }
            return;
        }
        cv_.notify_all();

        // The submitter participates: drain its own batch first,
        // then help whatever else is queued (a nested batch waiting
        // here must keep the pool moving), then sleep until done.
        while (batch->remaining.load(std::memory_order_acquire) > 0) {
            if (claimAndRun(*batch))
                continue;
            if (helpAny())
                continue;
            std::unique_lock<std::mutex> lock(mutex_);
            if (batch->remaining.load(std::memory_order_acquire) ==
                    0 ||
                !queue_.empty()) {
                continue;
            }
            doneCv_.wait(lock, [&] {
                return batch->remaining.load(
                           std::memory_order_acquire) == 0 ||
                    !queue_.empty();
            });
        }
    }

  private:
    void
    ensureStartedLocked()
    {
        if (started_)
            return;
        started_ = true;
        unsigned n = requested_;
        if (n == 0)
            n = envThreads_;
        if (n == 0)
            n = std::max(1u, std::thread::hardware_concurrency());
        stop_ = false;
        for (unsigned t = 0; t + 1 < n; ++t)
            workers_.emplace_back([this] { workerLoop(); });
    }

    static unsigned
    envThreads()
    {
        const char *env = std::getenv("MBAVF_THREADS");
        if (!env || !*env)
            return 0;
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end == env || *end != '\0' || v < 0 ||
            v > long(maxParallelThreads)) {
            fatal("MBAVF_THREADS must be an integer in [0, ",
                  maxParallelThreads, "], got '", env, "'");
        }
        return static_cast<unsigned>(v);
    }

    /** Claim one task of @p batch; false when none are unclaimed. */
    bool
    claimAndRun(Batch &batch)
    {
        std::size_t i =
            batch.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= batch.numTasks)
            return false;
        if (i + 1 == batch.numTasks)
            dropFromQueue(&batch);
        (*batch.task)(i);
        if (batch.remaining.fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(mutex_);
            doneCv_.notify_all();
        }
        return true;
    }

    /** Run one task from any queued batch; false if queue is idle. */
    bool
    helpAny()
    {
        std::shared_ptr<Batch> batch;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const auto &b : queue_) {
                if (b->next.load(std::memory_order_relaxed) <
                    b->numTasks) {
                    batch = b;
                    break;
                }
            }
        }
        if (!batch)
            return false;
        return claimAndRun(*batch);
    }

    void
    dropFromQueue(const Batch *batch)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (it->get() == batch) {
                queue_.erase(it);
                break;
            }
        }
    }

    void
    workerLoop()
    {
        for (;;) {
            std::shared_ptr<Batch> batch;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [&] {
                    return stop_ || !queue_.empty();
                });
                if (stop_)
                    return;
                for (const auto &b : queue_) {
                    if (b->next.load(std::memory_order_relaxed) <
                        b->numTasks) {
                        batch = b;
                        break;
                    }
                }
                if (!batch) {
                    // Queued batches are fully claimed but not yet
                    // retired by their last runner; yield the lock
                    // and re-check.
                    lock.unlock();
                    std::this_thread::yield();
                    continue;
                }
            }
            while (claimAndRun(*batch)) {
            }
        }
    }

    void
    stopWorkers()
    {
        std::vector<std::thread> workers;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
            workers.swap(workers_);
        }
        cv_.notify_all();
        for (std::thread &w : workers)
            w.join();
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = false;
    }

    std::mutex mutex_;
    std::condition_variable cv_;     ///< wakes idle workers
    std::condition_variable doneCv_; ///< wakes waiting submitters
    std::deque<std::shared_ptr<Batch>> queue_;
    std::vector<std::thread> workers_;
    const unsigned envThreads_; ///< MBAVF_THREADS (0 = unset)
    unsigned requested_ = 0; ///< setParallelThreads value (0 = auto)
    bool started_ = false;
    bool stop_ = false;
};

Pool &
pool()
{
    static Pool instance;
    return instance;
}

} // namespace

unsigned
parallelThreads()
{
    return pool().width();
}

unsigned
parallelWorkerId()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

void
setParallelThreads(unsigned n)
{
    pool().resize(n);
}

unsigned
ensureParallelThreads(unsigned n)
{
    if (n == 0)
        return pool().width();
    return pool().ensureAtLeast(n);
}

void
runTasks(std::size_t num_tasks,
         const std::function<void(std::size_t)> &task)
{
    pool().run(num_tasks, task);
}

void
parallelFor(std::uint64_t begin, std::uint64_t end,
            std::uint64_t grain,
            const std::function<void(std::uint64_t, std::uint64_t)>
                &body)
{
    if (begin >= end)
        return;
    if (grain == 0)
        grain = 1;
    const std::uint64_t range = end - begin;
    const std::size_t chunks =
        static_cast<std::size_t>((range + grain - 1) / grain);
    runTasks(chunks, [&](std::size_t c) {
        std::uint64_t lo = begin + grain * c;
        std::uint64_t hi = std::min(end, lo + grain);
        body(lo, hi);
    });
}

} // namespace mbavf
