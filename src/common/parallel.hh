/**
 * @file
 * Shared parallel execution layer: one lazily-initialized persistent
 * worker pool for the whole process.
 *
 * Every embarrassingly parallel site in mbavf (the MB-AVF row sweep,
 * mode sweeps, injection campaigns) submits work here instead of
 * spawning its own std::thread vector, so an 8-mode sweep reuses the
 * same workers across all modes with no thread churn.
 *
 * Sizing: the pool holds max(1, N) - 1 worker threads (the calling
 * thread always participates), where N is, in order of precedence,
 * the value passed to setParallelThreads(), the MBAVF_THREADS
 * environment variable, or std::thread::hardware_concurrency().
 *
 * Determinism: parallelFor() partitions [begin, end) into chunks of
 * @p grain indices; the chunking depends only on the range and grain,
 * never on the worker count or scheduling. mapReduce() builds on that
 * and merges per-chunk partials in ascending chunk order, so its
 * result is bit-identical at any thread count even when the merge is
 * not associative-commutative in floating point.
 *
 * Nesting is safe: a pool worker may itself call parallelFor() (the
 * lifetime finalize does — each store's task fans out over its
 * containers). Waiting threads help drain the queue instead of
 * blocking, so nested batches always make progress.
 */

#ifndef MBAVF_COMMON_PARALLEL_HH
#define MBAVF_COMMON_PARALLEL_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace mbavf
{

/**
 * Total parallelism of the pool (workers + the calling thread).
 * Triggers lazy initialization from MBAVF_THREADS / the hardware.
 */
unsigned parallelThreads();

/**
 * Small dense id of the calling thread, for per-thread sharding and
 * per-track trace attribution (src/obs). The first thread to ask
 * (normally main) gets 0; every later thread gets the next integer.
 * Stable for the thread's lifetime; never reused while the process
 * runs, so a resized pool's fresh workers get fresh ids.
 */
unsigned parallelWorkerId();

/**
 * Largest pool width a --threads flag or MBAVF_THREADS may ask for;
 * the tools reject a larger value before the pool grows.
 */
constexpr unsigned maxParallelThreads = 4096;

/**
 * Resize the pool to @p n total threads (0 = the MBAVF_THREADS /
 * hardware default). Existing workers are joined first; do not call
 * concurrently with running parallel work.
 */
void setParallelThreads(unsigned n);

/**
 * Grow the pool so at least @p n threads are available (never
 * shrinks; 0 is a no-op). Returns the resulting pool width.
 */
unsigned ensureParallelThreads(unsigned n);

/**
 * Run @p task(i) for every i in [0, num_tasks) on the pool; returns
 * when all have finished. The calling thread participates, claiming
 * tasks in ascending index order. Exceptions in tasks are fatal (the
 * engine's compute kernels never throw).
 */
void runTasks(std::size_t num_tasks,
              const std::function<void(std::size_t)> &task);

/**
 * Parallel loop over [begin, end): the range is cut into chunks of
 * @p grain indices (the last chunk may be short) and
 * @p body(chunk_begin, chunk_end) runs once per chunk. Chunking is a
 * pure function of (begin, end, grain) — thread count never changes
 * which chunks exist.
 */
void parallelFor(
    std::uint64_t begin, std::uint64_t end, std::uint64_t grain,
    const std::function<void(std::uint64_t, std::uint64_t)> &body);

/**
 * Deterministic ordered reduction. Cuts [begin, end) into grain-sized
 * chunks like parallelFor(), computes
 * partial[i] = map(chunk_begin, chunk_end) concurrently, then folds
 * merge(result, partial[i]) serially in ascending chunk order.
 * Bit-identical at any thread count.
 *
 * @p map  (std::uint64_t begin, std::uint64_t end) -> T
 * @p merge (T &into, T &&partial) -> void
 */
template <typename T, typename Map, typename Merge>
T
mapReduce(std::uint64_t begin, std::uint64_t end, std::uint64_t grain,
          T init, Map &&map, Merge &&merge)
{
    if (begin >= end)
        return init;
    if (grain == 0)
        grain = 1;
    const std::uint64_t range = end - begin;
    const std::size_t chunks =
        static_cast<std::size_t>((range + grain - 1) / grain);
    std::vector<T> partials;
    partials.resize(chunks, init);
    runTasks(chunks, [&](std::size_t c) {
        std::uint64_t lo = begin + grain * c;
        std::uint64_t hi = std::min(end, lo + grain);
        partials[c] = map(lo, hi);
    });
    T result = std::move(init);
    for (std::size_t c = 0; c < chunks; ++c)
        merge(result, std::move(partials[c]));
    return result;
}

} // namespace mbavf

#endif // MBAVF_COMMON_PARALLEL_HH
