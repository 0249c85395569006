/**
 * @file
 * Tests for the shared parallel execution layer: task coverage,
 * thread-count-independent chunking, ordered deterministic
 * reduction, and nested submission.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"

namespace mbavf
{
namespace
{

TEST(Parallel, PoolHasAtLeastOneThread)
{
    EXPECT_GE(parallelThreads(), 1u);
}

TEST(Parallel, EnsureGrowsButNeverShrinks)
{
    setParallelThreads(2);
    EXPECT_EQ(parallelThreads(), 2u);
    EXPECT_EQ(ensureParallelThreads(4), 4u);
    EXPECT_EQ(ensureParallelThreads(2), 4u);
    EXPECT_EQ(ensureParallelThreads(0), 4u);
    setParallelThreads(0); // back to the default for other tests
}

TEST(Parallel, RunTasksCoversEveryIndexOnce)
{
    setParallelThreads(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    runTasks(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Parallel, RunTasksZeroIsNoop)
{
    runTasks(0, [&](std::size_t) { FAIL(); });
}

TEST(Parallel, ParallelForChunksAreThreadCountIndependent)
{
    // The same (range, grain) must produce the same chunk set no
    // matter how wide the pool is.
    auto chunksAt = [](unsigned threads) {
        setParallelThreads(threads);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> chunks(
            100);
        std::atomic<std::size_t> count{0};
        parallelFor(7, 93, 10,
                    [&](std::uint64_t lo, std::uint64_t hi) {
                        chunks[(lo - 7) / 10] = {lo, hi};
                        ++count;
                    });
        chunks.resize(count.load());
        return chunks;
    };
    auto serial = chunksAt(1);
    auto wide = chunksAt(8);
    ASSERT_EQ(serial.size(), 9u); // ceil(86 / 10)
    EXPECT_EQ(serial, wide);
    EXPECT_EQ(serial.front(), (std::pair<std::uint64_t,
                                         std::uint64_t>{7, 17}));
    EXPECT_EQ(serial.back(), (std::pair<std::uint64_t,
                                        std::uint64_t>{87, 93}));
    setParallelThreads(0);
}

TEST(Parallel, ParallelForCoversRangeExactlyOnce)
{
    setParallelThreads(4);
    std::vector<std::atomic<int>> hits(5000);
    parallelFor(0, hits.size(), 37,
                [&](std::uint64_t lo, std::uint64_t hi) {
                    for (std::uint64_t i = lo; i < hi; ++i)
                        ++hits[i];
                });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(Parallel, MapReduceIsOrderedAndDeterministic)
{
    // String concatenation is order-sensitive: any out-of-order
    // merge is caught immediately.
    auto concatAt = [](unsigned threads) {
        setParallelThreads(threads);
        return mapReduce(
            std::uint64_t(0), std::uint64_t(64), std::uint64_t(5),
            std::string(),
            [](std::uint64_t lo, std::uint64_t hi) {
                std::string s;
                for (std::uint64_t i = lo; i < hi; ++i)
                    s += std::to_string(i) + ",";
                return s;
            },
            [](std::string &into, std::string &&part) {
                into += part;
            });
    };
    std::string expected;
    for (unsigned i = 0; i < 64; ++i)
        expected += std::to_string(i) + ",";
    EXPECT_EQ(concatAt(1), expected);
    EXPECT_EQ(concatAt(3), expected);
    EXPECT_EQ(concatAt(8), expected);
    setParallelThreads(0);
}

TEST(Parallel, MapReduceEmptyRangeReturnsInit)
{
    int r = mapReduce(
        std::uint64_t(5), std::uint64_t(5), std::uint64_t(1), 42,
        [](std::uint64_t, std::uint64_t) { return 0; },
        [](int &into, int &&part) { into += part; });
    EXPECT_EQ(r, 42);
}

TEST(Parallel, NestedSubmissionCompletes)
{
    // A pool task fanning out its own subtasks (the lifetime
    // finalize shape: one task per store, each fanning out over its
    // containers) must not deadlock or drop work.
    setParallelThreads(4);
    std::atomic<std::uint64_t> sum{0};
    runTasks(8, [&](std::size_t outer) {
        parallelFor(0, 100, 9, [&](std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t i = lo; i < hi; ++i)
                sum += outer * 100 + i;
        });
    });
    // sum over outer in [0,8) of (outer*100*100 + 4950)
    std::uint64_t expected = 0;
    for (std::uint64_t outer = 0; outer < 8; ++outer)
        expected += outer * 100 * 100 + 4950;
    EXPECT_EQ(sum.load(), expected);
    setParallelThreads(0);
}

TEST(Parallel, SplitMix64TrialSeedsAreStableAndDistinct)
{
    // Per-trial seed derivation contract: pure function of
    // (base, index), distinct across neighboring indices.
    EXPECT_EQ(splitMix64(7, 3), splitMix64(7, 3));
    EXPECT_NE(splitMix64(7, 3), splitMix64(7, 4));
    EXPECT_NE(splitMix64(7, 3), splitMix64(8, 3));
}

} // namespace
} // namespace mbavf
