/**
 * @file
 * Tests for lower-level-cache (L2) probing: fill reads resolved
 * against the program-order reference index.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.hh"
#include "mem/cache_probe.hh"
#include "mem/ref_index.hh"
#include "workloads/ace_runner.hh"

namespace mbavf
{
namespace
{

class L2ProbeTest : public ::testing::Test
{
  protected:
    L2ProbeTest()
        : geom_{8, 4, 16}, dram_(50),
          l2_(CacheParams{"l2", 8, 4, 16, 5}, dram_),
          l1_(CacheParams{"l1", 2, 2, 16, 1}, l2_),
          probe_(geom_, refs_)
    {
        probe_.setResolveReadsViaRefIndex(true);
        l2_.setListener(&probe_);
    }

    /** Every definition the tests name (ids < 64) fully live. */
    static std::vector<std::uint32_t>
    liveAll()
    {
        return std::vector<std::uint32_t>(64, ~std::uint32_t(0));
    }

    LifetimeStore
    finalize(Cycle horizon, RelevanceTable relevance)
    {
        refs_.finalize();
        return probe_.finalize(horizon, relevance);
    }

    CacheGeometry geom_;
    Dram dram_;
    Cache l2_;
    Cache l1_;
    MemRefIndex refs_;
    CacheAvfProbe probe_;
};

TEST_F(L2ProbeTest, FillConsumedByLiveProgramLoadIsAce)
{
    // Program load at t=0 (recorded in the ref index) misses L1 and
    // L2; a later re-fetch after L1 eviction re-reads the L2 copy.
    refs_.addLoad(0x00, 4, 0, noDef);
    l1_.access({0x00, 4, MemCmd::Read, noDef}, 0);
    // Evict from L1 (L1 set 0 fits 2 lines).
    l1_.access({0x40, 4, MemCmd::Read, noDef}, 100);
    l1_.access({0x80, 4, MemCmd::Read, noDef}, 200);
    // Program loads 0x00 again at t=300: L2 supplies the fill.
    refs_.addLoad(0x00, 4, 300, noDef);
    l1_.access({0x00, 4, MemCmd::Read, noDef}, 300);

    LifetimeStore store = finalize(1000, liveAll());
    // The L2 copy of 0x00 is ACE between its install at ~50 and the
    // second fill it serves at 300 (L2 set 0, some way).
    bool ace_found = false;
    for (unsigned way = 0; way < 4; ++way) {
        const WordLifetime *w = store.find(way, 0);
        if (w && w->classAt(0, 150) == AceClass::AceLive)
            ace_found = true;
    }
    EXPECT_TRUE(ace_found);
}

TEST_F(L2ProbeTest, FillNeverReusedIsNotAceAfterLastService)
{
    refs_.addLoad(0x00, 4, 0, noDef);
    l1_.access({0x00, 4, MemCmd::Read, noDef}, 0);
    LifetimeStore store = finalize(1000, liveAll());
    // After serving the only fill, the L2 copy's future is empty.
    for (unsigned way = 0; way < 4; ++way) {
        const WordLifetime *w = store.find(way, 0);
        if (!w)
            continue;
        EXPECT_NE(w->classAt(0, 500), AceClass::AceLive);
    }
}

TEST_F(L2ProbeTest, FillForDeadLoadIsNotAce)
{
    // The program's next use of the data is a dead load.
    refs_.addLoad(0x00, 4, 0, /*def=*/7);
    l1_.access({0x00, 4, MemCmd::Read, noDef}, 0);
    l1_.access({0x40, 4, MemCmd::Read, noDef}, 100);
    l1_.access({0x80, 4, MemCmd::Read, noDef}, 200);
    refs_.addLoad(0x00, 4, 300, /*def=*/7);
    l1_.access({0x00, 4, MemCmd::Read, noDef}, 300);

    const std::vector<std::uint32_t> dead; // every definition dead
    LifetimeStore store = finalize(1000, dead);
    for (unsigned way = 0; way < 4; ++way) {
        const WordLifetime *w = store.find(way, 0);
        if (!w)
            continue;
        EXPECT_EQ(w->aceCycles(0, 1000), 0u);
    }
}

TEST(L2AceRun, EndToEndProducesL2Lifetimes)
{
    AceRun run = runAceAnalysis("histogram", 1, GpuConfig{},
                                AceStore::L1 | AceStore::L2);
    EXPECT_GT(run.l2.numContainers(), 0u);

    // L2 data was touched; at least one bit should carry ACE time
    // (write-backs of live output data, refills, etc.).
    Cycle total_ace = 0;
    for (const auto &[id, c] : run.l2.containers()) {
        for (const WordLifetime &w : c.words)
            total_ace += w.aceCycles(0, run.horizon);
    }
    EXPECT_GT(total_ace, 0u);
}

TEST(L2AceRun, DisabledByDefault)
{
    AceRun run = runAceAnalysis("histogram");
    EXPECT_EQ(run.l2.numContainers(), 0u);
}

} // namespace
} // namespace mbavf
