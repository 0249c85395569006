/**
 * @file
 * Integration tests for CacheAvfProbe: cache events in, per-bit ACE
 * lifetimes out, including dirty write-back fate resolution.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.hh"
#include "mem/cache_probe.hh"
#include "mem/ref_index.hh"

namespace mbavf
{
namespace
{

class ProbeTest : public ::testing::Test
{
  protected:
    ProbeTest()
        : geom_{2, 2, 16}, dram_(10),
          cache_(CacheParams{"t", 2, 2, 16, 1}, dram_),
          probe_(geom_, refs_)
    {
        cache_.setListener(&probe_);
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
    Cache cache_;
    MemRefIndex refs_;
    CacheAvfProbe probe_;
};

TEST_F(ProbeTest, FillReadMakesAceWindow)
{
    // Miss at t=0 fills at t=10 and reads bytes 0-3.
    cache_.access({0x00, 4, MemCmd::Read, noDef}, 0);
    // Re-read at t=50.
    cache_.access({0x00, 4, MemCmd::Read, noDef}, 50);
    LifetimeStore store = finalize(100, liveAll());

    // Line slot: set 0, way 0 -> container 0.
    const WordLifetime *w = store.find(0, 0);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->classAt(0, 20), AceClass::AceLive);
    EXPECT_EQ(w->classAt(0, 60), AceClass::Unace);
    // Byte 8 is filled but never consumed: it is read out with the
    // line (whole-domain reads) so it is ReadDead until the last
    // line read.
    const WordLifetime *w8 = store.find(0, 8);
    ASSERT_NE(w8, nullptr);
    EXPECT_EQ(w8->classAt(0, 20), AceClass::ReadDead);
}

TEST_F(ProbeTest, DeadLoadGivesReadDead)
{
    cache_.access({0x00, 4, MemCmd::Read, /*def=*/3}, 0);
    cache_.access({0x00, 4, MemCmd::Read, /*def=*/3}, 50);
    const std::vector<std::uint32_t> dead; // every definition dead
    LifetimeStore store = finalize(100, dead);
    const WordLifetime *w = store.find(0, 0);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->classAt(0, 20), AceClass::ReadDead);
}

TEST_F(ProbeTest, DirtyEvictionWithLiveFutureUseIsAce)
{
    // Write line 0x00 dirty; program will load it again at t=500.
    cache_.access({0x00, 4, MemCmd::Write, noDef}, 0);
    refs_.addLoad(0x00, 4, 500, noDef);
    // Conflict-evict it (set 0: 0x00, 0x40, 0x80).
    cache_.access({0x40, 4, MemCmd::Read, noDef}, 100);
    cache_.access({0x80, 4, MemCmd::Read, noDef}, 200);
    LifetimeStore store = finalize(1000, liveAll());
    const WordLifetime *w = store.find(0, 0);
    ASSERT_NE(w, nullptr);
    // Dirty data is ACE from the write until the write-back.
    EXPECT_EQ(w->classAt(0, 50), AceClass::AceLive);
    EXPECT_EQ(w->classAt(0, 150), AceClass::AceLive);
}

TEST_F(ProbeTest, DirtyEvictionWithoutFutureUseIsReadDead)
{
    cache_.access({0x00, 4, MemCmd::Write, noDef}, 0);
    // No future reference recorded: the write-back still reads the
    // array, so the dirty bytes are false-DUE candidates.
    cache_.access({0x40, 4, MemCmd::Read, noDef}, 100);
    cache_.access({0x80, 4, MemCmd::Read, noDef}, 200);
    LifetimeStore store = finalize(1000, liveAll());
    const WordLifetime *w = store.find(0, 0);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->classAt(0, 50), AceClass::ReadDead);
}

TEST_F(ProbeTest, DirtyEvictionOverwrittenInMemoryIsReadDead)
{
    cache_.access({0x00, 4, MemCmd::Write, noDef}, 0);
    refs_.addStore(0x00, 4, 400); // overwritten before any load
    cache_.access({0x40, 4, MemCmd::Read, noDef}, 100);
    cache_.access({0x80, 4, MemCmd::Read, noDef}, 200);
    LifetimeStore store = finalize(1000, liveAll());
    const WordLifetime *w = store.find(0, 0);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->classAt(0, 50), AceClass::ReadDead);
}

TEST_F(ProbeTest, CleanEvictionIsUnace)
{
    cache_.access({0x00, 4, MemCmd::Read, noDef}, 0);
    cache_.access({0x40, 4, MemCmd::Read, noDef}, 100);
    cache_.access({0x80, 4, MemCmd::Read, noDef}, 200);
    LifetimeStore store = finalize(1000, liveAll());
    const WordLifetime *w = store.find(0, 0);
    ASSERT_NE(w, nullptr);
    // ACE only between fill and its consuming read (same cycle
    // here), then dead; the clean eviction adds no read.
    EXPECT_EQ(w->classAt(0, 50), AceClass::Unace);
    EXPECT_EQ(w->classAt(0, 150), AceClass::Unace);
}

TEST_F(ProbeTest, NewGenerationAfterEvictionIsIndependent)
{
    cache_.access({0x00, 4, MemCmd::Read, noDef}, 0);
    cache_.access({0x40, 4, MemCmd::Read, noDef}, 100);
    cache_.access({0x80, 4, MemCmd::Read, noDef}, 200); // 0x00 out
    // 0x00 evicted; slot (0,0) now hosts... way assignment: LRU
    // means 0x80 replaced the LRU line. Touch 0x00 again and read
    // it twice so its new generation has ACE time.
    cache_.access({0x00, 4, MemCmd::Read, noDef}, 300);
    cache_.access({0x00, 4, MemCmd::Read, noDef}, 400);
    LifetimeStore store = finalize(1000, liveAll());
    // Some slot in set 0 carries ACE time in [310, 400).
    bool found = false;
    for (unsigned way = 0; way < 2; ++way) {
        const WordLifetime *w = store.find(way, 0);
        if (w && w->classAt(0, 350) == AceClass::AceLive)
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST_F(ProbeTest, UntouchedSlotsAbsent)
{
    cache_.access({0x00, 4, MemCmd::Read, noDef}, 0);
    LifetimeStore store = finalize(100, liveAll());
    EXPECT_EQ(store.find(3, 0), nullptr); // set 1 way 1 never used
}

TEST_F(ProbeTest, PartialWriteKeepsOtherBytesAce)
{
    cache_.access({0x00, 8, MemCmd::Read, noDef}, 0);
    cache_.access({0x00, 4, MemCmd::Write, noDef}, 50);
    cache_.access({0x00, 8, MemCmd::Read, noDef}, 100);
    LifetimeStore store = finalize(200, liveAll());
    // Byte 4: ACE from fill through the read at 100.
    const WordLifetime *w4 = store.find(0, 4);
    ASSERT_NE(w4, nullptr);
    EXPECT_EQ(w4->classAt(0, 70), AceClass::AceLive);
    // Byte 0: rewritten at 50 with no intervening read, so its old
    // value is Unace after the fill-read; the new value is AceLive
    // until the read at 100.
    const WordLifetime *w0 = store.find(0, 0);
    ASSERT_NE(w0, nullptr);
    EXPECT_EQ(w0->classAt(0, 70), AceClass::AceLive);
    EXPECT_EQ(w0->classAt(0, 30), AceClass::Unace);
}

} // namespace
} // namespace mbavf
