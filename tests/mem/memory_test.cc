/**
 * @file
 * Tests for MainMemory and the program-order reference index.
 */

#include <gtest/gtest.h>

#include <optional>

#include "common/trap.hh"
#include "mem/memory.hh"
#include "mem/ref_index.hh"

namespace mbavf
{
namespace
{

TEST(MainMemory, ReadWriteRoundTrip)
{
    MainMemory mem(1024);
    mem.write32(16, 0xDEADBEEF);
    EXPECT_EQ(mem.read32(16), 0xDEADBEEFu);
    EXPECT_EQ(mem.read8(16), 0xEFu); // little-endian
    EXPECT_EQ(mem.read8(19), 0xDEu);
}

TEST(MainMemory, AllocAligns)
{
    MainMemory mem(4096);
    Addr a = mem.alloc(10, 64);
    Addr b = mem.alloc(10, 64);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 10);
}

TEST(MainMemory, AllocExhaustionIsFatal)
{
    MainMemory mem(128);
    EXPECT_DEATH(mem.alloc(1024), "exhausted");
}

TEST(MainMemory, OutOfRangeTraps)
{
    MainMemory mem(16);
    try {
        mem.read32(14);
        FAIL() << "out-of-range read did not trap";
    } catch (const SimTrap &trap) {
        EXPECT_EQ(trap.code(), trapcode::memOob);
        EXPECT_NE(std::string(trap.what()).find("out of range"),
                  std::string::npos);
    }
}

TEST(MainMemory, OriginsLazyAndDefault)
{
    MainMemory mem(256);
    EXPECT_EQ(mem.origin(0), noDef);
    mem.hostWrite32(0, 5); // noDef origin: stays lazy
    EXPECT_EQ(mem.origin(0), noDef);
    mem.setOrigin(8, 42);
    EXPECT_EQ(mem.origin(8), 42u);
    EXPECT_EQ(mem.origin(11), 42u); // every byte of the word
    EXPECT_EQ(mem.origin(12), noDef);
    EXPECT_EQ(mem.origin(0), noDef);
    // Provenance is per aligned word: a partial-word origin is a bug.
    EXPECT_DEATH(mem.setOrigin(2, 7), "unaligned");
}

TEST(RefIndex, FirstAfterFindsLoad)
{
    MemRefIndex idx;
    idx.addStore(100, 4, 10);
    idx.addLoad(100, 4, 50, 7);
    idx.finalize();
    const std::optional<ByteRef> r = idx.firstAfter(101, 20);
    ASSERT_TRUE(r);
    EXPECT_TRUE(r->isLoad);
    EXPECT_EQ(r->def, 7u);
    EXPECT_EQ(r->relShift, 8);
}

TEST(RefIndex, InclusiveAtTime)
{
    MemRefIndex idx;
    idx.addLoad(100, 4, 50, 7);
    idx.finalize();
    const std::optional<ByteRef> r = idx.firstAfter(100, 50);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->time, 50u);
}

TEST(RefIndex, NoFutureReference)
{
    MemRefIndex idx;
    idx.addLoad(100, 4, 50, 7);
    idx.finalize();
    EXPECT_FALSE(idx.firstAfter(100, 51));
    EXPECT_FALSE(idx.firstAfter(999, 0));
}

TEST(RefIndex, StoreShadowsLaterLoad)
{
    MemRefIndex idx;
    idx.addStore(100, 4, 20);
    idx.addLoad(100, 4, 60, 9);
    idx.finalize();
    const std::optional<ByteRef> r = idx.firstAfter(100, 10);
    ASSERT_TRUE(r);
    EXPECT_FALSE(r->isLoad); // the store comes first
}

TEST(RefIndex, OneRecordPerWordAndRangeSplitsByWord)
{
    MemRefIndex idx;
    idx.addLoad(100, 4, 50, 7);   // one lane access: one record
    idx.addLoad(200, 64, 90, noDef); // an output range: one per word
    EXPECT_EQ(idx.size(), 1u + 16u);
    idx.finalize();
    const std::optional<ByteRef> r = idx.firstAfter(261, 60);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->time, 90u);
    EXPECT_FALSE(idx.firstAfter(264, 60));
}

TEST(RefIndex, SameCycleReferencesKeepRecordingOrder)
{
    MemRefIndex idx;
    idx.addLoad(100, 4, 50, 7);
    idx.addStore(100, 4, 50);
    idx.finalize();
    const std::optional<ByteRef> r = idx.firstAfter(102, 50);
    ASSERT_TRUE(r);
    EXPECT_TRUE(r->isLoad);
    EXPECT_EQ(r->relShift, 16);
}

TEST(RefIndex, SubWordReferencesResolvePerByte)
{
    // Per-byte references of one word, recorded byte by byte: the
    // word's log is not in time order until finalize() sorts it.
    MemRefIndex idx;
    idx.addLoad(100, 1, 50, 7);
    idx.addStore(101, 1, 10);
    idx.finalize();
    const std::optional<ByteRef> r = idx.firstAfter(100, 20);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->time, 50u);
    EXPECT_TRUE(r->isLoad);
    EXPECT_FALSE(idx.firstAfter(101, 20));
}

TEST(RefIndex, OutOfTimeOrderPanics)
{
    MemRefIndex idx;
    idx.addLoad(100, 4, 50, 7);
    idx.addLoad(102, 1, 40, 8); // byte 102 goes back in time
    EXPECT_DEATH(idx.finalize(), "out of time order");
}

} // namespace
} // namespace mbavf
