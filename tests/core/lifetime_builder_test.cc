/**
 * @file
 * Tests for the backward lifetime builder: event semantics of
 * writes, live/dead reads, liveness resolution, and bit-exact
 * relevance refinement.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/lifetime_builder.hh"

namespace mbavf
{
namespace
{

/** Relevance @p rel for every definition the tests name (ids < 16). */
std::vector<std::uint32_t>
uniform(std::uint32_t rel)
{
    return std::vector<std::uint32_t>(16, rel);
}

std::vector<std::uint32_t>
alwaysLive()
{
    return uniform(~std::uint32_t(0));
}

std::vector<std::uint32_t>
alwaysDead()
{
    return {};
}

TEST(LifetimeBuilder, EmptyLogIsEmpty)
{
    WordEventLog log;
    WordLifetime lt = buildWordLifetime(log, 100, 8, alwaysLive());
    EXPECT_TRUE(lt.empty());
}

TEST(LifetimeBuilder, WriteThenLiveRead)
{
    WordEventLog log;
    log.write(10, 0xFF);
    log.read(40, 0xFF, noDef);
    WordLifetime lt = buildWordLifetime(log, 100, 8, alwaysLive());

    // Before the write: a fault is erased -> Unace.
    EXPECT_EQ(lt.classAt(0, 5), AceClass::Unace);
    // Between write and read: consumed live -> AceLive.
    EXPECT_EQ(lt.classAt(0, 10), AceClass::AceLive);
    EXPECT_EQ(lt.classAt(0, 39), AceClass::AceLive);
    // After the last read: Unace.
    EXPECT_EQ(lt.classAt(0, 40), AceClass::Unace);
    EXPECT_EQ(lt.aceCycles(0, 100), 30u);
}

TEST(LifetimeBuilder, DeadReadIsReadDead)
{
    WordEventLog log;
    log.write(0, 0xFF);
    log.read(20, 0xFF, /*def=*/7);
    WordLifetime lt = buildWordLifetime(log, 50, 8, alwaysDead());
    EXPECT_EQ(lt.classAt(3, 10), AceClass::ReadDead);
    EXPECT_EQ(lt.readDeadCycles(3, 50), 20u);
    EXPECT_EQ(lt.aceCycles(3, 50), 0u);
}

TEST(LifetimeBuilder, OverwriteEndsAceTime)
{
    WordEventLog log;
    log.write(0, 0xFF);
    log.read(10, 0xFF, noDef);
    log.write(30, 0xFF);
    log.read(60, 0xFF, noDef);
    WordLifetime lt = buildWordLifetime(log, 80, 8, alwaysLive());
    EXPECT_EQ(lt.classAt(0, 5), AceClass::AceLive);
    // Between last read and overwrite: Unace.
    EXPECT_EQ(lt.classAt(0, 15), AceClass::Unace);
    EXPECT_EQ(lt.classAt(0, 45), AceClass::AceLive);
    EXPECT_EQ(lt.aceCycles(0, 80), 10u + 30u);
}

TEST(LifetimeBuilder, PartialWriteOnlyClearsMaskedBits)
{
    WordEventLog log;
    log.write(0, 0xFF);
    log.write(10, 0x0F); // overwrite low nibble only
    log.read(30, 0xFF, noDef);
    WordLifetime lt = buildWordLifetime(log, 40, 8, alwaysLive());
    // High bits: ACE from 0; low bits: ACE only from 10.
    EXPECT_EQ(lt.classAt(7, 5), AceClass::AceLive);
    EXPECT_EQ(lt.classAt(0, 5), AceClass::Unace);
    EXPECT_EQ(lt.classAt(0, 15), AceClass::AceLive);
}

TEST(LifetimeBuilder, UnconsumedBitsOfReadWordAreReadDead)
{
    WordEventLog log;
    log.write(0, 0xFF);
    log.read(20, 0x01, noDef); // only bit 0 consumed
    WordLifetime lt = buildWordLifetime(log, 30, 8, alwaysLive());
    EXPECT_EQ(lt.classAt(0, 10), AceClass::AceLive);
    // Bits 1..7 are read out with the word but not consumed.
    EXPECT_EQ(lt.classAt(5, 10), AceClass::ReadDead);
}

TEST(LifetimeBuilder, ExactReadRefinesByConsumerRelevance)
{
    WordEventLog log;
    log.write(0, 0xFF);
    log.readExact(16, 0xFF, /*def=*/3, /*rel_shift=*/0);
    // Consumer only cares about bits 0-3.
    std::vector<std::uint32_t> live = uniform(0);
    live[3] = 0x0F;
    WordLifetime lt = buildWordLifetime(log, 20, 8, live);
    EXPECT_EQ(lt.classAt(2, 8), AceClass::AceLive);
    EXPECT_EQ(lt.classAt(6, 8), AceClass::ReadDead);
}

TEST(LifetimeBuilder, ExactReadAppliesRelShift)
{
    // This word holds byte 2 of a 32-bit value: its bits are value
    // bits 16-23, so resolver relevance must be shifted by 16.
    WordEventLog log;
    log.write(0, 0xFF);
    log.readExact(10, 0xFF, /*def=*/9, /*rel_shift=*/16);
    const auto live = uniform(0x00FF0000); // value bits 16-23 matter
    WordLifetime lt = buildWordLifetime(log, 12, 8, live);
    EXPECT_EQ(lt.classAt(0, 5), AceClass::AceLive);
    EXPECT_EQ(lt.classAt(7, 5), AceClass::AceLive);

    const auto other = uniform(0x000000FF); // low byte matters instead
    WordLifetime lt2 = buildWordLifetime(log, 12, 8, other);
    EXPECT_EQ(lt2.classAt(0, 5), AceClass::ReadDead);
}

TEST(LifetimeBuilder, NonExactReadIsAllOrNothing)
{
    WordEventLog log;
    log.write(0, 0xFF);
    log.read(10, 0xF0, /*def=*/5);
    const auto live = uniform(1); // any nonzero relevance = live
    WordLifetime lt = buildWordLifetime(log, 12, 8, live);
    EXPECT_EQ(lt.classAt(7, 5), AceClass::AceLive);
    EXPECT_EQ(lt.classAt(0, 5), AceClass::ReadDead);
}

TEST(LifetimeBuilder, TailAfterLastEventIsUnace)
{
    WordEventLog log;
    log.write(0, 0xFF);
    log.read(10, 0xFF, noDef);
    WordLifetime lt = buildWordLifetime(log, 100, 8, alwaysLive());
    EXPECT_EQ(lt.classAt(0, 50), AceClass::Unace);
    EXPECT_EQ(lt.classAt(0, 99), AceClass::Unace);
}

TEST(LifetimeBuilder, SameCycleWriteThenRead)
{
    // A miss fill and its consuming read land on the same cycle;
    // the fault before the fill must be erased.
    WordEventLog log;
    log.write(10, 0xFF);
    log.read(10, 0xFF, noDef);
    log.read(20, 0xFF, noDef);
    WordLifetime lt = buildWordLifetime(log, 30, 8, alwaysLive());
    EXPECT_EQ(lt.classAt(0, 5), AceClass::Unace);
    EXPECT_EQ(lt.classAt(0, 15), AceClass::AceLive);
}

TEST(LifetimeBuilder, MultipleReadsExtendAceTime)
{
    WordEventLog log;
    log.write(0, 0xFF);
    log.read(10, 0xFF, noDef);
    log.read(50, 0xFF, /*def=*/4);
    // Second read dead: ACE until first read, ReadDead between.
    WordLifetime lt = buildWordLifetime(log, 60, 8, alwaysDead());
    EXPECT_EQ(lt.classAt(0, 5), AceClass::AceLive);
    EXPECT_EQ(lt.classAt(0, 30), AceClass::ReadDead);
}

TEST(LifetimeBuilder, SegmentsCarryTheirProducersTag)
{
    // Two writes by different instructions: every segment between a
    // write and the next carries exactly that write's tag, and the
    // pre-first-write stretch stays untracked.
    WordEventLog log;
    const InstrTag t1 = makeInstrTag(0, 3);
    const InstrTag t2 = makeInstrTag(1, 8);
    log.read(5, 0xFF, noDef); // pre-write garbage, still read
    log.write(10, 0xFF, t1);
    log.read(20, 0xFF, noDef);
    log.write(30, 0xFF, t2);
    log.read(45, 0xFF, noDef);
    WordLifetime lt = buildWordLifetime(log, 60, 8, alwaysLive());

    for (const LifeSegment &seg : lt.segments()) {
        if (seg.end <= 10) {
            EXPECT_EQ(seg.tag, noInstrTag)
                << "[" << seg.begin << "," << seg.end << ")";
        } else if (seg.end <= 30) {
            EXPECT_EQ(seg.tag, t1)
                << "[" << seg.begin << "," << seg.end << ")";
        } else {
            EXPECT_EQ(seg.tag, t2)
                << "[" << seg.begin << "," << seg.end << ")";
        }
    }
}

TEST(LifetimeBuilder, UntaggedWritesYieldUntaggedSegments)
{
    WordEventLog log;
    log.write(0, 0xFF);
    log.read(10, 0xFF, noDef);
    WordLifetime lt = buildWordLifetime(log, 20, 8, alwaysLive());
    ASSERT_FALSE(lt.empty());
    for (const LifeSegment &seg : lt.segments())
        EXPECT_EQ(seg.tag, noInstrTag);
}

TEST(LifetimeBuilder, OutOfOrderEventsPanic)
{
    WordEventLog log;
    log.write(10, 0xFF);
    log.write(5, 0xFF);
    EXPECT_DEATH(buildWordLifetime(log, 20, 8, alwaysLive()),
                 "out of time order");
}

} // namespace
} // namespace mbavf
