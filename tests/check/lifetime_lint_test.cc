/**
 * @file
 * Tests of the lifetime lint pass and the CheckReport accumulator.
 */

#include <gtest/gtest.h>

#include "check/arena_lint.hh"
#include "check/lifetime_lint.hh"
#include "check/report.hh"
#include "core/lifetime.hh"
#include "core/lifetime_arena.hh"

namespace mbavf
{
namespace
{

WordLifetime
makeWord(std::initializer_list<LifeSegment> segs)
{
    WordLifetime word;
    for (const LifeSegment &seg : segs)
        word.appendUnchecked(seg);
    return word;
}

TEST(LifetimeLint, CleanWordHasNoFindings)
{
    WordLifetime word = makeWord({{0, 10, 0x0f, 0xff},
                                  {10, 20, 0x01, 0x01},
                                  {25, 40, 0x00, 0xf0}});
    CheckReport report;
    lintWordLifetime(word, 8, {}, "w", report);
    EXPECT_TRUE(report.clean());
}

TEST(LifetimeLint, FlagsBackwardsSegment)
{
    WordLifetime word = makeWord({{20, 10, 0, 0}});
    CheckReport report;
    lintWordLifetime(word, 8, {}, "w", report);
    EXPECT_TRUE(report.has("lifetime.backwards"));
}

TEST(LifetimeLint, FlagsEmptySegment)
{
    WordLifetime word = makeWord({{10, 10, 0, 0}});
    CheckReport report;
    lintWordLifetime(word, 8, {}, "w", report);
    EXPECT_TRUE(report.has("lifetime.empty-segment"));
}

TEST(LifetimeLint, FlagsOverlap)
{
    WordLifetime word = makeWord({{0, 10, 0, 1}, {5, 15, 0, 1}});
    CheckReport report;
    lintWordLifetime(word, 8, {}, "w", report);
    EXPECT_EQ(report.countOf("lifetime.overlap"), 1u);
    EXPECT_FALSE(report.has("lifetime.unsorted"));
}

TEST(LifetimeLint, FlagsUnsorted)
{
    WordLifetime word = makeWord({{10, 20, 0, 1}, {0, 5, 0, 1}});
    CheckReport report;
    lintWordLifetime(word, 8, {}, "w", report);
    EXPECT_TRUE(report.has("lifetime.unsorted"));
}

TEST(LifetimeLint, FlagsHorizonOnlyWhenConfigured)
{
    WordLifetime word = makeWord({{0, 100, 0, 1}});
    CheckReport no_horizon_report;
    lintWordLifetime(word, 8, {}, "w", no_horizon_report);
    EXPECT_TRUE(no_horizon_report.clean());

    LifetimeLintOptions opts;
    opts.horizon = 50;
    CheckReport report;
    lintWordLifetime(word, 8, opts, "w", report);
    EXPECT_TRUE(report.has("lifetime.horizon"));
}

TEST(LifetimeLint, FlagsMaskWiderThanWord)
{
    WordLifetime word = makeWord({{0, 10, 0, 0x100}});
    CheckReport report;
    lintWordLifetime(word, 8, {}, "w", report);
    EXPECT_TRUE(report.has("lifetime.mask-width"));
}

TEST(LifetimeLint, FlagsAceBitsOutsideReadMask)
{
    WordLifetime word = makeWord({{0, 10, 0x03, 0x01}});
    CheckReport report;
    lintWordLifetime(word, 8, {}, "w", report);
    EXPECT_TRUE(report.has("lifetime.ace-not-read"));
}

TEST(LifetimeLint, StoreLintsEveryWord)
{
    LifetimeStore store(8, 2);
    ContainerLifetime &c = store.container(0);
    c.words.resize(2);
    c.words[0].appendUnchecked({0, 10, 0, 1});
    c.words[1].appendUnchecked({5, 15, 0, 1});
    c.words[1].appendUnchecked({10, 20, 0, 1});
    c.words[1].appendUnchecked({25, 30, 0, 1});
    CheckReport report;
    lintArenaLifetimes(LifetimeArena(store), {}, report);
    EXPECT_EQ(report.countOf("lifetime.overlap"), 1u);
    EXPECT_EQ(report.errorCount(), 1u);
}

TEST(CheckReport, PerCodeCapStoresFirstButCountsAll)
{
    CheckReport report;
    report.setPerCodeLimit(3);
    for (int i = 0; i < 10; ++i)
        report.error("x.y", "loc", "msg");
    EXPECT_EQ(report.findings().size(), 3u);
    EXPECT_EQ(report.countOf("x.y"), 10u);
    EXPECT_EQ(report.totalCount(), 10u);
}

TEST(CheckReport, SeparatesWarningsFromErrors)
{
    CheckReport report;
    report.warning("a.b", "loc", "msg");
    report.error("c.d", "loc", "msg");
    EXPECT_EQ(report.warningCount(), 1u);
    EXPECT_EQ(report.errorCount(), 1u);
    EXPECT_FALSE(report.clean());
}

} // namespace
} // namespace mbavf
