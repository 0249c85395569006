/**
 * @file
 * Arena lint tests: a faithful snapshot is clean; malformed source
 * segments are flagged; the lifetime rules (masks, horizon) fire on
 * arena words.
 */

#include <gtest/gtest.h>

#include "check/arena_lint.hh"
#include "check/report.hh"
#include "core/lifetime.hh"
#include "core/lifetime_arena.hh"

namespace mbavf
{
namespace
{

LifetimeStore
smallStore()
{
    LifetimeStore store(8, 2);
    store.container(1).words[0].append({0, 10, 0x0f, 0x0f});
    store.container(1).words[1].append({5, 9, 0x01, 0x03});
    store.container(4).words[0].append({2, 6, 0x80, 0x80});
    return store;
}

TEST(ArenaLint, FaithfulSnapshotIsClean)
{
    const LifetimeArena arena(smallStore());
    CheckReport report;
    lintArenaStructure(arena, report);
    lintArenaLifetimes(arena, {}, report);
    EXPECT_TRUE(report.clean());
}

TEST(ArenaLint, FlagsMalformedSourceSegments)
{
    LifetimeStore store = smallStore();
    // Overlap smuggled in through the unchecked (lint/deserialize)
    // path lands in the arena verbatim and breaks its ordering
    // invariant.
    store.container(4).words[0].appendUnchecked({4, 12, 0x01, 0x01});
    const LifetimeArena arena(store);
    CheckReport report;
    lintArenaStructure(arena, report);
    EXPECT_TRUE(report.has("arena.segment-order"));
}

TEST(ArenaLint, LifetimeRulesFlagMasksWiderThanTheWord)
{
    LifetimeStore store = smallStore();
    store.container(4).words[1].append({0, 4, 0x100, 0x100});
    LifetimeArena arena(store);
    CheckReport report;
    lintArenaLifetimes(arena, {}, report);
    EXPECT_TRUE(report.has("lifetime.mask-width"));
}

TEST(ArenaLint, LifetimeRulesFlagAceBitsOutsideReadMask)
{
    LifetimeStore store = smallStore();
    store.container(4).words[1].append({0, 4, 0x03, 0x01});
    LifetimeArena arena(store);
    CheckReport report;
    lintArenaLifetimes(arena, {}, report);
    EXPECT_TRUE(report.has("lifetime.ace-not-read"));
}

TEST(ArenaLint, LifetimeRulesFlagSegmentsPastTheHorizon)
{
    LifetimeStore store = smallStore();
    LifetimeArena arena(store);
    LifetimeLintOptions opts;
    opts.horizon = 10; // the latest segment ends exactly here
    CheckReport clean;
    lintArenaLifetimes(arena, opts, clean);
    EXPECT_TRUE(clean.clean());

    opts.horizon = 9;
    CheckReport report;
    lintArenaLifetimes(arena, opts, report);
    EXPECT_TRUE(report.has("lifetime.horizon"));
}

} // namespace
} // namespace mbavf
