#include "check/arena_lint.hh"

#include <algorithm>
#include <string>

namespace mbavf
{

namespace
{

std::string
wordWhere(const LifetimeArena &arena, std::uint32_t w)
{
    return "container " + std::to_string(arena.wordContainer(w)) +
           " word " + std::to_string(arena.wordIndex(w));
}

} // namespace

void
lintArenaStructure(const LifetimeArena &arena, CheckReport &report)
{
    // Layout: word (offset, count) pairs must tile the segment
    // arrays contiguously in handle order — the build appends words
    // and segments in lockstep, so any gap or overlap is a packing
    // bug (and an out-of-bounds read waiting for the kernel).
    const std::size_t num_segments = arena.numSegments();
    std::uint64_t expected_offset = 0;
    for (std::uint32_t w = 0; w < arena.numWords(); ++w) {
        const std::uint64_t offset = arena.offset(w);
        const std::uint64_t count = arena.count(w);
        if (offset != expected_offset) {
            report.error("arena.offset", wordWhere(arena, w),
                         "offset " + std::to_string(offset) +
                             ", expected " +
                             std::to_string(expected_offset));
        }
        if (count == 0) {
            report.error("arena.offset", wordWhere(arena, w),
                         "empty word materialized in the arena");
        }
        if (offset + count > num_segments) {
            report.error("arena.offset", wordWhere(arena, w),
                         "segments [" + std::to_string(offset) +
                             ", " + std::to_string(offset + count) +
                             ") escape the arena (total " +
                             std::to_string(num_segments) + ")");
            break;
        }
        expected_offset = offset + count;

        const Cycle *begins = arena.begins();
        const Cycle *ends = arena.ends();
        for (std::uint64_t s = offset; s < offset + count; ++s) {
            if (ends[s] <= begins[s]) {
                report.error(
                    "arena.segment-order",
                    wordWhere(arena, w) + " segment " +
                        std::to_string(s - offset),
                    "segment [" + std::to_string(begins[s]) + ", " +
                        std::to_string(ends[s]) +
                        ") empty or backwards");
            }
            if (s > offset && begins[s] < ends[s - 1]) {
                report.error(
                    "arena.segment-order",
                    wordWhere(arena, w) + " segment " +
                        std::to_string(s - offset),
                    "begins at " + std::to_string(begins[s]) +
                        " before predecessor end " +
                        std::to_string(ends[s - 1]));
            }
        }
    }
}

void
lintArenaLifetimes(const LifetimeArena &arena,
                   const LifetimeLintOptions &opts, CheckReport &report)
{
    for (std::uint32_t w = 0; w < arena.numWords(); ++w) {
        // Segments escaping the arrays are lintArenaStructure()'s
        // arena.offset finding; never read past them here.
        const std::uint64_t end =
            std::min<std::uint64_t>(arena.offset(w) + arena.count(w),
                                    arena.numSegments());
        WordLifetime word;
        for (std::uint64_t s = arena.offset(w); s < end; ++s) {
            word.appendUnchecked(
                {arena.begins()[s], arena.ends()[s], arena.masks()[s].ace,
                 arena.masks()[s].read, arena.tags()[s]});
        }
        lintWordLifetime(word, arena.wordWidth(), opts,
                         wordWhere(arena, w), report);
    }
}

} // namespace mbavf
