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

void
lintLifetimeArena(const LifetimeArena &arena,
                  const LifetimeStore &store, CheckReport &report)
{
    if (arena.wordWidth() != store.wordWidth() ||
        arena.wordsPerContainer() != store.wordsPerContainer()) {
        report.error("arena.config", "arena",
                     "arena is " +
                         std::to_string(arena.wordWidth()) + "x" +
                         std::to_string(arena.wordsPerContainer()) +
                         ", store is " +
                         std::to_string(store.wordWidth()) + "x" +
                         std::to_string(store.wordsPerContainer()));
    }

    lintArenaStructure(arena, report);

    const std::size_t num_segments = arena.numSegments();

    // Round trip, arena -> store: every arena word must trace back
    // to a word that exists in the store (segment equality is
    // checked in the store -> arena direction below).
    for (std::uint32_t w = 0; w < arena.numWords(); ++w) {
        auto it = store.containers().find(arena.wordContainer(w));
        if (it == store.containers().end()) {
            report.error("arena.stale-word", wordWhere(arena, w),
                         "container absent from the store");
        } else if (arena.wordIndex(w) >= it->second.words.size()) {
            report.error("arena.stale-word", wordWhere(arena, w),
                         "word index beyond the store container's " +
                             std::to_string(it->second.words.size()) +
                             " word(s)");
        }
    }

    // Round trip, store -> arena: every non-empty store word must
    // resolve to an arena word carrying exactly the same segments.
    for (const auto &[id, container] : store.containers()) {
        for (std::size_t word = 0; word < container.words.size();
             ++word) {
            const WordLifetime &life = container.words[word];
            const std::string where =
                "container " + std::to_string(id) + " word " +
                std::to_string(word);
            // findWord() answers noWord above the configured width;
            // resolving such words through it would mask the
            // lifetime.word-count finding, so they are pinned to
            // noWord here and left to that check.
            const std::uint32_t handle =
                word < store.wordsPerContainer()
                    ? arena.findWord(id,
                                     static_cast<unsigned>(word))
                    : LifetimeArena::noWord;
            if (life.empty()) {
                if (handle != LifetimeArena::noWord) {
                    report.error("arena.stale-word", where,
                                 "store word is empty but the arena "
                                 "holds " +
                                     std::to_string(
                                         arena.count(handle)) +
                                     " segment(s)");
                }
                continue;
            }
            if (handle == LifetimeArena::noWord) {
                report.error("arena.missing-word", where,
                             "non-empty store word has no arena "
                             "handle");
                continue;
            }
            if (arena.wordContainer(handle) != id ||
                arena.wordIndex(handle) != word) {
                report.error(
                    "arena.missing-word", where,
                    "handle resolves to container " +
                        std::to_string(arena.wordContainer(handle)) +
                        " word " +
                        std::to_string(arena.wordIndex(handle)));
                continue;
            }
            const auto &segs = life.segments();
            if (arena.count(handle) != segs.size()) {
                report.error(
                    "arena.stale-word", where,
                    "arena holds " +
                        std::to_string(arena.count(handle)) +
                        " segment(s), store has " +
                        std::to_string(segs.size()));
                continue;
            }
            const std::uint32_t base = arena.offset(handle);
            for (std::size_t s = 0; s < segs.size(); ++s) {
                const std::uint32_t slot =
                    base + static_cast<std::uint32_t>(s);
                if (slot >= num_segments)
                    break; // already reported as arena.offset
                if (arena.begins()[slot] != segs[s].begin ||
                    arena.ends()[slot] != segs[s].end ||
                    arena.masks()[slot].ace != segs[s].aceMask ||
                    arena.masks()[slot].read != segs[s].readMask) {
                    report.error("arena.stale-word",
                                 where + " segment " +
                                     std::to_string(s),
                                 "arena segment differs from the "
                                 "store (stale snapshot?)");
                }
                if (arena.tags()[slot] != segs[s].tag) {
                    report.error("arena.stale-tag",
                                 where + " segment " +
                                     std::to_string(s),
                                 "arena attribution tag differs from "
                                 "the store (stale snapshot?)");
                }
            }
        }
    }
}

} // namespace mbavf
