/**
 * @file
 * Persistent binary format for LifetimeArenas ("build once, sweep
 * many").
 *
 * Snapshotting a large LifetimeStore into the flat arena is itself a
 * memory-bound pass; a design sweep that re-analyzes one simulation
 * under many schemes and layouts pays it on every run. saveArena()
 * writes the arena's columns verbatim into a versioned, 64-byte
 * aligned, little-endian file (format: DESIGN.md Section 13) and
 * tryLoadArena() maps it back read-only — the loaded arena aliases the
 * mapping, so load time and memory are O(1) in the segment count and
 * a mapped arena is indistinguishable from a built one to the sweep
 * kernel (bit-identical results at any thread count).
 *
 * Writes are atomic: the image is assembled at <path>.tmp and
 * renamed over the destination, so readers never observe a torn
 * file. Loading validates the header, the section layout (with
 * overflow-checked arithmetic against the actual file size), and
 * every cross-array index before the arena is handed out; anything
 * suspect is rejected whole. Deeper semantic checks — segment
 * ordering, arena-vs-store staleness — remain the job of
 * `mbavf_lint --arena`.
 *
 * The format is at version 2, whose last section is the per-segment
 * InstrTag attribution column; a file of any other version is
 * rejected.
 */

#ifndef MBAVF_CORE_ARENA_IO_HH
#define MBAVF_CORE_ARENA_IO_HH

#include <optional>
#include <string>

#include "common/types.hh"
#include "core/lifetime.hh"
#include "core/lifetime_arena.hh"

namespace mbavf
{

/**
 * Write @p arena to @p path atomically. @p horizon records the
 * measurement horizon the producer was configured with (0 = none);
 * consumers may use it as their default sweep horizon. Fatal, before
 * anything is written, on a word at index >= wordsPerContainer() (the
 * snapshot of a malformed store), which tryLoadArena() would reject.
 */
void saveArena(const LifetimeArena &arena, const std::string &path,
               Cycle horizon = 0);

/**
 * Map the arena file at @p path read-only. Returns nullopt and sets
 * @p error on any structural problem — bad magic or version, foreign
 * byte order, a section layout that disagrees with the file size, or
 * an out-of-range cross-array index. When @p horizon is non-null it
 * receives the stored producer horizon.
 *
 * The returned arena aliases the file mapping (malloc fallback when
 * mmap is unavailable); copies share it refcounted.
 */
std::optional<LifetimeArena> tryLoadArena(const std::string &path,
                                          std::string &error,
                                          Cycle *horizon = nullptr);

/**
 * saveArena(LifetimeArena(store), path, horizon). Only the perfbench
 * harness (perfbench/harness/trace_harness.cc) still calls it; it
 * goes when the harness moves from LifetimeStore onto arenas.
 */
void streamArenaFromStore(const LifetimeStore &store,
                          const std::string &path, Cycle horizon = 0);

} // namespace mbavf

#endif // MBAVF_CORE_ARENA_IO_HH
