/**
 * @file
 * Structural lint of a LifetimeArena, the one lifetime form every
 * pass after the lifetime builder reads.
 *
 * The multi-mode sweep kernel trusts the arena blindly: word handles
 * index the offset table, (offset, count) pairs index the flat
 * segment arrays, and segments are assumed sorted and disjoint. A
 * packing bug, or a malformed store flattened verbatim, silently
 * corrupts every AVF number downstream, so lintArenaStructure()
 * re-derives the layout invariants from scratch:
 *
 * Codes reported:
 * - arena.offset          word offsets not contiguous-monotone, or
 *                         (offset, count) escapes the segment arrays
 * - arena.segment-order   a word's flat segments unsorted, empty,
 *                         backwards, or overlapping
 *
 * lintArenaLifetimes() applies the lifetime lint
 * (check/lifetime_lint.hh) to every word: mask width, aceMask within
 * readMask, and the horizon. `mbavf_lint` runs both passes on the
 * arena snapshot of each store of a `--workload` run, and on a file
 * mapped by `--arena=FILE`, whose loader has already checked the
 * byte-level framing and segment order; the loader's own rejections
 * surface as `arena.file` in the tool.
 */

#ifndef MBAVF_CHECK_ARENA_LINT_HH
#define MBAVF_CHECK_ARENA_LINT_HH

#include "check/lifetime_lint.hh"
#include "check/report.hh"
#include "core/lifetime_arena.hh"

namespace mbavf
{

/** Lint @p arena's layout: arena.offset and arena.segment-order. */
void lintArenaStructure(const LifetimeArena &arena,
                        CheckReport &report);

/**
 * lintWordLifetime() over every arena word (lifetime.* codes): mask
 * width, aceMask within readMask, and segments past @p opts.horizon.
 */
void lintArenaLifetimes(const LifetimeArena &arena,
                        const LifetimeLintOptions &opts,
                        CheckReport &report);

} // namespace mbavf

#endif // MBAVF_CHECK_ARENA_LINT_HH
