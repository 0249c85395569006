/**
 * @file
 * Structural lint of a LifetimeArena against its source store.
 *
 * The multi-mode sweep kernel trusts the arena blindly: word handles
 * index the offset table, (offset, count) pairs index the flat
 * segment arrays, and segments are assumed sorted and disjoint
 * because the source WordLifetime was. A stale snapshot (store
 * mutated after the arena was built) or a packing bug silently
 * corrupts every AVF number downstream, so this pass re-derives the
 * invariants from scratch:
 *
 * Codes reported:
 * - arena.config          word width / words-per-container mismatch
 * - arena.offset          word offsets not contiguous-monotone, or
 *                         (offset, count) escapes the segment arrays
 * - arena.segment-order   a word's flat segments unsorted, empty,
 *                         backwards, or overlapping
 * - arena.missing-word    store has a non-empty word the arena
 *                         cannot find (or maps to the wrong slot)
 * - arena.stale-word      arena word absent from the store, or its
 *                         segments differ from the store's
 * - arena.stale-tag       the arena's attribution column differs
 *                         from the store's segment tags
 *
 * The structure-only entry point covers the first three codes and
 * needs no store — it is what `mbavf_lint --arena=FILE` runs on an
 * arena loaded from disk (the file loader already validated the
 * byte-level framing; this pass re-derives the semantic layout
 * invariants the kernel trusts), together with lintArenaLifetimes(),
 * which applies the lifetime lint (check/lifetime_lint.hh) to every
 * word: the loader checks segment order but not masks or the
 * horizon. The file loader's own rejections surface as `arena.file`
 * in the tool.
 */

#ifndef MBAVF_CHECK_ARENA_LINT_HH
#define MBAVF_CHECK_ARENA_LINT_HH

#include "check/lifetime_lint.hh"
#include "check/report.hh"
#include "core/lifetime.hh"
#include "core/lifetime_arena.hh"

namespace mbavf
{

/** Lint @p arena's internal layout and its fidelity to @p store. */
void lintLifetimeArena(const LifetimeArena &arena,
                       const LifetimeStore &store,
                       CheckReport &report);

/** Layout-only lint for arenas with no source store (file mode). */
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
