/**
 * @file
 * Structural lint of ACE lifetimes, one word at a time.
 *
 * A WordLifetime is only meaningful when its segments are sorted,
 * disjoint, non-empty, and confined to the trace horizon, and when
 * every AceLive bit is also a read bit (AceLive means "a live
 * consumption reads this bit out", so aceMask ⊆ readMask by
 * construction of the backward pass). Violations make the overlap
 * classification in the MB-AVF engine (Eq. 2-7 of the paper) silently
 * wrong, so they are surfaced here as hard lint errors.
 * lintArenaLifetimes() (check/arena_lint.hh) runs this lint over
 * every word of a LifetimeArena, the one lifetime form the passes
 * after the lifetime builder read.
 *
 * Codes reported:
 * - lifetime.backwards      segment with end < begin
 * - lifetime.empty-segment  segment with end == begin
 * - lifetime.unsorted       segment begins before its predecessor
 * - lifetime.overlap        segment overlaps its predecessor
 * - lifetime.horizon        segment extends past the trace horizon
 * - lifetime.mask-width     ace/read mask has bits >= word width
 * - lifetime.ace-not-read   aceMask bit outside readMask
 */

#ifndef MBAVF_CHECK_LIFETIME_LINT_HH
#define MBAVF_CHECK_LIFETIME_LINT_HH

#include <string>

#include "check/report.hh"
#include "core/lifetime.hh"

namespace mbavf
{

/** Knobs for the lifetime lint pass. */
struct LifetimeLintOptions
{
    /** End of the trace window; 0 disables the horizon check. */
    Cycle horizon = 0;
};

/**
 * Lint one word's segment list. @p where prefixes finding locations
 * (e.g. "container 3 word 2").
 */
void lintWordLifetime(const WordLifetime &word, unsigned word_width,
                      const LifetimeLintOptions &opts,
                      const std::string &where, CheckReport &report);

} // namespace mbavf

#endif // MBAVF_CHECK_LIFETIME_LINT_HH
