/**
 * @file
 * Two-phase ACE analysis: an event-tracking phase appends raw word
 * events during simulation; the analysis phase resolves liveness and
 * runs a backward pass that turns each word's event list into labeled
 * LifeSegments (Section V of the paper).
 *
 * Event semantics per word:
 * - Write(mask): the masked bits are overwritten; prior faults in
 *   them vanish.
 * - Read(consumeMask, def, ...): the *whole word* is read out of the
 *   array (so a resident fault anywhere in the word would be observed
 *   by the protection scheme); bits in consumeMask are additionally
 *   consumed by dynamic definition @c def. Whether that consumption
 *   reaches program output — and which bits of it matter, per the
 *   logic-masking analysis — is resolved after the run through the
 *   RelevanceTable. Dirty write-backs are Reads whose consumption
 *   reflects the post-eviction future use of the data.
 * - The lifetime window closes at end_time (eviction / end of run).
 *
 * The backward pass computes, for every inter-event gap and bit b:
 * - willBeConsumedLive(b): a live consumption of b occurs before b is
 *   next overwritten  -> AceLive
 * - willBeRead(b): some read of the word occurs before b is next
 *   overwritten       -> ReadDead (when not AceLive)
 * - otherwise         -> Unace
 */

#ifndef MBAVF_CORE_LIFETIME_BUILDER_HH
#define MBAVF_CORE_LIFETIME_BUILDER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "core/lifetime.hh"

namespace mbavf
{

/** One raw event on a word, recorded during simulation. */
struct WordEvent
{
    enum class Kind : std::uint8_t { Write, Read };

    Cycle time = 0;
    Kind kind = Kind::Write;

    /** Write: overwritten bits. Read: consumed bits (pre-liveness). */
    std::uint64_t mask = 0;

    /**
     * Read only: dynamic definition consuming the value; liveness and
     * bit relevance are resolved during the analysis phase. noDef
     * means unconditionally fully live (e.g. an output store / DMA).
     */
    DefId def = noDef;

    /**
     * Read only: when true, the consuming operation propagates bits
     * positionally (a move/load chain), so the consumer's resolved
     * relevance mask — shifted right by relShift bits to align the
     * consumer's value coordinates with this word — refines which
     * consumed bits matter. When false, the consumption is
     * all-or-nothing: every consumed bit matters iff the consumer is
     * live at all (arithmetic, compares, addresses).
     */
    bool exact = false;

    /** Read only (exact): consumer-value bit offset of word bit 0. */
    std::uint8_t relShift = 0;

    /** Write only: static instruction producing the written data. */
    InstrTag tag = noInstrTag;
};

/** Event list of one word (append-only, time-ordered). */
struct WordEventLog
{
    std::vector<WordEvent> events;

    void
    write(Cycle t, std::uint64_t mask, InstrTag tag = noInstrTag)
    {
        events.push_back({t, WordEvent::Kind::Write, mask, noDef,
                          false, 0, tag});
    }

    /** All-or-nothing read: consumed bits matter iff @p def is live. */
    void
    read(Cycle t, std::uint64_t consume_mask, DefId def)
    {
        events.push_back({t, WordEvent::Kind::Read, consume_mask, def,
                          false, 0});
    }

    /** Bit-exact read: consumer relevance refines the consumed bits. */
    void
    readExact(Cycle t, std::uint64_t consume_mask, DefId def,
              std::uint8_t rel_shift)
    {
        events.push_back({t, WordEvent::Kind::Read, consume_mask, def,
                          true, rel_shift});
    }
};

/**
 * Relevance of every consuming definition, indexed by DefId
 * (Liveness::relevances()): 0 when the definition is dynamically dead
 * (never reaches program output), otherwise the mask of its value
 * bits that can still affect output. Definitions past its end are
 * dead.
 */
using RelevanceTable = std::span<const std::uint32_t>;

/** @p def's entry of @p table (0 past its end). */
inline std::uint32_t
relevanceOf(RelevanceTable table, DefId def)
{
    return def < table.size() ? table[def] : 0;
}

/**
 * Analysis-phase backward pass over one word's events.
 *
 * @param log       time-ordered events of the word
 * @param end_time  close of the lifetime window (eviction or horizon)
 * @param width     word width in bits (<= 64)
 * @param relevance relevance of the definitions read events name
 */
WordLifetime buildWordLifetime(const WordEventLog &log, Cycle end_time,
                               unsigned width, RelevanceTable relevance);

} // namespace mbavf

#endif // MBAVF_CORE_LIFETIME_BUILDER_HH
