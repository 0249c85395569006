/**
 * @file
 * Per-bit ACE lifetime representation.
 *
 * ACE analysis produces, for every bit of a hardware structure, a
 * timeline of labeled segments. Bits are organized into *containers*
 * (the unit whose contents share one event stream: a cache line, a
 * 32-bit vector register) subdivided into *words* of at most 64 bits
 * (a byte for caches, the full register for the VGPR). All bits of a
 * word share segment boundaries; per-bit classes are encoded as masks.
 */

#ifndef MBAVF_CORE_LIFETIME_HH
#define MBAVF_CORE_LIFETIME_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "core/ace_class.hh"

namespace mbavf
{

/**
 * One homogeneous stretch of a word's lifetime.
 *
 * For a fault arising at any cycle in [begin, end):
 * - bits set in aceMask are AceLive,
 * - bits set in readMask but not aceMask are ReadDead,
 * - all other bits are Unace.
 */
struct LifeSegment
{
    Cycle begin = 0;
    Cycle end = 0;
    std::uint64_t aceMask = 0;
    std::uint64_t readMask = 0;
    /**
     * Static instruction whose write most recently (re)defined the
     * word at this segment's start; noInstrTag when the data predates
     * tracking (pre-first-write garbage, fills from untracked
     * producers). The attribution passes charge this segment's MB-AVF
     * contribution to it.
     */
    InstrTag tag = noInstrTag;

    bool operator==(const LifeSegment &) const = default;
};

/**
 * The full lifetime of one word (<= 64 bits): sorted, disjoint
 * segments. Cycles not covered by any segment are Unace for all bits.
 */
class WordLifetime
{
  public:
    /**
     * Append a segment; must start at or after the current end.
     * Backwards (end < begin) or overlapping segments are rejected
     * with panic() in every build type; empty segments are dropped.
     */
    void append(const LifeSegment &seg);

    /**
     * Append without precondition checks. Only for deserialization
     * and lint paths that must be able to materialize malformed
     * data for inspection; everything else uses append().
     */
    void appendUnchecked(const LifeSegment &seg)
    {
        segs_.push_back(seg);
    }

    const std::vector<LifeSegment> &segments() const { return segs_; }

    bool empty() const { return segs_.empty(); }

    /** Class of bit @p bit at cycle @p t (Unace outside segments). */
    AceClass classAt(unsigned bit, Cycle t) const;

    /** Total AceLive cycles of bit @p bit within [0, horizon). */
    Cycle aceCycles(unsigned bit, Cycle horizon) const;

    /** Total ReadDead cycles of bit @p bit within [0, horizon). */
    Cycle readDeadCycles(unsigned bit, Cycle horizon) const;

    bool operator==(const WordLifetime &) const = default;

  private:
    std::vector<LifeSegment> segs_;
};

/** Lifetimes of all words of one container. */
struct ContainerLifetime
{
    std::vector<WordLifetime> words;

    bool operator==(const ContainerLifetime &) const = default;
};

/**
 * Store of ACE lifetimes for a whole hardware structure, keyed by
 * container id. Containers never touched by the workload are simply
 * absent (all their bits are Unace for the full horizon).
 */
class LifetimeStore
{
  public:
    /**
     * @param word_width bits per word (8 for caches, 32 for VGPRs)
     * @param words_per_container words in each container
     */
    LifetimeStore(unsigned word_width, unsigned words_per_container);

    unsigned wordWidth() const { return wordWidth_; }
    unsigned wordsPerContainer() const { return wordsPerContainer_; }

    /** Bits in one container. */
    unsigned
    containerBits() const
    {
        return wordWidth_ * wordsPerContainer_;
    }

    /** Get or create the lifetime record of @p container. */
    ContainerLifetime &container(std::uint64_t container);

    /**
     * Lifetime of a word, or nullptr when the container or word was
     * never touched.
     */
    const WordLifetime *find(std::uint64_t container,
                             unsigned word) const;

    /**
     * Lifetime of a bit addressed within its container; @p bit_in_word
     * receives the bit index within the returned word.
     */
    const WordLifetime *findBit(std::uint64_t container,
                                unsigned bit_in_container,
                                unsigned &bit_in_word) const;

    std::size_t numContainers() const { return containers_.size(); }

    /**
     * Equal word by word: same word shape, same containers, same
     * segments (tags included), in any container order.
     */
    bool operator==(const LifetimeStore &) const = default;

    const std::unordered_map<std::uint64_t, ContainerLifetime> &
    containers() const
    {
        return containers_;
    }

  private:
    unsigned wordWidth_;
    unsigned wordsPerContainer_;
    std::unordered_map<std::uint64_t, ContainerLifetime> containers_;
};

} // namespace mbavf

#endif // MBAVF_CORE_LIFETIME_HH
