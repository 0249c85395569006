/**
 * @file
 * Flat structure-of-arrays view of a LifetimeStore.
 *
 * The MB-AVF sweep is bound by memory traffic: the per-mode engine
 * chases one std::vector<LifeSegment> per word, so consecutive
 * anchors touch scattered heap blocks. A LifetimeArena is built once
 * per store and lays every segment of every non-empty word out in
 * three contiguous arrays (begin cycles, end cycles, packed
 * ace/read masks), with a per-word (offset, count) pair on top, so
 * the sweep kernel reads sequential memory and words are addressed
 * by a dense 32-bit handle instead of a pointer.
 *
 * The arena is a read-only snapshot: mutating the source store after
 * construction is not reflected. The pipeline frees the store once
 * the snapshot is built, and every pass after the lifetime builder
 * reads only the arena. Word handles are assigned in ascending
 * (container id, word index) order, so the layout is deterministic
 * for any given store content.
 *
 * All array accessors read through raw pointers into a refcounted
 * backing. The backing is either the vectors the snapshot
 * constructor filled, or a byte-for-byte image of the arena file
 * format mapped by core/arena_io — a loaded arena and a freshly
 * built one are indistinguishable to the kernel.
 */

#ifndef MBAVF_CORE_LIFETIME_ARENA_HH
#define MBAVF_CORE_LIFETIME_ARENA_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "core/lifetime.hh"

namespace mbavf
{

/** Packed per-segment classification masks (one load per slice). */
struct SegMasks
{
    std::uint64_t ace = 0;
    std::uint64_t read = 0;
};

class LifetimeArena
{
  public:
    /** Sentinel word handle: no lifetime (bit Unace forever). */
    static constexpr std::uint32_t noWord = 0xffffffffu;

    /**
     * Empty arena: zero words, zero containers, word width 0. Every
     * findBit()/findWord() answers noWord. This is the state an
     * arena_io loader fills in, and the degenerate snapshot of a
     * store that was never written.
     */
    LifetimeArena() = default;

    /** Snapshot @p store into flat arrays. */
    explicit LifetimeArena(const LifetimeStore &store);

    unsigned wordWidth() const { return wordWidth_; }
    unsigned wordsPerContainer() const { return wordsPerContainer_; }

    /** Number of non-empty words in the arena. */
    std::uint32_t numWords() const { return numWords_; }

    /** Total segments across all words. */
    std::size_t numSegments() const { return numSegments_; }

    /** Number of distinct containers holding at least one word. */
    std::size_t numContainers() const { return containerBase_.size(); }

    /**
     * Handle of a word, or noWord when the container or word was
     * never touched — or when @p word is at or beyond the configured
     * container width (such indices have no handle slot; answering
     * noWord mirrors "no lifetime" instead of reading out of
     * bounds). Mirrors LifetimeStore::find() for in-range queries.
     */
    std::uint32_t findWord(std::uint64_t container,
                           unsigned word) const;

    /**
     * Handle of the word holding a bit addressed within its
     * container; @p bit_in_word receives the bit index within the
     * word. Mirrors LifetimeStore::findBit(). On an empty arena
     * (word width 0) and for bits beyond the configured container
     * width, answers noWord instead of dividing by zero or indexing
     * out of range.
     */
    std::uint32_t
    findBit(std::uint64_t container, unsigned bit_in_container,
            unsigned &bit_in_word) const
    {
        if (wordWidth_ == 0) {
            bit_in_word = 0;
            return noWord;
        }
        bit_in_word = bit_in_container % wordWidth_;
        return findWord(container, bit_in_container / wordWidth_);
    }

    /**
     * Handle block of @p container: at least wordsPerContainer()
     * slots, slot w holding word w's handle (noWord when empty).
     * nullptr when the container was never touched. Row-resolution
     * loops use this to pay one hash lookup per container instead of
     * one per bit.
     */
    const std::uint32_t *
    handleBlock(std::uint64_t container) const
    {
        auto it = containerBase_.find(container);
        return it == containerBase_.end() ? nullptr
                                          : handles_ + it->second;
    }

    /** First segment slot of word @p w. */
    std::uint32_t offset(std::uint32_t w) const
    {
        return wordOffset_[w];
    }

    /** Segment count of word @p w. */
    std::uint32_t count(std::uint32_t w) const { return wordCount_[w]; }

    /** SoA segment columns, indexed by absolute segment slot. */
    const Cycle *begins() const { return segBegin_; }
    const Cycle *ends() const { return segEnd_; }
    const SegMasks *masks() const { return segMasks_; }

    /**
     * Per-segment producing-instruction column (noInstrTag where no
     * tracked write produced the value). Attribution's sink and the
     * arena lint read it; the plain sweep never does.
     */
    const InstrTag *tags() const { return segTag_; }

    /** Source container id of word @p w (lint / diagnostics). */
    std::uint64_t wordContainer(std::uint32_t w) const
    {
        return wordContainer_[w];
    }

    /** Word index within its container of word @p w. */
    unsigned wordIndex(std::uint32_t w) const { return wordIndex_[w]; }

  private:
    /** core/arena_io: maps files into place of the owned vectors. */
    friend class ArenaIo;

    /** Owned backing for the built-from-store case. */
    struct Storage
    {
        std::vector<Cycle> segBegin;
        std::vector<Cycle> segEnd;
        std::vector<SegMasks> segMasks;
        std::vector<InstrTag> segTag;
        std::vector<std::uint32_t> wordOffset;
        std::vector<std::uint32_t> wordCount;
        std::vector<std::uint64_t> wordContainer;
        std::vector<std::uint32_t> wordIndex;
        std::vector<std::uint32_t> handles;
    };

    unsigned wordWidth_ = 0;
    unsigned wordsPerContainer_ = 0;
    std::uint32_t numWords_ = 0;
    std::size_t numSegments_ = 0;
    std::size_t numHandles_ = 0;

    /** Views into storage_ or into an arena_io file mapping. */
    const Cycle *segBegin_ = nullptr;
    const Cycle *segEnd_ = nullptr;
    const SegMasks *segMasks_ = nullptr;
    const InstrTag *segTag_ = nullptr;
    const std::uint32_t *wordOffset_ = nullptr;
    const std::uint32_t *wordCount_ = nullptr;
    const std::uint64_t *wordContainer_ = nullptr;
    const std::uint32_t *wordIndex_ = nullptr;
    const std::uint32_t *handles_ = nullptr;

    /**
     * container id -> base slot into handles_; the handle of word w
     * of the container is handles_[base + w] (noWord when empty).
     */
    std::unordered_map<std::uint64_t, std::uint32_t> containerBase_;

    /**
     * Backing keeping the views alive: Storage for snapshots, an
     * arena_io file mapping for loaded arenas. Shared so copies of
     * the arena alias one backing instead of re-fixing pointers.
     */
    std::shared_ptr<const void> backing_;
};

} // namespace mbavf

#endif // MBAVF_CORE_LIFETIME_ARENA_HH
