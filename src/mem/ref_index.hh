/**
 * @file
 * Program-order memory reference index.
 *
 * Records every kernel-level load and store, and every output range,
 * in an append-only log with one record per access and word (a lane
 * access is one record). The cache AVF probe queries it during the
 * analysis phase to resolve the fate of dirty-evicted data: whether
 * the written-back value is later consumed (and by which
 * definition), overwritten, or never touched again. finalize() sorts
 * the log once, by word and then time, before the first query.
 */

#ifndef MBAVF_MEM_REF_INDEX_HH
#define MBAVF_MEM_REF_INDEX_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace mbavf
{

/** One program-level reference to a byte. */
struct ByteRef
{
    Cycle time = 0;
    bool isLoad = false;
    DefId def = noDef;
    /** For loads: bit offset of this byte in the loaded value. */
    std::uint8_t relShift = 0;
};

/** Time-ordered references to every byte, queried per byte. */
class MemRefIndex
{
  public:
    /** Record a load of @p size bytes completing at @p t. */
    void addLoad(Addr addr, std::uint64_t size, Cycle t, DefId def);

    /** Record a store of @p size bytes at @p t. */
    void addStore(Addr addr, std::uint64_t size, Cycle t);

    /**
     * Sort the log for queries, after the last add. Panics when the
     * references to some byte were recorded out of time order.
     */
    void finalize();

    /**
     * First reference to @p addr at or after @p t (same-cycle
     * references in recording order), or nothing when the byte is
     * never referenced again. Needs finalize().
     */
    std::optional<ByteRef> firstAfter(Addr addr, Cycle t) const;

    /** Records in the log. */
    std::uint64_t size() const { return refs_.size(); }

  private:
    /** The bytes of one word that one access covers. */
    struct Ref
    {
        Addr word;
        Cycle time;
        DefId def;
        /** relShift of word byte 0 (mod 256), for loads. */
        std::uint8_t shift;
        std::uint8_t bytes; ///< bit i = word byte i
        bool isLoad;
    };

    void add(Addr addr, std::uint64_t size, Cycle t, DefId def,
             bool is_load);

    std::vector<Ref> refs_;
    /** After finalize(): word w's references are [start_[w], start_[w + 1]). */
    std::vector<std::uint64_t> start_;
    bool finalized_ = false;
};

} // namespace mbavf

#endif // MBAVF_MEM_REF_INDEX_HH
