/**
 * @file
 * CacheAvfProbe: the event-tracking half of cache ACE analysis.
 *
 * Listens to one cache's fills/reads/writes/evictions during
 * simulation, then, in the analysis phase, combines them with the
 * program-level memory reference index and the dataflow liveness
 * results to produce per-bit ACE lifetimes (a core LifetimeStore)
 * for the cache's data array.
 *
 * Containers are physical line slots (set * ways + way); the slot
 * hosts different memory lines over time and its event stream simply
 * continues across generations. During simulation a slot keeps one
 * entry per access (a lane's 4-byte load or store is one entry).
 * Because a parity/ECC word here is the whole line, any read is also
 * a read of the full protection domain. Finalization sorts each
 * slot's line-level stream (fills, line reads, dirty write-backs) and
 * its accesses once, expands the accesses per byte, and merges the
 * line stream into every byte's own accesses; slots finalize
 * independently on the shared pool.
 */

#ifndef MBAVF_MEM_CACHE_PROBE_HH
#define MBAVF_MEM_CACHE_PROBE_HH

#include <cstdint>
#include <vector>

#include "core/layout.hh"
#include "core/lifetime.hh"
#include "core/lifetime_builder.hh"
#include "mem/cache.hh"
#include "mem/ref_index.hh"

namespace mbavf
{

/** ACE event tracker for one cache. */
class CacheAvfProbe : public CacheListener
{
  public:
    /**
     * @param geom       geometry matching the observed cache
     * @param ref_index  program-order reference index for resolving
     *                   the fate of written-back data
     */
    CacheAvfProbe(const CacheGeometry &geom,
                  const MemRefIndex &ref_index);

    /**
     * Lower-level-cache mode: reads arriving with no consuming
     * definition are fills issued by the level above, not program
     * loads. Their consumption is resolved per byte against the
     * program-order reference index (the filled data matters iff the
     * program performs a live load of it before overwriting it),
     * exactly like written-back data. Enable when probing an L2
     * whose reads are L1 fills.
     */
    void
    setResolveReadsViaRefIndex(bool on)
    {
        resolveReadsViaRefIndex_ = on;
    }

    void onFill(unsigned set, unsigned way, Addr line_addr,
                Cycle t) override;
    void onRead(unsigned set, unsigned way, Addr addr, unsigned size,
                Cycle t, DefId def) override;
    void onWrite(unsigned set, unsigned way, Addr addr, unsigned size,
                 Cycle t, InstrTag tag) override;
    void onEvict(unsigned set, unsigned way, Addr line_addr,
                 std::uint64_t dirty_bytes, Cycle t) override;

    /**
     * Analysis phase: build per-bit lifetimes over [0, horizon), one
     * slot per task on the shared pool. The result does not depend
     * on the pool width.
     *
     * @param horizon    end of the measurement window
     * @param relevance  relevance table from the Liveness analysis
     */
    LifetimeStore finalize(Cycle horizon,
                           RelevanceTable relevance) const;

    const CacheGeometry &geometry() const { return geom_; }

  private:
    /** Sub-cycle ordering of merged events. */
    enum class Prio : std::uint8_t { EvictRead = 0, Fill = 1, Access = 2 };

    struct Evict
    {
        Cycle time;
        Addr lineAddr;
        std::uint64_t dirtyBytes;
    };

    /** One read or write of [addr, addr + size) in the slot. */
    struct Access
    {
        Cycle time;
        Addr addr;
        /** Reads: consuming definition. Writes: producing tag. */
        std::uint32_t defOrTag;
        std::uint8_t size;
        bool isWrite;
        /** Resolve consumption from the reference index (L2 mode). */
        bool resolveFuture;
    };

    struct SlotLog
    {
        std::vector<Cycle> fills;
        std::vector<Evict> evicts;
        std::vector<Access> accesses;
        bool touched = false;
    };

    SlotLog &slot(unsigned set, unsigned way);

    /** Build the words of one slot's container into @p life. */
    void finalizeSlot(const SlotLog &s, Cycle horizon,
                      RelevanceTable relevance,
                      ContainerLifetime &life) const;

    /**
     * A read of byte @p addr at @p t whose consumption is the
     * program's next reference to the byte: consumed by that load,
     * or by nothing when the next reference is a store or none.
     */
    WordEvent futureRead(Addr addr, Cycle t) const;

    CacheGeometry geom_;
    const MemRefIndex &refIndex_;
    std::vector<SlotLog> slots_;
    bool resolveReadsViaRefIndex_ = false;
};

} // namespace mbavf

#endif // MBAVF_MEM_CACHE_PROBE_HH
