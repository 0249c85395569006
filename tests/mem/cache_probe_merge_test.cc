/**
 * @file
 * Differential test of CacheAvfProbe::finalize, which sorts each
 * slot's line-level stream once and merges it with every byte's own
 * accesses on the shared pool, against a reference that rebuilds and
 * stable-sorts each byte's full event stream serially. Random slot
 * streams cover same-cycle ties across fills, line reads, dirty
 * evicts and byte accesses, out-of-order lane times, clean and dirty
 * evicts, and L2-mode reads resolved through the reference index.
 */

#include <gtest/gtest.h>

#include <optional>

#include <algorithm>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/cache_probe.hh"
#include "mem/ref_index.hh"

namespace mbavf
{
namespace
{

/**
 * The reference: records like CacheAvfProbe and finalizes every byte
 * by one stable sort over the slot's fills, line reads, dirty evicts
 * and the byte's accesses, keyed by (time, prio).
 */
class ReferenceCacheProbe : public CacheListener
{
  public:
    ReferenceCacheProbe(const CacheGeometry &geom,
                        const MemRefIndex &ref_index, bool resolve_reads)
        : geom_(geom), refIndex_(ref_index), resolveReads_(resolve_reads),
          slots_(std::size_t(geom.sets) * geom.ways)
    {
    }

    void
    onFill(unsigned set, unsigned way, Addr, Cycle t) override
    {
        slot(set, way).fills.push_back(t);
    }

    void
    onRead(unsigned set, unsigned way, Addr addr, unsigned size,
           Cycle t, DefId def) override
    {
        Slot &s = slot(set, way);
        s.lineReads.push_back(t);
        const unsigned offset =
            static_cast<unsigned>(addr % geom_.lineBytes);
        for (unsigned i = 0; i < size; ++i) {
            Access a{t, false, def, static_cast<std::uint8_t>(8 * i),
                     false, 0, noInstrTag};
            if (def == noDef && resolveReads_) {
                a.resolveFuture = true;
                a.addr = addr + i;
            }
            s.bytes[offset + i].push_back(a);
        }
    }

    void
    onWrite(unsigned set, unsigned way, Addr addr, unsigned size,
            Cycle t, InstrTag tag) override
    {
        Slot &s = slot(set, way);
        const unsigned offset =
            static_cast<unsigned>(addr % geom_.lineBytes);
        for (unsigned i = 0; i < size; ++i)
            s.bytes[offset + i].push_back(
                {t, true, noDef, 0, false, 0, tag});
    }

    void
    onEvict(unsigned set, unsigned way, Addr line_addr,
            std::uint64_t dirty_bytes, Cycle t) override
    {
        slot(set, way).evicts.push_back({t, line_addr, dirty_bytes});
    }

    LifetimeStore
    finalize(Cycle horizon, RelevanceTable relevance) const
    {
        LifetimeStore store(8, geom_.lineBytes);
        struct Tagged
        {
            Cycle time;
            unsigned prio; ///< 0 evict read, 1 fill, 2 access
            WordEvent event;
        };
        auto by_time_prio = [](const Tagged &x, const Tagged &y) {
            return x.time != y.time ? x.time < y.time : x.prio < y.prio;
        };
        std::vector<Tagged> merged;
        for (std::size_t idx = 0; idx < slots_.size(); ++idx) {
            const Slot &s = slots_[idx];
            if (!s.touched)
                continue;
            ContainerLifetime &life = store.container(idx);
            for (unsigned b = 0; b < geom_.lineBytes; ++b) {
                merged.clear();
                for (Cycle t : s.fills) {
                    const WordEvent fill{t, WordEvent::Kind::Write, 0xFF};
                    merged.push_back({t, 1, fill});
                }
                for (Cycle t : s.lineReads) {
                    const WordEvent read{t, WordEvent::Kind::Read, 0};
                    merged.push_back({t, 2, read});
                }
                for (const Evict &e : s.evicts) {
                    if (!e.dirtyBytes)
                        continue;
                    const WordEvent ev = futureRead(e.lineAddr + b, e.time);
                    merged.push_back({e.time, 0, ev});
                }
                for (const Access &a : s.bytes[b]) {
                    WordEvent ev;
                    if (a.isWrite) {
                        ev = {a.time, WordEvent::Kind::Write, 0xFF,
                              noDef, false, 0, a.tag};
                    } else if (a.resolveFuture) {
                        ev = futureRead(a.addr, a.time);
                    } else {
                        ev = {a.time, WordEvent::Kind::Read, 0xFF,
                              a.def, true, a.relShift};
                    }
                    merged.push_back({a.time, 2, ev});
                }
                std::stable_sort(merged.begin(), merged.end(),
                                 by_time_prio);
                WordEventLog log;
                for (const Tagged &t : merged)
                    log.events.push_back(t.event);
                life.words[b] = buildWordLifetime(log, horizon, 8, relevance);
            }
        }
        return store;
    }

  private:
    struct Evict
    {
        Cycle time;
        Addr lineAddr;
        std::uint64_t dirtyBytes;
    };

    struct Access
    {
        Cycle time;
        bool isWrite;
        DefId def;
        std::uint8_t relShift;
        bool resolveFuture;
        Addr addr;
        InstrTag tag;
    };

    struct Slot
    {
        std::vector<Cycle> fills;
        std::vector<Cycle> lineReads;
        std::vector<Evict> evicts;
        std::vector<std::vector<Access>> bytes;
        bool touched = false;
    };

    Slot &
    slot(unsigned set, unsigned way)
    {
        Slot &s = slots_[std::size_t(set) * geom_.ways + way];
        if (!s.touched) {
            s.bytes.resize(geom_.lineBytes);
            s.touched = true;
        }
        return s;
    }

    WordEvent
    futureRead(Addr addr, Cycle t) const
    {
        WordEvent ev{t, WordEvent::Kind::Read, 0, noDef, false, 0};
        const std::optional<ByteRef> ref = refIndex_.firstAfter(addr, t);
        if (ref && ref->isLoad) {
            ev.mask = 0xFF;
            ev.def = ref->def;
            ev.exact = true;
            ev.relShift = ref->relShift;
        }
        return ev;
    }

    CacheGeometry geom_;
    const MemRefIndex &refIndex_;
    bool resolveReads_;
    std::vector<Slot> slots_;
};

constexpr CacheGeometry kGeom{2, 2, 8};
constexpr Addr kLines = 6; ///< distinct line addresses in play

/**
 * Random program-order references to every byte of the lines in
 * play, time-ordered per byte as the Gpu records them.
 */
void
fillRefIndex(Rng &rng, MemRefIndex &refs)
{
    for (Addr byte = 0; byte < kLines * kGeom.lineBytes; ++byte) {
        Cycle t = 0;
        const unsigned n = static_cast<unsigned>(rng.below(6));
        for (unsigned i = 0; i < n; ++i) {
            t += rng.below(40);
            if (rng.chance(0.5)) {
                refs.addLoad(byte, 1, t,
                             rng.chance(0.2) ? noDef : rng.below(64));
            } else {
                refs.addStore(byte, 1, t);
            }
        }
    }
}

/**
 * Random per-slot event streams. A slowly advancing base clock with
 * jitter makes same-cycle ties across every event kind common and
 * lets lanes of one access land out of time order.
 */
void
driveRandomStream(Rng &rng, CacheListener &sink, bool l2_mode)
{
    Cycle base = 0;
    const unsigned events = 40 + static_cast<unsigned>(rng.below(200));
    for (unsigned e = 0; e < events; ++e) {
        base += rng.below(3);
        const Cycle t = base + rng.below(4);
        const unsigned set = static_cast<unsigned>(rng.below(kGeom.sets));
        const unsigned way = static_cast<unsigned>(rng.below(kGeom.ways));
        const Addr line = rng.below(kLines) * kGeom.lineBytes;
        const unsigned size =
            1 + static_cast<unsigned>(rng.below(kGeom.lineBytes));
        const Addr addr = line + rng.below(kGeom.lineBytes - size + 1);
        switch (rng.below(5)) {
          case 0:
            sink.onFill(set, way, line, t);
            break;
          case 1: {
            // L2 reads arriving without a consumer are L1 fills.
            const bool fill_read = l2_mode && rng.chance(0.6);
            sink.onRead(set, way, addr, size, t,
                        fill_read ? noDef : rng.below(64));
            break;
          }
          case 2:
            sink.onWrite(set, way, addr, size, t,
                         static_cast<InstrTag>(rng.below(8)));
            break;
          case 3:
            // Clean (no dirty bytes) and dirty evicts.
            sink.onEvict(set, way, line,
                         rng.chance(0.5) ? 0 : rng.next() | 1, t);
            break;
          default: {
            // One access split into per-lane pieces recorded out of
            // time order.
            const Cycle late = t + 1 + rng.below(3);
            sink.onRead(set, way, addr, 1, late, rng.below(64));
            sink.onRead(set, way, addr, 1, t, rng.below(64));
            break;
          }
        }
    }
}

class CacheProbeMerge : public ::testing::TestWithParam<bool>
{
  protected:
    void TearDown() override { setParallelThreads(0); }
};

TEST_P(CacheProbeMerge, MatchesPerByteStableSortReference)
{
    const bool l2_mode = GetParam();
    // Some definitions are dead, the rest keep a seed-dependent
    // subset of their bits relevant.
    std::vector<std::uint32_t> live(64);
    for (DefId def = 0; def < live.size(); ++def) {
        const std::uint64_t h = splitMix64(def);
        live[def] = h % 4 == 0 ? 0 : static_cast<std::uint32_t>(h);
    }
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        MemRefIndex refs;
        fillRefIndex(rng, refs);
        refs.finalize();
        CacheAvfProbe probe(kGeom, refs);
        probe.setResolveReadsViaRefIndex(l2_mode);
        ReferenceCacheProbe reference(kGeom, refs, l2_mode);
        CacheListenerTee both(&probe, &reference);
        driveRandomStream(rng, both, l2_mode);

        const Cycle horizon = 900;
        const LifetimeStore want = reference.finalize(horizon, live);
        for (unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(threads);
            setParallelThreads(threads);
            EXPECT_TRUE(want == probe.finalize(horizon, live));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(L1AndL2, CacheProbeMerge,
                         ::testing::Values(false, true),
                         [](const auto &info) {
                             return info.param ? "L2" : "L1";
                         });

} // namespace
} // namespace mbavf
