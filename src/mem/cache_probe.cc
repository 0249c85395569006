#include "mem/cache_probe.hh"

#include <algorithm>
#include <utility>

#include "common/bits.hh"
#include "common/check.hh"
#include "common/logging.hh"
#include "common/parallel.hh"

namespace mbavf
{

CacheAvfProbe::CacheAvfProbe(const CacheGeometry &geom,
                             const MemRefIndex &ref_index)
    : geom_(geom), refIndex_(ref_index),
      slots_(std::size_t(geom.sets) * geom.ways)
{
}

CacheAvfProbe::SlotLog &
CacheAvfProbe::slot(unsigned set, unsigned way)
{
    MBAVF_CHECK(set < geom_.sets && way < geom_.ways, "slot (", set,
                ", ", way, ") outside the probe geometry");
    SlotLog &s = slots_[std::size_t(set) * geom_.ways + way];
    if (!s.touched) {
        s.bytes.resize(geom_.lineBytes);
        s.touched = true;
    }
    return s;
}

void
CacheAvfProbe::onFill(unsigned set, unsigned way, Addr, Cycle t)
{
    slot(set, way).fills.push_back(t);
}

void
CacheAvfProbe::onRead(unsigned set, unsigned way, Addr addr,
                      unsigned size, Cycle t, DefId def)
{
    SlotLog &s = slot(set, way);
    s.lineReads.push_back(t);
    unsigned offset = static_cast<unsigned>(addr % geom_.lineBytes);
    MBAVF_CHECK(size > 0 && offset + size <= geom_.lineBytes,
                "read of ", size, " byte(s) at line offset ", offset,
                " spills past the line");
    for (unsigned i = 0; i < size; ++i) {
        ByteAccess access{t, false, def,
                          static_cast<std::uint8_t>(8 * i), false, 0};
        if (def == noDef && resolveReadsViaRefIndex_) {
            // A fill from the level above: the data's consumption is
            // the program's next reference to the byte.
            access.resolveFuture = true;
            access.addr = addr + i;
        }
        s.bytes[offset + i].push_back(access);
    }
}

void
CacheAvfProbe::onWrite(unsigned set, unsigned way, Addr addr,
                       unsigned size, Cycle t, InstrTag tag)
{
    SlotLog &s = slot(set, way);
    // A write into the array is also an access that reads the line
    // out for the read-modify-write of its check bits; model it as a
    // pure overwrite of the written bytes (see DESIGN.md).
    unsigned offset = static_cast<unsigned>(addr % geom_.lineBytes);
    MBAVF_CHECK(size > 0 && offset + size <= geom_.lineBytes,
                "write of ", size, " byte(s) at line offset ", offset,
                " spills past the line");
    for (unsigned i = 0; i < size; ++i)
        s.bytes[offset + i].push_back({t, true, noDef, 0, false, 0,
                                       tag});
}

void
CacheAvfProbe::onEvict(unsigned set, unsigned way, Addr line_addr,
                       std::uint64_t dirty_bytes, Cycle t)
{
    slot(set, way).evicts.push_back({t, line_addr, dirty_bytes});
}

WordEvent
CacheAvfProbe::futureRead(Addr addr, Cycle t) const
{
    WordEvent ev{t, WordEvent::Kind::Read, 0, noDef, false, 0};
    const ByteRef *ref = refIndex_.firstAfter(addr, t);
    if (ref && ref->isLoad) {
        ev.mask = 0xFF;
        ev.def = ref->def;
        ev.exact = true;
        ev.relShift = ref->relShift;
    }
    return ev;
}

void
CacheAvfProbe::finalizeSlot(const SlotLog &s, Cycle horizon,
                            const LivenessResolver &live,
                            ContainerLifetime &life) const
{
    // The slot's line-level stream, sorted once by (time, prio). The
    // sort is stable, so same-(time, prio) events keep the order
    // fills, line reads, evicts.
    struct LineEvent
    {
        Cycle time;
        Prio prio;
        const Evict *evict; ///< EvictRead only
    };
    std::vector<LineEvent> line;
    line.reserve(s.fills.size() + s.lineReads.size() + s.evicts.size());
    for (Cycle t : s.fills)
        line.push_back({t, Prio::Fill, nullptr});
    for (Cycle t : s.lineReads)
        line.push_back({t, Prio::Access, nullptr});
    for (const Evict &e : s.evicts) {
        // A clean evict drops the data without reading it out.
        if (e.dirtyBytes)
            line.push_back({e.time, Prio::EvictRead, &e});
    }
    std::stable_sort(line.begin(), line.end(),
                     [](const LineEvent &a, const LineEvent &b) {
                         return a.time != b.time ? a.time < b.time
                                                 : a.prio < b.prio;
                     });

    std::vector<const ByteAccess *> accesses;
    WordEventLog log;
    for (unsigned b = 0; b < geom_.lineBytes; ++b) {
        // The byte's own accesses in time order: the lanes of one
        // access can record out of order.
        accesses.clear();
        for (const ByteAccess &a : s.bytes[b])
            accesses.push_back(&a);
        std::stable_sort(accesses.begin(), accesses.end(),
                         [](const ByteAccess *x, const ByteAccess *y) {
                             return x->time < y->time;
                         });

        log.events.clear();
        log.events.reserve(line.size() + accesses.size());
        auto emit_access = [&](const ByteAccess &a) {
            if (a.isWrite) {
                log.events.push_back({a.time, WordEvent::Kind::Write,
                                      0xFF, noDef, false, 0, a.tag});
            } else if (a.resolveFuture) {
                log.events.push_back(futureRead(a.addr, a.time));
            } else {
                log.events.push_back({a.time, WordEvent::Kind::Read,
                                      0xFF, a.def, true, a.relShift});
            }
        };
        // Byte accesses have the highest prio (Access), so one goes
        // before a line event only at a strictly earlier cycle; at an
        // equal (time, prio) the line read goes first.
        std::size_t next = 0;
        for (const LineEvent &e : line) {
            while (next < accesses.size() && accesses[next]->time < e.time)
                emit_access(*accesses[next++]);
            switch (e.prio) {
              case Prio::Fill:
                log.write(e.time, 0xFF);
                break;
              case Prio::Access:
                log.read(e.time, 0, noDef);
                break;
              case Prio::EvictRead:
                // Write-back reads the whole line; the fate of byte b
                // is its next program-level reference.
                log.events.push_back(
                    futureRead(e.evict->lineAddr + b, e.time));
                break;
            }
        }
        while (next < accesses.size())
            emit_access(*accesses[next++]);
        life.words[b] = buildWordLifetime(log, horizon, 8, live);
    }
}

LifetimeStore
CacheAvfProbe::finalize(Cycle horizon, const LivenessResolver &live) const
{
    // Create the containers serially, in slot order, so the store is
    // laid out the same at any pool width; each slot task then
    // writes only its own container's words.
    LifetimeStore store(8, geom_.lineBytes);
    std::vector<std::pair<const SlotLog *, ContainerLifetime *>> work;
    for (std::size_t idx = 0; idx < slots_.size(); ++idx) {
        if (slots_[idx].touched)
            work.emplace_back(&slots_[idx], &store.container(idx));
    }

    parallelFor(0, work.size(), 1,
                [&](std::uint64_t begin, std::uint64_t end) {
                    for (std::uint64_t i = begin; i < end; ++i) {
                        const auto &[slot_log, life] = work[i];
                        finalizeSlot(*slot_log, horizon, live, *life);
                    }
                });
    return store;
}

} // namespace mbavf
