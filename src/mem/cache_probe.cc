#include "mem/cache_probe.hh"

#include <algorithm>
#include <optional>
#include <span>
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
    s.touched = true;
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
    unsigned offset = static_cast<unsigned>(addr % geom_.lineBytes);
    MBAVF_CHECK(size > 0 && offset + size <= geom_.lineBytes,
                "read of ", size, " byte(s) at line offset ", offset,
                " spills past the line");
    // With no consuming definition in L2 mode, this is a fill from
    // the level above: the data's consumption is the program's next
    // reference to each byte.
    s.accesses.push_back({t, addr, def, static_cast<std::uint8_t>(size),
                          false,
                          def == noDef && resolveReadsViaRefIndex_});
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
    s.accesses.push_back({t, addr, tag, static_cast<std::uint8_t>(size),
                          true, false});
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
    const std::optional<ByteRef> ref = refIndex_.firstAfter(addr, t);
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
                            RelevanceTable relevance,
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
    line.reserve(s.fills.size() + s.accesses.size() + s.evicts.size());
    for (Cycle t : s.fills)
        line.push_back({t, Prio::Fill, nullptr});
    for (const Access &a : s.accesses) {
        // Every read reads the whole line (its protection domain).
        if (!a.isWrite)
            line.push_back({a.time, Prio::Access, nullptr});
    }
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

    // The accesses in time order (the lanes of one instruction can
    // record out of order), then bucketed per line byte; each byte's
    // bucket keeps that order.
    std::vector<const Access *> sorted;
    sorted.reserve(s.accesses.size());
    for (const Access &a : s.accesses)
        sorted.push_back(&a);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Access *x, const Access *y) {
                         return x->time < y->time;
                     });
    const unsigned line_bytes = geom_.lineBytes;
    std::vector<std::uint32_t> start(line_bytes + 1, 0);
    for (const Access *a : sorted) {
        const unsigned offset = static_cast<unsigned>(a->addr % line_bytes);
        for (unsigned i = 0; i < a->size; ++i)
            ++start[offset + i + 1];
    }
    for (unsigned b = 0; b < line_bytes; ++b)
        start[b + 1] += start[b];
    std::vector<const Access *> by_byte(start.back());
    {
        std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
        for (const Access *a : sorted) {
            const unsigned offset =
                static_cast<unsigned>(a->addr % line_bytes);
            for (unsigned i = 0; i < a->size; ++i)
                by_byte[next[offset + i]++] = a;
        }
    }

    WordEventLog log;
    for (unsigned b = 0; b < line_bytes; ++b) {
        const std::span<const Access *const> accesses(
            by_byte.data() + start[b], start[b + 1] - start[b]);
        log.events.clear();
        log.events.reserve(line.size() + accesses.size());
        auto emit_access = [&](const Access &a) {
            // Byte b of the line is byte i of the access.
            const unsigned i = b - static_cast<unsigned>(a.addr % line_bytes);
            if (a.isWrite) {
                log.events.push_back({a.time, WordEvent::Kind::Write,
                                      0xFF, noDef, false, 0, a.defOrTag});
            } else if (a.resolveFuture) {
                log.events.push_back(futureRead(a.addr + i, a.time));
            } else {
                log.events.push_back({a.time, WordEvent::Kind::Read, 0xFF,
                                      a.defOrTag, true,
                                      static_cast<std::uint8_t>(8 * i)});
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
        life.words[b] = buildWordLifetime(log, horizon, 8, relevance);
    }
}

LifetimeStore
CacheAvfProbe::finalize(Cycle horizon, RelevanceTable relevance) const
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
                        finalizeSlot(*slot_log, horizon, relevance, *life);
                    }
                });
    return store;
}

} // namespace mbavf
