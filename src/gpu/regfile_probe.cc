#include "gpu/regfile_probe.hh"

#include <bit>

#include "common/bits.hh"
#include "common/check.hh"
#include "common/parallel.hh"

namespace mbavf
{

void
RegFileAvfProbe::onRegWrite(const RegAccess &write, InstrTag tag)
{
    if (write.lanes == 0)
        return;
    MBAVF_CHECK(write.slot < geom_.numSlots && write.reg < geom_.numRegs,
                "register ", write.reg, " of slot ", write.slot,
                " outside the probe geometry");
    calls_.push_back({write.time, write.lanes, 0, noDef, 0, tag,
                      write.slot * geom_.numRegs + write.reg,
                      static_cast<std::uint8_t>(write.lanesPerCycle),
                      WordEvent::Kind::Write, false, false});
}

void
RegFileAvfProbe::onRegRead(const RegRead &read)
{
    const RegAccess &a = read.access;
    if (a.lanes == 0)
        return;
    MBAVF_CHECK(a.slot < geom_.numSlots && a.reg < geom_.numRegs,
                "register ", a.reg, " of slot ", a.slot,
                " outside the probe geometry");
    const std::uint64_t lanes = a.lanes;
    const std::uint32_t first = read.consumeOf(
        static_cast<unsigned>(std::countr_zero(lanes)));
    bool uniform = true;
    for (std::uint64_t m = lanes; m != 0; m &= m - 1) {
        const std::uint32_t mask =
            read.consumeOf(static_cast<unsigned>(std::countr_zero(m)));
        MBAVF_CHECK((mask & ~lowMask(geom_.regBits)) == 0,
                    "consume mask wider than the ", geom_.regBits,
                    "-bit register");
        uniform &= mask == first;
    }
    std::uint32_t consume = first;
    if (!uniform) {
        consume = static_cast<std::uint32_t>(laneConsume_.size());
        for (unsigned lane = 0; lane < 64; ++lane) {
            laneConsume_.push_back(
                (lanes >> lane & 1) != 0 ? read.laneConsume[lane] : 0);
        }
    }
    calls_.push_back({a.time, lanes, read.consumer.exec,
                      read.consumer.base, consume, noInstrTag,
                      a.slot * geom_.numRegs + a.reg,
                      static_cast<std::uint8_t>(a.lanesPerCycle),
                      WordEvent::Kind::Read, read.exact, !uniform});
}

RegFileAvfProbe::ByRegister
RegFileAvfProbe::byRegister() const
{
    ByRegister out;
    out.start.assign(numRegisters() + 1, 0);
    out.lanes.assign(numRegisters(), 0);
    for (const Call &c : calls_) {
        ++out.start[c.reg + 1];
        out.lanes[c.reg] |= c.lanes;
    }
    for (std::uint32_t r = 0; r < numRegisters(); ++r)
        out.start[r + 1] += out.start[r];
    out.calls.resize(calls_.size());
    std::vector<std::uint32_t> next(out.start.begin(), out.start.end() - 1);
    for (std::uint32_t i = 0; i < calls_.size(); ++i)
        out.calls[next[calls_[i].reg]++] = i;
    return out;
}

void
RegFileAvfProbe::expand(const ByRegister &regs, std::uint32_t reg,
                        unsigned lane, WordEventLog &log) const
{
    log.events.clear();
    for (std::uint32_t i = regs.start[reg]; i < regs.start[reg + 1]; ++i) {
        const Call &c = calls_[regs.calls[i]];
        if ((c.lanes >> lane & 1) == 0)
            continue;
        const Cycle t = c.time + lane / c.lanesPerCycle;
        if (c.kind == WordEvent::Kind::Write) {
            log.write(t, 0xFFFFFFFFull, c.tag);
            continue;
        }
        const std::uint32_t mask =
            c.perLane ? laneConsume_[c.consume + lane] : c.consume;
        const DefId def = DefBlock{c.consumerBase, c.consumerExec}.def(lane);
        if (c.exact)
            log.readExact(t, mask, def, 0);
        else
            log.read(t, mask, def);
    }
}

LifetimeStore
RegFileAvfProbe::finalize(Cycle horizon, RelevanceTable relevance) const
{
    const ByRegister regs = byRegister();
    const unsigned lanes = geom_.numLanes;

    // Create the containers serially, in ascending container id, so
    // the store is laid out the same at any pool width; each task
    // then writes only the words of its own register.
    LifetimeStore store(geom_.regBits, 1);
    std::vector<WordLifetime *> words(std::size_t(numRegisters()) * lanes,
                                      nullptr);
    for (std::uint32_t r = 0; r < numRegisters(); ++r) {
        for (std::uint64_t m = regs.lanes[r]; m != 0; m &= m - 1) {
            const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
            const std::uint64_t id = std::uint64_t(r) * lanes + lane;
            words[id] = &store.container(id).words[0];
        }
    }

    parallelFor(0, numRegisters(), 1,
                [&](std::uint64_t begin, std::uint64_t end) {
                    WordEventLog log;
                    for (std::uint64_t r = begin; r < end; ++r) {
                        const auto reg = static_cast<std::uint32_t>(r);
                        for (std::uint64_t m = regs.lanes[reg]; m != 0;
                             m &= m - 1) {
                            const auto lane = static_cast<unsigned>(
                                std::countr_zero(m));
                            expand(regs, reg, lane, log);
                            *words[std::uint64_t(reg) * lanes + lane] =
                                buildWordLifetime(log, horizon,
                                                  geom_.regBits, relevance);
                        }
                    }
                });
    return store;
}

std::unordered_map<std::uint64_t, WordEventLog>
RegFileAvfProbe::takeLogs()
{
    const ByRegister regs = byRegister();
    std::unordered_map<std::uint64_t, WordEventLog> logs;
    for (std::uint32_t r = 0; r < numRegisters(); ++r) {
        for (std::uint64_t m = regs.lanes[r]; m != 0; m &= m - 1) {
            const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
            expand(regs, r, lane,
                   logs[std::uint64_t(r) * geom_.numLanes + lane]);
        }
    }
    calls_ = {};
    laneConsume_ = {};
    return logs;
}

} // namespace mbavf
