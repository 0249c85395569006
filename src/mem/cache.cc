#include "mem/cache.hh"

#include "common/bits.hh"
#include "common/check.hh"
#include "common/logging.hh"
#include "common/trap.hh"

namespace mbavf
{

Cache::Cache(const CacheParams &params, MemLevel &next)
    : params_(params), next_(next),
      lines_(std::size_t(params.sets) * params.ways)
{
    if (!isPowerOfTwo(params.lineBytes) || params.lineBytes > 64)
        fatal(params.name, ": line size must be a power of two <= 64");
    if (!isPowerOfTwo(params.sets))
        fatal(params.name, ": set count must be a power of two");
    if (params.ways == 0)
        fatal(params.name, ": needs at least one way");
    lineShift_ = floorLog2(params.lineBytes);
    tagShift_ = lineShift_ + floorLog2(params.sets);
}

int
Cache::findWay(unsigned set, Addr tag) const
{
    for (unsigned w = 0; w < params_.ways; ++w) {
        const Line &l = line(set, w);
        if (l.valid && l.tag == tag)
            return static_cast<int>(w);
    }
    return -1;
}

unsigned
Cache::victimWay(unsigned set) const
{
    unsigned victim = 0;
    std::uint64_t oldest = ~std::uint64_t(0);
    for (unsigned w = 0; w < params_.ways; ++w) {
        const Line &l = line(set, w);
        if (!l.valid)
            return w;
        if (l.lruStamp < oldest) {
            oldest = l.lruStamp;
            victim = w;
        }
    }
    return victim;
}

bool
Cache::probe(Addr addr) const
{
    return findWay(setOf(addr), tagOf(addr)) >= 0;
}

Cycle
Cache::access(const MemRequest &req, Cycle now)
{
    // Both checks are fault-reachable through a corrupted request
    // (address or size derived from flipped state), so they raise
    // recoverable traps, not panics.
    if (req.size == 0 || req.size > params_.lineBytes)
        simTrap(trapcode::cacheSize, params_.name,
                ": bad request size ", req.size);
    if (lineAddrOf(req.addr) != lineAddrOf(req.addr + req.size - 1))
        simTrap(trapcode::cacheStraddle, params_.name,
                ": request at ", req.addr, "+", req.size,
                " crosses a line boundary");

    const unsigned set = setOf(req.addr);
    const Addr tag = tagOf(req.addr);
    int way = findWay(set, tag);
    Cycle data_ready = now;

    if (way < 0) {
        ++stats_.misses;
        way = static_cast<int>(victimWay(set));
        Line &victim = line(set, way);
        Cycle t = now;
        if (victim.valid) {
            ++stats_.evictions;
            Addr victim_addr = lineAddrAt(victim.tag, set);
            MBAVF_CHECK((victim.dirtyBytes &
                         ~lowMask(params_.lineBytes)) == 0,
                        params_.name,
                        ": dirty mask wider than the line");
            if (listener_) {
                listener_->onEvict(set, way, victim_addr,
                                   victim.dirtyBytes, t);
            }
            if (victim.dirtyBytes) {
                ++stats_.writebacks;
                MemRequest wb{victim_addr, params_.lineBytes,
                              MemCmd::Write, noDef};
                t = next_.access(wb, t);
            }
        }
        MemRequest fill{lineAddrOf(req.addr), params_.lineBytes,
                        MemCmd::Read, noDef};
        data_ready = next_.access(fill, t);
        victim.valid = true;
        victim.tag = tag;
        victim.dirtyBytes = 0;
        if (listener_) {
            listener_->onFill(set, way, lineAddrOf(req.addr),
                              data_ready);
        }
    } else {
        ++stats_.hits;
    }

    Line &l = line(set, way);
    l.lruStamp = ++lruCounter_;

    const Cycle done = data_ready + params_.hitLatency;
    const unsigned offset = offsetOf(req.addr);
    if (req.cmd == MemCmd::Write) {
        std::uint64_t mask = lowMask(req.size) << offset;
        l.dirtyBytes |= mask;
        if (listener_) {
            listener_->onWrite(set, way, req.addr, req.size,
                               data_ready, req.tag);
        }
    } else if (listener_) {
        listener_->onRead(set, way, req.addr, req.size, data_ready,
                          req.def);
    }
    return done;
}

void
Cache::flush(Cycle now)
{
    for (unsigned set = 0; set < params_.sets; ++set) {
        for (unsigned way = 0; way < params_.ways; ++way) {
            Line &l = line(set, way);
            if (!l.valid)
                continue;
            Addr line_addr = lineAddrAt(l.tag, set);
            ++stats_.evictions;
            MBAVF_CHECK((l.dirtyBytes &
                         ~lowMask(params_.lineBytes)) == 0,
                        params_.name,
                        ": dirty mask wider than the line");
            if (listener_)
                listener_->onEvict(set, way, line_addr, l.dirtyBytes,
                                   now);
            if (l.dirtyBytes) {
                ++stats_.writebacks;
                MemRequest wb{line_addr, params_.lineBytes,
                              MemCmd::Write, noDef};
                next_.access(wb, now);
            }
            l.valid = false;
            l.dirtyBytes = 0;
        }
    }
}

} // namespace mbavf
