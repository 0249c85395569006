#include "trace/dataflow.hh"

#include <algorithm>
#include <limits>

#include "common/check.hh"
#include "common/logging.hh"

namespace mbavf
{

namespace
{

/** Call @p fn(lane) for every set bit of @p exec, ascending. */
template <typename Fn>
void
forEachLane(std::uint64_t exec, Fn fn)
{
    for (std::uint64_t m = exec; m != 0; m &= m - 1)
        fn(static_cast<unsigned>(std::countr_zero(m)));
}

} // namespace

std::uint32_t
DataflowLog::appendLanes(std::uint64_t exec, const std::uint32_t *values)
{
    if (lanes_.size() + 64 > std::numeric_limits<std::uint32_t>::max())
        fatal("dataflow trace per-lane payload past 2^32 entries");
    const auto offset = static_cast<std::uint32_t>(lanes_.size());
    forEachLane(exec, [&](unsigned lane) { lanes_.push_back(values[lane]); });
    return offset;
}

DataflowLog::Operand
DataflowLog::classify(const DefBlock &block, const LaneSrc &src)
{
    Operand op;
    op.positional = src.positional;
    op.relevance = src.relevance;
    const unsigned first = static_cast<unsigned>(
        std::countr_zero(block.exec));
    if (src.laneRelevance) {
        const std::uint32_t r0 = src.laneRelevance[first];
        bool uniform = true;
        forEachLane(block.exec, [&](unsigned lane) {
            uniform &= src.laneRelevance[lane] == r0;
        });
        op.relevance = uniform ? r0
                               : appendLanes(block.exec, src.laneRelevance);
        op.laneRel = !uniform;
    }

    // Implicit when every active lane i reads lane i of the block
    // that produced the first lane's source.
    const DefId d0 = src.defs[first];
    bool any = false;
    bool implicit = d0 != noDef;
    std::size_t producer = 0;
    if (implicit) {
        if (d0 >= block.base)
            panic("DataflowLog source refers forward");
        producer = blockOf(d0);
    }
    const Block *p = implicit ? &blocks_[producer] : nullptr;
    forEachLane(block.exec, [&](unsigned lane) {
        const DefId d = src.defs[lane];
        any |= d != noDef;
        if (implicit) {
            implicit = (p->exec >> lane & 1) != 0 &&
                d == p->base + static_cast<DefId>(
                         std::popcount(p->exec & lowMask(lane)));
        }
    });
    if (!any)
        return op;
    if (implicit) {
        op.kind = SrcKind::Implicit;
        op.producer = static_cast<std::uint32_t>(producer);
        return op;
    }
    forEachLane(block.exec, [&](unsigned lane) {
        const DefId d = src.defs[lane];
        if (d != noDef && d >= block.base)
            panic("DataflowLog source refers forward");
    });
    op.kind = SrcKind::PerLane;
    op.producer = appendLanes(block.exec, src.defs);
    return op;
}

void
DataflowLog::record(const DefBlock &block, InstrTag tag,
                    std::span<const LaneSrc> srcs, std::uint32_t output)
{
    if (block.base != numDefs_)
        panic("DataflowLog block recorded out of order");
    const unsigned n = static_cast<unsigned>(std::popcount(block.exec));
    if (n == 0)
        return;
    // noDef itself is never a definition.
    if (numDefs_ + n > noDef)
        fatal("dataflow trace past ", noDef, " definitions");
    const auto first = static_cast<std::uint32_t>(operands_.size());
    for (const LaneSrc &src : srcs)
        operands_.push_back(classify(block, src));
    blocks_.push_back({block.exec, block.base, tag, first, output});
    numDefs_ += n;
}

DefId
DataflowLog::record(std::span<const SrcUse> srcs, InstrTag tag)
{
    // A one-lane block: lane 0 is its only active lane.
    std::vector<DefId> defs(srcs.size());
    std::vector<LaneSrc> lane_srcs(srcs.size());
    for (std::size_t i = 0; i < srcs.size(); ++i) {
        defs[i] = srcs[i].def;
        lane_srcs[i] = {&defs[i], nullptr, srcs[i].relevance,
                        srcs[i].positional};
    }
    const DefBlock block = nextBlock(1);
    record(block, tag, lane_srcs);
    return block.base;
}

void
DataflowLog::markOutput(DefId def, std::uint32_t mask)
{
    if (def >= numDefs_)
        panic("markOutput on unknown def");
    Block &block = blocks_[blockOf(def)];
    if (std::popcount(block.exec) != 1)
        panic("markOutput on a definition of a multi-lane block");
    block.output |= mask;
}

std::size_t
DataflowLog::blockOf(DefId def) const
{
    const auto it = std::upper_bound(
        blocks_.begin(), blocks_.end(), def,
        [](DefId d, const Block &b) { return d < b.base; });
    return static_cast<std::size_t>(it - blocks_.begin()) - 1;
}

DataflowLog::DefLoc
DataflowLog::locate(DefId def) const
{
    const std::size_t b = blockOf(def);
    const unsigned rank = def - blocks_[b].base;
    std::uint64_t m = blocks_[b].exec;
    for (unsigned k = 0; k < rank; ++k)
        m &= m - 1;
    return {b, static_cast<unsigned>(std::countr_zero(m)), rank};
}

std::uint32_t
DataflowLog::numOperands(std::size_t block) const
{
    const std::size_t end = block + 1 < blocks_.size()
        ? blocks_[block + 1].firstOperand
        : operands_.size();
    return static_cast<std::uint32_t>(end - blocks_[block].firstOperand);
}

InstrTag
DataflowLog::defTag(DefId def) const
{
    return def < numDefs_ ? blocks_[blockOf(def)].tag : noInstrTag;
}

unsigned
DataflowLog::numSrcs(DefId def) const
{
    return def < numDefs_ ? numOperands(blockOf(def)) : 0;
}

SrcUse
DataflowLog::src(DefId def, unsigned i) const
{
    const DefLoc loc = locate(def);
    const Operand &op = operands_[blocks_[loc.block].firstOperand + i];
    return {laneSource(op, loc.lane, loc.rank),
            laneRelevance(op, loc.rank), op.positional};
}

std::uint32_t
DataflowLog::outputMask(DefId def) const
{
    return def < numDefs_ ? blocks_[blockOf(def)].output : 0;
}

void
DataflowLog::clear()
{
    *this = DataflowLog{};
}

Liveness::Liveness(const DataflowLog &log) : rel_(log.size(), 0)
{
    using Block = DataflowLog::Block;
    using Operand = DataflowLog::Operand;
    using SrcKind = DataflowLog::SrcKind;
    const std::vector<Block> &blocks = log.blocks_;

    for (const Block &b : blocks) {
        if (b.output)
            std::fill_n(rel_.begin() + b.base, std::popcount(b.exec),
                        b.output);
    }

    // One block at a time, newest first: its lanes' relevance is
    // final once every later block has been visited.
    for (std::size_t e = blocks.size(); e-- > 0;) {
        const Block &blk = blocks[e];
        const unsigned n = static_cast<unsigned>(std::popcount(blk.exec));
        const std::uint32_t *rel_e = rel_.data() + blk.base;
        if (std::all_of(rel_e, rel_e + n,
                        [](std::uint32_t r) { return r == 0; }))
            continue;
        const std::uint32_t num_ops = log.numOperands(e);
        for (std::uint32_t i = 0; i < num_ops; ++i) {
            const Operand &op = log.operands_[blk.firstOperand + i];
            if (op.kind == SrcKind::None)
                continue;
            // An implicit source over the same lanes reads rank k of
            // its producer: the common, branch-free case.
            const bool same_lanes = op.kind == SrcKind::Implicit &&
                blocks[op.producer].exec == blk.exec;
            unsigned k = 0;
            for (std::uint64_t m = blk.exec; m != 0; m &= m - 1, ++k) {
                const std::uint32_t rel_k = rel_e[k];
                if (!rel_k)
                    continue;
                const DefId s = same_lanes
                    ? blocks[op.producer].base + k
                    : log.laneSource(
                          op, static_cast<unsigned>(std::countr_zero(m)),
                          k);
                if (s == noDef)
                    continue;
                // record() rejects forward references; a violation
                // here means the log was corrupted after recording,
                // and the backward pass would silently mis-propagate
                // liveness.
                MBAVF_CHECK(s < blk.base, "def ", blk.base + k,
                            " source ", i, " refers forward to ", s);
                const std::uint32_t mask = log.laneRelevance(op, k);
                // A fully-masked source (relevance 0, e.g. AND with
                // an all-zero operand) contributes nothing.
                if (!mask)
                    continue;
                rel_[s] |= op.positional ? (mask & rel_k) : mask;
            }
        }
    }

    numDead_ = static_cast<std::uint64_t>(
        std::count(rel_.begin(), rel_.end(), 0u));
}

} // namespace mbavf
