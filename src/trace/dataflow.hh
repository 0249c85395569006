/**
 * @file
 * Dynamic dataflow trace.
 *
 * Every value produced during functional execution (each op result,
 * each load) is a dynamic definition (DefId). Definitions record
 * which earlier definitions they consumed and with what per-bit
 * relevance. After the run, the Liveness analyzer walks the trace
 * backward to find transitively dynamically-dead definitions and the
 * per-bit logic-masking relevance of live ones — the program-level
 * masking effects the paper's ACE infrastructure accounts for
 * (Section VI-A).
 *
 * The trace is recorded once per wave instruction. An instruction's
 * definitions form one block: its tag, exec mask and base id. The
 * active lane of rank k (the k-th set bit of the mask) defines
 * base + k, so ids stay dense and increasing and sources always refer
 * backward. A block stores each source operand once:
 * - implicit: every active lane i reads lane i of one earlier block,
 *   the usual case; only that block's index is kept;
 * - per lane: one producer id per active lane, for registers of
 *   mixed origin after divergence, select's taken operand and load
 *   origins;
 * - none: no lane has a producer (constants, host data).
 * A source's relevance mask is one value, or one per lane where it
 * depends on the operand values (AND, OR, MUL, mad).
 */

#ifndef MBAVF_TRACE_DATAFLOW_HH
#define MBAVF_TRACE_DATAFLOW_HH

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.hh"
#include "common/types.hh"

namespace mbavf
{

/** One source operand of a dynamic definition. */
struct SrcUse
{
    DefId def = noDef;
    /** Source-value bits that can affect the result. */
    std::uint32_t relevance = ~std::uint32_t(0);
    /**
     * True when the consumer propagates this source's bits
     * positionally (moves, loads, bitwise logic): the consumer's own
     * relevance then refines which source bits matter. False for
     * all-or-nothing consumption (arithmetic, compares, addresses).
     */
    bool positional = false;
};

/**
 * The definitions of one block: the active lane of rank k in @c exec
 * defines base + k. DefBlock{} has no definitions.
 */
struct DefBlock
{
    DefId base = noDef;
    std::uint64_t exec = 0;

    /** Definition of lane @p lane, which must be set in exec. */
    DefId
    def(unsigned lane) const
    {
        if (base == noDef)
            return noDef;
        return base +
            static_cast<DefId>(std::popcount(exec & lowMask(lane)));
    }
};

/**
 * One source operand of a block as the recorder gathers it: arrays
 * indexed by lane, read for the block's active lanes only.
 */
struct LaneSrc
{
    /** Producer of each lane's source value (noDef: none). */
    const DefId *defs = nullptr;
    /** Per-lane relevance masks; null means @c relevance for all. */
    const std::uint32_t *laneRelevance = nullptr;
    std::uint32_t relevance = ~std::uint32_t(0);
    /** As SrcUse::positional. */
    bool positional = false;
};

/**
 * Append-only log of dynamic definitions, one block per recorded
 * instruction. Sources always refer to earlier definitions, so a
 * single reverse pass computes liveness.
 */
class DataflowLog
{
  public:
    /** The block an instruction over @p exec would record next. */
    DefBlock
    nextBlock(std::uint64_t exec) const
    {
        return {static_cast<DefId>(numDefs_), exec};
    }

    /**
     * Record @p block, which must be nextBlock()'s, produced by
     * static instruction @p tag (noInstrTag for synthetic anchors)
     * and consuming @p srcs. Every definition of the block has the
     * output mask @p output. A block with no active lane records
     * nothing.
     */
    void record(const DefBlock &block, InstrTag tag,
                std::span<const LaneSrc> srcs,
                std::uint32_t output = 0);

    /**
     * Record a single definition consuming @p srcs, produced by
     * static instruction @p tag (noInstrTag for synthetic anchors).
     */
    DefId record(std::span<const SrcUse> srcs,
                 InstrTag tag = noInstrTag);

    /**
     * Mark @p def's bits in @p mask as reaching program output.
     * @p def must come from the single-definition record().
     */
    void markOutput(DefId def, std::uint32_t mask = ~std::uint32_t(0));

    /// @name Per-definition view
    /// @{
    /** Static instruction that produced @p def. */
    InstrTag defTag(DefId def) const;

    /** Number of recorded sources of @p def. */
    unsigned numSrcs(DefId def) const;

    /** Source @p i of @p def (i < numSrcs(def)). */
    SrcUse src(DefId def, unsigned i) const;

    /** Bits of @p def marked as reaching program output. */
    std::uint32_t outputMask(DefId def) const;

    /**
     * Call @p fn(def, tag, output_mask) for every definition, in id
     * order: the per-definition view's fields without a lookup each.
     */
    template <typename Fn>
    void
    forEachDef(Fn fn) const
    {
        for (const Block &b : blocks_) {
            const int n = std::popcount(b.exec);
            for (int k = 0; k < n; ++k)
                fn(b.base + static_cast<DefId>(k), b.tag, b.output);
        }
    }

    /**
     * Call @p fn(def, src) for every recorded source of every
     * definition, block by block.
     */
    template <typename Fn>
    void
    forEachSrc(Fn fn) const
    {
        for (std::size_t b = 0; b < blocks_.size(); ++b) {
            const Block &blk = blocks_[b];
            const std::uint32_t num_ops = numOperands(b);
            for (std::uint32_t i = 0; i < num_ops; ++i) {
                const Operand &op = operands_[blk.firstOperand + i];
                unsigned k = 0;
                for (std::uint64_t m = blk.exec; m != 0; m &= m - 1, ++k) {
                    const auto lane =
                        static_cast<unsigned>(std::countr_zero(m));
                    fn(blk.base + k,
                       SrcUse{laneSource(op, lane, k),
                              laneRelevance(op, k), op.positional});
                }
            }
        }
    }
    /// @}

    /** Number of definitions (active lanes over all blocks). */
    std::uint64_t size() const { return numDefs_; }

    /** Drop every definition and release the storage. */
    void clear();

  private:
    friend class Liveness;

    enum class SrcKind : std::uint8_t { None, Implicit, PerLane };

    /** One source operand of a block. */
    struct Operand
    {
        /** Implicit: producer block index. PerLane: lanes_ offset. */
        std::uint32_t producer = 0;
        /** The mask of every lane, or its lanes_ offset (laneRel). */
        std::uint32_t relevance = 0;
        SrcKind kind = SrcKind::None;
        bool laneRel = false;
        bool positional = false;
    };

    struct Block
    {
        std::uint64_t exec;
        DefId base;
        InstrTag tag;
        std::uint32_t firstOperand; ///< operands_ index
        std::uint32_t output;       ///< output mask of every lane
    };

    /** A definition's block index, lane and rank in the block. */
    struct DefLoc
    {
        std::size_t block;
        unsigned lane;
        unsigned rank;
    };

    Operand classify(const DefBlock &block, const LaneSrc &src);
    std::uint32_t appendLanes(std::uint64_t exec,
                              const std::uint32_t *values);

    /** Index of the block holding @p def (def < size()). */
    std::size_t blockOf(DefId def) const;
    DefLoc locate(DefId def) const;
    std::uint32_t numOperands(std::size_t block) const;

    /** Source of the lane @p lane, of rank @p rank, under @p op. */
    DefId
    laneSource(const Operand &op, unsigned lane, unsigned rank) const
    {
        switch (op.kind) {
          case SrcKind::Implicit: {
            const Block &p = blocks_[op.producer];
            return p.base + static_cast<DefId>(
                std::popcount(p.exec & lowMask(lane)));
          }
          case SrcKind::PerLane:
            return lanes_[op.producer + rank];
          default:
            return noDef;
        }
    }

    std::uint32_t
    laneRelevance(const Operand &op, unsigned rank) const
    {
        return op.laneRel ? lanes_[op.relevance + rank] : op.relevance;
    }

    std::vector<Block> blocks_;
    std::vector<Operand> operands_;
    /** Per-lane payload, by rank: producer ids and masks. */
    std::vector<std::uint32_t> lanes_;
    std::uint64_t numDefs_ = 0;
};

/**
 * Backward liveness and relevance analysis over a DataflowLog.
 *
 * relevance(d) is the union, over all live consumers of d, of the
 * bits of d that can still affect program output: outputMask(d), plus
 * for each consumer e with source relevance m — (m & relevance(e))
 * for positional uses, or m when e is live for all-or-nothing uses.
 * One pass walks the blocks backward, a block's lanes at a time.
 */
class Liveness
{
  public:
    explicit Liveness(const DataflowLog &log);

    /** Per-bit relevance of @p def; 0 = transitively dead. */
    std::uint32_t
    relevance(DefId def) const
    {
        return def < rel_.size() ? rel_[def] : 0;
    }

    bool live(DefId def) const { return relevance(def) != 0; }

    /** Relevance of every definition, indexed by DefId. */
    std::span<const std::uint32_t> relevances() const { return rel_; }

    /** Number of dead definitions found. */
    std::uint64_t numDead() const { return numDead_; }

    std::uint64_t numDefs() const { return rel_.size(); }

  private:
    std::vector<std::uint32_t> rel_;
    std::uint64_t numDead_ = 0;
};

} // namespace mbavf

#endif // MBAVF_TRACE_DATAFLOW_HH
