/**
 * @file
 * The bit-sliced multi-mode sweep kernel, and the accumulators it
 * shares with the per-mode reference path.
 *
 * Bit i of an anchor word k stands for the fault group anchored at
 * column 64k + i of the current row. The row's lifetimes are kept as
 * two column bitsets, live (ACE) and any (ACE or read), so member j
 * of 64 anchors is one shifted read of each. A region's live and any
 * states are ORs over its members' reads, and each mode's SDC,
 * true-DUE and false-DUE anchors are ORs over the regions whose
 * action is Undetected or Detected.
 *
 * Anchors whose members split into regions the same way (the same
 * partition) share one set of actions, so they are swept together as
 * one group. The layouts of core/layout.cc repeat their domains along
 * a row with the interleave period, which leaves one group per row.
 * A group whose every reachable action is Corrected contributes
 * nothing and is skipped.
 *
 * Time is walked in global order over the row's arena words (a heap
 * of word cursors), with every transition at one timestamp applied
 * as a batch. Between batches each (mode, class) anchor count N is
 * constant, so the kernel adds N x (t - t_prev) to the accumulators
 * — the same integer sum of run lengths the per-anchor reference
 * adds, in unsigned 64-bit arithmetic that wraps alike.
 *
 * A charging sweep (attribution) also splits the widest mode's
 * counts by charged member: each anchor goes to its first member in
 * column order that shows its class, and each row word adds its
 * count x duration under its current segment tag.
 */

#include "core/mbavf_kernel.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bits.hh"
#include "core/lifetime_arena.hh"

namespace mbavf
{
namespace detail
{

OutcomeAccumulator::OutcomeAccumulator(Cycle horizon,
                                       unsigned num_windows)
    : horizon_(horizon), numWindows_(num_windows)
{
    if (num_windows) {
        windows_.resize(std::size_t(num_windows) * 3, 0);
        // Cache the exact integer boundaries: the 128-bit
        // division is far too hot to repeat inside add().
        bounds_.resize(std::size_t(num_windows) + 1);
        for (unsigned w = 0; w <= num_windows; ++w) {
            bounds_[w] = static_cast<Cycle>(
                static_cast<unsigned __int128>(horizon_) * w /
                num_windows);
        }
    }
}

void
OutcomeAccumulator::add(Outcome outcome, Cycle begin, Cycle end)
{
    if (outcome == Outcome::Unace || end <= begin)
        return;
    unsigned idx = classIndex(outcome);
    totals_[idx] += end - begin;
    if (!numWindows_)
        return;
    // Runs cluster in time, so the window that absorbed the last
    // run usually contains this one whole — check it before the
    // binary searches.
    if (bounds_[hint_] <= begin && end <= bounds_[hint_ + 1]) {
        windows_[std::size_t(hint_) * 3 + idx] += end - begin;
        return;
    }
    // Split the slice across windows (binary search over the
    // cached exact boundaries).
    auto window_of = [this](Cycle t) {
        const auto it = std::upper_bound(bounds_.begin() + 1,
                                         bounds_.end(), t);
        return static_cast<unsigned>(it - bounds_.begin()) - 1;
    };
    unsigned w0 = window_of(begin);
    unsigned w1 = window_of(end - 1);
    w1 = std::min(w1, numWindows_ - 1);
    for (unsigned w = w0; w <= w1; ++w) {
        Cycle lo = std::max(begin, bound(w));
        Cycle hi = std::min(end, bound(w + 1));
        if (lo < hi)
            windows_[std::size_t(w) * 3 + idx] += hi - lo;
    }
    hint_ = w1;
}

void
OutcomeAccumulator::addRaw(unsigned idx, Cycle amount)
{
    totals_[idx] += amount;
}

void
OutcomeAccumulator::addWindowRaw(unsigned window, unsigned idx,
                                 Cycle amount)
{
    windows_[std::size_t(window) * 3 + idx] += amount;
}

void
OutcomeAccumulator::mergeFrom(const OutcomeAccumulator &other)
{
    for (unsigned i = 0; i < 3; ++i)
        totals_[i] += other.totals_[i];
    for (std::size_t i = 0; i < windows_.size(); ++i)
        windows_[i] += other.windows_[i];
}

ModeAccumulators::ModeAccumulators(Cycle horizon, unsigned num_windows,
                                   unsigned max_mode)
{
    modes.reserve(max_mode);
    for (unsigned m = 0; m < max_mode; ++m)
        modes.emplace_back(horizon, num_windows);
}

void
ModeAccumulators::mergeFrom(const ModeAccumulators &other)
{
    for (std::size_t m = 0; m < modes.size(); ++m)
        modes[m].mergeFrom(other.modes[m]);
    // Integer sums keyed by tag: the result does not depend on the
    // order the (unordered) map is walked in.
    for (const auto &[tag, c] : other.tags) {
        std::array<Cycle, 3> &mine = tags[tag];
        for (unsigned i = 0; i < 3; ++i)
            mine[i] += c[i];
    }
}

namespace
{

constexpr Cycle no_event = ~Cycle(0);

/** The bits of one arena word the current row holds. */
struct WordGroup
{
    std::uint32_t word = LifetimeArena::noWord;
    std::uint64_t mask = 0;
    /** Row column of each present bit (mask guards). */
    std::array<std::uint32_t, 64> colOf;
};

/**
 * Sweepline cursor over one arena word's segments: the projected
 * (ace, read) masks in force and the segment walk state.
 */
struct WordCursor
{
    const WordGroup *wg = nullptr;
    std::uint32_t s = 0;  ///< next segment slot
    std::uint32_t hi = 0; ///< one past the word's last slot
    std::uint64_t ace = 0, read = 0;
    Cycle stateEnd = 0;
};

/**
 * Charge state of one of the row's words in a charging sweep: the
 * anchors of mode maxMode whose charged member lies in the word, per
 * class, and the group-cycles they have run up under the word's
 * current segment tag since it last changed.
 */
struct WordCharge
{
    InstrTag tag = noInstrTag;
    Cycle since = 0; ///< time pending was last brought up to
    std::array<std::uint64_t, 3> count{};
    std::array<Cycle, 3> pending{};

    /** Add count x (t - since) to pending. */
    void
    settle(Cycle t)
    {
        for (unsigned i = 0; i < 3; ++i)
            pending[i] += count[i] * (t - since);
        since = t;
    }

    /** Settle up to @p t and move pending into the tag's row. */
    void
    flush(Cycle t, TagCycles &tags)
    {
        settle(t);
        if ((pending[0] | pending[1] | pending[2]) == 0)
            return;
        std::array<Cycle, 3> &row = tags[tag];
        for (unsigned i = 0; i < 3; ++i)
            row[i] += pending[i];
        pending = {};
    }
};

/** Heap entry: the time of a word's next transition. */
struct HeapItem
{
    Cycle t;
    std::uint32_t cursor;
};

struct HeapLater
{
    bool
    operator()(const HeapItem &a, const HeapItem &b) const
    {
        return a.t > b.t;
    }
};

/**
 * The anchors of a row whose members split into protection-domain
 * regions the same way. regionOf numbers regions in order of their
 * first member, so equal partitions have equal regionOf prefixes.
 * Each region's size at prefix j + 1, and so its action, is fixed
 * for the whole group.
 */
struct AnchorGroup
{
    /** Members the partition covers (the first anchor's maxm). */
    unsigned len = 0;
    unsigned numRegions = 0;
    std::array<std::uint8_t, maxModeBits> regionOf{};
    /** Region bitmasks whose action at prefix j + 1 is Detected /
     *  Undetected. */
    std::array<std::uint64_t, maxModeBits> detected{};
    std::array<std::uint64_t, maxModeBits> undetected{};
    /** Every action the regions reach is Corrected. */
    bool dead = false;
    /** Member anchors, one bit per anchor column. */
    std::vector<std::uint64_t> anchors;
};

/** The 64 bits of @p bits starting at bit 64k + j, j < 64. */
inline std::uint64_t
bitsFrom(const std::uint64_t *bits, std::size_t k, unsigned j)
{
    // (x << 1) << (63 - j) is x << (64 - j), and zero at j == 0.
    return (bits[k] >> j) | ((bits[k + 1] << 1) << (63 - j));
}

/** The bits of anchor word @p k below column @p limit. */
inline std::uint64_t
belowMask(std::uint64_t limit, std::size_t k)
{
    const std::uint64_t lo = std::uint64_t(k) << 6;
    if (limit <= lo)
        return 0;
    return lowMask(static_cast<unsigned>(
        std::min<std::uint64_t>(limit - lo, 64)));
}

/**
 * All scratch of one row-band sweep, allocated once per band. With
 * @p Charge it is also the attribution sink: each failing group of
 * mode maxMode is charged to its first member in column order that
 * shows the group's class, and count x duration is added per (word,
 * class) under the word's current segment tag. Without it, none of
 * the charge code is compiled in.
 */
template <bool Charge>
class BitSlicedSweeper
{
  public:
    BitSlicedSweeper(const SweepCtx &ctx, ModeAccumulators &out,
                     SweepTallies &tallies)
        : ctx_(ctx), out_(out), tallies_(tallies),
          cols_(ctx.array->cols()), maxMode_(ctx.maxMode),
          words_((ctx.array->cols() + 63) >> 6),
          segBegin_(ctx.arena->begins()), segEnd_(ctx.arena->ends()),
          segMasks_(ctx.arena->masks()), segTag_(ctx.arena->tags())
    {
        domains_.resize(cols_);
        // One padding word: bitsFrom() reads word k + 1.
        lifeBits_.assign(words_ + 1, 0);
        colLive_.assign(words_ + 1, 0);
        colAny_.assign(words_ + 1, 0);
        changed_.assign(words_ + 1, 0);
        hasLife_.assign(words_, 0);
        const std::size_t cells = std::size_t(3) * maxMode_;
        stored_.assign(words_ * cells, 0);
        if constexpr (Charge) {
            colWord_.resize(cols_);
            charged_.assign(words_ * cells, 0);
        }
        count_.assign(cells, 0);
        totalsAcc_.assign(cells, 0);
        numWindows_ = out.modes.empty() ? 0 : out.modes[0].numWindows();
        if (numWindows_) {
            winAcc_.assign(numWindows_ * cells, 0);
            bounds_.resize(std::size_t(numWindows_) + 1);
            for (unsigned w = 0; w <= numWindows_; ++w)
                bounds_[w] = out.modes[0].bound(w);
        }
        // Mode j + 1 has a group at anchor a iff a + j + 1 <= cols.
        for (unsigned j = 0; j < maxMode_; ++j)
            validLimit_[j] = j < cols_ ? cols_ - j : 0;
    }

    void
    sweepRows(std::uint64_t row_begin, std::uint64_t row_end)
    {
        for (std::uint64_t r = row_begin; r < row_end; ++r) {
            resolveRow(r);
            if (numWords_ == 0)
                continue;
            countAnchors();
            if (buildGroups())
                walkTime();
        }
        fold();
    }

  private:
    /** Resolve row @p r: column domains, live columns, word groups. */
    void
    resolveRow(std::uint64_t r)
    {
        const LifetimeArena &arena = *ctx_.arena;
        const unsigned ww = arena.wordWidth();
        const unsigned wpc = arena.wordsPerContainer();

        std::fill(lifeBits_.begin(), lifeBits_.end(), 0);
        numWords_ = 0;
        // One-entry handle-block cache: consecutive columns usually
        // stay in one container.
        std::uint64_t last_container = 0;
        const std::uint32_t *block = nullptr;
        bool have_block = false;
        for (std::uint64_t c = 0; c < cols_; ++c) {
            const PhysBit pb = ctx_.array->at(r, c);
            domains_[c] = pb.domain;
            if (!have_block || pb.container != last_container) {
                block = arena.handleBlock(pb.container);
                last_container = pb.container;
                have_block = true;
            }
            if (!block || ww == 0)
                continue;
            const unsigned wi = pb.bitInContainer / ww;
            const unsigned bit = pb.bitInContainer % ww;
            const std::uint32_t word =
                wi < wpc ? block[wi] : LifetimeArena::noWord;
            if (word == LifetimeArena::noWord)
                continue;
            lifeBits_[c >> 6] |= std::uint64_t(1) << (c & 63);
            // Group the row's bits by arena word; check the open
            // group first, consecutive columns usually share it.
            std::size_t g = numWords_;
            if (numWords_ && wordGroups_[numWords_ - 1].word == word) {
                g = numWords_ - 1;
            } else {
                for (g = 0; g < numWords_; ++g) {
                    if (wordGroups_[g].word == word)
                        break;
                }
            }
            if (g == numWords_) {
                if (wordGroups_.size() <= g)
                    wordGroups_.emplace_back();
                wordGroups_[g].word = word;
                wordGroups_[g].mask = 0;
                ++numWords_;
            }
            wordGroups_[g].mask |= std::uint64_t(1) << bit;
            wordGroups_[g].colOf[bit] = static_cast<std::uint32_t>(c);
            if constexpr (Charge)
                colWord_[c] = static_cast<std::uint32_t>(g);
        }
    }

    /**
     * Mark the anchors with a live member (a column that resolves to
     * a word) and count them, and their groups, into the tallies.
     * Dead groups count too: the tallies measure the anchors swept,
     * not the ones that can fail.
     */
    void
    countAnchors(void)
    {
        for (std::size_t k = 0; k < words_; ++k) {
            std::uint64_t any = 0;
            for (unsigned j = 0; j < maxMode_; ++j)
                any |= bitsFrom(lifeBits_.data(), k, j);
            any &= belowMask(cols_, k);
            hasLife_[k] = any;
            // Anchors below cols - maxMode + 1 hold all maxMode
            // members; the rest hold cols - a.
            const std::uint64_t full =
                any & belowMask(validLimit_[maxMode_ - 1], k);
            tallies_.anchors += static_cast<std::uint64_t>(popCount(any));
            tallies_.groups +=
                std::uint64_t(maxMode_) * popCount(full);
            for (std::uint64_t tail = any & ~full; tail;
                 tail &= tail - 1) {
                tallies_.groups +=
                    cols_ - ((std::uint64_t(k) << 6) +
                             static_cast<unsigned>(
                                 std::countr_zero(tail)));
            }
        }
    }

    /**
     * Sort the row's live anchors into groups by partition, and list
     * the groups some action does not correct. Anchors arrive with a
     * non-increasing member count, so an end-of-row anchor joins the
     * first group whose partition its own is a prefix of; the
     * members it lacks matter only for modes its valid-anchor mask
     * already excludes. False when no live group is left.
     */
    bool
    buildGroups(void)
    {
        numGroups_ = 0;
        std::array<std::uint8_t, maxModeBits> part;
        std::array<DomainId, maxModeBits> region_domain;
        for (std::size_t k = 0; k < words_; ++k) {
            for (std::uint64_t bits = hasLife_[k]; bits;
                 bits &= bits - 1) {
                const std::uint64_t a =
                    (std::uint64_t(k) << 6) +
                    static_cast<unsigned>(std::countr_zero(bits));
                const unsigned maxm = static_cast<unsigned>(
                    std::min<std::uint64_t>(maxMode_, cols_ - a));
                unsigned regions = 0;
                for (unsigned j = 0; j < maxm; ++j) {
                    const DomainId d = domains_[a + j];
                    unsigned reg = 0;
                    while (reg < regions && region_domain[reg] != d)
                        ++reg;
                    if (reg == regions)
                        region_domain[regions++] = d;
                    part[j] = static_cast<std::uint8_t>(reg);
                }
                std::size_t g = 0;
                for (; g < numGroups_; ++g) {
                    if (std::memcmp(groups_[g].regionOf.data(),
                                    part.data(), maxm) == 0) {
                        break;
                    }
                }
                if (g == numGroups_)
                    newGroup(part, maxm, regions);
                groups_[g].anchors[k] |= bits & -bits;
            }
        }
        liveGroups_.clear();
        for (std::size_t g = 0; g < numGroups_; ++g) {
            if (!groups_[g].dead)
                liveGroups_.push_back(&groups_[g]);
        }
        return !liveGroups_.empty();
    }

    /** Append a group for partition @p part of @p len members. */
    void
    newGroup(const std::array<std::uint8_t, maxModeBits> &part,
             unsigned len, unsigned regions)
    {
        if (groups_.size() <= numGroups_)
            groups_.emplace_back();
        AnchorGroup &g = groups_[numGroups_++];
        g.len = len;
        g.numRegions = regions;
        g.regionOf = part;
        g.dead = true;
        g.anchors.assign(words_, 0);
        std::array<unsigned, maxModeBits> size{};
        for (unsigned j = 0; j < len; ++j) {
            ++size[part[j]];
            std::uint64_t det = 0, undet = 0;
            for (unsigned reg = 0; reg < regions; ++reg) {
                if (size[reg] == 0)
                    continue;
                const FaultAction action = ctx_.actionOf[size[reg]];
                if (action == FaultAction::Detected)
                    det |= std::uint64_t(1) << reg;
                else if (action == FaultAction::Undetected)
                    undet |= std::uint64_t(1) << reg;
            }
            g.detected[j] = det;
            g.undetected[j] = undet;
            if (det | undet)
                g.dead = false;
        }
    }

    /** Sweep the row's transitions in time order. */
    void
    walkTime(void)
    {
        const LifetimeArena &arena = *ctx_.arena;
        cursors_.clear();
        heap_.clear();
        for (std::size_t g = 0; g < numWords_; ++g) {
            WordCursor cur;
            cur.wg = &wordGroups_[g];
            cur.s = arena.offset(cur.wg->word);
            cur.hi = cur.s + arena.count(cur.wg->word);
            const Cycle t = nextTransition(cur);
            if (t == no_event)
                continue;
            heap_.push_back(
                {t, static_cast<std::uint32_t>(cursors_.size())});
            cursors_.push_back(cur);
        }
        std::make_heap(heap_.begin(), heap_.end(), HeapLater{});
        if constexpr (Charge)
            wordCharges_.assign(numWords_, WordCharge{});

        // Batch every cursor that fires at one timestamp: a cache
        // line fill or eviction moves many words of a row at once,
        // and their anchor words overlap.
        curWin_ = 0;
        Cycle prev = 0;
        while (!heap_.empty()) {
            const Cycle t = heap_.front().t;
            deposit(prev, t);
            prev = t;
            if constexpr (Charge)
                now_ = t;
            do {
                std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
                const HeapItem item = heap_.back();
                heap_.pop_back();
                WordCursor &cur = cursors_[item.cursor];
                applyTransition(cur);
                const Cycle nt = nextTransition(cur);
                if (nt != no_event) {
                    heap_.push_back({nt, item.cursor});
                    std::push_heap(heap_.begin(), heap_.end(),
                                   HeapLater{});
                }
            } while (!heap_.empty() && heap_.front().t == t);
            recomputeChanged();
        }
        // Lifetimes still open when the transitions ran dry extend to
        // the horizon (closes at the horizon are never materialized).
        deposit(prev, ctx_.horizon);
        if constexpr (Charge) {
            for (WordCharge &w : wordCharges_)
                w.flush(ctx_.horizon, out_.tags);
            std::fill(charged_.begin(), charged_.end(), 0);
        }

        std::fill(colLive_.begin(), colLive_.end(), 0);
        std::fill(colAny_.begin(), colAny_.end(), 0);
        std::fill(stored_.begin(), stored_.end(), 0);
        std::fill(count_.begin(), count_.end(), 0);
        counted_ = 0;
    }

    /**
     * Time of @p cur's next transition, no_event when exhausted. A
     * close is pending when the projected state is non-zero and the
     * next segment starts after the current one ends (or the
     * segments ran out before the horizon). Closes at or past the
     * horizon are never materialized: they cannot open a run, and
     * at horizon UINT64_MAX one would collide with no_event.
     */
    Cycle
    nextTransition(const WordCursor &cur) const
    {
        const Cycle horizon = ctx_.horizon;
        const bool open_state = (cur.ace | cur.read) != 0;
        if (cur.s < cur.hi && segBegin_[cur.s] < horizon) {
            if (open_state && segBegin_[cur.s] > cur.stateEnd)
                return cur.stateEnd;
            return segBegin_[cur.s];
        }
        return open_state && cur.stateEnd < horizon ? cur.stateEnd
                                                    : no_event;
    }

    /**
     * Apply @p cur's transition: move the projected masks to their
     * next value and flip the live and any bits of every column whose
     * state changed, marking it in changed_.
     */
    void
    applyTransition(WordCursor &cur)
    {
        const Cycle horizon = ctx_.horizon;
        std::uint64_t nace = 0, nread = 0;
        const bool more = cur.s < cur.hi && segBegin_[cur.s] < horizon;
        const bool is_close =
            !more || ((cur.ace | cur.read) != 0 &&
                      segBegin_[cur.s] > cur.stateEnd);
        if (!is_close) {
            nace = segMasks_[cur.s].ace & cur.wg->mask;
            nread = segMasks_[cur.s].read & cur.wg->mask;
            cur.stateEnd = std::min(segEnd_[cur.s], horizon);
            if constexpr (Charge) {
                // The word's tag changes here, and only here.
                WordCharge &w = wordCharges_[cur.wg - wordGroups_.data()];
                const InstrTag tag = segTag_[cur.s];
                if (tag != w.tag) {
                    w.flush(now_, out_.tags);
                    w.tag = tag;
                }
            }
            ++cur.s;
        }
        const std::uint64_t d_live = cur.ace ^ nace;
        const std::uint64_t d_any = (cur.ace | cur.read) ^ (nace | nread);
        for (std::uint64_t diff = d_live | d_any; diff;
             diff &= diff - 1) {
            const unsigned b =
                static_cast<unsigned>(std::countr_zero(diff));
            const std::uint32_t col = cur.wg->colOf[b];
            const unsigned shift = col & 63;
            colLive_[col >> 6] ^= ((d_live >> b) & 1) << shift;
            colAny_[col >> 6] ^= ((d_any >> b) & 1) << shift;
            changed_[col >> 6] |= std::uint64_t(1) << shift;
            changedLo_ = std::min<std::size_t>(changedLo_, col >> 6);
            changedHi_ = std::max<std::size_t>(changedHi_, col >> 6);
        }
        cur.ace = nace;
        cur.read = nread;
    }

    /**
     * Recompute every anchor word within maxMode - 1 columns of a
     * changed column: word k's anchors read columns [64k, 64k + 63 +
     * maxMode - 1].
     */
    void
    recomputeChanged(void)
    {
        if (changedLo_ > changedHi_)
            return;
        const std::uint64_t reach = lowMask(maxMode_ - 1);
        const std::size_t lo = changedLo_ ? changedLo_ - 1 : 0;
        for (std::size_t k = lo; k <= changedHi_; ++k) {
            if (changed_[k] | (changed_[k + 1] & reach))
                recomputeWord(k);
        }
        for (std::size_t k = changedLo_; k <= changedHi_; ++k)
            changed_[k] = 0;
        changedLo_ = ~std::size_t(0);
        changedHi_ = 0;
    }

    /**
     * Classify anchor word @p k in every mode and move the (mode,
     * class) counts by the change against its stored class masks.
     */
    void
    recomputeWord(std::size_t k)
    {
        const std::size_t cells = std::size_t(3) * maxMode_;
        std::array<std::uint64_t, 3 * maxModeBits> fresh;
        std::fill(fresh.begin(), fresh.begin() + cells, 0);
        std::array<std::uint64_t, maxModeBits> reg_live;
        std::array<std::uint64_t, maxModeBits> reg_any;
        // Charging sweeps: the anchors charged per (member, class),
        // [3j + cls].
        std::array<std::uint64_t, 3 * maxModeBits> hits;
        if constexpr (Charge)
            std::fill(hits.begin(), hits.begin() + cells, 0);
        const bool due_shields = ctx_.dueShields;
        for (const AnchorGroup *g : liveGroups_) {
            const std::uint64_t anchors = g->anchors[k];
            if (!anchors)
                continue;
            std::fill_n(reg_live.begin(), g->numRegions, 0);
            std::fill_n(reg_any.begin(), g->numRegions, 0);
            for (unsigned j = 0; j < g->len; ++j) {
                const unsigned reg = g->regionOf[j];
                reg_live[reg] |= bitsFrom(colLive_.data(), k, j);
                reg_any[reg] |= bitsFrom(colAny_.data(), k, j);
                std::uint64_t sdc = 0, tdue = 0, fdue = 0;
                for (std::uint64_t u = g->undetected[j]; u; u &= u - 1)
                    sdc |= reg_live[std::countr_zero(u)];
                for (std::uint64_t d = g->detected[j]; d; d &= d - 1) {
                    const unsigned r =
                        static_cast<unsigned>(std::countr_zero(d));
                    tdue |= reg_live[r];
                    fdue |= reg_any[r] & ~reg_live[r];
                }
                // combineOutcomes' precedence, 64 anchors at a time.
                fdue &= ~(sdc | tdue);
                if (due_shields)
                    sdc &= ~tdue;
                else
                    tdue &= ~sdc;
                const std::uint64_t valid =
                    anchors & belowMask(validLimit_[j], k);
                fresh[3 * j + 0] |= sdc & valid;
                fresh[3 * j + 1] |= tdue & valid;
                fresh[3 * j + 2] |= fdue & valid;
                if constexpr (Charge) {
                    if (j + 1 == maxMode_) {
                        firstMembers(*g, k,
                                     {sdc & valid, tdue & valid,
                                      fdue & valid},
                                     hits);
                    }
                }
            }
        }
        std::uint64_t *stored = stored_.data() + k * cells;
        for (std::size_t i = 0; i < cells; ++i) {
            if (fresh[i] == stored[i])
                continue;
            const std::uint64_t delta =
                static_cast<std::uint64_t>(popCount(fresh[i])) -
                static_cast<std::uint64_t>(popCount(stored[i]));
            count_[i] += delta;
            counted_ += delta;
            stored[i] = fresh[i];
        }
        if constexpr (Charge) {
            // Move each changed charge onto or off its member's word.
            std::uint64_t *charged = charged_.data() + k * cells;
            for (std::size_t i = 0; i < cells; ++i) {
                for (std::uint64_t diff = hits[i] ^ charged[i]; diff;
                     diff &= diff - 1) {
                    const unsigned b =
                        static_cast<unsigned>(std::countr_zero(diff));
                    const std::uint64_t col = (std::uint64_t(k) << 6) + b +
                                              i / 3;
                    WordCharge &w = wordCharges_[colWord_[col]];
                    w.settle(now_);
                    w.count[i % 3] += (hits[i] >> b) & 1 ? 1 : ~0ull;
                }
                charged[i] = hits[i];
            }
        }
    }

    /**
     * For each anchor of mode maxMode in @p left (group @p g's class
     * masks {SDC, true DUE, false DUE} in anchor word @p k), find its
     * first member in column order that shows the class — ACE-live
     * in an Undetected region, ACE-live in a Detected region, read
     * but not live in a Detected region — and mark the anchor in
     * hits[3j + cls] of that member j.
     */
    void
    firstMembers(const AnchorGroup &g, std::size_t k,
                 std::array<std::uint64_t, 3> left,
                 std::array<std::uint64_t, 3 * maxModeBits> &hits) const
    {
        const std::uint64_t undetected = g.undetected[maxMode_ - 1];
        const std::uint64_t detected = g.detected[maxMode_ - 1];
        for (unsigned j = 0; j < maxMode_ && (left[0] | left[1] | left[2]);
             ++j) {
            const std::uint64_t reg = std::uint64_t(1) << g.regionOf[j];
            const std::uint64_t live = bitsFrom(colLive_.data(), k, j);
            std::array<std::uint64_t, 3> hit{};
            if (undetected & reg) {
                hit[0] = left[0] & live;
            } else if (detected & reg) {
                hit[1] = left[1] & live;
                hit[2] = left[2] & bitsFrom(colAny_.data(), k, j) & ~live;
            }
            for (unsigned cls = 0; cls < 3; ++cls) {
                hits[3 * j + cls] |= hit[cls];
                left[cls] &= ~hit[cls];
            }
        }
    }

    /**
     * Add count x duration over [lo, hi) for every (mode, class),
     * split at the window bounds the way OutcomeAccumulator::add
     * splits a run. With windows on, deposits go to the window tensor
     * only; the fold derives the totals as the sum over windows.
     */
    void
    deposit(Cycle lo, Cycle hi)
    {
        if (counted_ == 0 || lo == hi)
            return;
        const std::size_t cells = std::size_t(3) * maxMode_;
        if (!numWindows_) {
            addCounts(totalsAcc_.data(), hi - lo);
            return;
        }
        for (;;) {
            while (bounds_[curWin_ + 1] <= lo)
                ++curWin_;
            const Cycle end = std::min(hi, bounds_[curWin_ + 1]);
            addCounts(winAcc_.data() + curWin_ * cells, end - lo);
            if (end == hi)
                return;
            lo = end;
        }
    }

    void
    addCounts(Cycle *cells, Cycle dt)
    {
        for (std::size_t i = 0; i < count_.size(); ++i)
            cells[i] += count_[i] * dt;
    }

    /** Fold the band's tensors into the shared accumulators. */
    void
    fold(void)
    {
        for (unsigned j = 0; j < maxMode_; ++j) {
            for (unsigned cls = 0; cls < 3; ++cls) {
                const std::size_t i = std::size_t(3) * j + cls;
                Cycle total = totalsAcc_[i];
                for (unsigned w = 0; w < numWindows_; ++w) {
                    const Cycle amount =
                        winAcc_[std::size_t(w) * 3 * maxMode_ + i];
                    total += amount;
                    if (amount)
                        out_.modes[j].addWindowRaw(w, cls, amount);
                }
                if (total)
                    out_.modes[j].addRaw(cls, total);
            }
        }
    }

    const SweepCtx &ctx_;
    ModeAccumulators &out_;
    SweepTallies &tallies_;
    const std::uint64_t cols_;
    const unsigned maxMode_;
    /** Anchor (and column) words per row. */
    const std::size_t words_;
    const Cycle *segBegin_;
    const Cycle *segEnd_;
    const SegMasks *segMasks_;
    const InstrTag *segTag_;
    /** validLimit_[j]: anchors below it hold mode j + 1. */
    std::array<std::uint64_t, maxModeBits> validLimit_{};

    // The current row: column domains, the columns holding a word,
    // the anchors with such a member, and the row's word groups.
    std::vector<DomainId> domains_;
    std::vector<std::uint64_t> lifeBits_;
    std::vector<std::uint64_t> hasLife_;
    std::vector<WordGroup> wordGroups_;
    std::size_t numWords_ = 0;

    std::vector<AnchorGroup> groups_;
    std::size_t numGroups_ = 0;
    std::vector<const AnchorGroup *> liveGroups_;

    // Sweepline state: word cursors, the transition heap, and the
    // column bitsets they maintain.
    std::vector<WordCursor> cursors_;
    std::vector<HeapItem> heap_;
    std::vector<std::uint64_t> colLive_;
    std::vector<std::uint64_t> colAny_;
    std::vector<std::uint64_t> changed_;
    /** Column-word range holding a changed_ bit. */
    std::size_t changedLo_ = ~std::size_t(0);
    std::size_t changedHi_ = 0;

    /** Class masks per (anchor word, mode, class), [k][3j + cls]. */
    std::vector<std::uint64_t> stored_;
    /** Anchors per (mode, class) in each class now, [3j + cls]. */
    std::vector<std::uint64_t> count_;
    /** Sum of count_: zero when nothing can deposit. */
    std::uint64_t counted_ = 0;

    // Charge state (Charge only): the row word of each column, the
    // anchors charged per (anchor word, member, class) as [k][3j +
    // cls], each row word's charges, and the sweep time.
    std::vector<std::uint32_t> colWord_;
    std::vector<std::uint64_t> charged_;
    std::vector<WordCharge> wordCharges_;
    Cycle now_ = 0;

    // Deposit tensors, [w][3j + cls], folded once per band.
    unsigned numWindows_ = 0;
    unsigned curWin_ = 0; ///< window holding the sweep time
    std::vector<Cycle> totalsAcc_;
    std::vector<Cycle> winAcc_;
    std::vector<Cycle> bounds_;
};

} // namespace

void
sweepRows(const SweepCtx &ctx, std::uint64_t row_begin,
          std::uint64_t row_end, ModeAccumulators &out,
          SweepTallies &tallies)
{
    if (ctx.charge) {
        BitSlicedSweeper<true>(ctx, out, tallies)
            .sweepRows(row_begin, row_end);
    } else {
        BitSlicedSweeper<false>(ctx, out, tallies)
            .sweepRows(row_begin, row_end);
    }
}

} // namespace detail
} // namespace mbavf
