#include "core/mbavf.hh"

#include <algorithm>
#include <array>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "core/ace_class.hh"
#include "core/lifetime_arena.hh"
#include "core/mbavf_kernel.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"

namespace mbavf
{

// The classification helpers and accumulators are shared with the
// multi-mode kernel (core/mbavf_kernel.hh).
using detail::classifyRegion;
using detail::combineOutcomes;
using detail::maxModeBits;
using detail::ModeAccumulators;
using detail::OutcomeAccumulator;

namespace
{

/** Resolved view of one member bit of a fault group. */
struct MemberBit
{
    const WordLifetime *life = nullptr; ///< null = always Unace
    unsigned bitInWord = 0;
    DomainId domain = invalidDomain;
    std::size_t segCursor = 0; ///< sweep cursor into life->segments()
};

/** Per-group sweep state shared across anchors to avoid reallocation. */
struct SweepScratch
{
    std::vector<Cycle> boundaries;
};

/**
 * Sweep one fault group: merge the member bits' segment boundaries
 * and classify every elementary slice.
 *
 * Member bits of the same word share one WordLifetime; boundary
 * collection and cursor advancement are done once per unique word,
 * not once per bit (Mx1 groups over xI interleaving hit each word
 * M/I times).
 */
void
sweepGroup(std::vector<MemberBit> &members, const ProtectionScheme &scheme,
           Cycle horizon, bool due_shields_sdc, SweepScratch &scratch,
           OutcomeAccumulator &acc)
{
    // Group members into regions by domain. Members arrive sorted by
    // (dRow, dCol); domains of adjacent offsets alternate, so find
    // regions by scanning unique domains (mode sizes are tiny).
    std::array<DomainId, maxModeBits> domains;
    std::array<FaultAction, maxModeBits> actions;
    std::array<unsigned, maxModeBits> regionOf;
    unsigned num_regions = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
        unsigned r = 0;
        for (; r < num_regions; ++r) {
            if (domains[r] == members[i].domain)
                break;
        }
        if (r == num_regions)
            domains[num_regions++] = members[i].domain;
        regionOf[i] = r;
    }
    std::array<unsigned, maxModeBits> region_size{};
    for (std::size_t i = 0; i < members.size(); ++i)
        ++region_size[regionOf[i]];
    for (unsigned r = 0; r < num_regions; ++r)
        actions[r] = scheme.action(region_size[r]);

    // Deduplicate member words: per unique WordLifetime keep one
    // cursor plus the member's (bit, region) pairs attached to it.
    std::array<const WordLifetime *, maxModeBits> words;
    std::array<std::size_t, maxModeBits> cursors{};
    std::array<unsigned, maxModeBits> wordOf;
    unsigned num_words = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
        if (!members[i].life) {
            wordOf[i] = maxModeBits; // sentinel: always Unace
            continue;
        }
        unsigned w = 0;
        for (; w < num_words; ++w) {
            if (words[w] == members[i].life)
                break;
        }
        if (w == num_words)
            words[num_words++] = members[i].life;
        wordOf[i] = w;
    }
    if (num_words == 0)
        return; // every bit Unace for the whole horizon

    // Collect slice boundaries once per unique word.
    auto &bounds = scratch.boundaries;
    bounds.clear();
    for (unsigned w = 0; w < num_words; ++w) {
        for (const LifeSegment &s : words[w]->segments()) {
            if (s.begin >= horizon)
                break;
            bounds.push_back(s.begin);
            bounds.push_back(std::min(s.end, horizon));
        }
    }
    if (bounds.empty())
        return;
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

    // Sweep slices. Between boundaries every bit's class is
    // constant. Scratch arrays are reset only over the entries in
    // use (value-initializing maxModeBits-sized arrays per slice is
    // measurably slow for small modes).
    std::array<const LifeSegment *, maxModeBits> active;
    std::array<bool, maxModeBits> region_live;
    std::array<bool, maxModeBits> region_read;
    Cycle prev = bounds.front();
    for (std::size_t bi = 1; bi < bounds.size(); ++bi) {
        Cycle next = bounds[bi];

        // Active segment per unique word (nullptr = Unace gap).
        for (unsigned w = 0; w < num_words; ++w) {
            const auto &segs = words[w]->segments();
            std::size_t &cur = cursors[w];
            while (cur < segs.size() && segs[cur].end <= prev)
                ++cur;
            active[w] = (cur < segs.size() && segs[cur].begin <= prev)
                ? &segs[cur]
                : nullptr;
        }

        for (unsigned r = 0; r < num_regions; ++r) {
            region_live[r] = false;
            region_read[r] = false;
        }
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (wordOf[i] == maxModeBits)
                continue;
            const LifeSegment *s = active[wordOf[i]];
            if (!s)
                continue;
            unsigned r = regionOf[i];
            if (bitAt(s->aceMask, members[i].bitInWord))
                region_live[r] = true;
            else if (bitAt(s->readMask, members[i].bitInWord))
                region_read[r] = true;
        }

        bool has_sdc = false, has_tdue = false, has_fdue = false;
        for (unsigned r = 0; r < num_regions; ++r) {
            Outcome o = classifyRegion(actions[r], region_live[r],
                                       region_live[r] || region_read[r]);
            has_sdc |= o == Outcome::Sdc;
            has_tdue |= o == Outcome::TrueDue;
            has_fdue |= o == Outcome::FalseDue;
        }
        acc.add(combineOutcomes(has_sdc, has_tdue, has_fdue,
                                due_shields_sdc),
                prev, next);
        prev = next;
    }
}

} // namespace

MbAvfResult
computeMbAvf(const PhysicalArray &array, const LifetimeStore &store,
             const ProtectionScheme &scheme, const FaultMode &mode,
             const MbAvfOptions &opt)
{
    if (opt.horizon == 0)
        fatal("MB-AVF horizon must be nonzero");
    if (mode.size() > maxModeBits)
        fatal("fault mode larger than ", maxModeBits, " bits");

    obs::ObsPhase obs_phase("avf.mode");
    static const obs::Counter groups_counter =
        obs::MetricsRegistry::global().counter("avf.groups_swept");

    const std::uint64_t rows = array.rows();
    const std::uint64_t cols = array.cols();
    const std::uint64_t span_r =
        static_cast<std::uint64_t>(mode.maxDRow()) + 1;
    const std::uint64_t span_c =
        static_cast<std::uint64_t>(mode.maxDCol()) + 1;

    MbAvfResult result;
    result.horizon = opt.horizon;
    result.numGroups = mode.numGroups(rows, cols);
    // A footprint taller or wider than the array admits no anchor
    // position at all; bail out before `rows - span_r + 1` below can
    // underflow. (numGroups is 0 in exactly this case, but guard on
    // the spans explicitly rather than relying on that coincidence.)
    if (span_r > rows || span_c > cols) {
        if (result.numGroups != 0)
            panic("fault mode exceeds array but numGroups != 0");
        return result;
    }
    if (result.numGroups == 0)
        return result;

    OutcomeAccumulator acc(opt.horizon, opt.numWindows);

    // Sweep anchor rows [row_begin, row_end) into one accumulator.
    // Physical bits are resolved row-band by row-band: the span_r
    // rows the pattern touches are cached so each array position is
    // resolved exactly once per band.
    auto sweep_rows = [&](std::uint64_t row_begin,
                          std::uint64_t row_end,
                          OutcomeAccumulator &out) {
        SweepScratch scratch;
        std::vector<MemberBit> row_cache;
        std::vector<MemberBit> members(mode.size());
        std::uint64_t groups_swept = 0;

        for (std::uint64_t r = row_begin; r < row_end; ++r) {
            row_cache.assign(std::size_t(span_r) * cols, MemberBit{});
            for (std::uint64_t dr = 0; dr < span_r; ++dr) {
                for (std::uint64_t c = 0; c < cols; ++c) {
                    PhysBit pb = array.at(r + dr, c);
                    MemberBit &m = row_cache[dr * cols + c];
                    m.domain = pb.domain;
                    m.life = store.findBit(pb.container,
                                           pb.bitInContainer,
                                           m.bitInWord);
                }
            }

            for (std::uint64_t c = 0; c + span_c <= cols; ++c) {
                bool any_life = false;
                for (unsigned i = 0; i < mode.size(); ++i) {
                    const PatternOffset &o = mode.offsets()[i];
                    members[i] =
                        row_cache[std::size_t(o.dRow) * cols + c +
                                  static_cast<std::uint64_t>(o.dCol)];
                    any_life |= members[i].life != nullptr;
                }
                if (!any_life)
                    continue;
                ++groups_swept;
                sweepGroup(members, scheme, opt.horizon,
                           opt.dueShieldsSdc, scratch, out);
            }
        }
        // One add per band, not per group: the counter stays off the
        // innermost loop even when metrics are enabled.
        groups_counter.add(groups_swept);
    };

    const std::uint64_t anchor_rows = rows - span_r + 1;

    if (opt.numThreads == 1) {
        sweep_rows(0, anchor_rows, acc);
    } else {
        // Shared-pool path. Band granularity depends only on the
        // range (not the thread count), and mapReduce() merges the
        // per-band accumulators in band order, so results are
        // bit-identical at any pool width — doubly so here, since
        // cycle counts are exact integers.
        ensureParallelThreads(opt.numThreads);
        const std::uint64_t grain =
            std::max<std::uint64_t>(1, anchor_rows / 64);
        acc = mapReduce(
            std::uint64_t(0), anchor_rows, grain,
            OutcomeAccumulator(opt.horizon, opt.numWindows),
            [&](std::uint64_t lo, std::uint64_t hi) {
                OutcomeAccumulator part(opt.horizon, opt.numWindows);
                sweep_rows(lo, hi, part);
                return part;
            },
            [](OutcomeAccumulator &into, OutcomeAccumulator &&part) {
                into.mergeFrom(part);
            });
    }

    const double denom =
        static_cast<double>(result.numGroups) *
        static_cast<double>(opt.horizon);
    result.cycles = acc.totals();
    result.avf.sdc = acc.totals()[0] / denom;
    result.avf.trueDue = acc.totals()[1] / denom;
    result.avf.falseDue = acc.totals()[2] / denom;

    if (opt.numWindows) {
        result.windows.resize(opt.numWindows);
        auto bound = [&](unsigned w) {
            return static_cast<Cycle>(
                static_cast<unsigned __int128>(opt.horizon) * w /
                opt.numWindows);
        };
        for (unsigned w = 0; w < opt.numWindows; ++w) {
            double wd =
                static_cast<double>(bound(w + 1) - bound(w)) *
                static_cast<double>(result.numGroups);
            result.windows[w].sdc = acc.windowTotal(w, 0) / wd;
            result.windows[w].trueDue = acc.windowTotal(w, 1) / wd;
            result.windows[w].falseDue = acc.windowTotal(w, 2) / wd;
        }
    }
    return result;
}

std::vector<MbAvfResult>
computeMbAvfModes(const PhysicalArray &array, const LifetimeArena &arena,
                  const ProtectionScheme &scheme, const MbAvfOptions &opt,
                  unsigned max_mode, TagCycles *charges)
{
    if (opt.horizon == 0)
        fatal("MB-AVF horizon must be nonzero");
    if (max_mode == 0 || max_mode > maxModeBits)
        fatal("multi-mode sweep needs 1..", maxModeBits, " modes");

    obs::ObsPhase obs_phase("avf.multi");
    static const obs::Counter groups_counter =
        obs::MetricsRegistry::global().counter("avf.groups_swept");
    static const obs::Counter anchors_counter =
        obs::MetricsRegistry::global().counter(
            "avf.multi.anchors_swept");

    const std::uint64_t rows = array.rows();
    const std::uint64_t cols = array.cols();
    const Cycle horizon = opt.horizon;

    std::vector<MbAvfResult> results(max_mode);
    for (unsigned m = 1; m <= max_mode; ++m) {
        results[m - 1].horizon = horizon;
        results[m - 1].numGroups =
            m <= cols ? rows * (cols - m + 1) : 0;
    }
    if (rows == 0 || cols == 0) {
        if (charges)
            charges->clear();
        return results;
    }

    // The protection action of a region depends only on its member
    // count; memoize the virtual calls once for the whole sweep.
    std::array<FaultAction, maxModeBits + 1> action_of{};
    for (unsigned k = 1; k <= max_mode; ++k)
        action_of[k] = scheme.action(k);

    // Sweep anchor rows [row_begin, row_end) into per-mode
    // accumulators with the bit-sliced kernel (core/mbavf_kernel.cc).
    // Every anchor column grows the group from 1 to
    // min(max_mode, cols - c) members; modes wider than the remaining
    // columns have no group at this anchor (and none at all when
    // wider than the array).
    detail::SweepCtx ctx;
    ctx.array = &array;
    ctx.arena = &arena;
    ctx.horizon = horizon;
    ctx.dueShields = opt.dueShieldsSdc;
    ctx.maxMode = max_mode;
    ctx.actionOf = action_of.data();
    ctx.charge = charges != nullptr;
    auto sweep_rows = [&](std::uint64_t row_begin,
                          std::uint64_t row_end,
                          ModeAccumulators &out) {
        detail::SweepTallies tallies;
        detail::sweepRows(ctx, row_begin, row_end, out, tallies);
        // One add per band, not per anchor.
        groups_counter.add(tallies.groups);
        anchors_counter.add(tallies.anchors);
    };

    ModeAccumulators acc(horizon, opt.numWindows, max_mode);
    if (opt.numThreads == 1) {
        sweep_rows(0, rows, acc);
    } else {
        // Same row-band decomposition and ordered merge as the
        // per-mode path: chunking depends only on the range, partials
        // fold in band order, sums are exact integers.
        ensureParallelThreads(opt.numThreads);
        const std::uint64_t grain =
            std::max<std::uint64_t>(1, rows / 64);
        acc = mapReduce(
            std::uint64_t(0), rows, grain,
            ModeAccumulators(horizon, opt.numWindows, max_mode),
            [&](std::uint64_t lo, std::uint64_t hi) {
                ModeAccumulators part(horizon, opt.numWindows,
                                      max_mode);
                sweep_rows(lo, hi, part);
                return part;
            },
            [](ModeAccumulators &into, ModeAccumulators &&part) {
                into.mergeFrom(part);
            });
    }
    if (charges)
        *charges = std::move(acc.tags);

    for (unsigned m = 1; m <= max_mode; ++m) {
        MbAvfResult &result = results[m - 1];
        // A mode wider than the array has no groups; leave the
        // zeroed result (and no window series), exactly like the
        // per-mode path's early return.
        if (result.numGroups == 0)
            continue;
        const OutcomeAccumulator &mode_acc = acc.modes[m - 1];
        const double denom =
            static_cast<double>(result.numGroups) *
            static_cast<double>(horizon);
        result.cycles = mode_acc.totals();
        result.avf.sdc = mode_acc.totals()[0] / denom;
        result.avf.trueDue = mode_acc.totals()[1] / denom;
        result.avf.falseDue = mode_acc.totals()[2] / denom;
        if (opt.numWindows) {
            result.windows.resize(opt.numWindows);
            for (unsigned w = 0; w < opt.numWindows; ++w) {
                const double wd =
                    static_cast<double>(mode_acc.bound(w + 1) -
                                        mode_acc.bound(w)) *
                    static_cast<double>(result.numGroups);
                result.windows[w].sdc =
                    mode_acc.windowTotal(w, 0) / wd;
                result.windows[w].trueDue =
                    mode_acc.windowTotal(w, 1) / wd;
                result.windows[w].falseDue =
                    mode_acc.windowTotal(w, 2) / wd;
            }
        }
    }
    return results;
}

} // namespace mbavf
