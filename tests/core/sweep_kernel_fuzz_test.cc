/**
 * @file
 * Differential fuzz of the single-pass multi-mode sweep kernel
 * against the per-mode reference path (computeMbAvf once per mode).
 *
 * Random lifetime stores over random physical layouts (cache and
 * register-file interleaving at every stride up to x8, and rows with
 * shuffled columns), swept under every protection scheme at varied
 * horizons and window counts, must produce bit-identical AVF
 * fractions, per-window series, group counts, and SER folds —
 * serially and on the thread pool. Seeds are fixed (splitMix64
 * streams), so any failure is exactly reproducible.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "core/layout.hh"
#include "core/lifetime_arena.hh"
#include "core/sweep.hh"
#include "obs/metrics.hh"

namespace mbavf
{
namespace
{

/** One-row array of 1-bit containers with a tunable domain width. */
class FlatArray : public PhysicalArray
{
  public:
    FlatArray(std::uint64_t bits, unsigned domain_bits)
        : bits_(bits), domainBits_(domain_bits)
    {}

    std::uint64_t rows() const override { return 1; }
    std::uint64_t cols() const override { return bits_; }

    PhysBit
    at(std::uint64_t, std::uint64_t col) const override
    {
        return {col, 0, col / domainBits_};
    }

  private:
    std::uint64_t bits_;
    unsigned domainBits_;
};

/**
 * rows x cols array of 8-bit words laid out row-major, whose
 * protection domains are runs of random width along each row: one
 * column with probability @p p_single, else 2 .. @p max_width. Under
 * SEC-DED and DEC-TED, a window over narrow runs has every region
 * corrected while a neighbouring window over a wide run does not, so
 * one row mixes skipped and swept anchor groups.
 */
class RunDomainArray : public PhysicalArray
{
  public:
    RunDomainArray(std::uint64_t rows, std::uint64_t cols, Rng &rng,
                   double p_single, unsigned max_width)
        : rows_(rows), cols_(cols), domain_(rows * cols)
    {
        for (std::uint64_t r = 0; r < rows; ++r) {
            for (std::uint64_t c = 0; c < cols;) {
                const std::uint64_t width =
                    rng.chance(p_single) ? 1 : 2 + rng.below(max_width - 1);
                const std::uint64_t end = std::min(cols, c + width);
                for (std::uint64_t i = c; i < end; ++i)
                    domain_[r * cols + i] = r * cols + c;
                c = end;
            }
        }
    }

    std::uint64_t rows() const override { return rows_; }
    std::uint64_t cols() const override { return cols_; }

    PhysBit
    at(std::uint64_t row, std::uint64_t col) const override
    {
        const std::uint64_t bit = row * cols_ + col;
        return {bit / 8, static_cast<std::uint32_t>(bit % 8),
                domain_[bit]};
    }

  private:
    std::uint64_t rows_;
    std::uint64_t cols_;
    std::vector<DomainId> domain_;
};

/**
 * @p inner with each row's columns shuffled by one random
 * permutation: column c shows the cell at inner column perm[c], so a
 * word's bits need not sit at base + b * I for any stride I.
 */
class PermutedArray : public PhysicalArray
{
  public:
    PermutedArray(std::unique_ptr<PhysicalArray> inner, Rng &rng)
        : inner_(std::move(inner)), perm_(inner_->cols())
    {
        for (std::uint64_t c = 0; c < perm_.size(); ++c)
            perm_[c] = c;
        for (std::uint64_t c = perm_.size(); c > 1; --c)
            std::swap(perm_[c - 1], perm_[rng.below(c)]);
    }

    std::uint64_t rows() const override { return inner_->rows(); }
    std::uint64_t cols() const override { return inner_->cols(); }

    PhysBit
    at(std::uint64_t row, std::uint64_t col) const override
    {
        return inner_->at(row, perm_[col]);
    }

  private:
    std::unique_ptr<PhysicalArray> inner_;
    std::vector<std::uint64_t> perm_;
};

/**
 * Random store: some containers absent, some words empty, segment
 * chains with gaps that may extend past the sweep horizon, random
 * ACE/read masks (ACE kept a subset of read, per the lint contract).
 */
LifetimeStore
randomStore(Rng &rng, unsigned word_width,
            unsigned words_per_container,
            std::uint64_t num_containers, Cycle span)
{
    LifetimeStore store(word_width, words_per_container);
    const std::uint64_t width_mask =
        word_width >= 64 ? ~0ull : ((1ull << word_width) - 1);
    for (std::uint64_t c = 0; c < num_containers; ++c) {
        if (!rng.chance(0.8))
            continue;
        ContainerLifetime &container = store.container(c);
        for (unsigned w = 0; w < words_per_container; ++w) {
            if (!rng.chance(0.7))
                continue;
            Cycle t = rng.below(span / 2 + 1);
            const unsigned n = 1 + (unsigned)rng.below(5);
            for (unsigned s = 0; s < n; ++s) {
                const Cycle begin = t + rng.below(span / 4 + 1);
                const Cycle end = begin + 1 + rng.below(span / 3 + 1);
                const std::uint64_t read = rng.next() & width_mask;
                const std::uint64_t ace = rng.next() & read;
                container.words[w].append({begin, end, ace, read});
                t = end;
            }
        }
    }
    return store;
}

/**
 * Bit-exact equality, except both-NaN counts as equal: a zero-width
 * window (horizon < numWindows) divides 0 cycles by 0 on both paths.
 */
void
expectSameDouble(double a, double b, const std::string &at)
{
    if (std::isnan(a) && std::isnan(b))
        return;
    EXPECT_EQ(a, b) << at;
}

void
expectIdentical(const ModeSweep &ref, const ModeSweep &got,
                const std::string &label)
{
    ASSERT_EQ(ref.results.size(), got.results.size()) << label;
    for (std::size_t m = 0; m < ref.results.size(); ++m) {
        const MbAvfResult &a = ref.results[m];
        const MbAvfResult &b = got.results[m];
        const std::string at = label + " mode " + std::to_string(m + 1);
        EXPECT_EQ(a.numGroups, b.numGroups) << at;
        EXPECT_EQ(a.horizon, b.horizon) << at;
        expectSameDouble(a.avf.sdc, b.avf.sdc, at);
        expectSameDouble(a.avf.trueDue, b.avf.trueDue, at);
        expectSameDouble(a.avf.falseDue, b.avf.falseDue, at);
        ASSERT_EQ(a.windows.size(), b.windows.size()) << at;
        for (std::size_t w = 0; w < a.windows.size(); ++w) {
            const std::string win = at + " window " + std::to_string(w);
            expectSameDouble(a.windows[w].sdc, b.windows[w].sdc, win);
            expectSameDouble(a.windows[w].trueDue,
                             b.windows[w].trueDue, win);
            expectSameDouble(a.windows[w].falseDue,
                             b.windows[w].falseDue, win);
        }
    }
    auto fits = caseStudyFaultRates(100.0);
    const StructureSer sa = sweepSer(ref, fits);
    const StructureSer sb = sweepSer(got, fits);
    expectSameDouble(sa.sdc, sb.sdc, label);
    expectSameDouble(sa.trueDue, sb.trueDue, label);
    expectSameDouble(sa.falseDue, sb.falseDue, label);
}

/** The reference: one computeMbAvf() per mode 1x1 .. (max_mode)x1. */
ModeSweep
referenceSweep(const PhysicalArray &array, const LifetimeStore &store,
               const ProtectionScheme &scheme, const MbAvfOptions &opt,
               unsigned max_mode)
{
    ModeSweep sweep;
    for (unsigned m = 1; m <= max_mode; ++m) {
        sweep.results.push_back(
            computeMbAvf(array, store, scheme, FaultMode::mx1(m), opt));
    }
    return sweep;
}

/**
 * Sweep @p array / @p store through a random scheme, horizon, window
 * count, and combine rule, with the reference path and the arena
 * kernel at 1 and 4 threads; all paths must agree exactly.
 * @p forced_max_mode of 0 draws a random mode count in [1, 8];
 * wide-mode callers pass an explicit value up to 64. @p forced_scheme,
 * when set, replaces the drawn scheme (the draw still happens, so the
 * stream is the same).
 */
void
runTrial(const PhysicalArray &array, const LifetimeStore &store,
         Rng &rng, const std::string &label,
         unsigned forced_max_mode = 0,
         const char *forced_scheme = nullptr)
{
    static const char *const kSchemes[] = {"none", "parity", "secded",
                                           "dected", "crc"};
    static const unsigned kWindows[] = {0, 1, 3, 8};
    const char *scheme_name = kSchemes[rng.below(5)];
    const std::unique_ptr<ProtectionScheme> scheme =
        makeScheme(forced_scheme ? forced_scheme : scheme_name);
    MbAvfOptions opt;
    opt.horizon = 1 + rng.below(200);
    opt.numWindows = kWindows[rng.below(4)];
    opt.dueShieldsSdc = rng.chance(0.5);
    const unsigned max_mode = forced_max_mode
                                  ? forced_max_mode
                                  : 1 + (unsigned)rng.below(8);
    const std::string at = label + " (" + scheme->name() + " N=" +
                           std::to_string(opt.horizon) + " W=" +
                           std::to_string(opt.numWindows) + " M=" +
                           std::to_string(max_mode) + ")";

    const ModeSweep ref =
        referenceSweep(array, store, *scheme, opt, max_mode);

    const LifetimeArena arena(store);
    expectIdentical(ref, sweepModesArena(array, arena, *scheme, opt,
                                         max_mode),
                    at + " serial");

    MbAvfOptions pooled = opt;
    pooled.numThreads = 4;
    expectIdentical(ref, sweepModesArena(array, arena, *scheme, pooled,
                                         max_mode),
                    at + " pooled");
}

TEST(SweepKernelFuzz, CacheLayouts)
{
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        Rng rng(splitMix64(0x5eedcafe, seed));
        CacheGeometry geom;
        geom.sets = 4u << rng.below(2);
        geom.ways = 2u << rng.below(2);
        geom.lineBytes = 2u << rng.below(2);
        static const CacheInterleave kStyles[] = {
            CacheInterleave::Logical, CacheInterleave::WayPhysical,
            CacheInterleave::IndexPhysical};
        const CacheInterleave style = kStyles[rng.below(3)];
        // 1 or 2 divides every sets/ways/lineBits choice above.
        const unsigned factor = 1u << rng.below(2);
        auto array = makeCacheArray(geom, style, factor);
        LifetimeStore store = randomStore(
            rng, 8, geom.lineBytes, geom.numLines(), 120);
        runTrial(*array, store, rng,
                 "cache " + cacheInterleaveName(style) + " seed " +
                     std::to_string(seed));
    }
}

TEST(SweepKernelFuzz, RegFileLayouts)
{
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        Rng rng(splitMix64(0x2e9f11e, seed));
        RegFileGeometry geom;
        geom.numRegs = 4;
        geom.numLanes = 4;
        geom.numSlots = 2;
        const RegInterleave style = rng.chance(0.5)
                                        ? RegInterleave::IntraThread
                                        : RegInterleave::InterThread;
        const unsigned factor = 1 + (unsigned)rng.below(2);
        auto array = makeRegFileArray(geom, style, factor);
        LifetimeStore store =
            randomStore(rng, 32, 1, geom.numContainers(), 120);
        runTrial(*array, store, rng,
                 "regfile seed " + std::to_string(seed));
    }
}

TEST(SweepKernelFuzz, CacheInterleaveByFour)
{
    // Way- and index-physical interleaving x4: bit b of byte w sits
    // at column (8w + b) * 4 + pick, and a row holds four lines.
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        Rng rng(splitMix64(0xca4e4, seed));
        CacheGeometry geom;
        geom.sets = 4u << rng.below(2);
        geom.ways = 4u << rng.below(2);
        geom.lineBytes = 2u << rng.below(2);
        const CacheInterleave style = seed % 2
                                          ? CacheInterleave::IndexPhysical
                                          : CacheInterleave::WayPhysical;
        auto array = makeCacheArray(geom, style, 4);
        LifetimeStore store = randomStore(
            rng, 8, geom.lineBytes, geom.numLines(), 120);
        runTrial(*array, store, rng,
                 "cache " + cacheInterleaveName(style) + " x4 seed " +
                     std::to_string(seed));
    }
}

TEST(SweepKernelFuzz, RegFileInterleaveByFourAndEight)
{
    // Intra- and inter-thread interleaving x4 and x8: bit b of a
    // register sits at column b * I + pick, so a row of 32 * I
    // columns spans two or four anchor words.
    std::uint64_t seed = 0;
    for (const bool intra : {true, false}) {
        const RegInterleave style = intra ? RegInterleave::IntraThread
                                          : RegInterleave::InterThread;
        for (const unsigned factor : {4u, 8u}) {
            for (unsigned rep = 0; rep < 2; ++rep, ++seed) {
                Rng rng(splitMix64(0x2e948, seed));
                RegFileGeometry geom;
                geom.numRegs = 8;
                geom.numLanes = 8;
                geom.numSlots = 1 + rep;
                auto array = makeRegFileArray(geom, style, factor);
                LifetimeStore store =
                    randomStore(rng, 32, 1, geom.numContainers(), 120);
                runTrial(*array, store, rng,
                         std::string(intra ? "intra x" : "inter x") +
                             std::to_string(factor) + " seed " +
                             std::to_string(seed));
            }
        }
    }
}

TEST(SweepKernelFuzz, PermutedColumns)
{
    // Register-file and cache rows whose columns are shuffled: no
    // word's bits sit at a fixed stride, and a region's members are
    // scattered along the row.
    RegFileGeometry regs;
    regs.numRegs = 4;
    regs.numLanes = 4;
    regs.numSlots = 2;
    CacheGeometry cache;
    cache.sets = 4;
    cache.ways = 4;
    cache.lineBytes = 4;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        Rng rng(splitMix64(0x9e7c015, seed));
        const unsigned factor = 1u << rng.below(3);
        std::unique_ptr<PhysicalArray> inner;
        LifetimeStore store(8, 1);
        if (seed % 2) {
            const RegInterleave style = RegInterleave::InterThread;
            inner = makeRegFileArray(regs, style, factor);
            store = randomStore(rng, 32, 1, regs.numContainers(), 120);
        } else {
            const CacheInterleave style = CacheInterleave::WayPhysical;
            inner = makeCacheArray(cache, style, factor);
            store = randomStore(rng, 8, 4, cache.numLines(), 120);
        }
        PermutedArray array(std::move(inner), rng);
        runTrial(array, store, rng,
                 "permuted seed " + std::to_string(seed));
    }
}

TEST(SweepKernelFuzz, NarrowArrays)
{
    // cols in [1, 6] with max_mode up to 8: modes wider than the
    // array must agree on the zero-group result, and 1-bit words
    // exercise the narrowest mask path.
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        Rng rng(splitMix64(0xf1a7, seed));
        const std::uint64_t bits = 1 + rng.below(6);
        const unsigned domain_bits = 1 + (unsigned)rng.below(3);
        FlatArray array(bits, domain_bits);
        LifetimeStore store = randomStore(rng, 1, 1, bits, 60);
        runTrial(array, store, rng,
                 "flat " + std::to_string(bits) + "b seed " +
                     std::to_string(seed));
    }
}

TEST(SweepKernelFuzz, WideModes)
{
    // max_mode in [9, 64]: member reads that reach up to 63 columns
    // into the next anchor word, and — with 1-bit domains putting one
    // region per column in the anchor window — groups of up to 64
    // regions, the full width of the per-mode region masks.
    static const unsigned kModes[] = {9, 16, 17, 33, 64};
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        Rng rng(splitMix64(0x71de60de, seed));
        const unsigned max_mode = kModes[rng.below(5)];
        const std::uint64_t bits = max_mode + rng.below(24);
        const unsigned domain_bits = 1 + (unsigned)rng.below(2);
        FlatArray array(bits, domain_bits);
        LifetimeStore store = randomStore(rng, 1, 1, bits, 120);
        runTrial(array, store, rng,
                 "wide M=" + std::to_string(max_mode) + " " +
                     std::to_string(bits) + "b seed " +
                     std::to_string(seed),
                 max_mode);
    }
}

TEST(SweepKernelFuzz, MixedDeadAndLiveGroups)
{
    // Domain widths vary along each row, so under SEC-DED and DEC-TED
    // the kernel skips some anchor groups (every region corrected) next
    // to groups it sweeps, and end-of-row anchors carry partitions that
    // only a prefix of a longer group matches, or none does.
    static const char *const kSchemes[] = {"secded", "dected"};
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        Rng rng(splitMix64(0xdead1ee, seed));
        const std::uint64_t rows = 1 + rng.below(3);
        const std::uint64_t cols = 8 + rng.below(120);
        RunDomainArray array(rows, cols, rng, 0.7, 4);
        LifetimeStore store =
            randomStore(rng, 8, 1, (rows * cols + 7) / 8, 120);
        runTrial(array, store, rng,
                 "runs " + std::to_string(rows) + "x" +
                     std::to_string(cols) + " seed " +
                     std::to_string(seed),
                 0, kSchemes[seed % 2]);
    }
}

TEST(SweepKernelFuzz, RowsStraddlingWordBoundaries)
{
    // Rows of 63, 64, 65 and 127 columns: the last anchor word of a
    // row is partial, member reads cross into the next u64, the
    // valid-anchor masks of wide modes cut words at every offset, and
    // an 8-bit word can span two rows.
    static const unsigned kModes[] = {1, 2, 8, 31, 63, 64};
    for (const std::uint64_t cols : {63u, 64u, 65u, 127u}) {
        for (std::uint64_t seed = 0; seed < 4; ++seed) {
            Rng rng(splitMix64(0x636465 + cols, seed));
            const unsigned max_mode = kModes[rng.below(6)];
            RunDomainArray array(2, cols, rng, 0.5, 3);
            LifetimeStore store =
                randomStore(rng, 8, 1, (2 * cols + 7) / 8, 120);
            runTrial(array, store, rng,
                     "straddle " + std::to_string(cols) + " cols seed " +
                         std::to_string(seed),
                     max_mode);
        }
    }
}

std::uint64_t
counterValue(const obs::MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &[n, v] : snap.counters) {
        if (n == name)
            return v;
    }
    ADD_FAILURE() << "no counter " << name;
    return 0;
}

TEST(SweepKernelFuzz, AllCorrectedDesignCountsItsAnchors)
{
    // One-column domains under SEC-DED: every region holds one member
    // in every mode, so every action is Corrected and the kernel skips
    // every group. Nothing deposits, but the anchors with a live
    // member still count as swept, with their member counts.
    const std::unique_ptr<ProtectionScheme> scheme =
        makeScheme("secded");
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        Rng rng(splitMix64(0xc0cec7ed, seed));
        const std::uint64_t bits = 1 + rng.below(150);
        const unsigned max_mode = 1 + (unsigned)rng.below(64);
        FlatArray array(bits, 1);
        LifetimeStore store = randomStore(rng, 1, 1, bits, 120);

        const LifetimeArena arena(store);
        std::uint64_t anchors = 0, groups = 0;
        for (std::uint64_t a = 0; a < bits; ++a) {
            const std::uint64_t maxm =
                std::min<std::uint64_t>(max_mode, bits - a);
            bool live = false;
            for (std::uint64_t c = a; c < a + maxm; ++c) {
                unsigned bit = 0;
                live |= arena.findBit(c, 0, bit) != LifetimeArena::noWord;
            }
            if (live) {
                ++anchors;
                groups += maxm;
            }
        }

        MbAvfOptions opt;
        opt.horizon = 3 + rng.below(200);
        opt.numWindows = 3;
        for (const unsigned threads : {1u, 4u}) {
            const std::string at = "seed " + std::to_string(seed) +
                                   " threads " + std::to_string(threads);
            opt.numThreads = threads;
            metrics.reset();
            obs::setMetricsEnabled(true);
            const ModeSweep sweep = sweepModesArena(
                array, LifetimeArena(store), *scheme, opt, max_mode);
            obs::setMetricsEnabled(false);
            const obs::MetricsSnapshot snap = metrics.snapshot();
            metrics.reset();
            for (const MbAvfResult &r : sweep.results) {
                EXPECT_EQ(r.cycles[0] | r.cycles[1] | r.cycles[2], 0u)
                    << at;
                for (const AvfFractions &w : r.windows)
                    EXPECT_EQ(w.total(), 0.0) << at;
            }
            EXPECT_EQ(counterValue(snap, "avf.multi.anchors_swept"),
                      anchors)
                << at;
            EXPECT_EQ(counterValue(snap, "avf.groups_swept"), groups)
                << at;
        }
    }
}

TEST(SweepKernelFuzz, ExtremeHorizons)
{
    // Lifetimes and horizons pushed against the top of the Cycle
    // range: window-boundary, projected-transition, and run-length
    // arithmetic must not wrap (satAdd in the event builders,
    // __int128 window bounds in the accumulator, and the kernel's
    // rule that closes at or past the horizon never materialize).
    constexpr Cycle kMax = ~Cycle(0);
    FlatArray array(6, 2);
    LifetimeStore store(1, 1);
    for (std::uint64_t b = 0; b < 6; ++b) {
        WordLifetime &word = store.container(b).words[0];
        word.append({0, 5, 1, 1});
        word.append({kMax / 2, kMax / 2 + 9, 1, 1});
        word.append({kMax - 40, kMax - 2 + (b % 3), 1, 1});
    }
    const std::unique_ptr<ProtectionScheme> scheme =
        makeScheme("parity");
    for (const Cycle horizon : {kMax, kMax - 1, kMax - 30}) {
        for (const unsigned windows : {0u, 3u}) {
            MbAvfOptions opt;
            opt.horizon = horizon;
            opt.numWindows = windows;
            const ModeSweep ref =
                referenceSweep(array, store, *scheme, opt, 8);
            const std::string at =
                "extreme horizon " +
                std::to_string(kMax - horizon) + " below max, W=" +
                std::to_string(windows);
            const LifetimeArena arena(store);
            expectIdentical(
                ref, sweepModesArena(array, arena, *scheme, opt, 8), at);
            MbAvfOptions pooled = opt;
            pooled.numThreads = 4;
            expectIdentical(
                ref, sweepModesArena(array, arena, *scheme, pooled, 8),
                at + " pooled");
        }
    }
}

TEST(SweepKernelFuzz, TinyHorizonManyWindows)
{
    // More windows than cycles: several window boundaries coincide,
    // the degenerate case of the cached-bounds window lookup.
    Rng rng(splitMix64(0xbeef, 1));
    FlatArray array(6, 2);
    LifetimeStore store = randomStore(rng, 1, 1, 6, 8);
    const std::unique_ptr<ProtectionScheme> scheme =
        makeScheme("parity");
    MbAvfOptions opt;
    opt.horizon = 5;
    opt.numWindows = 8;
    expectIdentical(referenceSweep(array, store, *scheme, opt, 8),
                    sweepModesArena(array, LifetimeArena(store), *scheme,
                                    opt, 8),
                    "tiny horizon");
}

} // namespace
} // namespace mbavf
