/**
 * @file
 * Tests of the per-instruction MB-AVF attribution engine: the charge
 * rule on hand-built stores, the kernel rollup, the conservation
 * checker's violation detection, and a differential fuzz asserting
 * that attribution equals a brute-force per-tag oracle row for row
 * and conserves computeMbAvf()'s raw integer totals bit-for-bit over
 * random layouts, schemes, and modes — serially and on the thread
 * pool.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analyze/attribution.hh"
#include "common/bits.hh"
#include "common/rng.hh"
#include "core/layout.hh"
#include "core/mbavf.hh"

namespace mbavf
{
namespace
{

using analyze::AttributionResult;
using analyze::attrFalseDue;
using analyze::attrSdc;
using analyze::attrTrueDue;
using analyze::KernelContribution;
using analyze::TagContribution;

/**
 * One-row array of one-word containers, @p word_bits bits each, with
 * a tunable domain width.
 */
class FlatArray : public PhysicalArray
{
  public:
    FlatArray(std::uint64_t bits, unsigned domain_bits,
              unsigned word_bits = 1)
        : bits_(bits), domainBits_(domain_bits), wordBits_(word_bits)
    {}

    std::uint64_t rows() const override { return 1; }
    std::uint64_t cols() const override { return bits_; }

    PhysBit
    at(std::uint64_t, std::uint64_t col) const override
    {
        return {col / wordBits_,
                static_cast<std::uint32_t>(col % wordBits_),
                col / domainBits_};
    }

  private:
    std::uint64_t bits_;
    unsigned domainBits_;
    unsigned wordBits_;
};

/**
 * Random store with tagged segments: the tag pool mixes real
 * instruction tags with noInstrTag so untracked data is always part
 * of the partition under test. Some segments are followed at once by
 * one with the same masks and another tag, so a word's tag changes
 * where none of its bits does (append() would coalesce the two; a
 * row sees the same whenever two segments differ only in bits the
 * row does not hold).
 */
LifetimeStore
randomTaggedStore(Rng &rng, unsigned word_width,
                  unsigned words_per_container,
                  std::uint64_t num_containers, Cycle span)
{
    LifetimeStore store(word_width, words_per_container);
    const std::uint64_t width_mask =
        word_width >= 64 ? ~0ull : ((1ull << word_width) - 1);
    auto draw_tag = [&rng] {
        return rng.chance(0.2) ? noInstrTag
                               : makeInstrTag((unsigned)rng.below(3),
                                              (unsigned)rng.below(24));
    };
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
                container.words[w].append(
                    {begin, end, ace, read, draw_tag()});
                t = end;
                if (rng.chance(0.3)) {
                    t = end + 1 + rng.below(span / 4 + 1);
                    container.words[w].appendUnchecked(
                        {end, t, ace, read, draw_tag()});
                }
            }
        }
    }
    return store;
}

/** The segment of @p word in force at cycle @p t, or null. */
const LifeSegment *
segmentAt(const WordLifetime &word, Cycle t)
{
    for (const LifeSegment &s : word.segments()) {
        if (s.begin <= t && t < s.end)
            return &s;
    }
    return nullptr;
}

/**
 * Brute-force per-tag oracle: classify every Mx1 group at every cycle
 * from the region rules, and charge one unit to the segment tag of
 * the group's first member, in column order, that shows its class.
 */
std::vector<TagContribution>
oracleCharges(const PhysicalArray &array, const LifetimeStore &store,
              const ProtectionScheme &scheme, unsigned m,
              const MbAvfOptions &opt)
{
    struct Member
    {
        DomainId domain = invalidDomain;
        const WordLifetime *word = nullptr;
        unsigned bit = 0;
        FaultAction action = FaultAction::Corrected;
        const LifeSegment *seg = nullptr;
        bool live = false;
        bool readDead = false;
    };
    std::map<InstrTag, std::array<Cycle, 3>> charges;
    std::vector<Member> members(m);
    for (std::uint64_t r = 0; r < array.rows(); ++r) {
        for (std::uint64_t a = 0; a + m <= array.cols(); ++a) {
            std::map<DomainId, unsigned> region_size;
            for (unsigned j = 0; j < m; ++j) {
                const PhysBit pb = array.at(r, a + j);
                members[j].domain = pb.domain;
                members[j].word = store.findBit(
                    pb.container, pb.bitInContainer, members[j].bit);
                ++region_size[pb.domain];
            }
            for (Member &mb : members)
                mb.action = scheme.action(region_size[mb.domain]);
            for (Cycle t = 0; t < opt.horizon; ++t) {
                std::map<DomainId, std::pair<bool, bool>> region;
                for (Member &mb : members) {
                    mb.seg = mb.word ? segmentAt(*mb.word, t) : nullptr;
                    mb.live = mb.seg && bitAt(mb.seg->aceMask, mb.bit);
                    mb.readDead = mb.seg && !mb.live &&
                                  bitAt(mb.seg->readMask, mb.bit);
                    region[mb.domain].first |= mb.live;
                    region[mb.domain].second |= mb.readDead;
                }
                bool sdc = false, tdue = false, fdue = false;
                for (const Member &mb : members) {
                    const auto [live, read] = region[mb.domain];
                    if (mb.action == FaultAction::Undetected)
                        sdc |= live;
                    if (mb.action == FaultAction::Detected) {
                        tdue |= live;
                        fdue |= !live && read;
                    }
                }
                unsigned cls;
                if (sdc && !(tdue && opt.dueShieldsSdc))
                    cls = attrSdc;
                else if (tdue)
                    cls = attrTrueDue;
                else if (fdue)
                    cls = attrFalseDue;
                else
                    continue;
                for (const Member &mb : members) {
                    const bool shows =
                        cls == attrSdc
                            ? mb.action == FaultAction::Undetected &&
                                  mb.live
                            : mb.action == FaultAction::Detected &&
                                  (cls == attrTrueDue ? mb.live
                                                      : mb.readDead);
                    if (shows) {
                        ++charges[mb.seg->tag][cls];
                        break;
                    }
                }
            }
        }
    }
    std::vector<TagContribution> rows;
    for (const auto &[tag, cycles] : charges)
        rows.push_back({tag, cycles});
    return rows;
}

/** Whole-table equality of two perTag tables. */
void
expectSameTable(const std::vector<TagContribution> &want,
                const std::vector<TagContribution> &got,
                const std::string &at)
{
    ASSERT_EQ(want.size(), got.size()) << at;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].tag, got[i].tag) << at << " row " << i;
        EXPECT_EQ(want[i].cycles, got[i].cycles) << at << " row " << i;
    }
}

/** Column sums of an attribution's perTag rows. */
std::array<Cycle, 3>
resum(const AttributionResult &attr)
{
    std::array<Cycle, 3> sums = {0, 0, 0};
    for (const TagContribution &c : attr.perTag)
        for (unsigned i = 0; i < 3; ++i)
            sums[i] += c.cycles[i];
    return sums;
}

TEST(Attribution, SdcChargesDefiningInstruction)
{
    // Two bits in one parity domain, mode 2x1: an even flip count is
    // undetected, so the ACE time of bit 0's only segment is pure SDC
    // and must be charged — whole — to that segment's tag.
    FlatArray array(2, 2);
    LifetimeStore store(1, 1);
    const InstrTag tag = makeInstrTag(2, 9);
    store.container(0).words[0].append({0, 10, 1, 1, tag});

    MbAvfOptions opt;
    opt.horizon = 20;
    const FaultMode mode = FaultMode::mx1(2);
    const auto scheme = makeScheme("parity");
    const AttributionResult attr =
        analyze::attributeMbAvf(array, store, *scheme, mode, opt);

    ASSERT_EQ(attr.perTag.size(), 1u);
    EXPECT_EQ(attr.perTag[0].tag, tag);
    EXPECT_EQ(attr.perTag[0].cycles[attrSdc], 10u);
    EXPECT_EQ(attr.perTag[0].cycles[attrTrueDue], 0u);
    EXPECT_EQ(attr.perTag[0].cycles[attrFalseDue], 0u);
    EXPECT_EQ(attr.numGroups, 1u);
    EXPECT_DOUBLE_EQ(attr.share(attr.perTag[0]), 1.0);

    const MbAvfResult ref =
        computeMbAvf(array, store, *scheme, mode, opt);
    EXPECT_EQ(analyze::checkConservation(attr, ref), "");
}

TEST(Attribution, TrueDueChargesAceLiveMember)
{
    // One flip under parity is detected; ACE-live time becomes true
    // DUE charged to the live segment's producer.
    FlatArray array(1, 1);
    LifetimeStore store(1, 1);
    const InstrTag tag = makeInstrTag(0, 4);
    store.container(0).words[0].append({5, 12, 1, 1, tag});

    MbAvfOptions opt;
    opt.horizon = 20;
    const auto scheme = makeScheme("parity");
    const AttributionResult attr = analyze::attributeMbAvf(
        array, store, *scheme, FaultMode::mx1(1), opt);

    ASSERT_EQ(attr.perTag.size(), 1u);
    EXPECT_EQ(attr.perTag[0].tag, tag);
    EXPECT_EQ(attr.perTag[0].cycles[attrTrueDue], 7u);
    EXPECT_EQ(attr.perTag[0].cycles[attrSdc], 0u);
}

TEST(Attribution, FalseDueChargesReadDeadMember)
{
    // Read-but-dead time in a detected region is false DUE: the
    // detection fires on data that could never matter. The charge
    // still lands on the instruction that produced the dead data.
    FlatArray array(1, 1);
    LifetimeStore store(1, 1);
    const InstrTag tag = makeInstrTag(1, 30);
    store.container(0).words[0].append({0, 8, 0, 1, tag});

    MbAvfOptions opt;
    opt.horizon = 16;
    const auto scheme = makeScheme("parity");
    const AttributionResult attr = analyze::attributeMbAvf(
        array, store, *scheme, FaultMode::mx1(1), opt);

    ASSERT_EQ(attr.perTag.size(), 1u);
    EXPECT_EQ(attr.perTag[0].tag, tag);
    EXPECT_EQ(attr.perTag[0].cycles[attrFalseDue], 8u);
    EXPECT_EQ(attr.perTag[0].total(), 8u);
}

TEST(Attribution, UntaggedSegmentChargesNoInstrTag)
{
    FlatArray array(1, 1);
    LifetimeStore store(1, 1);
    store.container(0).words[0].append({0, 6, 1, 1});

    MbAvfOptions opt;
    opt.horizon = 10;
    const auto scheme = makeScheme("parity");
    const AttributionResult attr = analyze::attributeMbAvf(
        array, store, *scheme, FaultMode::mx1(1), opt);

    ASSERT_EQ(attr.perTag.size(), 1u);
    EXPECT_EQ(attr.perTag[0].tag, noInstrTag);
    EXPECT_EQ(attr.perTag[0].cycles[attrTrueDue], 6u);
}

TEST(Attribution, PerTagRowsAreSortedByTag)
{
    FlatArray array(4, 1);
    LifetimeStore store(1, 1);
    store.container(0).words[0].append(
        {0, 5, 1, 1, makeInstrTag(1, 2)});
    store.container(1).words[0].append(
        {0, 5, 1, 1, makeInstrTag(0, 7)});
    store.container(2).words[0].append({0, 5, 1, 1});
    store.container(3).words[0].append(
        {0, 5, 1, 1, makeInstrTag(0, 3)});

    MbAvfOptions opt;
    opt.horizon = 8;
    const auto scheme = makeScheme("parity");
    const AttributionResult attr = analyze::attributeMbAvf(
        array, store, *scheme, FaultMode::mx1(1), opt);

    ASSERT_EQ(attr.perTag.size(), 4u);
    for (std::size_t i = 1; i < attr.perTag.size(); ++i)
        EXPECT_LT(attr.perTag[i - 1].tag, attr.perTag[i].tag);
    EXPECT_EQ(attr.perTag.back().tag, noInstrTag);
}

TEST(Attribution, RollupGroupsByKernel)
{
    AttributionResult attr;
    attr.perTag.push_back({makeInstrTag(0, 1), {1, 2, 3}});
    attr.perTag.push_back({makeInstrTag(0, 9), {4, 0, 0}});
    attr.perTag.push_back({makeInstrTag(5, 2), {0, 8, 0}});
    attr.perTag.push_back({noInstrTag, {0, 0, 16}});

    const std::vector<KernelContribution> kernels =
        analyze::rollupByKernel(attr);
    ASSERT_EQ(kernels.size(), 3u);
    EXPECT_EQ(kernels[0].kernel, 0u);
    EXPECT_EQ(kernels[0].total(), 10u);
    EXPECT_EQ(kernels[1].kernel, 5u);
    EXPECT_EQ(kernels[1].total(), 8u);
    EXPECT_EQ(kernels[2].kernel, KernelContribution::noKernel);
    EXPECT_EQ(kernels[2].total(), 16u);
}

TEST(Attribution, ConservationCheckerDetectsDrift)
{
    FlatArray array(2, 2);
    LifetimeStore store(1, 1);
    store.container(0).words[0].append(
        {0, 10, 1, 1, makeInstrTag(0, 0)});

    MbAvfOptions opt;
    opt.horizon = 20;
    const FaultMode mode = FaultMode::mx1(2);
    const auto scheme = makeScheme("parity");
    AttributionResult attr =
        analyze::attributeMbAvf(array, store, *scheme, mode, opt);
    const MbAvfResult ref =
        computeMbAvf(array, store, *scheme, mode, opt);
    ASSERT_EQ(analyze::checkConservation(attr, ref), "");

    // A lost group-cycle in a per-tag row trips the internal resum.
    AttributionResult leaky = attr;
    leaky.perTag[0].cycles[attrSdc] -= 1;
    EXPECT_NE(analyze::checkConservation(leaky, ref), "");

    // A drifted column total trips the reference comparison.
    AttributionResult drifted = attr;
    drifted.cycles[attrSdc] += 1;
    drifted.perTag[0].cycles[attrSdc] += 1;
    EXPECT_NE(analyze::checkConservation(drifted, ref), "");

    // Mismatched run geometry is a violation even with equal sums.
    AttributionResult wrong_groups = attr;
    wrong_groups.numGroups += 1;
    EXPECT_NE(analyze::checkConservation(wrong_groups, ref), "");

    AttributionResult wrong_horizon = attr;
    wrong_horizon.horizon += 1;
    EXPECT_NE(analyze::checkConservation(wrong_horizon, ref), "");
}

/**
 * Differential fuzz: attribution over a random scheme, horizon and
 * Mx1 mode, under both combine rules, must equal the per-tag oracle
 * row for row and conserve computeMbAvf()'s raw integer totals
 * exactly, at 1 and 4 threads.
 */
void
conservationTrial(const PhysicalArray &array,
                  const LifetimeStore &store, Rng &rng,
                  const std::string &label)
{
    static const char *const kSchemes[] = {"none", "parity", "secded",
                                           "dected", "crc"};
    const std::unique_ptr<ProtectionScheme> scheme =
        makeScheme(kSchemes[rng.below(5)]);
    MbAvfOptions opt;
    opt.horizon = 1 + rng.below(200);
    const unsigned m = 1 + (unsigned)rng.below(6);
    const FaultMode mode = FaultMode::mx1(m);
    for (const bool shields : {false, true}) {
        opt.dueShieldsSdc = shields;
        const std::string at = label + " (" + scheme->name() + " N=" +
                               std::to_string(opt.horizon) + " M=" +
                               std::to_string(m) +
                               (shields ? " shields)" : ")");

        const MbAvfResult ref =
            computeMbAvf(array, store, *scheme, mode, opt);
        const std::vector<TagContribution> oracle =
            oracleCharges(array, store, *scheme, m, opt);
        const AttributionResult serial =
            analyze::attributeMbAvf(array, store, *scheme, mode, opt);
        EXPECT_EQ(analyze::checkConservation(serial, ref), "") << at;
        EXPECT_EQ(resum(serial), serial.cycles) << at;
        expectSameTable(oracle, serial.perTag, at);

        MbAvfOptions pooled = opt;
        pooled.numThreads = 4;
        const AttributionResult threaded =
            analyze::attributeMbAvf(array, store, *scheme, mode, pooled);
        EXPECT_EQ(analyze::checkConservation(threaded, ref), "")
            << at << " pooled";
        expectSameTable(oracle, threaded.perTag, at + " pooled");
    }
}

TEST(Attribution, ConservationFuzzCacheLayouts)
{
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        Rng rng(splitMix64(0xa77b, seed));
        CacheGeometry geom;
        geom.sets = 4u << rng.below(2);
        geom.ways = 2u << rng.below(2);
        geom.lineBytes = 2u << rng.below(2);
        static const CacheInterleave kStyles[] = {
            CacheInterleave::Logical, CacheInterleave::WayPhysical,
            CacheInterleave::IndexPhysical};
        const CacheInterleave style = kStyles[rng.below(3)];
        const unsigned factor = 1u << rng.below(2);
        auto array = makeCacheArray(geom, style, factor);
        LifetimeStore store = randomTaggedStore(
            rng, 8, geom.lineBytes, geom.numLines(), 120);
        conservationTrial(*array, store, rng,
                          "cache " + cacheInterleaveName(style) +
                              " seed " + std::to_string(seed));
    }
}

TEST(Attribution, ConservationFuzzRegFileLayouts)
{
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        Rng rng(splitMix64(0xa77c, seed));
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
            randomTaggedStore(rng, 32, 1, geom.numContainers(), 120);
        conservationTrial(*array, store, rng,
                          "regfile seed " + std::to_string(seed));
    }
}

TEST(Attribution, ConservationFuzzNarrowArrays)
{
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        Rng rng(splitMix64(0xa77d, seed));
        const std::uint64_t bits = 1 + rng.below(6);
        const unsigned domain_bits = 1 + (unsigned)rng.below(3);
        FlatArray array(bits, domain_bits);
        LifetimeStore store = randomTaggedStore(rng, 1, 1, bits, 60);
        conservationTrial(array, store, rng,
                          "flat " + std::to_string(bits) + "b seed " +
                              std::to_string(seed));
    }
}

TEST(Attribution, ConservationFuzzRowsStraddlingWordBoundaries)
{
    // Rows of 63 to 129 columns of multi-bit words: anchors sit on
    // both sides of a u64 anchor-word boundary, the last M - 1 of a
    // row are not groups, and several members share one word.
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        Rng rng(splitMix64(0xa77e, seed));
        const std::uint64_t bits = 63 + rng.below(67);
        const unsigned word_bits = 2 + (unsigned)rng.below(7);
        const unsigned domain_bits = 1 + (unsigned)rng.below(4);
        FlatArray array(bits, domain_bits, word_bits);
        LifetimeStore store = randomTaggedStore(
            rng, word_bits, 1, (bits + word_bits - 1) / word_bits, 80);
        conservationTrial(array, store, rng,
                          "flat " + std::to_string(bits) + "b words " +
                              std::to_string(word_bits) + " seed " +
                              std::to_string(seed));
    }
}

TEST(Attribution, AllCorrectedDesignChargesNothing)
{
    // DEC-TED corrects every region of at most two flips, so no 1x1 or
    // 2x1 group ever fails: the oracle's table is empty, and so must
    // the attribution's be, serially and pooled.
    const auto scheme = makeScheme("dected");
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        Rng rng(splitMix64(0xa77f, seed));
        FlatArray array(40, 1 + (unsigned)rng.below(3), 4);
        LifetimeStore store = randomTaggedStore(rng, 4, 1, 10, 60);
        for (const unsigned m : {1u, 2u}) {
            for (const unsigned threads : {1u, 4u}) {
                MbAvfOptions opt;
                opt.horizon = 60;
                opt.numThreads = threads;
                const FaultMode mode = FaultMode::mx1(m);
                const std::string at = "seed " + std::to_string(seed) +
                                       " M=" + std::to_string(m);
                ASSERT_TRUE(
                    oracleCharges(array, store, *scheme, m, opt).empty())
                    << at;
                const AttributionResult attr = analyze::attributeMbAvf(
                    array, store, *scheme, mode, opt);
                EXPECT_TRUE(attr.perTag.empty()) << at;
                EXPECT_EQ(analyze::checkConservation(
                              attr, computeMbAvf(array, store, *scheme,
                                                 mode, opt)),
                          "")
                    << at;
            }
        }
    }
}

} // namespace
} // namespace mbavf
