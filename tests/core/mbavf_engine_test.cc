/**
 * @file
 * Tests for the MB-AVF engine on synthetic lifetimes: the paper's
 * first-principles bounds (Section IV-D), protection-domain overlap
 * classification (Sections V, VII), group precedence, and the
 * windowed time series.
 */

#include <gtest/gtest.h>

#include "core/mbavf.hh"

namespace mbavf
{
namespace
{

/**
 * A one-row array of N bits, each bit its own 1-bit container so
 * tests can give every bit an independent lifetime; every
 * @p domain_bits consecutive bits form one protection domain.
 */
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
        PhysBit b;
        b.container = col;
        b.bitInContainer = 0;
        b.domain = col / domainBits_;
        return b;
    }

  private:
    std::uint64_t bits_;
    unsigned domainBits_;
};

/** Append one homogeneous segment to a bit's lifetime. */
void
addSegment(LifetimeStore &store, std::uint64_t bit, Cycle begin,
           Cycle end, AceClass cls)
{
    auto &word = store.container(bit).words[0];
    LifeSegment seg{begin, end, 0, 0};
    if (cls == AceClass::AceLive) {
        seg.aceMask = 1;
        seg.readMask = 1;
    } else if (cls == AceClass::ReadDead) {
        seg.readMask = 1;
    }
    word.append(seg);
}

MbAvfOptions
opts(Cycle horizon)
{
    MbAvfOptions o;
    o.horizon = horizon;
    return o;
}

TEST(MbAvfEngine, AllBitsAceGivesEqualSbAndMbAvf)
{
    // Section IV-D: if all bits of a group are ACE in the same
    // cycles, MB-AVF == SB-AVF (both 100% over the window).
    constexpr unsigned m = 4;
    FlatArray array(8, 8);
    LifetimeStore store(1, 1);
    for (std::uint64_t b = 0; b < 8; ++b)
        addSegment(store, b, 0, 100, AceClass::AceLive);

    ParityScheme parity;
    MbAvfResult sb =
        computeMbAvf(array, store, parity, FaultMode::mx1(1),
                     opts(100));
    MbAvfResult mb =
        computeMbAvf(array, store, parity, FaultMode::mx1(m),
                     opts(100));
    EXPECT_DOUBLE_EQ(sb.avf.total(), 1.0);
    EXPECT_DOUBLE_EQ(mb.avf.total(), 1.0);
}

TEST(MbAvfEngine, DisjointAceTimesGiveMTimesSbAvf)
{
    // Section IV-D: if exactly one of the M bits is ACE in each
    // cycle, MB-AVF = M x SB-AVF.
    constexpr unsigned m = 4;
    FlatArray array(m, 8);
    LifetimeStore store(1, 1);
    // Bit i ACE during [25i, 25(i+1)): each bit 25% SB-AVF.
    for (std::uint64_t b = 0; b < m; ++b)
        addSegment(store, b, 25 * b, 25 * (b + 1), AceClass::AceLive);

    ParityScheme parity;
    MbAvfResult sb =
        computeMbAvf(array, store, parity, FaultMode::mx1(1),
                     opts(100));
    MbAvfResult mb = computeMbAvf(array, store, parity,
                                  FaultMode::mx1(m), opts(100));
    EXPECT_DOUBLE_EQ(sb.avf.total(), 0.25);
    EXPECT_DOUBLE_EQ(mb.avf.total(), 1.0);
    EXPECT_DOUBLE_EQ(mb.avf.total() / sb.avf.total(), double(m));
}

TEST(MbAvfEngine, MbAvfBoundedBySbAvfTimesM)
{
    // Property: 1x <= MB-AVF / SB-AVF <= Mx for any lifetime mix.
    for (unsigned m : {2u, 3u, 4u, 8u}) {
        FlatArray array(16, 8);
        LifetimeStore store(1, 1);
        // A staggered mix of overlapping segments.
        for (std::uint64_t b = 0; b < 16; ++b) {
            addSegment(store, b, b * 3, b * 3 + 20,
                       AceClass::AceLive);
            addSegment(store, b, 60 + (b % 4) * 5, 70 + (b % 4) * 5,
                       AceClass::AceLive);
        }
        ParityScheme parity;
        MbAvfResult sb =
            computeMbAvf(array, store, parity, FaultMode::mx1(1),
                         opts(100));
        MbAvfResult mb = computeMbAvf(array, store, parity,
                                      FaultMode::mx1(m), opts(100));
        ASSERT_GT(sb.avf.total(), 0.0);
        double ratio = mb.avf.total() / sb.avf.total();
        EXPECT_GE(ratio, 1.0 - 1e-9) << "m=" << m;
        EXPECT_LE(ratio, double(m) + 1e-9) << "m=" << m;
    }
}

TEST(MbAvfEngine, MbAvfMonotonicInFaultModeSize)
{
    // Section VI-C: larger fault modes have larger (or equal)
    // MB-AVF, because a larger group is more likely to contain an
    // ACE bit. (Holds per anchor; group-count edge effects are
    // negligible here.)
    FlatArray array(64, 64);
    LifetimeStore store(1, 1);
    for (std::uint64_t b = 0; b < 64; b += 3)
        addSegment(store, b, (b * 7) % 50, (b * 7) % 50 + 30,
                   AceClass::AceLive);
    ParityScheme parity;
    double prev = 0.0;
    for (unsigned m = 1; m <= 8; ++m) {
        MbAvfResult r = computeMbAvf(array, store, parity,
                                     FaultMode::mx1(m), opts(100));
        EXPECT_GE(r.avf.total(), prev - 1e-9) << "m=" << m;
        prev = r.avf.total();
    }
}

TEST(MbAvfEngine, CorrectionEliminatesAvf)
{
    // SEC-DED corrects single-bit faults: SB-AVF must be zero.
    FlatArray array(8, 8);
    LifetimeStore store(1, 1);
    for (std::uint64_t b = 0; b < 8; ++b)
        addSegment(store, b, 0, 100, AceClass::AceLive);
    SecDedScheme secded;
    MbAvfResult sb =
        computeMbAvf(array, store, secded, FaultMode::mx1(1),
                     opts(100));
    EXPECT_DOUBLE_EQ(sb.avf.total(), 0.0);
}

TEST(MbAvfEngine, Figure3SecDedOverlapSplit)
{
    // Paper Figure 3: a 3x1 fault across two SEC-DED domains splits
    // 2+1. The 2-bit region is detected (DUE); the 1-bit region is
    // corrected. Group is DUE-ACE when the 2-bit region is ACE.
    FlatArray array(16, 8); // domains = containers = bytes
    LifetimeStore store(1, 1);
    // Bits 6,7 in domain 0; bit 8 in domain 1.
    addSegment(store, 6, 0, 50, AceClass::AceLive);
    addSegment(store, 7, 0, 50, AceClass::AceLive);
    addSegment(store, 8, 0, 100, AceClass::AceLive);

    SecDedScheme secded;
    // Anchor the 3x1 at column 6: covers bits 6,7,8.
    // Over the full array the only ACE group-time comes from groups
    // whose 2-bit overlap region is ACE.
    MbAvfResult mb = computeMbAvf(array, store, secded,
                                  FaultMode::mx1(3), opts(100));
    // Groups: anchors 0..13 (14 groups). Group at anchor 6 splits
    // {6,7} | {8}: detected region ACE for 50 cycles -> trueDUE.
    // Anchor 5 covers {5,6,7}: whole 3-bit region in domain 0 ->
    // undetected, ACE 50 cycles -> SDC. Anchor 7 covers {7}|{8,9}:
    // region {7} corrected, {8,9} detected with bit 8 ACE 100 -> DUE.
    // Anchor 4 covers {4,5,6}|: single domain undetected, ACE 50.
    // Anchor 8 covers {8,9,10}: undetected, ACE 100 -> SDC.
    double denom = 14.0 * 100.0;
    EXPECT_NEAR(mb.avf.trueDue, (50.0 + 100.0) / denom, 1e-12);
    EXPECT_NEAR(mb.avf.sdc, (50.0 + 50.0 + 100.0) / denom, 1e-12);
}

TEST(MbAvfEngine, Figure7ParityOverlapSplit)
{
    // Paper Figure 7: a 3x1 fault over two parity domains splits
    // 2+1. The 2-bit region is undetected (SDC if ACE); the 1-bit
    // region is detected (DUE if ACE). SDC takes precedence when
    // both are ACE.
    FlatArray array(16, 8);
    LifetimeStore store(1, 1);
    // B0, B1 in PD0 ACE during [0, 40); B2 in PD1 ACE during [0, 80).
    addSegment(store, 6, 0, 40, AceClass::AceLive);
    addSegment(store, 7, 0, 40, AceClass::AceLive);
    addSegment(store, 8, 0, 80, AceClass::AceLive);

    ParityScheme parity;
    MbAvfResult mb = computeMbAvf(array, store, parity,
                                  FaultMode::mx1(3), opts(100));
    // Anchor 6 = {6,7}|{8}: [0,40) SDC (precedence over the DUE of
    // PD1), [40,80) trueDUE (only bit 8 ACE, detected).
    // Anchor 4 = {4,5,6}: one domain, 3 flips -> detected: [0,40)
    // trueDUE. Anchor 5 = {5,6,7}: detected: [0,40) trueDUE.
    // Anchor 7 = {7}|{8,9}: {7} detected ACE [0,40) -> trueDUE;
    // {8,9} undetected ACE [0,80) -> SDC wins [0,80).
    // Anchor 8 = {8,9,10}: detected ACE [0,80) -> trueDUE.
    double denom = 14.0 * 100.0;
    EXPECT_NEAR(mb.avf.sdc, (40.0 + 80.0) / denom, 1e-12);
    EXPECT_NEAR(mb.avf.trueDue,
                (40.0 + 40.0 + 40.0 + 80.0) / denom, 1e-12);
}

TEST(MbAvfEngine, ParityUndetectedEvenFaultsBecomeSdc)
{
    // A 2x1 fault entirely inside one parity domain is undetected:
    // ACE time becomes SDC, not DUE.
    FlatArray array(8, 8);
    LifetimeStore store(1, 1);
    for (std::uint64_t b = 0; b < 8; ++b)
        addSegment(store, b, 0, 10, AceClass::AceLive);
    ParityScheme parity;
    MbAvfResult mb = computeMbAvf(array, store, parity,
                                  FaultMode::mx1(2), opts(10));
    EXPECT_DOUBLE_EQ(mb.avf.sdc, 1.0);
    EXPECT_DOUBLE_EQ(mb.avf.due(), 0.0);
}

TEST(MbAvfEngine, ReadDeadDetectedIsFalseDue)
{
    FlatArray array(8, 8);
    LifetimeStore store(1, 1);
    addSegment(store, 0, 0, 40, AceClass::ReadDead);
    ParityScheme parity;
    MbAvfResult sb =
        computeMbAvf(array, store, parity, FaultMode::mx1(1),
                     opts(100));
    // One of 8 bits, ReadDead 40 of 100 cycles.
    EXPECT_NEAR(sb.avf.falseDue, 0.4 / 8, 1e-12);
    EXPECT_DOUBLE_EQ(sb.avf.sdc, 0.0);
    EXPECT_DOUBLE_EQ(sb.avf.trueDue, 0.0);

    // Undetected (no protection): dead data never becomes an error.
    NoProtection none;
    MbAvfResult sb2 =
        computeMbAvf(array, store, none, FaultMode::mx1(1),
                     opts(100));
    EXPECT_DOUBLE_EQ(sb2.avf.total(), 0.0);
}

TEST(MbAvfEngine, SdcTakesPrecedenceOverDueByDefault)
{
    // Section VII-B: a group with one SDC region and one DUE region
    // is SDC-ACE in cache mode.
    FlatArray array(16, 2); // 2-bit parity domains
    LifetimeStore store(1, 1);
    // 3x1 at anchor 0: bits {0,1} in domain 0 (2 flips: undetected),
    // bit {2} in domain 1 (1 flip: detected).
    addSegment(store, 0, 0, 10, AceClass::AceLive);
    addSegment(store, 2, 0, 10, AceClass::AceLive);

    ParityScheme parity;
    MbAvfOptions o = opts(10);
    MbAvfResult mb = computeMbAvf(array, store, parity,
                                  FaultMode::mx1(3), o);
    // Only anchor 0 has ACE time among 14 anchors... anchors 1,2
    // also touch bits 0-4. Focus on totals: SDC time must dominate
    // where both classes coexist (anchor 0).
    EXPECT_GT(mb.avf.sdc, 0.0);

    // With dueShieldsSdc (inter-thread VGPR reads), the same group
    // becomes DUE instead.
    o.dueShieldsSdc = true;
    MbAvfResult shielded = computeMbAvf(array, store, parity,
                                        FaultMode::mx1(3), o);
    EXPECT_LT(shielded.avf.sdc, mb.avf.sdc);
    EXPECT_GT(shielded.avf.trueDue, mb.avf.trueDue);
}

TEST(MbAvfEngine, WindowedAvfAveragesToTotal)
{
    FlatArray array(32, 8);
    LifetimeStore store(1, 1);
    for (std::uint64_t b = 0; b < 32; b += 2)
        addSegment(store, b, b, 3 * b + 7, AceClass::AceLive);

    ParityScheme parity;
    MbAvfOptions o = opts(96);
    o.numWindows = 8;
    MbAvfResult mb = computeMbAvf(array, store, parity,
                                  FaultMode::mx1(2), o);
    ASSERT_EQ(mb.windows.size(), 8u);
    double sum_sdc = 0, sum_tdue = 0, sum_fdue = 0;
    for (const AvfFractions &w : mb.windows) {
        sum_sdc += w.sdc;
        sum_tdue += w.trueDue;
        sum_fdue += w.falseDue;
    }
    EXPECT_NEAR(sum_sdc / 8, mb.avf.sdc, 1e-9);
    EXPECT_NEAR(sum_tdue / 8, mb.avf.trueDue, 1e-9);
    EXPECT_NEAR(sum_fdue / 8, mb.avf.falseDue, 1e-9);
}

TEST(MbAvfEngine, UntouchedStructureHasZeroAvf)
{
    FlatArray array(64, 8);
    LifetimeStore store(1, 1);
    ParityScheme parity;
    MbAvfResult mb = computeMbAvf(array, store, parity,
                                  FaultMode::mx1(4), opts(1000));
    EXPECT_DOUBLE_EQ(mb.avf.total(), 0.0);
    EXPECT_EQ(mb.numGroups, 61u);
}

TEST(MbAvfEngine, HorizonClampsSegments)
{
    FlatArray array(8, 8);
    LifetimeStore store(1, 1);
    addSegment(store, 0, 0, 1000, AceClass::AceLive);
    ParityScheme parity;
    MbAvfResult sb =
        computeMbAvf(array, store, parity, FaultMode::mx1(1),
                     opts(100));
    EXPECT_NEAR(sb.avf.total(), 1.0 / 8, 1e-12);
}

TEST(MbAvfEngine, ModeTallerThanArrayHasNoGroups)
{
    // A footprint taller than the array admits no anchor at all;
    // the engine must return zero groups (and must not let
    // `rows - span_r + 1` underflow), not crash or report garbage.
    FlatArray array(8, 8); // 1 row
    LifetimeStore store(1, 1);
    addSegment(store, 0, 0, 100, AceClass::AceLive);
    ParityScheme parity;
    MbAvfResult mb = computeMbAvf(array, store, parity,
                                  FaultMode::rect(4, 1), opts(100));
    EXPECT_EQ(mb.numGroups, 0u);
    EXPECT_DOUBLE_EQ(mb.avf.total(), 0.0);
}

TEST(MbAvfEngine, ModeWiderThanArrayHasNoGroups)
{
    FlatArray array(4, 4); // 1 row x 4 cols
    LifetimeStore store(1, 1);
    addSegment(store, 0, 0, 100, AceClass::AceLive);
    ParityScheme parity;
    MbAvfResult mb = computeMbAvf(array, store, parity,
                                  FaultMode::mx1(8), opts(100));
    EXPECT_EQ(mb.numGroups, 0u);
    EXPECT_DOUBLE_EQ(mb.avf.total(), 0.0);
}

} // namespace
} // namespace mbavf
