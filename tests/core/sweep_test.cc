/**
 * @file
 * Tests for the mode-sweep and SER convenience API.
 */

#include <gtest/gtest.h>

#include "core/lifetime_arena.hh"
#include "core/sweep.hh"

namespace mbavf
{
namespace
{

/** One-row array of 1-bit containers grouped into 8-bit domains. */
class FlatArray : public PhysicalArray
{
  public:
    explicit FlatArray(std::uint64_t bits) : bits_(bits) {}

    std::uint64_t rows() const override { return 1; }
    std::uint64_t cols() const override { return bits_; }

    PhysBit
    at(std::uint64_t, std::uint64_t col) const override
    {
        return {col, 0, col / 8};
    }

  private:
    std::uint64_t bits_;
};

LifetimeStore
allAceStore(std::uint64_t bits, Cycle horizon)
{
    LifetimeStore store(1, 1);
    for (std::uint64_t b = 0; b < bits; ++b) {
        store.container(b).words[0].append(
            {0, horizon, 1, 1});
    }
    return store;
}

TEST(Sweep, SweepsAllModes)
{
    FlatArray array(32);
    LifetimeStore store = allAceStore(32, 100);
    ParityScheme parity;
    MbAvfOptions opt;
    opt.horizon = 100;

    ModeSweep sweep =
        sweepModesArena(array, LifetimeArena(store), parity, opt);
    ASSERT_EQ(sweep.results.size(), maxTabulatedMode);
    // Fully-ACE structure: odd modes detected (DUE 1.0), even modes
    // undetected within one domain... mode 2 inside an 8-bit domain
    // is 2 flips -> undetected -> SDC.
    EXPECT_DOUBLE_EQ(sweep.avf(1).due(), 1.0);
    EXPECT_GT(sweep.avf(2).sdc, 0.9);
}

TEST(Sweep, SerFoldsRates)
{
    FlatArray array(32);
    LifetimeStore store = allAceStore(32, 100);
    ParityScheme parity;
    MbAvfOptions opt;
    opt.horizon = 100;

    ModeSweep sweep =
        sweepModesArena(array, LifetimeArena(store), parity, opt, 2);
    std::array<double, 2> fits = {90.0, 10.0};
    StructureSer ser = sweepSer(sweep, fits);
    EXPECT_NEAR(ser.due(), 90.0 * sweep.avf(1).due() +
                               10.0 * sweep.avf(2).due(),
                1e-9);
    EXPECT_NEAR(ser.sdc, 10.0 * sweep.avf(2).sdc, 1e-9);
}

TEST(Sweep, ParallelSweepIsBitIdenticalToSerial)
{
    // A mixed store (some bits dead, varied segment shapes) swept
    // serially and on the shared pool must agree exactly — AVF
    // fractions and the per-window series.
    FlatArray array(64);
    LifetimeStore store(1, 1);
    for (std::uint64_t b = 0; b < 64; b += 3) {
        store.container(b).words[0].append(
            {b, 60 + b, (b % 2) ? 1u : 0u, 1});
    }
    ParityScheme parity;
    MbAvfOptions serial;
    serial.horizon = 128;
    serial.numWindows = 4;
    serial.numThreads = 1;
    MbAvfOptions parallel = serial;
    parallel.numThreads = 4;

    const LifetimeArena arena(store);
    ModeSweep a = sweepModesArena(array, arena, parity, serial);
    ModeSweep b = sweepModesArena(array, arena, parity, parallel);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t m = 0; m < a.results.size(); ++m) {
        EXPECT_EQ(a.results[m].avf.sdc, b.results[m].avf.sdc) << m;
        EXPECT_EQ(a.results[m].avf.trueDue, b.results[m].avf.trueDue)
            << m;
        EXPECT_EQ(a.results[m].avf.falseDue,
                  b.results[m].avf.falseDue)
            << m;
        ASSERT_EQ(a.results[m].windows.size(),
                  b.results[m].windows.size());
        for (std::size_t w = 0; w < a.results[m].windows.size();
             ++w) {
            EXPECT_EQ(a.results[m].windows[w].sdc,
                      b.results[m].windows[w].sdc);
            EXPECT_EQ(a.results[m].windows[w].trueDue,
                      b.results[m].windows[w].trueDue);
            EXPECT_EQ(a.results[m].windows[w].falseDue,
                      b.results[m].windows[w].falseDue);
        }
    }

    auto fits = caseStudyFaultRates(100.0);
    StructureSer sa = sweepSer(a, fits);
    StructureSer sb = sweepSer(b, fits);
    EXPECT_EQ(sa.sdc, sb.sdc);
    EXPECT_EQ(sa.trueDue, sb.trueDue);
    EXPECT_EQ(sa.falseDue, sb.falseDue);
}

TEST(Sweep, SerScalesWithTotalFit)
{
    FlatArray array(32);
    LifetimeStore store = allAceStore(32, 100);
    ParityScheme parity;
    MbAvfOptions opt;
    opt.horizon = 100;

    ModeSweep sweep =
        sweepModesArena(array, LifetimeArena(store), parity, opt);
    StructureSer a = sweepSer(sweep, caseStudyFaultRates(100.0));
    StructureSer b = sweepSer(sweep, caseStudyFaultRates(300.0));
    EXPECT_NEAR(b.total(), 3.0 * a.total(), 1e-9);
}

} // namespace
} // namespace mbavf
