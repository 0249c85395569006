/**
 * @file
 * Tests for the fault-rate tables (Tables I, III) and the SER
 * calculator (Eq. 3).
 */

#include <gtest/gtest.h>

#include "core/fault_rates.hh"
#include "core/sweep.hh"

namespace mbavf
{
namespace
{

TEST(FaultRates, NodesSumToHundredPercent)
{
    for (const NodeFaultRatios &node : ibeFaultRatios()) {
        double sum = 0;
        for (double p : node.percent)
            sum += p;
        EXPECT_NEAR(sum, 100.0, 1e-9) << node.designRuleNm << "nm";
    }
}

TEST(FaultRates, MultiBitShareGrowsWithScaling)
{
    double prev = 0;
    for (const NodeFaultRatios &node : ibeFaultRatios()) {
        EXPECT_GT(node.multiBitPercent(), prev);
        prev = node.multiBitPercent();
    }
}

TEST(FaultRates, PaperQuotedNumbers)
{
    // "Multi-bit faults are 3.9% of all faults in 22nm" and "less
    // than 0.6% of faults affected more than one bit" at 180nm.
    EXPECT_NEAR(ibeFaultRatiosFor(22).multiBitPercent(), 3.9, 1e-9);
    EXPECT_LT(ibeFaultRatiosFor(180).multiBitPercent(), 0.6);
}

TEST(FaultRates, WidthDistributionDecays)
{
    const NodeFaultRatios &node = ibeFaultRatiosFor(22);
    for (unsigned m = 1; m + 1 < maxTabulatedMode - 1; ++m)
        EXPECT_GE(node.percent[m], node.percent[m + 1]) << m;
}

TEST(FaultRates, UnknownNodeIsFatal)
{
    EXPECT_DEATH((void)ibeFaultRatiosFor(7), "no Ibe fault ratios");
}

TEST(FaultRates, CaseStudyRatesSumToTotal)
{
    auto rates = caseStudyFaultRates(100.0);
    double sum = 0;
    for (double r : rates)
        sum += r;
    EXPECT_NEAR(sum, 100.0, 1e-9);
    EXPECT_NEAR(rates[0], 96.1, 1e-9);
}

TEST(FaultRates, CaseStudyScalesLinearly)
{
    auto a = caseStudyFaultRates(100.0);
    auto b = caseStudyFaultRates(250.0);
    for (unsigned m = 0; m < maxTabulatedMode; ++m)
        EXPECT_NEAR(b[m], 2.5 * a[m], 1e-9);
}

TEST(Ser, SumsPerModeContributions)
{
    // Eq. 3: each mode's raw FIT times its MB-AVF, summed per class.
    ModeSweep sweep;
    sweep.results.resize(2);
    sweep.results[0].avf = {0.01, 0.02, 0.005};
    sweep.results[1].avf = {0.5, 0.1, 0.0};
    const std::vector<double> fits = {96.0, 4.0};

    StructureSer total = sweepSer(sweep, fits);
    EXPECT_NEAR(total.sdc, 96 * 0.01 + 4 * 0.5, 1e-12);
    EXPECT_NEAR(total.trueDue, 96 * 0.02 + 4 * 0.1, 1e-12);
    EXPECT_NEAR(total.falseDue, 96 * 0.005, 1e-12);
    EXPECT_NEAR(total.due(), total.trueDue + total.falseDue, 1e-12);
    EXPECT_NEAR(total.total(),
                total.sdc + total.trueDue + total.falseDue, 1e-12);
}

} // namespace
} // namespace mbavf
