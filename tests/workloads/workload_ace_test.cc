/**
 * @file
 * Workload ACE-characteristic tests: each synthetic stand-in must
 * exhibit the property the paper's corresponding benchmark is used
 * for (dead data in comd, divergence in prefix_sum, phases in
 * minife, ...), since the figure reproductions depend on them.
 */

#include <gtest/gtest.h>

#include "core/lifetime_arena.hh"
#include "core/mbavf.hh"
#include "core/protection.hh"
#include "core/sweep.hh"
#include "workloads/ace_runner.hh"

namespace mbavf
{
namespace
{

MbAvfResult
l1Avf(const AceRun &run, unsigned mode_bits, unsigned windows = 0)
{
    CacheGeometry geom{run.config.l1.sets, run.config.l1.ways,
                       run.config.l1.lineBytes};
    auto array = makeCacheArray(geom, CacheInterleave::WayPhysical, 2);
    ParityScheme parity;
    MbAvfOptions opt;
    opt.horizon = run.horizon;
    opt.numWindows = windows;
    return computeMbAvf(*array, run.l1, parity,
                        FaultMode::mx1(mode_bits), opt);
}

/** @p name's ACE run with only CU0's L1 lifetimes built. */
AceRun
l1Run(const std::string &name)
{
    return runAceAnalysis(name, 1, GpuConfig{}, AceStore::L1);
}

/** Modes 1x1..@p max_mode x1 of CU0's L1 under @p style x@p factor. */
ModeSweep
l1Sweep(const AceRun &run, CacheInterleave style, unsigned factor,
        const ProtectionScheme &scheme, unsigned max_mode)
{
    CacheGeometry geom{run.config.l1.sets, run.config.l1.ways,
                       run.config.l1.lineBytes};
    auto array = makeCacheArray(geom, style, factor);
    MbAvfOptions opt;
    opt.horizon = run.horizon;
    return sweepModesArena(*array, LifetimeArena(run.l1), scheme, opt,
                           max_mode);
}

TEST(WorkloadAce, ComdHasSubstantialDeadData)
{
    AceRun run = runAceAnalysis("comd");
    // The cutoff test discards far neighbours: >5% dead defs.
    EXPECT_GT(static_cast<double>(run.numDeadDefs) / run.numDefs,
              0.05);
}

TEST(WorkloadAce, ComdHasFalseDue)
{
    AceRun run = runAceAnalysis("comd");
    MbAvfResult sb = l1Avf(run, 1);
    EXPECT_GT(sb.avf.falseDue, 0.01);
    // And a meaningful share of total DUE (the paper's Figure 10).
    EXPECT_GT(sb.avf.falseDue / sb.avf.due(), 0.1);
}

TEST(WorkloadAce, MinifeHasPhases)
{
    AceRun run = runAceAnalysis("minife");
    MbAvfResult sb = l1Avf(run, 1, 8);
    double lo = 1.0, hi = 0.0;
    for (const AvfFractions &w : sb.windows) {
        lo = std::min(lo, w.due());
        hi = std::max(hi, w.due());
    }
    // AVF must move substantially across phases.
    EXPECT_GT(hi, 1.5 * lo);
}

TEST(WorkloadAce, EveryWorkloadHasNonzeroL1Avf)
{
    for (const std::string &name : workloadNames()) {
        AceRun run = l1Run(name);
        MbAvfResult sb = l1Avf(run, 1);
        EXPECT_GT(sb.avf.total(), 0.0) << name;
        EXPECT_LT(sb.avf.total(), 1.0) << name;
    }
}

TEST(WorkloadAce, MbAvfWithinFirstPrinciplesBand)
{
    // Figure 4, the central invariant on real lifetimes of every
    // workload: a 2x1 group is vulnerable at least as long as its
    // first bit and at most as long as both bits together.
    ParityScheme parity;
    for (const std::string &name : workloadNames()) {
        AceRun run = l1Run(name);
        const ModeSweep way2 = l1Sweep(
            run, CacheInterleave::WayPhysical, 2, parity, 2);
        ASSERT_GT(way2.results[0].avf.total(), 0.0) << name;
        const double band = way2.results[1].avf.total() /
                            way2.results[0].avf.total();
        EXPECT_GE(band, 1.0 - 1e-9) << name;
        EXPECT_LE(band, 2.0 + 1e-9) << name;
    }
}

TEST(WorkloadAce, LogicalInterleavingIsAtTheFloor)
{
    // Figure 4's floor: same-line check words make 2x1 DUE equal to
    // single-bit DUE to within noise for every workload (maximum ACE
    // locality).
    ParityScheme parity;
    for (const std::string &name : workloadNames()) {
        AceRun run = l1Run(name);
        const ModeSweep logical2 = l1Sweep(
            run, CacheInterleave::Logical, 2, parity, 2);
        EXPECT_NEAR(logical2.results[1].avf.due() /
                        logical2.results[0].avf.due(),
                    1.0, 0.02)
            << name;
    }
}

TEST(WorkloadAce, SecDed8x1DueMatchesParity4x1)
{
    // Figure 6: under x4 interleaving an 8x1 SEC-DED group holds two
    // bits of each of four lines, as a 4x1 parity group holds one, so
    // their DUE agree on every workload — closely, not exactly: the
    // groups cover different bits and differ in number.
    ParityScheme parity;
    SecDedScheme secded;
    for (const std::string &name : workloadNames()) {
        AceRun run = l1Run(name);
        const double parity4 =
            l1Sweep(run, CacheInterleave::WayPhysical, 4, parity, 4)
                .results[3]
                .avf.due();
        const double secded8 =
            l1Sweep(run, CacheInterleave::WayPhysical, 4, secded, 8)
                .results[7]
                .avf.due();
        EXPECT_NEAR(secded8 / parity4, 1.0, 1e-3) << name;
    }
}

TEST(WorkloadAce, VgprAvfIsSmallButNonzero)
{
    AceRun run = runAceAnalysis("matmul");
    auto array = makeRegFileArray(run.config.regs,
                                  RegInterleave::IntraThread, 1);
    NoProtection none;
    MbAvfOptions opt;
    opt.horizon = run.horizon;
    MbAvfResult sb = computeMbAvf(*array, run.vgpr, none,
                                  FaultMode::mx1(1), opt);
    EXPECT_GT(sb.avf.sdc, 0.0);
    EXPECT_LT(sb.avf.sdc, 0.3); // registers are mostly short-lived
}

TEST(WorkloadAce, InterThreadShieldingConvertsSdcToDue)
{
    // The Section VIII mechanism on real VGPR lifetimes.
    AceRun run = runAceAnalysis("dct");
    auto array = makeRegFileArray(run.config.regs,
                                  RegInterleave::InterThread, 2);
    ParityScheme parity;
    MbAvfOptions opt;
    opt.horizon = run.horizon;
    MbAvfResult plain = computeMbAvf(*array, run.vgpr, parity,
                                     FaultMode::mx1(2), opt);
    opt.dueShieldsSdc = true;
    MbAvfResult shielded = computeMbAvf(*array, run.vgpr, parity,
                                        FaultMode::mx1(2), opt);
    EXPECT_LE(shielded.avf.sdc, plain.avf.sdc);
    EXPECT_GE(shielded.avf.trueDue, plain.avf.trueDue);
    // Total vulnerability is conserved: shielding reclassifies.
    EXPECT_NEAR(shielded.avf.total(), plain.avf.total(), 1e-9);
}

} // namespace
} // namespace mbavf
