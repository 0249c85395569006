/**
 * @file
 * runAceAnalysis builds only the stores a caller requests: each
 * single-store request returns exactly the store an all-stores run
 * returns, with the same run statistics, and every store is the same
 * at any pool width.
 */

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "workloads/ace_runner.hh"

namespace mbavf
{
namespace
{

constexpr AceStore kAll =
    AceStore::L1 | AceStore::Vgpr | AceStore::L2 | AceStore::VgprPerCu;

AceRun
run(const std::string &workload, AceStore stores,
    ProgramCapture *capture = nullptr)
{
    AceRunOptions options;
    options.stores = stores;
    options.capture = capture;
    // Sample points both inside the run and past its end (padded
    // with the horizon).
    options.sampleCyclesAt = {0, 7, 100, std::uint64_t(1) << 40};
    return runAceAnalysis(workload, options);
}

bool
sameStats(const CacheStats &a, const CacheStats &b)
{
    return a.hits == b.hits && a.misses == b.misses &&
           a.evictions == b.evictions && a.writebacks == b.writebacks;
}

void
expectSameRun(const AceRun &want, const AceRun &got)
{
    EXPECT_EQ(want.horizon, got.horizon);
    EXPECT_EQ(want.instrs, got.instrs);
    EXPECT_EQ(want.numDefs, got.numDefs);
    EXPECT_EQ(want.numDeadDefs, got.numDeadDefs);
    EXPECT_TRUE(sameStats(want.l1Stats, got.l1Stats));
    EXPECT_TRUE(sameStats(want.l2Stats, got.l2Stats));
    EXPECT_EQ(want.sampledCycles, got.sampledCycles);
}

class AceRunnerStores : public ::testing::TestWithParam<std::string>
{
  protected:
    void TearDown() override { setParallelThreads(0); }
};

TEST_P(AceRunnerStores, SingleStoreRequestsMatchAllStoresRun)
{
    const std::string workload = GetParam();
    const AceRun all = run(workload, kAll);
    ASSERT_GT(all.l1.numContainers(), 0u);
    ASSERT_GT(all.vgpr.numContainers(), 0u);
    ASSERT_GT(all.l2.numContainers(), 0u);
    ASSERT_EQ(all.vgprPerCu.size(), all.config.numCus);
    EXPECT_TRUE(all.vgprPerCu[0] == all.vgpr);

    const AceRun l1 = run(workload, AceStore::L1);
    expectSameRun(all, l1);
    EXPECT_TRUE(l1.l1 == all.l1);
    EXPECT_EQ(l1.vgpr.numContainers(), 0u);
    EXPECT_EQ(l1.l2.numContainers(), 0u);
    EXPECT_TRUE(l1.vgprPerCu.empty());

    const AceRun vgpr = run(workload, AceStore::Vgpr);
    expectSameRun(all, vgpr);
    EXPECT_TRUE(vgpr.vgpr == all.vgpr);
    EXPECT_EQ(vgpr.l1.numContainers(), 0u);
    EXPECT_EQ(vgpr.l2.numContainers(), 0u);

    const AceRun l2 = run(workload, AceStore::L2);
    expectSameRun(all, l2);
    EXPECT_TRUE(l2.l2 == all.l2);
    EXPECT_EQ(l2.l1.numContainers(), 0u);
    EXPECT_EQ(l2.vgpr.numContainers(), 0u);

    const AceRun per_cu = run(workload, AceStore::VgprPerCu);
    expectSameRun(all, per_cu);
    EXPECT_TRUE(per_cu.vgprPerCu == all.vgprPerCu);
    EXPECT_EQ(per_cu.vgpr.numContainers(), 0u);
}

TEST_P(AceRunnerStores, CaptureIsFilledWithoutTheVgprStore)
{
    const std::string workload = GetParam();
    ProgramCapture with_vgpr;
    run(workload, AceStore::Vgpr, &with_vgpr);
    ProgramCapture l1_only;
    const AceRun l1 = run(workload, AceStore::L1, &l1_only);

    EXPECT_EQ(l1.vgpr.numContainers(), 0u);
    ASSERT_GT(with_vgpr.dataflow.size(), 0u);
    ASSERT_FALSE(with_vgpr.vgprEvents.empty());
    EXPECT_EQ(l1_only.dataflow.size(), with_vgpr.dataflow.size());
    ASSERT_EQ(l1_only.vgprEvents.size(), with_vgpr.vgprEvents.size());
    for (const auto &[reg, log] : with_vgpr.vgprEvents) {
        auto it = l1_only.vgprEvents.find(reg);
        ASSERT_NE(it, l1_only.vgprEvents.end()) << "register " << reg;
        EXPECT_EQ(it->second.events.size(), log.events.size())
            << "register " << reg;
    }
}

TEST_P(AceRunnerStores, IdenticalAtPoolWidthsOneAndFour)
{
    const std::string workload = GetParam();
    setParallelThreads(1);
    const AceRun serial = run(workload, kAll);
    setParallelThreads(4);
    const AceRun pooled = run(workload, kAll);
    expectSameRun(serial, pooled);
    EXPECT_TRUE(serial.l1 == pooled.l1);
    EXPECT_TRUE(serial.vgpr == pooled.vgpr);
    EXPECT_TRUE(serial.l2 == pooled.l2);
    EXPECT_TRUE(serial.vgprPerCu == pooled.vgprPerCu);
}

INSTANTIATE_TEST_SUITE_P(Registry, AceRunnerStores,
                         ::testing::Values("histogram", "nw", "minife"),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace mbavf
