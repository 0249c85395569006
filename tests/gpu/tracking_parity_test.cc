/**
 * @file
 * Differential test of the wave lane loop's two instantiations:
 * tracking only adds dataflow records and register read events, so
 * every workload run with tracking on and with tracking off must
 * produce the same outputs, instruction count, final cycle, cache
 * statistics and traps. The ACE runs (tracked) and the injection
 * trials (untracked) would otherwise describe different executions.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/trap.hh"
#include "gpu/gpu.hh"
#include "workloads/workload.hh"

namespace mbavf
{
namespace
{

/** Counts register-file events; drives the listener write path. */
class CountingListener : public RegFileListener
{
  public:
    void onRegWrite(const RegAccess &, InstrTag) override { ++writes; }

    void onRegRead(const RegRead &) override { ++reads; }

    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
};

using StatsRow = std::array<std::uint64_t, 4>;

StatsRow
row(const CacheStats &s)
{
    return {s.hits, s.misses, s.evictions, s.writebacks};
}

/** Everything an injection outcome can depend on. */
struct RunFacts
{
    std::vector<std::uint8_t> output;
    std::uint64_t instrs = 0;
    Cycle cycles = 0;
    std::vector<StatsRow> l1;
    StatsRow l2{};
};

RunFacts
runWorkload(const std::string &name, bool tracked)
{
    Gpu gpu(GpuConfig{});
    gpu.setTracking(tracked);
    // The tracked run notifies a listener on CU 0 only, as an ACE run
    // does, so both register write paths are exercised.
    CountingListener listener;
    if (tracked)
        gpu.regFile(0).setListener(&listener);
    auto workload = makeWorkload(name);
    workload->run(gpu);
    gpu.finish();
    if (tracked) {
        EXPECT_GT(listener.writes, 0u);
        EXPECT_GT(listener.reads, 0u);
    }

    RunFacts facts;
    for (const Workload::Range &range : workload->outputs())
        gpu.mem().readBlock(range.addr, range.bytes, facts.output);
    facts.instrs = gpu.instrCount();
    facts.cycles = gpu.clock().now();
    for (unsigned cu = 0; cu < gpu.config().numCus; ++cu)
        facts.l1.push_back(row(gpu.l1(cu).stats()));
    facts.l2 = row(gpu.l2().stats());
    return facts;
}

class TrackingParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TrackingParity, TrackedAndUntrackedRunsAgree)
{
    const RunFacts tracked = runWorkload(GetParam(), true);
    const RunFacts untracked = runWorkload(GetParam(), false);
    EXPECT_FALSE(untracked.output.empty());
    EXPECT_EQ(tracked.output, untracked.output);
    EXPECT_EQ(tracked.instrs, untracked.instrs);
    EXPECT_EQ(tracked.cycles, untracked.cycles);
    EXPECT_EQ(tracked.l1, untracked.l1);
    EXPECT_EQ(tracked.l2, untracked.l2);
}

INSTANTIATE_TEST_SUITE_P(
    All, TrackingParity, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

/** Trap code of one histogram run; empty when it completes. */
std::string
histogramTrap(bool tracked, const std::vector<RegInjection> &flips,
              std::uint64_t max_instrs)
{
    Gpu gpu(GpuConfig{});
    gpu.setTracking(tracked);
    gpu.armInjections(flips);
    gpu.setWatchdog(max_instrs, 0);
    auto workload = makeWorkload("histogram");
    try {
        workload->run(gpu);
        gpu.finish();
    } catch (const SimTrap &trap) {
        return trap.code();
    }
    return "";
}

TEST(TrackingParity, TrapsMatchInBothModes)
{
    // Dynamic instruction 5 of histogram is the load that consumes
    // the address in register 5 of CU 0, slot 0.
    RegInjection flip;
    flip.cu = 0;
    flip.slot = 0;
    flip.reg = 5;
    flip.lane = 0;
    flip.triggerInstr = 5;
    RegInjection far = flip;
    far.bitMask = 0x80000000u;
    RegInjection odd = flip;
    odd.bitMask = 0x1u;

    Gpu golden(GpuConfig{});
    golden.setTracking(false);
    makeWorkload("histogram")->run(golden);
    ASSERT_GT(golden.instrCount(), 1u);

    for (bool tracked : {false, true}) {
        SCOPED_TRACE(tracked ? "tracked" : "untracked");
        EXPECT_EQ(histogramTrap(tracked, {}, 0), "");
        EXPECT_EQ(histogramTrap(tracked, {far}, 0), trapcode::memOob);
        EXPECT_EQ(histogramTrap(tracked, {odd}, 0), trapcode::memAlign);
        EXPECT_EQ(histogramTrap(tracked, {}, golden.instrCount() - 1),
                  trapcode::watchdogInstrs);
    }
}

} // namespace
} // namespace mbavf
