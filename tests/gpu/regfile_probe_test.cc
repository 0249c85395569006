/**
 * @file
 * Tests for the VGPR probe: register events to lifetimes, including
 * logic masking through the dataflow resolver.
 */

#include <gtest/gtest.h>

#include "gpu/gpu.hh"
#include "gpu/regfile_probe.hh"
#include "gpu/wave.hh"
#include "trace/dataflow.hh"

namespace mbavf
{
namespace
{

GpuConfig
smallGpu()
{
    GpuConfig cfg;
    cfg.numCus = 1;
    cfg.memBytes = 1 << 20;
    return cfg;
}

struct Harness
{
    Harness() : gpu(smallGpu()), probe(gpu.config().regs)
    {
        gpu.regFile(0).setListener(&probe);
    }

    LifetimeStore
    finalize()
    {
        gpu.finish();
        Liveness live(gpu.dataflow());
        return probe.finalize(gpu.horizon(), live.relevances());
    }

    Gpu gpu;
    RegFileAvfProbe probe;
};

TEST(RegFileProbe, ValueFeedingOutputIsAce)
{
    Harness h;
    Addr out = h.gpu.alloc(64 * 4);
    h.gpu.launch(
        [&](Wave &w) {
            w.movi(0, 5);            // r0 written
            w.movi(1, 1);            // spacer
            w.laneIdx(2);
            w.muli(2, 2, 4);
            w.addi(2, 2, static_cast<std::uint32_t>(out));
            w.storeOut(2, 0);        // r0 consumed -> output
        },
        1);
    LifetimeStore store = h.finalize();

    // r0 lane 0: container id regId(slot 0, reg 0, lane 0) = 0.
    const WordLifetime *w = store.find(0, 0);
    ASSERT_NE(w, nullptr);
    // There must be a nonempty AceLive window on bit 0.
    EXPECT_GT(w->aceCycles(0, h.gpu.horizon()), 0u);
}

TEST(RegFileProbe, OverwrittenValueIsUnace)
{
    Harness h;
    h.gpu.launch(
        [&](Wave &w) {
            w.movi(0, 5);
            w.movi(1, 1);
            w.movi(0, 6); // overwrite r0 without reading it
            w.addi(2, 0, 0);
        },
        1);
    LifetimeStore store = h.finalize();
    const WordLifetime *w = store.find(0, 0);
    ASSERT_NE(w, nullptr);
    // r2 is never consumed so even the second value is dead; the
    // first value must have zero ACE time.
    EXPECT_EQ(w->aceCycles(0, h.gpu.horizon()), 0u);
}

TEST(RegFileProbe, LogicMaskingLimitsAceBits)
{
    Harness h;
    Addr out = h.gpu.alloc(64 * 4);
    h.gpu.launch(
        [&](Wave &w) {
            w.movi(0, 0xFFFF);
            w.andi(1, 0, 0x0F);      // only low nibble of r0 matters
            w.laneIdx(2);
            w.muli(2, 2, 4);
            w.addi(2, 2, static_cast<std::uint32_t>(out));
            w.storeOut(2, 1);
        },
        1);
    LifetimeStore store = h.finalize();
    const WordLifetime *w = store.find(0, 0);
    ASSERT_NE(w, nullptr);
    Cycle horizon = h.gpu.horizon();
    EXPECT_GT(w->aceCycles(0, horizon), 0u);  // bit 0 relevant
    EXPECT_EQ(w->aceCycles(8, horizon), 0u);  // bit 8 masked
    // Masked bits are still read out of the array: false-DUE time.
    EXPECT_GT(w->readDeadCycles(8, horizon), 0u);
}

TEST(RegFileProbe, DeadChainRegistersAreReadDead)
{
    Harness h;
    h.gpu.launch(
        [&](Wave &w) {
            w.movi(0, 5);
            w.addi(1, 0, 1); // r1 never used further
        },
        1);
    LifetimeStore store = h.finalize();
    const WordLifetime *w = store.find(0, 0);
    ASSERT_NE(w, nullptr);
    Cycle horizon = h.gpu.horizon();
    EXPECT_EQ(w->aceCycles(0, horizon), 0u);
    EXPECT_GT(w->readDeadCycles(0, horizon), 0u);
}

TEST(RegFileProbe, QuarterWaveTimestamps)
{
    // Lane 0 and lane 63 of the same op must be one quarter-wave
    // cadence apart (3 cycles at 16 lanes/cycle over 64 lanes). The
    // instruction reports one write; the probe expands it per lane.
    Gpu gpu(smallGpu());
    RegFileAvfProbe probe(gpu.config().regs);
    gpu.regFile(0).setListener(&probe);
    gpu.launch([](Wave &w) { w.movi(0, 1); }, 1);

    const auto logs = probe.takeLogs();
    ASSERT_EQ(logs.size(), 64u);
    const RegFileGeometry &geom = gpu.config().regs;
    const auto &lane0 = logs.at(geom.regId(0, 0, 0)).events;
    const auto &lane63 = logs.at(geom.regId(0, 0, 63)).events;
    ASSERT_EQ(lane0.size(), 1u);
    ASSERT_EQ(lane63.size(), 1u);
    EXPECT_EQ(lane63[0].time - lane0[0].time, 3u);
}

} // namespace
} // namespace mbavf
