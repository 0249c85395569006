/**
 * @file
 * Functional tests for the GPU model: Wave op semantics, divergence,
 * memory operations, timing monotonicity, and fault injection hooks.
 */

#include <gtest/gtest.h>

#include "common/trap.hh"
#include "gpu/gpu.hh"
#include "gpu/wave.hh"

namespace mbavf
{
namespace
{

GpuConfig
smallGpu()
{
    GpuConfig cfg;
    cfg.numCus = 2;
    cfg.memBytes = 1 << 20;
    return cfg;
}

TEST(Wave, AluOpsComputeExpectedValues)
{
    Gpu gpu(smallGpu());
    gpu.launch(
        [](Wave &w) {
            w.movi(0, 10);
            w.movi(1, 3);
            w.add(2, 0, 1);
            w.sub(3, 0, 1);
            w.mul(4, 0, 1);
            w.mad(5, 0, 1, 2);
            w.andi(6, 0, 0x2);
            w.shli(7, 1, 2);
            w.shri(8, 0, 1);
            w.xor_(9, 0, 1);
            w.minu(10, 0, 1);
            w.maxu(11, 0, 1);
            EXPECT_EQ(w.peek(2, 0), 13u);
            EXPECT_EQ(w.peek(3, 5), 7u);
            EXPECT_EQ(w.peek(4, 63), 30u);
            EXPECT_EQ(w.peek(5, 1), 43u);
            EXPECT_EQ(w.peek(6, 0), 2u);
            EXPECT_EQ(w.peek(7, 0), 12u);
            EXPECT_EQ(w.peek(8, 0), 5u);
            EXPECT_EQ(w.peek(9, 0), 9u);
            EXPECT_EQ(w.peek(10, 0), 3u);
            EXPECT_EQ(w.peek(11, 0), 10u);
        },
        1);
    gpu.finish();
}

TEST(Wave, GlobalIdPerLaneAndWave)
{
    Gpu gpu(smallGpu());
    gpu.launch(
        [](Wave &w) {
            w.globalId(0);
            EXPECT_EQ(w.peek(0, 0), w.waveId() * 64u);
            EXPECT_EQ(w.peek(0, 63), w.waveId() * 64u + 63);
        },
        3);
    gpu.finish();
}

TEST(Wave, CompareAndSelect)
{
    Gpu gpu(smallGpu());
    gpu.launch(
        [](Wave &w) {
            w.laneIdx(0);
            w.cmpLtui(1, 0, 32);  // 1 for lanes 0-31
            w.movi(2, 111);
            w.movi(3, 222);
            w.select(4, 1, 2, 3);
            EXPECT_EQ(w.peek(4, 5), 111u);
            EXPECT_EQ(w.peek(4, 40), 222u);
        },
        1);
    gpu.finish();
}

TEST(Wave, DivergenceMasksLanes)
{
    Gpu gpu(smallGpu());
    gpu.launch(
        [](Wave &w) {
            w.laneIdx(0);
            w.movi(1, 0);
            w.cmpLtui(2, 0, 16);
            w.pushExecNonzero(2);
            w.movi(1, 7); // only lanes 0-15
            w.popExec();
            w.pushExecZero(2);
            w.movi(1, 9); // lanes 16-63
            w.popExec();
            EXPECT_EQ(w.peek(1, 3), 7u);
            EXPECT_EQ(w.peek(1, 20), 9u);
        },
        1);
    gpu.finish();
}

TEST(Wave, NestedDivergence)
{
    Gpu gpu(smallGpu());
    gpu.launch(
        [](Wave &w) {
            w.laneIdx(0);
            w.movi(1, 0);
            w.cmpLtui(2, 0, 32);
            w.pushExecNonzero(2);
            w.cmpLtui(3, 0, 8);
            w.pushExecNonzero(3);
            w.movi(1, 5); // lanes 0-7
            w.popExec();
            w.popExec();
            EXPECT_EQ(w.peek(1, 4), 5u);
            EXPECT_EQ(w.peek(1, 12), 0u);
            EXPECT_EQ(w.peek(1, 40), 0u);
        },
        1);
    gpu.finish();
}

TEST(Wave, LoadStoreRoundTrip)
{
    Gpu gpu(smallGpu());
    Addr buf = gpu.alloc(64 * 4);
    Addr out = gpu.alloc(64 * 4);
    for (unsigned i = 0; i < 64; ++i)
        gpu.mem().hostWrite32(buf + i * 4, i * 11);
    gpu.launch(
        [&](Wave &w) {
            w.laneIdx(0);
            w.muli(1, 0, 4);
            w.addi(1, 1, static_cast<std::uint32_t>(buf));
            w.load(2, 1);
            w.addi(2, 2, 1);
            w.muli(3, 0, 4);
            w.addi(3, 3, static_cast<std::uint32_t>(out));
            w.storeOut(3, 2);
        },
        1);
    gpu.finish();
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(gpu.mem().read32(out + i * 4), i * 11 + 1);
}

TEST(Wave, TimingAdvancesMonotonically)
{
    Gpu gpu(smallGpu());
    Cycle before = gpu.clock().now();
    gpu.launch(
        [](Wave &w) {
            w.movi(0, 1);
            Cycle t1 = w.endTime();
            w.movi(1, 2);
            EXPECT_GT(w.endTime(), t1);
        },
        2);
    EXPECT_GT(gpu.clock().now(), before);
}

TEST(Wave, MemoryLatencyChargesTime)
{
    Gpu gpu(smallGpu());
    Addr buf = gpu.alloc(64 * 4);
    Cycle alu_only = 0, with_mem = 0;
    {
        Gpu g2(smallGpu());
        g2.launch([](Wave &w) { w.movi(0, 1); }, 1);
        alu_only = g2.clock().now();
    }
    gpu.launch(
        [&](Wave &w) {
            w.movi(0, static_cast<std::uint32_t>(buf));
            w.load(1, 0);
        },
        1);
    with_mem = gpu.clock().now();
    EXPECT_GT(with_mem, alu_only);
}

TEST(Wave, LoadIssuesOneL1RequestPerActiveLane)
{
    // Lanes are never coalesced: each active lane of a load is one
    // 4-byte L1 request, even when 16 lanes share a 64-byte line.
    // Every cache stat and cycle count depends on this.
    Gpu gpu(smallGpu());
    Addr buf = gpu.alloc(64 * 4);
    const CacheStats &l1 = gpu.l1(0).stats();
    std::uint64_t full = 0, half = 0;
    gpu.launch(
        [&](Wave &w) {
            w.laneIdx(0);
            w.muli(1, 0, 4);
            w.addi(1, 1, static_cast<std::uint32_t>(buf));
            std::uint64_t before = l1.hits + l1.misses;
            w.load(2, 1);
            full = l1.hits + l1.misses - before;
            w.cmpLtui(3, 0, 32);
            w.pushExecNonzero(3);
            before = l1.hits + l1.misses;
            w.load(2, 1);
            half = l1.hits + l1.misses - before;
            w.popExec();
        },
        1);
    gpu.finish();
    EXPECT_EQ(full, 64u);
    EXPECT_EQ(half, 32u);
}

TEST(Wave, WavesSpreadAcrossCusAndSlots)
{
    Gpu gpu(smallGpu());
    std::vector<std::pair<unsigned, unsigned>> seen;
    gpu.launch(
        [&](Wave &w) {
            seen.emplace_back(w.cu(), w.slot());
            w.movi(0, 1);
        },
        8);
    gpu.finish();
    ASSERT_EQ(seen.size(), 8u);
    EXPECT_EQ(seen[0], (std::pair<unsigned, unsigned>{0, 0}));
    EXPECT_EQ(seen[1], (std::pair<unsigned, unsigned>{1, 0}));
    EXPECT_EQ(seen[2], (std::pair<unsigned, unsigned>{0, 1}));
    EXPECT_EQ(seen[3], (std::pair<unsigned, unsigned>{1, 1}));
}

TEST(Gpu, InjectionFlipsRegisterAtTrigger)
{
    // Without injection r0 stays 8; with a flip of bit 1 armed just
    // before the second instruction, the consuming add sees 10.
    auto run = [](bool inject) {
        Gpu gpu(smallGpu());
        std::uint32_t result = 0;
        if (inject) {
            RegInjection inj;
            inj.cu = 0;
            inj.slot = 0;
            inj.reg = 0;
            inj.lane = 2;
            inj.bitMask = 0x2;
            inj.triggerInstr = 1;
            gpu.armInjections({inj});
        }
        gpu.launch(
            [&](Wave &w) {
                w.movi(0, 8);      // instr 0
                w.addi(1, 0, 0);   // instr 1: reads r0 post-flip
                result = w.peek(1, 2);
            },
            1);
        return result;
    };
    EXPECT_EQ(run(false), 8u);
    EXPECT_EQ(run(true), 10u);
}

TEST(Gpu, InjectionIntoUnusedRegisterIsMasked)
{
    auto run = [](bool inject) {
        Gpu gpu(smallGpu());
        std::uint32_t result = 0;
        if (inject) {
            RegInjection inj;
            inj.reg = 17; // never read
            inj.lane = 0;
            inj.bitMask = 0xFFFF;
            inj.triggerInstr = 0;
            gpu.armInjections({inj});
        }
        gpu.launch(
            [&](Wave &w) {
                w.movi(0, 4);
                w.addi(1, 0, 1);
                result = w.peek(1, 0);
            },
            1);
        return result;
    };
    EXPECT_EQ(run(true), run(false));
}

TEST(Gpu, FinishFlushesAndFreezesHorizon)
{
    Gpu gpu(smallGpu());
    Addr buf = gpu.alloc(64 * 4);
    gpu.launch(
        [&](Wave &w) {
            w.laneIdx(0);
            w.muli(1, 0, 4);
            w.addi(1, 1, static_cast<std::uint32_t>(buf));
            w.store(1, 0);
        },
        1);
    gpu.finish();
    EXPECT_GT(gpu.horizon(), 0u);
    EXPECT_EQ(gpu.l1(0).stats().writebacks, 4u); // 4 lines of 64B
}

TEST(Gpu, CountsWaveInstructionsNotLanes)
{
    Gpu gpu(smallGpu());
    Addr buf = gpu.alloc(64 * 4);
    gpu.launch(
        [&](Wave &w) {
            w.laneIdx(0);
            w.muli(1, 0, 4);
            w.addi(1, 1, static_cast<std::uint32_t>(buf));
            w.load(2, 1);
            w.store(1, 2);
        },
        2);
    gpu.finish();
    // 2 waves x 5 instructions, whatever the active lane count.
    EXPECT_EQ(gpu.instrCount(), 10u);
}

TEST(Gpu, OutOfRangeAddressTraps)
{
    Gpu gpu(smallGpu());
    gpu.setTracking(false);
    try {
        gpu.launch(
            [](Wave &w) {
                w.movi(0, 0xFFFFFFF0u); // far out of range
                w.load(1, 0);
            },
            1);
        FAIL() << "out-of-range load did not trap";
    } catch (const SimTrap &trap) {
        EXPECT_EQ(trap.code(), trapcode::memOob);
    }
}

TEST(Gpu, UnalignedAddressTraps)
{
    Gpu gpu(smallGpu());
    gpu.setTracking(false);
    try {
        gpu.launch(
            [](Wave &w) {
                w.movi(0, 2); // 4-byte access at a 2-byte offset
                w.store(0, 0);
            },
            1);
        FAIL() << "unaligned store did not trap";
    } catch (const SimTrap &trap) {
        EXPECT_EQ(trap.code(), trapcode::memAlign);
    }
}

TEST(Gpu, WatchdogInstructionBudgetTraps)
{
    Gpu gpu(smallGpu());
    gpu.setTracking(false);
    gpu.setWatchdog(4, 0);
    try {
        gpu.launch(
            [](Wave &w) {
                for (int i = 0; i < 100; ++i)
                    w.addi(0, 0, 1);
            },
            1);
        FAIL() << "instruction budget did not trap";
    } catch (const SimTrap &trap) {
        EXPECT_EQ(trap.code(), trapcode::watchdogInstrs);
        EXPECT_TRUE(isWatchdogTrapCode(trap.code()));
    }
}

TEST(Gpu, WatchdogCycleBudgetTraps)
{
    Gpu gpu(smallGpu());
    gpu.setTracking(false);
    gpu.setWatchdog(0, 2);
    try {
        gpu.launch(
            [](Wave &w) {
                for (int i = 0; i < 100; ++i)
                    w.addi(0, 0, 1);
            },
            1);
        FAIL() << "cycle budget did not trap";
    } catch (const SimTrap &trap) {
        EXPECT_EQ(trap.code(), trapcode::watchdogCycles);
    }
}

TEST(Gpu, WatchdogDisabledByDefault)
{
    Gpu gpu(smallGpu());
    gpu.setTracking(false);
    gpu.launch(
        [](Wave &w) {
            for (int i = 0; i < 100; ++i)
                w.addi(0, 0, 1);
        },
        1);
    gpu.finish();
    EXPECT_EQ(gpu.instrCount(), 100u);
}

} // namespace
} // namespace mbavf
