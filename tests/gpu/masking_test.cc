/**
 * @file
 * Value-aware logic-masking tests: the per-op relevance rules
 * (AND/OR by the other operand's bits, MUL by zero, select's
 * untaken operand) must show up in the VGPR lifetimes.
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

/** Runs a kernel, returns CU0 VGPR lifetimes. */
struct Harness
{
    Harness() : gpu(smallGpu()), probe(gpu.config().regs)
    {
        gpu.regFile(0).setListener(&probe);
        out = gpu.alloc(64 * 4);
    }

    void
    run(const std::function<void(Wave &)> &kernel)
    {
        gpu.launch(kernel, 1);
        gpu.finish();
        Liveness live(gpu.dataflow());
        store = probe.finalize(gpu.horizon(), live.relevances());
    }

    /** Emit value in @p reg to the output buffer. */
    void
    emit(Wave &w, unsigned reg, unsigned addr_tmp)
    {
        w.laneIdx(addr_tmp);
        w.muli(addr_tmp, addr_tmp, 4);
        w.addi(addr_tmp, addr_tmp, static_cast<std::uint32_t>(out));
        w.storeOut(addr_tmp, reg);
    }

    const WordLifetime *
    reg(unsigned r, unsigned lane = 0)
    {
        return store.find(gpu.config().regs.regId(0, r, lane), 0);
    }

    Gpu gpu;
    RegFileAvfProbe probe;
    Addr out = 0;
    LifetimeStore store{32, 1};
};

TEST(Masking, AndByRegisterMasksOtherOperand)
{
    Harness h;
    h.run([&](Wave &w) {
        w.movi(0, 0xFFFF); // the value under test
        w.movi(1, 0x00F0); // the mask operand
        w.and_(2, 0, 1);
        h.emit(w, 2, 5);
    });
    Cycle horizon = h.gpu.horizon();
    const WordLifetime *r0 = h.reg(0);
    ASSERT_NE(r0, nullptr);
    // Only bits 4-7 of r0 can affect the AND result.
    EXPECT_GT(r0->aceCycles(5, horizon), 0u);
    EXPECT_EQ(r0->aceCycles(0, horizon), 0u);
    EXPECT_EQ(r0->aceCycles(12, horizon), 0u);
    // Masked bits are still array reads (false-DUE candidates).
    EXPECT_GT(r0->readDeadCycles(0, horizon), 0u);
}

TEST(Masking, OrByOnesMasksOtherOperand)
{
    Harness h;
    h.run([&](Wave &w) {
        w.movi(0, 0x1234);
        w.movi(1, 0x00FF); // forces low byte to 1
        w.or_(2, 0, 1);
        h.emit(w, 2, 5);
    });
    Cycle horizon = h.gpu.horizon();
    const WordLifetime *r0 = h.reg(0);
    ASSERT_NE(r0, nullptr);
    // Low byte of r0 cannot matter; bit 8 can.
    EXPECT_EQ(r0->aceCycles(3, horizon), 0u);
    EXPECT_GT(r0->aceCycles(9, horizon), 0u);
}

TEST(Masking, MulByZeroKillsOperand)
{
    Harness h;
    h.run([&](Wave &w) {
        w.movi(0, 0x1234);
        w.movi(1, 0); // zero multiplier
        w.mul(2, 0, 1);
        h.emit(w, 2, 5);
    });
    Cycle horizon = h.gpu.horizon();
    const WordLifetime *r0 = h.reg(0);
    ASSERT_NE(r0, nullptr);
    for (unsigned b : {0u, 7u, 31u})
        EXPECT_EQ(r0->aceCycles(b, horizon), 0u) << b;
}

TEST(Masking, MulByNonzeroKeepsOperand)
{
    Harness h;
    h.run([&](Wave &w) {
        w.movi(0, 0x1234);
        w.movi(1, 3);
        w.mul(2, 0, 1);
        h.emit(w, 2, 5);
    });
    EXPECT_GT(h.reg(0)->aceCycles(0, h.gpu.horizon()), 0u);
}

TEST(Masking, SelectUntakenOperandIsDead)
{
    Harness h;
    h.run([&](Wave &w) {
        w.movi(0, 1);      // pred: always take a
        w.movi(1, 0xAAAA); // a (taken)
        w.movi(2, 0x5555); // b (untaken)
        w.select(3, 0, 1, 2);
        h.emit(w, 3, 5);
    });
    Cycle horizon = h.gpu.horizon();
    const WordLifetime *taken = h.reg(1);
    const WordLifetime *untaken = h.reg(2);
    ASSERT_NE(taken, nullptr);
    ASSERT_NE(untaken, nullptr);
    EXPECT_GT(taken->aceCycles(1, horizon), 0u);
    EXPECT_EQ(untaken->aceCycles(0, horizon), 0u);
    // The untaken operand is still read out of the register file.
    EXPECT_GT(untaken->readDeadCycles(0, horizon), 0u);
}

TEST(Masking, ShiftLimitsSurvivingBits)
{
    Harness h;
    h.run([&](Wave &w) {
        w.movi(0, 0xFFFFFFFF);
        w.shri(1, 0, 24); // only bits 24-31 survive
        h.emit(w, 1, 5);
    });
    Cycle horizon = h.gpu.horizon();
    const WordLifetime *r0 = h.reg(0);
    ASSERT_NE(r0, nullptr);
    EXPECT_EQ(r0->aceCycles(0, horizon), 0u);
    EXPECT_GT(r0->aceCycles(30, horizon), 0u);
}

TEST(Masking, TransitiveBitwiseChainComposesMasks)
{
    // r0 -AND 0xFF-> r1 -AND 0x0F-> r2 -> output: only bits 0-3 of
    // r0 matter (transitive per-bit masking through bitwise ops).
    Harness h;
    h.run([&](Wave &w) {
        w.movi(0, 0xFFFFFFFF);
        w.andi(1, 0, 0xFF);
        w.andi(2, 1, 0x0F);
        h.emit(w, 2, 5);
    });
    Cycle horizon = h.gpu.horizon();
    const WordLifetime *r0 = h.reg(0);
    ASSERT_NE(r0, nullptr);
    EXPECT_GT(r0->aceCycles(2, horizon), 0u);
    EXPECT_EQ(r0->aceCycles(6, horizon), 0u);
    EXPECT_EQ(r0->aceCycles(16, horizon), 0u);
}

TEST(Masking, InactiveLanesProduceNoEvents)
{
    Harness h;
    h.run([&](Wave &w) {
        w.laneIdx(0);
        w.cmpLtui(1, 0, 4); // only lanes 0-3 active
        w.pushExecNonzero(1);
        w.movi(2, 7);
        w.popExec();
    });
    // Lane 10's r2 was never written: absent from the store.
    EXPECT_EQ(h.reg(2, 10), nullptr);
    EXPECT_NE(h.reg(2, 2), nullptr);
}

} // namespace
} // namespace mbavf
