#include "gpu/wave.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <type_traits>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/trap.hh"
#include "gpu/gpu.hh"

namespace mbavf
{

namespace
{

constexpr std::uint32_t allBits = ~std::uint32_t(0);

// Relevance functors: the bits of one operand that can affect the
// result, given its own bits and the other operand's.

/** Every bit matters. */
constexpr auto relAll = [](std::uint32_t, std::uint32_t) {
    return allBits;
};

/** AND: a bit of one operand matters only where the other is 1. */
constexpr auto relAnd = [](std::uint32_t, std::uint32_t other) {
    return other;
};

/** OR: a bit of one operand matters only where the other is 0. */
constexpr auto relOr = [](std::uint32_t, std::uint32_t other) {
    return ~other;
};

/** MUL: if the other operand is zero, no bit matters. */
constexpr auto relMul = [](std::uint32_t, std::uint32_t other) {
    return other == 0 ? 0 : allBits;
};

} // namespace

Wave::Wave(Gpu &gpu, unsigned cu, unsigned slot, unsigned wave_id)
    : gpu_(gpu), rf_(gpu.regFile(cu)), cu_(cu), slot_(slot),
      waveId_(wave_id), time_(gpu.clock().now())
{
    execStack_.push_back(lowMask(gpu.config().wavefrontSize));
}

unsigned
Wave::laneCount() const
{
    return gpu_.config().wavefrontSize;
}

Cycle
Wave::laneTime(unsigned lane) const
{
    return time_ + lane / gpu_.config().quarterWave;
}

void
Wave::beginInstr()
{
    gpu_.preInstruction(time_);
    ++pc_;
    tag_ = currentTag();
    notify_ = rf_.hasListener();
}

InstrTag
Wave::currentTag() const
{
    // pc_ counts issued operations, so the op in flight is pc_ - 1;
    // identical kernels give every wave the same pc sequence, making
    // (kernel, pc) a *static* instruction identity.
    if (!gpu_.tagging())
        return noInstrTag;
    return makeInstrTag(gpu_.kernelId(), pc_ - 1);
}

Addr
Wave::dataAddr(std::uint64_t ea) const
{
    // Golden-run addresses are in range and 4-aligned by
    // construction (word-indexed buffers off 64-aligned
    // allocations), so these checks only ever fire when injected
    // faults corrupt an address register. They trap — the memory
    // protection of a real device — instead of silently wrapping,
    // so the campaign can classify the trial Crash.
    if ((ea & 3) != 0)
        simTrap(trapcode::memAlign, "unaligned 32-bit access at ", ea);
    if (ea + 4 > gpu_.config().memBytes)
        simTrap(trapcode::memOob, "wave access out of range: ", ea,
                " of ", gpu_.config().memBytes);
    return ea;
}

void
Wave::checkReg(unsigned reg) const
{
    if (reg >= gpu_.config().regs.numRegs)
        simTrap(trapcode::gpuBadReg, "register ", reg,
                " out of range (", gpu_.config().regs.numRegs, ")");
}

template <typename Body>
void
Wave::forActiveLanes(Body &&body)
{
    auto loop = [&](auto tracked) {
        for (std::uint64_t m = activeMask(); m != 0; m &= m - 1)
            body(tracked, static_cast<unsigned>(std::countr_zero(m)));
    };
    if (gpu_.tracking())
        loop(std::true_type{});
    else
        loop(std::false_type{});
}

DefBlock
Wave::openBlock() const
{
    return gpu_.tracking() ? gpu_.dataflow().nextBlock(activeMask())
                           : DefBlock{};
}

void
Wave::recordBlock(const DefBlock &block, std::span<const LaneSrc> srcs,
                  std::uint32_t output)
{
    gpu_.dataflow().record(block, tag_, srcs, output);
}

void
Wave::anchor(const LaneDefs &defs)
{
    // Anchors are untagged: they are uses, not instructions.
    const LaneSrc src{defs.data(), nullptr, allBits, false};
    DataflowLog &log = gpu_.dataflow();
    log.record(log.nextBlock(activeMask()), noInstrTag, {&src, 1},
               allBits);
}

RegAccess
Wave::regAccess(unsigned reg, std::uint64_t lanes) const
{
    return {slot_, reg, lanes, time_, gpu_.config().quarterWave};
}

void
Wave::noteRead(unsigned reg, std::uint64_t lanes, const DefBlock &consumer,
               std::uint32_t consume, const LaneMasks *lane_consume,
               bool exact)
{
    if (notify_ && lanes != 0) {
        rf_.noteRead({regAccess(reg, lanes), consumer, consume,
                      lane_consume ? lane_consume->data() : nullptr, exact});
    }
}

void
Wave::noteWrite(unsigned reg)
{
    if (notify_)
        rf_.noteWrite(regAccess(reg, activeMask()), tag_);
}

template <typename Fn, typename RelA, typename RelB>
void
Wave::binaryOp(unsigned dst, unsigned a, unsigned b, bool bitwise,
               Fn fn, RelA rel_a, RelB rel_b)
{
    checkReg(dst);
    checkReg(a);
    checkReg(b);
    beginInstr();
    const Value *as = rf_.lanes(slot_, a);
    const Value *bs = rf_.lanes(slot_, b);
    Value *out_lanes = rf_.lanes(slot_, dst);
    const DefBlock block = openBlock();
    DefId next = block.base;
    LaneDefs da, db;
    LaneMasks ra, rb;
    forActiveLanes([&](auto tracked, unsigned lane) {
        const Value va = as[lane];
        const Value vb = bs[lane];
        Value out{fn(va.bits, vb.bits), noDef};
        if constexpr (tracked) {
            da[lane] = va.def;
            db[lane] = vb.def;
            ra[lane] = rel_a(va.bits, vb.bits);
            rb[lane] = rel_b(vb.bits, va.bits);
            out.def = next++;
        }
        out_lanes[lane] = out;
    });
    if (block.exec) {
        const LaneSrc srcs[] = {{da.data(), ra.data(), 0, bitwise},
                                {db.data(), rb.data(), 0, bitwise}};
        recordBlock(block, srcs);
        // The register file reads both operands regardless of
        // relevance; zero-relevance reads are pure array reads.
        noteRead(a, block.exec, block, 0, &ra, bitwise);
        noteRead(b, block.exec, block, 0, &rb, bitwise);
        noteWrite(dst);
    }
    time_ += gpu_.config().aluCycles;
}

template <typename Fn>
void
Wave::immOp(unsigned dst, unsigned a, std::uint32_t imm, bool bitwise,
            Fn fn, std::uint32_t relevance)
{
    checkReg(dst);
    checkReg(a);
    beginInstr();
    const Value *as = rf_.lanes(slot_, a);
    Value *out_lanes = rf_.lanes(slot_, dst);
    const DefBlock block = openBlock();
    DefId next = block.base;
    LaneDefs da;
    forActiveLanes([&](auto tracked, unsigned lane) {
        const Value va = as[lane];
        Value out{fn(va.bits, imm), noDef};
        if constexpr (tracked) {
            da[lane] = va.def;
            out.def = next++;
        }
        out_lanes[lane] = out;
    });
    if (block.exec) {
        const LaneSrc src{da.data(), nullptr, relevance, bitwise};
        recordBlock(block, {&src, 1});
        noteRead(a, block.exec, block, relevance, nullptr, bitwise);
        noteWrite(dst);
    }
    time_ += gpu_.config().aluCycles;
}

template <typename Fn>
void
Wave::laneOp(unsigned dst, Fn value)
{
    checkReg(dst);
    beginInstr();
    Value *out_lanes = rf_.lanes(slot_, dst);
    const DefBlock block = openBlock();
    DefId next = block.base;
    forActiveLanes([&](auto tracked, unsigned lane) {
        Value out{value(lane), noDef};
        if constexpr (tracked)
            out.def = next++;
        out_lanes[lane] = out;
    });
    if (block.exec) {
        recordBlock(block, {});
        noteWrite(dst);
    }
    time_ += gpu_.config().aluCycles;
}

void
Wave::movi(unsigned dst, std::uint32_t imm)
{
    laneOp(dst, [imm](unsigned) { return imm; });
}

void
Wave::globalId(unsigned dst)
{
    const unsigned base = waveId_ * laneCount();
    laneOp(dst, [base](unsigned lane) { return base + lane; });
}

void
Wave::laneIdx(unsigned dst)
{
    laneOp(dst, [](unsigned lane) { return lane; });
}

void
Wave::mov(unsigned dst, unsigned src)
{
    immOp(dst, src, 0, true,
          [](std::uint32_t a, std::uint32_t) { return a; }, allBits);
}

void
Wave::add(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, false,
             [](std::uint32_t x, std::uint32_t y) { return x + y; },
             relAll, relAll);
}

void
Wave::sub(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, false,
             [](std::uint32_t x, std::uint32_t y) { return x - y; },
             relAll, relAll);
}

void
Wave::mul(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, false,
             [](std::uint32_t x, std::uint32_t y) { return x * y; },
             relMul, relMul);
}

void
Wave::mad(unsigned dst, unsigned a, unsigned b, unsigned c)
{
    checkReg(dst);
    checkReg(a);
    checkReg(b);
    checkReg(c);
    beginInstr();
    const Value *as = rf_.lanes(slot_, a);
    const Value *bs = rf_.lanes(slot_, b);
    const Value *cs = rf_.lanes(slot_, c);
    Value *out_lanes = rf_.lanes(slot_, dst);
    const DefBlock block = openBlock();
    DefId next = block.base;
    LaneDefs da, db, dc;
    LaneMasks ra, rb;
    forActiveLanes([&](auto tracked, unsigned lane) {
        const Value va = as[lane];
        const Value vb = bs[lane];
        const Value vc = cs[lane];
        Value out{va.bits * vb.bits + vc.bits, noDef};
        if constexpr (tracked) {
            da[lane] = va.def;
            db[lane] = vb.def;
            dc[lane] = vc.def;
            ra[lane] = relMul(va.bits, vb.bits);
            rb[lane] = relMul(vb.bits, va.bits);
            out.def = next++;
        }
        out_lanes[lane] = out;
    });
    if (block.exec) {
        const LaneSrc srcs[] = {{da.data(), ra.data(), 0, false},
                                {db.data(), rb.data(), 0, false},
                                {dc.data(), nullptr, allBits, false}};
        recordBlock(block, srcs);
        noteRead(a, block.exec, block, 0, &ra, false);
        noteRead(b, block.exec, block, 0, &rb, false);
        noteRead(c, block.exec, block, allBits, nullptr, false);
        noteWrite(dst);
    }
    time_ += gpu_.config().aluCycles;
}

void
Wave::addi(unsigned dst, unsigned a, std::uint32_t imm)
{
    immOp(dst, a, imm, false,
          [](std::uint32_t x, std::uint32_t y) { return x + y; },
          allBits);
}

void
Wave::subi(unsigned dst, unsigned a, std::uint32_t imm)
{
    immOp(dst, a, imm, false,
          [](std::uint32_t x, std::uint32_t y) { return x - y; },
          allBits);
}

void
Wave::muli(unsigned dst, unsigned a, std::uint32_t imm)
{
    immOp(dst, a, imm, false,
          [](std::uint32_t x, std::uint32_t y) { return x * y; },
          imm == 0 ? 0 : allBits);
}

void
Wave::mini(unsigned dst, unsigned a, std::uint32_t imm)
{
    immOp(dst, a, imm, false,
          [](std::uint32_t x, std::uint32_t y) {
              return x < y ? x : y;
          },
          allBits);
}

void
Wave::minu(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, false,
             [](std::uint32_t x, std::uint32_t y) {
                 return x < y ? x : y;
             },
             relAll, relAll);
}

void
Wave::maxu(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, false,
             [](std::uint32_t x, std::uint32_t y) {
                 return x > y ? x : y;
             },
             relAll, relAll);
}

void
Wave::divu(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, false,
             [](std::uint32_t x, std::uint32_t y) {
                 return y ? x / y : 0;
             },
             relAll, relAll);
}

void
Wave::and_(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, true,
             [](std::uint32_t x, std::uint32_t y) { return x & y; },
             relAnd, relAnd);
}

void
Wave::or_(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, true,
             [](std::uint32_t x, std::uint32_t y) { return x | y; },
             relOr, relOr);
}

void
Wave::xor_(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, true,
             [](std::uint32_t x, std::uint32_t y) { return x ^ y; },
             relAll, relAll);
}

void
Wave::andi(unsigned dst, unsigned a, std::uint32_t imm)
{
    immOp(dst, a, imm, true,
          [](std::uint32_t x, std::uint32_t y) { return x & y; }, imm);
}

void
Wave::ori(unsigned dst, unsigned a, std::uint32_t imm)
{
    immOp(dst, a, imm, true,
          [](std::uint32_t x, std::uint32_t y) { return x | y; }, ~imm);
}

void
Wave::xori(unsigned dst, unsigned a, std::uint32_t imm)
{
    immOp(dst, a, imm, true,
          [](std::uint32_t x, std::uint32_t y) { return x ^ y; },
          allBits);
}

void
Wave::shli(unsigned dst, unsigned a, unsigned amount)
{
    // Shifts move bits between positions, so positional relevance
    // composition does not apply; record the surviving range.
    immOp(dst, a, amount, false,
          [](std::uint32_t x, std::uint32_t y) { return x << y; },
          static_cast<std::uint32_t>(lowMask(32 - amount)));
}

void
Wave::shri(unsigned dst, unsigned a, unsigned amount)
{
    immOp(dst, a, amount, false,
          [](std::uint32_t x, std::uint32_t y) { return x >> y; },
          static_cast<std::uint32_t>(lowMask(32 - amount)) << amount);
}

void
Wave::cmpLtu(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, false,
             [](std::uint32_t x, std::uint32_t y) {
                 return std::uint32_t(x < y);
             },
             relAll, relAll);
}

void
Wave::cmpLtui(unsigned dst, unsigned a, std::uint32_t imm)
{
    immOp(dst, a, imm, false,
          [](std::uint32_t x, std::uint32_t y) {
              return std::uint32_t(x < y);
          },
          allBits);
}

void
Wave::cmpEq(unsigned dst, unsigned a, unsigned b)
{
    binaryOp(dst, a, b, false,
             [](std::uint32_t x, std::uint32_t y) {
                 return std::uint32_t(x == y);
             },
             relAll, relAll);
}

void
Wave::cmpEqi(unsigned dst, unsigned a, std::uint32_t imm)
{
    immOp(dst, a, imm, false,
          [](std::uint32_t x, std::uint32_t y) {
              return std::uint32_t(x == y);
          },
          allBits);
}

void
Wave::select(unsigned dst, unsigned pred, unsigned a, unsigned b)
{
    checkReg(dst);
    checkReg(pred);
    checkReg(a);
    checkReg(b);
    beginInstr();
    const Value *ps = rf_.lanes(slot_, pred);
    const Value *as = rf_.lanes(slot_, a);
    const Value *bs = rf_.lanes(slot_, b);
    Value *out_lanes = rf_.lanes(slot_, dst);
    const DefBlock block = openBlock();
    DefId next = block.base;
    LaneDefs dp, dt;
    std::uint64_t takes_a = 0;
    forActiveLanes([&](auto tracked, unsigned lane) {
        const Value vp = ps[lane];
        const bool taken_a = vp.bits != 0;
        const Value vt = taken_a ? as[lane] : bs[lane];
        Value out{vt.bits, noDef};
        if constexpr (tracked) {
            dp[lane] = vp.def;
            dt[lane] = vt.def;
            if (taken_a)
                takes_a |= std::uint64_t(1) << lane;
            out.def = next++;
        }
        out_lanes[lane] = out;
    });
    if (block.exec) {
        const LaneSrc srcs[] = {{dp.data(), nullptr, allBits, false},
                                {dt.data(), nullptr, allBits, false}};
        recordBlock(block, srcs);
        // Each lane consumes its taken operand; the untaken one is
        // still read out of the array (a pure read — logic masking).
        // Per register lane, the taken read comes first.
        const std::uint64_t takes_b = block.exec & ~takes_a;
        noteRead(pred, block.exec, block, allBits, nullptr, false);
        noteRead(a, takes_a, block, allBits, nullptr, false);
        noteRead(b, takes_b, block, allBits, nullptr, false);
        noteRead(b, takes_a, DefBlock{}, 0, nullptr, false);
        noteRead(a, takes_b, DefBlock{}, 0, nullptr, false);
        noteWrite(dst);
    }
    time_ += gpu_.config().aluCycles;
}

void
Wave::load(unsigned dst, unsigned addr, std::uint32_t offset)
{
    checkReg(dst);
    checkReg(addr);
    beginInstr();
    MainMemory &mem = gpu_.mem();
    Cache &l1 = gpu_.l1(cu_);
    MemRefIndex *refs = gpu_.refIndex();
    const Value *addrs = rf_.lanes(slot_, addr);
    Value *out_lanes = rf_.lanes(slot_, dst);
    Cycle done = time_ + gpu_.config().aluCycles;
    const DefBlock block = openBlock();
    DefId next = block.base;
    LaneDefs origins, da;

    forActiveLanes([&](auto tracked, unsigned lane) {
        const Value va = addrs[lane];
        const Addr ea = dataAddr(va.bits + offset);
        const Cycle t = laneTime(lane);

        Value out{mem.read32(ea), noDef};
        if constexpr (tracked) {
            origins[lane] = mem.origin(ea);
            da[lane] = va.def;
            out.def = next++;
            if (refs)
                refs->addLoad(ea, 4, t, out.def);
        }

        MemRequest req{ea, 4, MemCmd::Read, out.def};
        done = std::max(done, l1.access(req, t));
        out_lanes[lane] = out;
    });
    if (block.exec) {
        // Sources: the definition that stored each lane's (aligned)
        // word, bit-exact, and the address chain, live iff the load
        // itself is.
        const LaneSrc srcs[] = {{origins.data(), nullptr, allBits, true},
                                {da.data(), nullptr, allBits, false}};
        recordBlock(block, srcs);
        // Address consumption: dead iff the load itself is dead.
        noteRead(addr, block.exec, block, allBits, nullptr, false);
        noteWrite(dst);
    }
    time_ = done;
}

void
Wave::storeOp(unsigned addr, unsigned src, std::uint32_t offset,
              bool output)
{
    checkReg(addr);
    checkReg(src);
    beginInstr();
    MainMemory &mem = gpu_.mem();
    Cache &l1 = gpu_.l1(cu_);
    MemRefIndex *refs = gpu_.refIndex();
    const Value *addrs = rf_.lanes(slot_, addr);
    const Value *datas = rf_.lanes(slot_, src);
    Cycle done = time_ + gpu_.config().aluCycles;
    const DefBlock block = openBlock();
    DefId next = block.base;
    LaneDefs da, ds;

    forActiveLanes([&](auto tracked, unsigned lane) {
        const Value va = addrs[lane];
        const Value vs = datas[lane];
        const Addr ea = dataAddr(va.bits + offset);
        const Cycle t = laneTime(lane);

        MemRequest req{ea, 4, MemCmd::Write, noDef, tag_};
        done = std::max(done, l1.access(req, t));
        mem.write32(ea, vs.bits);
        if constexpr (tracked) {
            da[lane] = va.def;
            ds[lane] = vs.def;
            mem.setOrigin(ea, next++);
            if (refs)
                refs->addStore(ea, 4, t);
        }
    });
    if (block.exec) {
        const LaneSrc data{ds.data(), nullptr, allBits, true};
        recordBlock(block, {&data, 1}, output ? allBits : 0);
        // A corrupt store address clobbers arbitrary state: the
        // whole address chain is conservatively live.
        anchor(da);
        noteRead(addr, block.exec, DefBlock{}, allBits, nullptr, false);
        noteRead(src, block.exec, block, allBits, nullptr, true);
    }
    time_ = done;
}

void
Wave::store(unsigned addr, unsigned src, std::uint32_t offset)
{
    storeOp(addr, src, offset, false);
}

void
Wave::storeOut(unsigned addr, unsigned src, std::uint32_t offset)
{
    storeOp(addr, src, offset, true);
}

void
Wave::pushExec(unsigned cond, bool nonzero)
{
    checkReg(cond);
    beginInstr();
    const Value *conds = rf_.lanes(slot_, cond);
    std::uint64_t mask = 0;
    LaneDefs dc;
    forActiveLanes([&](auto tracked, unsigned lane) {
        const Value vc = conds[lane];
        if constexpr (tracked)
            dc[lane] = vc.def;
        if ((vc.bits != 0) == nonzero)
            mask |= std::uint64_t(1) << lane;
    });
    if (gpu_.tracking() && activeMask() != 0) {
        // Control consumption is conservatively always live: anchor
        // the condition's whole producing chain.
        anchor(dc);
        noteRead(cond, activeMask(), DefBlock{}, allBits, nullptr, false);
    }
    execStack_.push_back(mask);
    time_ += gpu_.config().aluCycles;
}

void
Wave::pushExecNonzero(unsigned cond)
{
    pushExec(cond, true);
}

void
Wave::pushExecZero(unsigned cond)
{
    pushExec(cond, false);
}

void
Wave::popExec()
{
    if (execStack_.size() <= 1)
        simTrap(trapcode::gpuDivStack,
                "popExec with empty divergence stack");
    execStack_.pop_back();
}

bool
Wave::anyActive() const
{
    return activeMask() != 0;
}

std::uint32_t
Wave::peek(unsigned reg, unsigned lane) const
{
    return rf_.get(slot_, reg, lane).bits;
}

} // namespace mbavf
