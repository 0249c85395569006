/**
 * @file
 * Wavefront execution context and operation DSL.
 *
 * Kernels are C++ functions that receive a Wave and issue SIMT
 * operations on explicit vector registers (indices into the CU's
 * VGPR). Every operation executes functionally across the active
 * lanes, records the register/memory/dataflow events the ACE analysis
 * consumes, and advances the timing model (one wave instruction = 4
 * cycles, 16 lanes per cycle). Memory operations do not coalesce:
 * each active lane issues its own 4-byte request against the CU's
 * L1, in lane order, at its quarter-wave's cycle.
 *
 * Each operation is one loop over the set bits of the exec mask. The
 * tracked/untracked choice is made once per instruction, so with
 * tracking off (injection trials) a lane does only its functional
 * work, its address checks and its L1 access. A tracked lane only
 * gathers its source definitions (and value-dependent relevance)
 * into per-lane arrays; after the loop the instruction appends one
 * block to the dataflow trace and one register-file event per
 * operand, whatever its number of active lanes.
 *
 * Logic masking is value-aware where it is cheap and sound: AND/OR
 * record the other operand's current bits as the use's relevance,
 * shifts record the surviving bit range, and select() records only
 * the taken operand. Divergence uses an explicit structured exec-mask
 * stack (pushExecNonzero / pushExecZero / popExec), so injected
 * faults in condition registers genuinely change control flow.
 */

#ifndef MBAVF_GPU_WAVE_HH
#define MBAVF_GPU_WAVE_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "gpu/value.hh"
#include "trace/dataflow.hh"

namespace mbavf
{

class Gpu;
class VectorRegFile;
struct RegAccess;

/** One executing wavefront. */
class Wave
{
  public:
    /**
     * @param gpu     owning device
     * @param cu      compute unit index
     * @param slot    wave slot within the CU (VGPR window)
     * @param wave_id global wavefront index
     */
    Wave(Gpu &gpu, unsigned cu, unsigned slot, unsigned wave_id);

    unsigned laneCount() const;
    unsigned waveId() const { return waveId_; }
    unsigned cu() const { return cu_; }
    unsigned slot() const { return slot_; }

    /** Completion time of everything issued so far. */
    Cycle endTime() const { return time_; }

    /// @name Immediate / identity moves
    /// @{
    /** dst = imm in every active lane. */
    void movi(unsigned dst, std::uint32_t imm);
    /** dst = global work-item id (waveId * laneCount + lane). */
    void globalId(unsigned dst);
    /** dst = lane index within the wavefront. */
    void laneIdx(unsigned dst);
    /** dst = src. */
    void mov(unsigned dst, unsigned src);
    /// @}

    /// @name Integer arithmetic (two-register and immediate forms)
    /// @{
    void add(unsigned dst, unsigned a, unsigned b);
    void sub(unsigned dst, unsigned a, unsigned b);
    void mul(unsigned dst, unsigned a, unsigned b);
    /** dst = a * b + c (multiply-accumulate). */
    void mad(unsigned dst, unsigned a, unsigned b, unsigned c);
    void addi(unsigned dst, unsigned a, std::uint32_t imm);
    void subi(unsigned dst, unsigned a, std::uint32_t imm);
    void muli(unsigned dst, unsigned a, std::uint32_t imm);
    void mini(unsigned dst, unsigned a, std::uint32_t imm);
    void minu(unsigned dst, unsigned a, unsigned b);
    void maxu(unsigned dst, unsigned a, unsigned b);
    /** dst = b ? a / b : 0 (unsigned). */
    void divu(unsigned dst, unsigned a, unsigned b);
    /// @}

    /// @name Bitwise logic and shifts
    /// @{
    void and_(unsigned dst, unsigned a, unsigned b);
    void or_(unsigned dst, unsigned a, unsigned b);
    void xor_(unsigned dst, unsigned a, unsigned b);
    void andi(unsigned dst, unsigned a, std::uint32_t imm);
    void ori(unsigned dst, unsigned a, std::uint32_t imm);
    void xori(unsigned dst, unsigned a, std::uint32_t imm);
    void shli(unsigned dst, unsigned a, unsigned amount);
    void shri(unsigned dst, unsigned a, unsigned amount);
    /// @}

    /// @name Comparisons and selection
    /// @{
    /** dst = (a < b) ? 1 : 0, unsigned compare. */
    void cmpLtu(unsigned dst, unsigned a, unsigned b);
    void cmpLtui(unsigned dst, unsigned a, std::uint32_t imm);
    void cmpEq(unsigned dst, unsigned a, unsigned b);
    void cmpEqi(unsigned dst, unsigned a, std::uint32_t imm);
    /** dst = pred != 0 ? a : b; only the taken operand is consumed. */
    void select(unsigned dst, unsigned pred, unsigned a, unsigned b);
    /// @}

    /// @name Memory (4-byte, addresses in registers)
    /// @{
    /** dst = mem[a + offset] per lane (gather). */
    void load(unsigned dst, unsigned addr, std::uint32_t offset = 0);
    /** mem[a + offset] = src per lane (scatter). */
    void store(unsigned addr, unsigned src, std::uint32_t offset = 0);
    /**
     * Store that is program output: the stored value is marked as
     * reaching output in the dataflow trace.
     */
    void storeOut(unsigned addr, unsigned src, std::uint32_t offset = 0);
    /// @}

    /// @name Structured divergence
    /// @{
    /** Push exec &= (cond != 0). */
    void pushExecNonzero(unsigned cond);
    /** Push exec &= (cond == 0). */
    void pushExecZero(unsigned cond);
    void popExec();
    /** True when any lane is active. */
    bool anyActive() const;
    /// @}

    /// @name Host-visible helpers (no events, for kernel control)
    /// @{
    /** Raw bits of a register in one lane (no read event). */
    std::uint32_t peek(unsigned reg, unsigned lane) const;
    /// @}

  private:
    /** Per-lane arrays of one tracked instruction, indexed by lane. */
    using LaneDefs = std::array<DefId, 64>;
    using LaneMasks = std::array<std::uint32_t, 64>;

    std::uint64_t activeMask() const { return execStack_.back(); }
    Cycle laneTime(unsigned lane) const;

    /**
     * Charge one ALU instruction, bump the instruction counter, and
     * fix what every lane of the instruction shares: its tag and
     * whether the register file has a listener.
     */
    void beginInstr();

    /**
     * Attribution tag of the instruction currently executing: the
     * launch's kernel id paired with the wave-local program counter
     * (operation issue index, identical across the waves of one
     * launch). noInstrTag when tagging is disabled on the device.
     */
    InstrTag currentTag() const;

    /**
     * Generic two-register ALU op: dst = fn(a, b); rel_a(a, b) and
     * rel_b(b, a) give each operand's relevance.
     */
    template <typename Fn, typename RelA, typename RelB>
    void binaryOp(unsigned dst, unsigned a, unsigned b, bool bitwise,
                  Fn fn, RelA rel_a, RelB rel_b);

    /** Generic register-immediate ALU op: dst = fn(a, imm). */
    template <typename Fn>
    void immOp(unsigned dst, unsigned a, std::uint32_t imm,
               bool bitwise, Fn fn, std::uint32_t relevance);

    /** Op with no register source: dst = value(lane). */
    template <typename Fn>
    void laneOp(unsigned dst, Fn value);

    /**
     * Call @p body(tracked, lane) for every active lane, in ascending
     * lane order. The tracked/untracked split is taken here, once per
     * instruction: @p tracked is std::true_type or std::false_type,
     * so `if constexpr (tracked)` compiles a body's recording work
     * out of the untracked loop.
     */
    template <typename Body>
    void forActiveLanes(Body &&body);

    /** store() and storeOut(); @p output marks the stored value. */
    void storeOp(unsigned addr, unsigned src, std::uint32_t offset,
                 bool output);

    /** Push exec &= ((cond != 0) == @p nonzero). */
    void pushExec(unsigned cond, bool nonzero);

    /**
     * Check an effective address: trap trap.mem.align when it is not
     * word aligned and trap.mem.oob when it runs past simulated
     * memory. Golden addresses always pass; the traps keep
     * fault-injection runs with corrupted address registers
     * deterministic instead of out-of-bounds.
     */
    Addr dataAddr(std::uint64_t ea) const;

    /**
     * The block this instruction's active lanes define, or DefBlock{}
     * (no lanes) when tracking is off.
     */
    DefBlock openBlock() const;

    /** Record @p block, tagged with the current instruction. */
    void recordBlock(const DefBlock &block, std::span<const LaneSrc> srcs,
                     std::uint32_t output = 0);

    /**
     * Anchor the whole producing chain of every active lane's
     * @p defs as live (an output).
     */
    void anchor(const LaneDefs &defs);

    /** This instruction's access to @p reg over @p lanes. */
    RegAccess regAccess(unsigned reg, std::uint64_t lanes) const;

    /**
     * Report one operand read to the register file's listener, if
     * any: @p lanes of @p reg, consumed by @p consumer with the
     * consume mask @p consume, or @p lane_consume per lane.
     */
    void noteRead(unsigned reg, std::uint64_t lanes,
                  const DefBlock &consumer, std::uint32_t consume,
                  const LaneMasks *lane_consume, bool exact);

    /** Report the active lanes' write of @p reg to the listener. */
    void noteWrite(unsigned reg);

    void checkReg(unsigned reg) const;

    Gpu &gpu_;
    VectorRegFile &rf_; ///< the CU's register file
    unsigned cu_;
    unsigned slot_;
    unsigned waveId_;
    std::vector<std::uint64_t> execStack_;
    Cycle time_; ///< wave-local time on the shared clock
    unsigned pc_ = 0; ///< wave-local operation issue index
    InstrTag tag_ = noInstrTag; ///< currentTag(), fixed by beginInstr()
    bool notify_ = false; ///< rf_ has a listener, fixed by beginInstr()
};

} // namespace mbavf

#endif // MBAVF_GPU_WAVE_HH
