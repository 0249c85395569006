/**
 * @file
 * The APU/GPU device model: compute units with private L1 caches and
 * vector register files, a shared L2, DRAM, and a kernel launcher.
 *
 * This is the paper's gem5-APU stand-in (Section VI-A): 4 compute
 * units, 16 KB L1 per CU, a 256 KB shared L2, 64-byte lines,
 * wavefronts of 64 lanes executed 16 lanes per cycle. Kernels are C++
 * functions driving the Wave operation DSL (wave.hh); execution is
 * functional (real values and control flow) with an in-order timing
 * model, which is what the ACE analysis needs: event order and
 * residency, not deep pipeline behavior. Wavefronts execute
 * sequentially on the shared clock (see DESIGN.md).
 */

#ifndef MBAVF_GPU_GPU_HH
#define MBAVF_GPU_GPU_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "core/layout.hh"
#include "gpu/regfile.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "mem/ref_index.hh"
#include "sim/clock.hh"
#include "trace/dataflow.hh"

namespace mbavf
{

class Wave;

/** Device configuration. */
struct GpuConfig
{
    unsigned numCus = 4;
    unsigned wavefrontSize = 64;
    unsigned quarterWave = 16;
    RegFileGeometry regs{32, 64, 4, 32};
    CacheParams l1{"l1", 64, 4, 64, 4};    ///< 16 KB per CU
    CacheParams l2{"l2", 1024, 4, 64, 20}; ///< 256 KB shared
    Cycle dramLatency = 200;
    std::uint64_t memBytes = std::uint64_t(4) << 20;
    /** ALU cycles per wave instruction (wavefrontSize/quarterWave). */
    Cycle aluCycles = 4;
};

/** One planned register-file bit flip (fault injection). */
struct RegInjection
{
    unsigned cu = 0;
    unsigned slot = 0;
    unsigned reg = 0;
    unsigned lane = 0;
    std::uint32_t bitMask = 0;
    /** Flip fires just before dynamic instruction this many. */
    std::uint64_t triggerInstr = 0;
    bool fired = false;
};

/**
 * One planned memory bit flip (fault injection into DRAM or, since
 * data contents live in flat memory, into whatever cached copy the
 * program observes next).
 */
struct MemInjection
{
    Addr addr = 0;
    std::uint8_t bitMask = 0;
    /** Flip fires just before dynamic instruction this many. */
    std::uint64_t triggerInstr = 0;
    bool fired = false;
};

/** The device. */
class Gpu
{
  public:
    explicit Gpu(const GpuConfig &config);
    ~Gpu();

    const GpuConfig &config() const { return config_; }

    MainMemory &mem() { return *mem_; }
    DataflowLog &dataflow() { return dataflow_; }

    /**
     * Attach the program-order reference index that every tracked
     * load and store (and, at finish(), every output range) is
     * recorded into; only the cache ACE probes read it. Null, the
     * default, records nothing. Not owned.
     */
    void setRefIndex(MemRefIndex *index) { refIndex_ = index; }
    MemRefIndex *refIndex() { return refIndex_; }
    Clock &clock() { return clock_; }

    Cache &l1(unsigned cu) { return *l1s_[cu]; }
    Cache &l2() { return *l2_; }
    VectorRegFile &regFile(unsigned cu) { return *regFiles_[cu]; }

    /**
     * Dataflow/reference tracking toggle. Injection campaigns turn it
     * off: outcomes come from output comparison, not ACE analysis.
     */
    void setTracking(bool on) { tracking_ = on; }
    bool tracking() const { return tracking_; }

    /**
     * Attribution-tag toggle: when on (the default), every register
     * and memory write carries the static instruction identity
     * (kernel launch id, wave-local pc) that produced its data, and
     * the ACE lifetimes it feeds become attributable per instruction.
     * Turning it off makes all writes carry noInstrTag; lifetimes and
     * MB-AVF totals are unaffected.
     */
    void setTagging(bool on) { tagging_ = on; }
    bool tagging() const { return tagging_; }

    /**
     * Id of the kernel launch currently executing (0-based, bumped
     * per launch()); pairs with a wave-local pc to form an InstrTag.
     */
    unsigned kernelId() const { return kernelId_; }

    /**
     * Launch @p num_waves wavefronts of @p kernel. Waves are assigned
     * to CUs round-robin and to wave slots round-robin within a CU;
     * wave w covers global work-items [w*64, (w+1)*64).
     */
    void launch(const std::function<void(Wave &)> &kernel,
                unsigned num_waves);

    /**
     * End of the workload: flush all caches (kernel-completion
     * flush), register output ranges as final live consumers, and
     * freeze the horizon.
     */
    void finish();

    /** Measurement horizon; valid after finish(). */
    Cycle horizon() const { return horizon_; }

    /** Declare [addr, addr+bytes) as program output. */
    void addOutputRange(Addr addr, std::uint64_t bytes);

    /** Dynamic wave-instruction counter. */
    std::uint64_t instrCount() const { return instrCount_; }

    /**
     * Number of CUs that actually received at least one wave. With
     * round-robin assignment these are CUs [0, cusWithWaves()); a
     * short launch leaves the tail of the device idle.
     */
    unsigned cusWithWaves() const;

    /**
     * Record the wave-local cycle at which each listed dynamic
     * instruction index begins, exactly where an armed injection with
     * that triggerInstr would fire. @p instr_indices must be sorted
     * ascending (duplicates allowed). Because waves execute
     * sequentially on the shared clock, the recorded cycles are
     * monotone, which is what lets the stratifier map instruction
     * windows onto cycle windows soundly (inject/stratified.hh).
     * Indices never reached (at or beyond the run's instruction
     * count) record no cycle; sampledCycles() is then shorter than
     * the request and the caller pads with the horizon.
     */
    void sampleCyclesAt(std::vector<std::uint64_t> instr_indices);

    /** Cycles recorded for sampleCyclesAt(), in request order. */
    const std::vector<Cycle> &sampledCycles() const
    {
        return sampledCycles_;
    }

    /** Arm one or more register bit flips. */
    void armInjections(std::vector<RegInjection> injections);

    /** Arm one or more memory bit flips. */
    void armMemInjections(std::vector<MemInjection> injections);

    /**
     * Arm the execution watchdog: raise trap.watchdog.instrs once
     * more than @p max_instrs dynamic instructions execute, and
     * trap.watchdog.cycles once the shared clock passes
     * @p max_cycles. Either budget may be 0 (disabled). Injection
     * campaigns derive the budgets from the golden run so corrupted
     * control flow that spins forever classifies Hang instead of
     * wedging a pool thread.
     */
    void
    setWatchdog(std::uint64_t max_instrs, Cycle max_cycles)
    {
        watchdogInstrs_ = max_instrs;
        watchdogCycles_ = max_cycles;
    }

    /** Host-side convenience buffer allocation. */
    Addr alloc(std::uint64_t bytes) { return mem_->alloc(bytes); }

  private:
    friend class Wave;

    /** Called by Wave before each instruction. @p wave_now is the
     *  wave-local time, which runs ahead of the shared clock. */
    void preInstruction(Cycle wave_now);

    struct OutputRange
    {
        Addr addr;
        std::uint64_t bytes;
    };

    GpuConfig config_;
    Clock clock_;
    std::unique_ptr<MainMemory> mem_;
    std::unique_ptr<Dram> dram_;
    std::unique_ptr<Cache> l2_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::vector<std::unique_ptr<VectorRegFile>> regFiles_;
    MemRefIndex *refIndex_ = nullptr;
    DataflowLog dataflow_;
    bool tracking_ = true;
    bool tagging_ = true;
    unsigned kernelId_ = 0;
    bool launchedOnce_ = false;
    std::uint64_t instrCount_ = 0;
    std::uint64_t watchdogInstrs_ = 0;
    Cycle watchdogCycles_ = 0;
    std::vector<RegInjection> injections_;
    std::vector<MemInjection> memInjections_;
    std::vector<std::uint64_t> samplePoints_; ///< sorted ascending
    std::vector<Cycle> sampledCycles_;
    std::size_t nextSample_ = 0;
    std::vector<OutputRange> outputRanges_;
    std::vector<unsigned> cuWaveCount_; ///< waves launched per CU
    Cycle horizon_ = 0;
    bool finished_ = false;
};

} // namespace mbavf

#endif // MBAVF_GPU_GPU_HH
