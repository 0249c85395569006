/**
 * @file
 * RegFileAvfProbe: event tracking + lifetime construction for the
 * VGPR. Each 32-bit register is one container and one word. During
 * simulation the probe appends the listener's calls — one per
 * instruction and register operand — to a single log. Finalization
 * expands each register's calls into per-lane WordEventLogs, in the
 * order the lanes saw them (reads in operand order, then the write),
 * and runs the backward builder on them.
 */

#ifndef MBAVF_GPU_REGFILE_PROBE_HH
#define MBAVF_GPU_REGFILE_PROBE_HH

#include <unordered_map>
#include <vector>

#include "core/lifetime.hh"
#include "core/lifetime_builder.hh"
#include "gpu/regfile.hh"

namespace mbavf
{

/** ACE event tracker for one compute unit's VGPR. */
class RegFileAvfProbe : public RegFileListener
{
  public:
    explicit RegFileAvfProbe(const RegFileGeometry &geom)
        : geom_(geom)
    {}

    void onRegWrite(const RegAccess &write, InstrTag tag) override;
    void onRegRead(const RegRead &read) override;

    /**
     * Analysis phase: build per-bit lifetimes over [0, horizon), one
     * register (all its lanes) per task on the shared pool. The
     * result does not depend on the pool width.
     */
    LifetimeStore finalize(Cycle horizon,
                           RelevanceTable relevance) const;

    const RegFileGeometry &geometry() const { return geom_; }

    /**
     * Expand the raw per-register event logs (container id ->
     * time-ordered events), leaving the probe empty. The
     * program-analysis passes read these directly to find
     * overwritten-before-read and uninitialized-read patterns.
     */
    std::unordered_map<std::uint64_t, WordEventLog> takeLogs();

  private:
    /** One listener call: an instruction's access to one register. */
    struct Call
    {
        Cycle time;
        std::uint64_t lanes;
        /** Reads: the consuming block (base noDef = none). */
        std::uint64_t consumerExec;
        DefId consumerBase;
        /** Reads: consume mask, or laneConsume_ offset (perLane). */
        std::uint32_t consume;
        InstrTag tag; ///< writes
        std::uint32_t reg; ///< slot * numRegs + reg
        std::uint8_t lanesPerCycle;
        WordEvent::Kind kind;
        bool exact;
        bool perLane;
    };

    /** Calls grouped by register, each group in call order. */
    struct ByRegister
    {
        std::vector<std::uint32_t> start; ///< numRegisters() + 1
        std::vector<std::uint32_t> calls;
        std::vector<std::uint64_t> lanes; ///< union of a group's lanes
    };

    std::uint32_t numRegisters() const
    {
        return geom_.numSlots * geom_.numRegs;
    }
    ByRegister byRegister() const;

    /** @p lane's events of register @p reg's calls, into @p log. */
    void expand(const ByRegister &regs, std::uint32_t reg, unsigned lane,
                WordEventLog &log) const;

    RegFileGeometry geom_;
    std::vector<Call> calls_;
    /** 64 masks per per-lane read, indexed by lane. */
    std::vector<std::uint32_t> laneConsume_;
};

} // namespace mbavf

#endif // MBAVF_GPU_REGFILE_PROBE_HH
