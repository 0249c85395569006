/**
 * @file
 * Vector general-purpose register file (VGPR) of one compute unit.
 *
 * Stores tracked values per (wave slot, register, lane) and notifies
 * a listener of every instruction's reads and writes with cycle
 * timestamps — the event stream the VGPR ACE analysis is built from.
 * Fault injection flips bits directly in the backing store.
 */

#ifndef MBAVF_GPU_REGFILE_HH
#define MBAVF_GPU_REGFILE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/layout.hh"
#include "gpu/value.hh"
#include "trace/dataflow.hh"

namespace mbavf
{

/**
 * One instruction's access to one register of a wave slot: the lanes
 * set in @c lanes, lane i at cycle time + i / lanesPerCycle (the
 * quarter-wave cadence).
 */
struct RegAccess
{
    unsigned slot = 0;
    unsigned reg = 0;
    std::uint64_t lanes = 0;
    Cycle time = 0;
    unsigned lanesPerCycle = 1;
};

/** One instruction's read of one register operand. */
struct RegRead
{
    RegAccess access;
    /**
     * Consuming definitions: lane i's is consumer.def(i). DefBlock{}
     * when nothing consumes the value (noDef: a pure array read or an
     * unconditionally live use).
     */
    DefBlock consumer;
    /** Value bits every lane's use can propagate. */
    std::uint32_t consume = 0;
    /** Per-lane consume masks indexed by lane; overrides consume. */
    const std::uint32_t *laneConsume = nullptr;
    /**
     * Bit-positional refinement by the consumer's resolved relevance
     * (see WordEvent::exact).
     */
    bool exact = false;

    std::uint32_t
    consumeOf(unsigned lane) const
    {
        return laneConsume ? laneConsume[lane] : consume;
    }
};

/**
 * Observer of register-file events, one call per instruction and
 * register operand. Lane i of a call is the event of container
 * regId(slot, reg, i).
 */
class RegFileListener
{
  public:
    virtual ~RegFileListener() = default;

    /**
     * Full 32-bit write of @p write's lanes. @p tag is the static
     * instruction performing the write.
     */
    virtual void onRegWrite(const RegAccess &write, InstrTag tag) = 0;

    /** Read of @p read's lanes; see RegRead. */
    virtual void onRegRead(const RegRead &read) = 0;
};

/** The VGPR of one compute unit. */
class VectorRegFile
{
  public:
    explicit VectorRegFile(const RegFileGeometry &geom);

    const RegFileGeometry &geometry() const { return geom_; }

    const Value &
    get(unsigned slot, unsigned reg, unsigned lane) const
    {
        return values_[geom_.regId(slot, reg, lane)];
    }

    /**
     * The lanes of one (slot, reg), contiguous as regId() lays them
     * out: lane i at index i. Accesses through it record no event.
     */
    Value *
    lanes(unsigned slot, unsigned reg)
    {
        return &values_[geom_.regId(slot, reg, 0)];
    }

    /** Notify the listener of one instruction's register write. */
    void
    noteWrite(const RegAccess &write, InstrTag tag)
    {
        if (listener_)
            listener_->onRegWrite(write, tag);
    }

    /** Notify the listener of one instruction's operand read. */
    void
    noteRead(const RegRead &read)
    {
        if (listener_)
            listener_->onRegRead(read);
    }

    /** Fault injection: flip @p mask bits; no event is recorded. */
    void flipBits(unsigned slot, unsigned reg, unsigned lane,
                  std::uint32_t mask);

    void setListener(RegFileListener *listener) { listener_ = listener; }
    bool hasListener() const { return listener_ != nullptr; }

  private:
    RegFileGeometry geom_;
    std::vector<Value> values_;
    RegFileListener *listener_ = nullptr;
};

} // namespace mbavf

#endif // MBAVF_GPU_REGFILE_HH
