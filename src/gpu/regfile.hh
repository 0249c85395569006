/**
 * @file
 * Vector general-purpose register file (VGPR) of one compute unit.
 *
 * Stores tracked values per (wave slot, register, lane) and notifies
 * a listener of every read and write with cycle timestamps — the
 * event stream the VGPR ACE analysis is built from. Fault injection
 * flips bits directly in the backing store.
 */

#ifndef MBAVF_GPU_REGFILE_HH
#define MBAVF_GPU_REGFILE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/layout.hh"
#include "gpu/value.hh"

namespace mbavf
{

/** Observer of register-file events. */
class RegFileListener
{
  public:
    virtual ~RegFileListener() = default;

    /**
     * Full 32-bit write of @p container at cycle @p t. @p tag is the
     * static instruction performing the write (noInstrTag when the
     * producer is untracked).
     */
    virtual void onRegWrite(std::uint64_t container, Cycle t,
                            InstrTag tag) = 0;

    /**
     * Read of @p container at cycle @p t by definition @p def.
     * @p consume_mask holds the value bits the use can propagate;
     * @p exact selects bit-positional refinement by the consumer's
     * resolved relevance (see WordEvent::exact).
     */
    virtual void onRegRead(std::uint64_t container, Cycle t,
                           std::uint32_t consume_mask, DefId def,
                           bool exact) = 0;
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

    /** Write a register and notify the listener. */
    void
    set(unsigned slot, unsigned reg, unsigned lane, const Value &value,
        Cycle t, InstrTag tag = noInstrTag)
    {
        const std::uint64_t id = geom_.regId(slot, reg, lane);
        values_[id] = value;
        if (listener_)
            listener_->onRegWrite(id, t, tag);
    }

    /** Record a read (the caller fetched the value via get()). */
    void
    noteRead(unsigned slot, unsigned reg, unsigned lane, Cycle t,
             std::uint32_t consume_mask, DefId def, bool exact)
    {
        if (listener_) {
            listener_->onRegRead(geom_.regId(slot, reg, lane), t,
                                 consume_mask, def, exact);
        }
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
