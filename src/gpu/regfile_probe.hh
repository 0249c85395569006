/**
 * @file
 * RegFileAvfProbe: event tracking + lifetime construction for the
 * VGPR. Each 32-bit register is one container and one word, so the
 * probe simply accumulates a WordEventLog per register and runs the
 * backward builder at finalization.
 */

#ifndef MBAVF_GPU_REGFILE_PROBE_HH
#define MBAVF_GPU_REGFILE_PROBE_HH

#include <unordered_map>

#include "common/bits.hh"
#include "common/check.hh"
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

    void
    onRegWrite(std::uint64_t container, Cycle t, InstrTag tag) override
    {
        logs_[container].write(t, 0xFFFFFFFFull, tag);
    }

    void
    onRegRead(std::uint64_t container, Cycle t,
              std::uint32_t consume_mask, DefId def, bool exact) override
    {
        MBAVF_CHECK((consume_mask & ~lowMask(geom_.regBits)) == 0,
                    "consume mask wider than the ", geom_.regBits,
                    "-bit register");
        if (exact)
            logs_[container].readExact(t, consume_mask, def, 0);
        else
            logs_[container].read(t, consume_mask, def);
    }

    /**
     * Analysis phase: build per-bit lifetimes over [0, horizon), one
     * register per task on the shared pool. The result does not
     * depend on the pool width.
     */
    LifetimeStore finalize(Cycle horizon,
                           const LivenessResolver &live) const;

    const RegFileGeometry &geometry() const { return geom_; }

    /**
     * Move out the raw per-register event logs (container id ->
     * time-ordered events), leaving the probe empty. The
     * program-analysis passes read these directly to find
     * overwritten-before-read and uninitialized-read patterns.
     */
    std::unordered_map<std::uint64_t, WordEventLog>
    takeLogs()
    {
        return std::move(logs_);
    }

  private:
    RegFileGeometry geom_;
    std::unordered_map<std::uint64_t, WordEventLog> logs_;
};

} // namespace mbavf

#endif // MBAVF_GPU_REGFILE_PROBE_HH
