/**
 * @file
 * Convenience sweeps: evaluate a structure across the tabulated Mx1
 * fault modes and fold the results into soft error rates — the
 * common shape of every design-space query (paper Sections IV-E,
 * VIII).
 */

#ifndef MBAVF_CORE_SWEEP_HH
#define MBAVF_CORE_SWEEP_HH

#include <array>
#include <span>
#include <vector>

#include "core/fault_rates.hh"
#include "core/mbavf.hh"

namespace mbavf
{

/** MB-AVF results for modes 1x1 .. (max_mode)x1. */
struct ModeSweep
{
    /** results[m-1] = MB-AVF of mode (m)x1. */
    std::vector<MbAvfResult> results;

    const AvfFractions &
    avf(unsigned mode_bits) const
    {
        return results.at(mode_bits - 1).avf;
    }
};

/**
 * Compute MB-AVFs for 1x1 through (max_mode)x1 faults over an arena —
 * what runSweep() does with the pipeline's one lifetime input, an
 * arena mapped from disk (core/arena_io.hh) or the run's store
 * flattened once. One traversal of the array emits every mode
 * (computeMbAvfModes), bit-identical to max_mode independent
 * computeMbAvf() walks of the store at any thread count.
 */
ModeSweep sweepModesArena(const PhysicalArray &array,
                          const LifetimeArena &arena,
                          const ProtectionScheme &scheme,
                          const MbAvfOptions &opt,
                          unsigned max_mode = maxTabulatedMode);

/** Per-class SER totals for a structure (FIT). */
struct StructureSer
{
    double sdc = 0.0;
    double trueDue = 0.0;
    double falseDue = 0.0;

    double due() const { return trueDue + falseDue; }
    double total() const { return sdc + trueDue + falseDue; }
};

/**
 * Fold a mode sweep with per-mode FIT rates into a structure SER
 * (Eq. 3): the sum over modes of the mode's raw FIT rate times the
 * structure's MB-AVF for that mode. @p fits[m-1] is the raw rate of
 * mode (m)x1; modes beyond the sweep are ignored.
 */
StructureSer sweepSer(const ModeSweep &sweep,
                      std::span<const double> fits);

} // namespace mbavf

#endif // MBAVF_CORE_SWEEP_HH
