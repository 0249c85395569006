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
#include "core/ser.hh"

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
 * Compute MB-AVFs for 1x1 through (max_mode)x1 faults.
 *
 * The sweep flattens @p store into a LifetimeArena and runs the
 * single-pass multi-mode kernel (computeMbAvfModes): one traversal
 * of the array emits every mode, bit-identical to max_mode
 * independent computeMbAvf() walks at any thread count.
 */
ModeSweep sweepModes(const PhysicalArray &array,
                     const LifetimeStore &store,
                     const ProtectionScheme &scheme,
                     const MbAvfOptions &opt,
                     unsigned max_mode = maxTabulatedMode);

/**
 * Sweep a pre-built arena — what runSweep() does with the pipeline's
 * one lifetime input, an arena mapped from disk (core/arena_io.hh)
 * or the run's store flattened once. Always runs the single-pass
 * multi-mode kernel; results are bit-identical to sweepModes() on
 * the store the arena was built from, at any thread count.
 */
ModeSweep sweepModesArena(const PhysicalArray &array,
                          const LifetimeArena &arena,
                          const ProtectionScheme &scheme,
                          const MbAvfOptions &opt,
                          unsigned max_mode = maxTabulatedMode);

/**
 * Fold a mode sweep with per-mode FIT rates into a structure SER
 * (Eq. 3). @p fits[m-1] is the raw rate of mode (m)x1; modes beyond
 * the sweep are ignored.
 */
StructureSer sweepSer(const ModeSweep &sweep,
                      std::span<const double> fits);

} // namespace mbavf

#endif // MBAVF_CORE_SWEEP_HH
