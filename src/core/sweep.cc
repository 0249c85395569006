#include "core/sweep.hh"

#include <algorithm>

#include "obs/phase.hh"

namespace mbavf
{

ModeSweep
sweepModesArena(const PhysicalArray &array, const LifetimeArena &arena,
                const ProtectionScheme &scheme, const MbAvfOptions &opt,
                unsigned max_mode)
{
    obs::ObsPhase obs_phase("avf.sweep");
    ModeSweep sweep;
    sweep.results =
        computeMbAvfModes(array, arena, scheme, opt, max_mode);
    return sweep;
}

StructureSer
sweepSer(const ModeSweep &sweep, std::span<const double> fits)
{
    StructureSer ser{};
    std::size_t n = std::min(sweep.results.size(), fits.size());
    for (std::size_t m = 0; m < n; ++m) {
        const AvfFractions &avf = sweep.results[m].avf;
        ser.sdc += fits[m] * avf.sdc;
        ser.trueDue += fits[m] * avf.trueDue;
        ser.falseDue += fits[m] * avf.falseDue;
    }
    return ser;
}

} // namespace mbavf
