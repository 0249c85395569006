/**
 * @file
 * Scoped phase timer over a process-wide phase table.
 *
 * ObsPhase accumulates its scope's wall time under a fixed name in
 * the phase table (total seconds + entry count), which manifests
 * export as the per-phase timing section, and emits a Chrome trace
 * slice (obs/trace.hh), so the same annotation feeds both the timing
 * summary and the trace timeline. Names must be string literals
 * (they are stored by pointer on the trace path).
 *
 * It is free when no sink is attached: the constructor is one
 * relaxed load and a branch when timingEnabled() and
 * tracingEnabled() are both false (the default), proved by
 * bench/micro_obs_overhead.
 *
 * The phase table itself is mutex-guarded — entries are recorded
 * once per phase scope, never per element of a hot loop. Seconds are
 * wall-clock and thus never part of the determinism contract; the
 * manifest diff treats them as perf data, not structure.
 */

#ifndef MBAVF_OBS_PHASE_HH
#define MBAVF_OBS_PHASE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hh"

namespace mbavf::obs
{

namespace detail
{
extern std::atomic<bool> timingEnabledFlag;
} // namespace detail

inline bool
timingEnabled()
{
    return detail::timingEnabledFlag.load(std::memory_order_relaxed);
}

void setTimingEnabled(bool enabled);

/** Accumulated wall time of one phase name. */
struct PhaseStat
{
    double seconds = 0.0;
    std::uint64_t count = 0;
};

/** Record @p seconds under @p name (ObsPhase does this for you). */
void recordPhase(const char *name, double seconds);

/** All phases recorded so far, sorted by name. */
std::vector<std::pair<std::string, PhaseStat>> phaseStats();

/** Clear the phase table (tests and tools between runs). */
void resetPhases();

/** Scoped timer: a phase-table entry plus a Chrome trace slice. */
class ObsPhase
{
  public:
    explicit ObsPhase(const char *name)
    {
        if (timingEnabled() || tracingEnabled()) {
            name_ = name;
            startUs_ = traceNowUs();
        }
    }

    ~ObsPhase()
    {
        if (!name_)
            return;
        double end_us = traceNowUs();
        if (timingEnabled())
            recordPhase(name_, (end_us - startUs_) * 1e-6);
        if (tracingEnabled())
            traceComplete(name_, startUs_, end_us - startUs_);
    }

    ObsPhase(const ObsPhase &) = delete;
    ObsPhase &operator=(const ObsPhase &) = delete;

  private:
    const char *name_ = nullptr;
    double startUs_ = 0.0;
};

} // namespace mbavf::obs

#endif // MBAVF_OBS_PHASE_HH
