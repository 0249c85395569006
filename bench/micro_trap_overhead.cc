/**
 * @file
 * google-benchmark microbenchmarks pinning the cost of the fault
 * containment layer on the simulation hot path. The contract in
 * DESIGN.md section 10 is that containment is effectively free for
 * clean trials: the watchdog adds two predictable compares per
 * instruction, and the SimTrap machinery costs nothing until a trap
 * is actually raised. These benchmarks keep that claim honest:
 *
 *  - BM_TrialWatchdogOff / BM_TrialWatchdogOn run the same clean
 *    trial with the budgets disabled and armed; the delta is the
 *    per-trial watchdog overhead.
 *  - BM_TrialCrashing runs a trial whose injected flip drives an
 *    address out of range, bounding the cold-path cost of raising,
 *    unwinding, and classifying a SimTrap.
 */

#include <benchmark/benchmark.h>

#include "common/trap.hh"
#include "inject/campaign.hh"

namespace mbavf
{
namespace
{

Campaign &
campaign()
{
    static Campaign c("histogram", 1, GpuConfig{});
    return c;
}

void
BM_TrialWatchdogOff(benchmark::State &state)
{
    Campaign &c = campaign();
    c.setWatchdogBudgets(0, 0);
    for (auto _ : state) {
        TrialResult r = c.runOne(TrialSpec{});
        benchmark::DoNotOptimize(r.outcome);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(c.goldenInstrs()));
}
BENCHMARK(BM_TrialWatchdogOff);

void
BM_TrialWatchdogOn(benchmark::State &state)
{
    Campaign &c = campaign();
    c.setWatchdogMultiplier(8.0);
    for (auto _ : state) {
        TrialResult r = c.runOne(TrialSpec{});
        benchmark::DoNotOptimize(r.outcome);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(c.goldenInstrs()));
}
BENCHMARK(BM_TrialWatchdogOn);

void
BM_TrialCrashing(benchmark::State &state)
{
    Campaign &c = campaign();
    c.setWatchdogMultiplier(8.0);
    // Flip the sign bit of the histogram kernel's address register
    // just before the load that reads it (dynamic instruction 5; an
    // earlier flip is overwritten before any use): the trial traps
    // trap.mem.oob almost immediately, so this measures the
    // raise/unwind/classify path.
    RegInjection flip;
    flip.cu = 0;
    flip.slot = 0;
    flip.reg = 5;
    flip.lane = 0;
    flip.bitMask = 0x80000000u;
    flip.triggerInstr = 5;
    TrialSpec spec;
    spec.regFlips.push_back(flip);
    const TrialResult first = c.runOne(spec);
    if (first.outcome != InjectOutcome::Crash ||
        first.code != trapcode::memOob) {
        state.SkipWithError("the flip no longer crashes with "
                            "trap.mem.oob");
        return;
    }
    for (auto _ : state) {
        TrialResult r = c.runOne(spec);
        benchmark::DoNotOptimize(r.outcome);
    }
}
BENCHMARK(BM_TrialCrashing);

} // namespace
} // namespace mbavf

BENCHMARK_MAIN();
