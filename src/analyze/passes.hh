/**
 * @file
 * Dataflow static-analysis passes over one instrumented run.
 *
 * Where mbavf_lint validates the *artifacts* the AVF math consumes
 * (lifetimes, event streams, geometry), these passes judge the
 * *program* and the *protection configuration*: wasted or suspicious
 * dataflow the measured workload exhibits, and coverage gaps a
 * protection layout leaves open. All findings report through the
 * same CheckReport machinery with stable dotted codes.
 *
 * Program-flow passes (lintDataflow / lintRegisterEvents), with
 * per-static-instruction aggregation — one dynamic instance of a
 * pattern is normal program behavior (loop-exit values, logic
 * masking), so an instruction is flagged only when *every* dynamic
 * instance it produced exhibits the defect:
 *
 * - flow.dead-def       every value this instruction produced is
 *                       never consumed and never marked as output
 * - flow.masked-output  every value is consumed, yet logic masking
 *                       gives all of them zero output relevance
 * - flow.overwrite      every register write this instruction made
 *                       was fully overwritten before any read
 * - flow.uninit-read    an instruction consumed a register before
 *                       its first tracked write (per-instance: one
 *                       uninitialized read is already a defect)
 *
 * Protection-coverage passes (lintDomainCoverage), skipped entirely
 * under a scheme that never detects anything (no protection claim,
 * no gap to find):
 *
 * - domain.uncovered          a bit with ACE time sits outside every
 *                             protection domain of a protective
 *                             scheme
 * - domain.mode-undetectable  a contiguous multi-bit fault mode
 *                             within the covered size budget lands
 *                             enough flips inside one domain that
 *                             the scheme misses them (geometry-only:
 *                             derived from the layout, independent
 *                             of the workload)
 */

#ifndef MBAVF_ANALYZE_PASSES_HH
#define MBAVF_ANALYZE_PASSES_HH

#include <cstdint>
#include <string>
#include <unordered_map>

#include "check/report.hh"
#include "common/types.hh"
#include "core/layout.hh"
#include "core/lifetime.hh"
#include "core/lifetime_arena.hh"
#include "core/lifetime_builder.hh"
#include "core/protection.hh"
#include "trace/dataflow.hh"

namespace mbavf::analyze
{

/** Display form of a static instruction: "kernel K pc P". */
std::string tagWhere(InstrTag tag);

/** flow.dead-def and flow.masked-output over the dataflow trace. */
void lintDataflow(const DataflowLog &log, const Liveness &liveness,
                  CheckReport &report);

/**
 * flow.overwrite and flow.uninit-read over raw per-register event
 * logs (RegFileAvfProbe::takeLogs()). @p dataflow resolves reading
 * definitions to their instruction for uninit-read attribution.
 */
void lintRegisterEvents(
    const std::unordered_map<std::uint64_t, WordEventLog> &logs,
    const DataflowLog &dataflow, CheckReport &report);

/** Options for the protection-coverage passes. */
struct DomainLintOptions
{
    /**
     * Contiguous-wordline fault modes 2x1 .. coverModes x1 are
     * checked for domain.mode-undetectable.
     */
    unsigned coverModes = 4;
};

/**
 * domain.uncovered and domain.mode-undetectable over @p array, with
 * the ACE time of each bit read from @p arena.
 */
void lintDomainCoverage(const PhysicalArray &array,
                        const LifetimeArena &arena,
                        const ProtectionScheme &scheme,
                        const DomainLintOptions &opt,
                        CheckReport &report);

/**
 * lintDomainCoverage() on a snapshot of @p store. Kept only for the
 * perfbench harness (perfbench/harness/trace_harness.cc), which
 * calls it by name, until the benchmark runs the pipeline.
 */
void lintDomainCoverage(const PhysicalArray &array,
                        const LifetimeStore &store,
                        const ProtectionScheme &scheme,
                        const DomainLintOptions &opt,
                        CheckReport &report);

} // namespace mbavf::analyze

#endif // MBAVF_ANALYZE_PASSES_HH
