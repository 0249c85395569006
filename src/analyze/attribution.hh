/**
 * @file
 * Per-instruction MB-AVF attribution with an exact conservation
 * invariant.
 *
 * computeMbAvf() answers "how vulnerable is this structure"; the
 * attribution engine answers "which instruction's data is at risk".
 * attributeMbAvf() runs the bit-sliced sweep kernel with its per-tag
 * sink (computeMbAvfModes with charges): every cycle of every group
 * whose outcome is not unACE is charged — whole — to exactly one
 * member bit's defining instruction, the InstrTag carried on the
 * member's active LifeSegment. Charging is a partition of the
 * group-cycle integral, so per-tag integer sums add up to the MB-AVF
 * raw totals *exactly*, per outcome class.
 *
 * The same kernel call also returns the mode's MB-AVF. The kernel
 * counts those class totals by popcount, and finds the charges by a
 * separate first-member scan, so mbavf_analyze's checkConservation()
 * of the per-tag sums against them catches a dropped or doubled
 * charge without a second sweep. A fault in the class masks both
 * share would pass that check; the tests catch it instead, against a
 * brute-force per-tag oracle and against computeMbAvf(), the
 * independent per-group reference engine.
 *
 * The charge rule is deterministic and causal: the charged member is
 * the first member in column order that exhibits the group's
 * outcome class —
 *
 * - SDC: first ACE-live member bit in an unprotected (Undetected)
 *   region;
 * - true DUE: first ACE-live member bit in a Detected region (the
 *   member whose live data the detection saves, also under
 *   due-shields-SDC);
 * - false DUE: first read-shadowed member bit in a Detected region
 *   (the dead-but-read data whose flip would still trip detection).
 *
 * The kernel sweeps anchor-row bands of thread-count-independent
 * granularity whose per-tag partial sums are plain integer
 * additions, so results are bit-identical at any --threads.
 */

#ifndef MBAVF_ANALYZE_ATTRIBUTION_HH
#define MBAVF_ANALYZE_ATTRIBUTION_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/fault_mode.hh"
#include "core/layout.hh"
#include "core/lifetime.hh"
#include "core/lifetime_arena.hh"
#include "core/mbavf.hh"
#include "core/protection.hh"

namespace mbavf::analyze
{

/** Outcome-class indices of the cycles arrays (OutcomeAccumulator). */
inline constexpr unsigned attrSdc = 0;
inline constexpr unsigned attrTrueDue = 1;
inline constexpr unsigned attrFalseDue = 2;

/** Integer MB-AVF contribution charged to one static instruction. */
struct TagContribution
{
    /** Charged instruction; noInstrTag = untracked data (fills,
     *  pre-first-write garbage). */
    InstrTag tag = noInstrTag;

    /** Group-cycles per outcome class {SDC, trueDUE, falseDUE}. */
    std::array<Cycle, 3> cycles = {0, 0, 0};

    Cycle total() const { return cycles[0] + cycles[1] + cycles[2]; }
};

/** Result of one attribution sweep. */
struct AttributionResult
{
    /**
     * Per-tag contributions in ascending tag order (noInstrTag, the
     * largest encoding, sorts last). Tags with no contribution are
     * absent.
     */
    std::vector<TagContribution> perTag;

    /** Column sums over perTag — equal to MbAvfResult::cycles. */
    std::array<Cycle, 3> cycles = {0, 0, 0};

    std::uint64_t numGroups = 0;
    Cycle horizon = 0;

    /**
     * The mode's MB-AVF from the same kernel call, over the whole run
     * (no windows): class totals counted apart from the charges.
     */
    MbAvfResult mbavf;

    /** Fraction of the total AVF charged to @p c (0 when AVF is 0). */
    double share(const TagContribution &c) const;
};

/**
 * Attribute the MB-AVF of @p mode on @p array under @p scheme to the
 * defining instructions recorded in @p arena's segment tags. @p mode
 * must be Mx1 (fatal otherwise). Windowing options are ignored;
 * threading options behave exactly as in computeMbAvf().
 */
AttributionResult attributeMbAvf(const PhysicalArray &array,
                                 const LifetimeArena &arena,
                                 const ProtectionScheme &scheme,
                                 const FaultMode &mode,
                                 const MbAvfOptions &opt);

/**
 * attributeMbAvf() on a snapshot of @p store, for callers that hold
 * a store: the tests, micro_attribution_overhead and the perfbench
 * harness (perfbench/harness/trace_harness.cc).
 */
AttributionResult attributeMbAvf(const PhysicalArray &array,
                                 const LifetimeStore &store,
                                 const ProtectionScheme &scheme,
                                 const FaultMode &mode,
                                 const MbAvfOptions &opt);

/** Per-kernel rollup of an attribution (ascending kernel id;
 *  untracked contributions roll into kernel == noKernel). */
struct KernelContribution
{
    static constexpr unsigned noKernel = 0xFFFFFFFFu;

    unsigned kernel = noKernel;
    std::array<Cycle, 3> cycles = {0, 0, 0};

    Cycle total() const { return cycles[0] + cycles[1] + cycles[2]; }
};

std::vector<KernelContribution>
rollupByKernel(const AttributionResult &attr);

/**
 * Conservation check: the attribution's per-class column sums (and
 * its perTag rows re-summed from scratch) must equal @p reference's
 * raw integer cycle totals exactly, and group count and horizon must
 * match. mbavf_analyze passes attr.mbavf, so it checks the sink
 * against its own kernel call; the tests also pass computeMbAvf()'s
 * result, the cross-engine check. Returns the empty string when
 * conserved, else a description of the first violation.
 */
std::string checkConservation(const AttributionResult &attr,
                              const MbAvfResult &reference);

} // namespace mbavf::analyze

#endif // MBAVF_ANALYZE_ATTRIBUTION_HH
