/**
 * @file
 * The multi-bit AVF engine (paper Sections IV, V, VII).
 *
 * Given a physical array layout, the per-bit ACE lifetimes of the
 * structure, a protection scheme, and a fault mode, computeMbAvf()
 * enumerates every fault group of the mode, splits it into overlapped
 * regions by protection domain, classifies each region per cycle
 * (Eq. 5-6), combines regions into a group outcome (Eq. 7), and
 * integrates over groups and time (Eq. 2). Results are reported as
 * separate SDC / true-DUE / false-DUE AVF fractions, optionally
 * bucketed into time windows for AVF-over-time plots.
 */

#ifndef MBAVF_CORE_MBAVF_HH
#define MBAVF_CORE_MBAVF_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "core/fault_mode.hh"
#include "core/layout.hh"
#include "core/lifetime.hh"
#include "core/protection.hh"

namespace mbavf
{

/** AVF split by outcome class; each is a fraction of group-cycles. */
struct AvfFractions
{
    double sdc = 0.0;
    double trueDue = 0.0;
    double falseDue = 0.0;

    /** Total detected-uncorrected AVF (true + false DUE). */
    double due() const { return trueDue + falseDue; }

    /** Total AVF over all error classes. */
    double total() const { return sdc + trueDue + falseDue; }
};

/** Options controlling an MB-AVF computation. */
struct MbAvfOptions
{
    /** Measurement horizon N in cycles (must be nonzero). */
    Cycle horizon = 0;

    /**
     * When true, a group with both DUE-ACE and SDC-ACE regions counts
     * as DUE: the detection fires before the corrupted data reaches
     * program output. This models the paper's inter-thread VGPR
     * interleaving, where all regions of a group are read in the same
     * 16-thread operation (Section VIII). Default (false) is the
     * conservative cache rule: SDC takes precedence.
     */
    bool dueShieldsSdc = false;

    /** Number of equal time windows for AVF-over-time (0 = none). */
    unsigned numWindows = 0;

    /**
     * Worker threads for the group sweep. 1 = serial, inline.
     * Anything else runs row bands on the shared process-wide pool
     * (common/parallel.hh): 0 uses the pool as sized by
     * MBAVF_THREADS / the hardware, N > 1 first grows the pool to at
     * least N. Results are bit-identical at every setting — the band
     * partition is thread-count independent and partials merge in
     * band order.
     */
    unsigned numThreads = 1;
};

/** Result of one MB-AVF computation. */
struct MbAvfResult
{
    /** Whole-run AVF fractions (Eq. 2, per outcome class). */
    AvfFractions avf;

    /** Per-window AVF fractions when numWindows > 0. */
    std::vector<AvfFractions> windows;

    /**
     * Raw integer group-cycle totals per outcome class
     * {SDC, TrueDue, FalseDue} before division by
     * numGroups * horizon. Exact: the attribution engine
     * (analyze/attribution.hh) conserves these sums bit-for-bit,
     * which a comparison of rounded fractions could not witness.
     */
    std::array<Cycle, 3> cycles = {0, 0, 0};

    /** Number of fault groups G of the mode in the array. */
    std::uint64_t numGroups = 0;

    /** Measurement horizon N. */
    Cycle horizon = 0;
};

/**
 * Compute the MB-AVF of @p mode on @p array protected by @p scheme,
 * using the ACE lifetimes in @p store. The single-bit AVF is mode
 * 1x1: Eq. 1 falls out of Eq. 2 at M = 1.
 */
MbAvfResult computeMbAvf(const PhysicalArray &array,
                         const LifetimeStore &store,
                         const ProtectionScheme &scheme,
                         const FaultMode &mode,
                         const MbAvfOptions &opt);

class LifetimeArena;

/** Group-cycles per outcome class {SDC, TrueDue, FalseDue}, by the
 *  segment tag they are charged to. */
using TagCycles = std::unordered_map<InstrTag, std::array<Cycle, 3>>;

/**
 * Single-pass multi-mode sweep kernel: compute the MB-AVF of every
 * contiguous wordline mode 1x1 .. (max_mode)x1 in one traversal of
 * the array.
 *
 * The kernel is bit-sliced: one u64 holds the state of 64 adjacent
 * anchors, member j of all 64 is one shifted read of the row's
 * column bitsets, and each mode's SDC / true-DUE / false-DUE anchors
 * are ORs over the group's protection-domain regions. Each row walks
 * its words' segment transitions once in time order and adds, per
 * mode and class, the number of anchors in that class times the time
 * since the last transition. Groups that the scheme corrects in every
 * mode are skipped. See core/mbavf_kernel.cc.
 *
 * results[m-1] is bit-identical to
 * computeMbAvf(array, store, scheme, mx1(m), opt) — AVF fractions,
 * window series, and group counts — at any thread count.
 *
 * With @p charges (the attribution sink, analyze/attribution.hh),
 * every failing group of mode (max_mode)x1 is also charged, for each
 * cycle, to the segment tag of its first member in column order
 * that shows the group's class, and *charges receives the per-tag
 * sums. Without it the sweep does no charge work at all.
 */
std::vector<MbAvfResult> computeMbAvfModes(const PhysicalArray &array,
                                           const LifetimeArena &arena,
                                           const ProtectionScheme &scheme,
                                           const MbAvfOptions &opt,
                                           unsigned max_mode,
                                           TagCycles *charges = nullptr);

} // namespace mbavf

#endif // MBAVF_CORE_MBAVF_HH
