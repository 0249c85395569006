/**
 * @file
 * Two-level SDC estimation: importance-sampled, stratified injection
 * campaigns (DESIGN.md Section 16).
 *
 * Level one runs the ACE analysis (workloads/ace_runner.hh) with a
 * per-CU VGPR probe and partitions the single-bit register fault
 * space — every (cu, slot, reg, lane, bit) site crossed with every
 * dynamic-instruction trigger window — into strata keyed by
 * (site class, time window). A site class groups sites with the same
 * windowed ACE signature (which windows the bit is ever ACE in) and
 * the same coarse ACE-mass band; the signature is computed over the
 * cycle spans the windows' instruction boundaries actually occupy,
 * sampled during the ACE run at the exact point an injection trigger
 * would fire, and padded conservatively for intra-wave lane skew.
 *
 * The partition supports two claims:
 *
 *   soundness  a stratum whose class has no ACE overlap with its
 *              window is provably Masked — a flip lands on a bit
 *              that is dead until its next overwrite (or forever) —
 *              so the stratum is skipped with its exact rate
 *              bookkept, never sampled;
 *   variance   sampled strata receive trials in proportion to
 *              weight x predicted spread via a deterministic
 *              Sainte-Lague pick sequence, so high-AVF strata are
 *              sampled densely and the folded interval
 *              (common/stats.hh stratifiedInterval) reaches a target
 *              width with far fewer injections than uniform
 *              sampling.
 *
 * Everything here is a pure function of (workload, scale, config,
 * options): the strata, the pick sequence, and every pick's trial
 * spec are bit-identical at any thread count, any shard split, and
 * any resume point. Pick j of stratum h draws its site and trigger
 * from Rng(splitMix64(stratumSeed(h), occurrence)), so a single pick
 * reproduces in isolation just like a uniform campaign trial.
 */

#ifndef MBAVF_INJECT_STRATIFIED_HH
#define MBAVF_INJECT_STRATIFIED_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "inject/campaign.hh"

namespace mbavf
{

/** Level-one partition knobs. */
struct StratifyOptions
{
    /** Trigger windows over the golden instruction count (<= 16). */
    unsigned windows = 8;
    /**
     * Site-class cap: the most populous (signature, band) keys keep
     * their own class; the rest merge into a mixed class that is
     * never skipped (merging may only lose skip opportunity, never
     * soundness).
     */
    unsigned maxClasses = 64;

    /** Why Stratification::build() rejects these options, or "". */
    std::string error() const;
};

/** One (site class, window) stratum. */
struct Stratum
{
    std::uint32_t siteClass = 0;
    std::uint32_t window = 0;
    /** Exact share of the (site x trigger) fault space. */
    double weight = 0.0;
    /** Level-one ACE density of the class in the window, in [0,1]. */
    double predicted = 0.0;
    /** Provably Masked: never sampled, bookkept exactly. */
    bool skipped = false;
};

/** Per-stratum outcome counts for the combined estimator. */
struct StratumTally
{
    std::uint64_t trials = 0;
    std::array<std::uint64_t, numInjectOutcomes> counts{};
};

/**
 * Fold per-stratum tallies into the combined interval for
 * @p outcome: sampled strata contribute Wilson intervals, skipped
 * strata their exact rate (Masked 1, everything else 0). Free so the
 * serve merge can fold shard tallies from a stratum table alone,
 * without rebuilding the partition.
 */
WilsonInterval
combinedStratifiedInterval(const std::vector<Stratum> &strata,
                           const std::vector<StratumTally> &tallies,
                           InjectOutcome outcome, double z = 1.96);

class Stratification
{
  public:
    /** One pick of the deterministic allocation sequence. */
    struct Pick
    {
        std::uint32_t stratum = 0;
        /** 0-based occurrence index within the stratum. */
        std::uint64_t occurrence = 0;
    };

    /**
     * Build the level-one partition for @p campaign's fault space.
     * Runs the ACE analysis once (the expensive step); register kind
     * only. Fatal when the ACE run disagrees with the campaign's
     * golden run on the instruction count — the trigger mapping
     * would be meaningless.
     */
    static Stratification build(const Campaign &campaign,
                                const StratifyOptions &options);

    const std::vector<Stratum> &strata() const { return strata_; }
    unsigned numWindows() const { return windows_; }
    std::uint32_t numClasses() const { return numClasses_; }

    /** Total weight of the provably-Masked (skipped) strata. */
    double skippedWeight() const { return skippedWeight_; }

    /**
     * Identity of the partition: workload, scale, windows, classes,
     * window boundaries, and every class's site membership. Shards
     * and resumed journals must agree on it before their per-stratum
     * counts may merge.
     */
    std::uint64_t hash() const { return hash_; }

    /**
     * Picks [first, first + n) of the allocation sequence. The
     * sequence is prefix-monotone (pick j never depends on the
     * budget), which is what makes contiguous-range sharding and
     * resume merge bit-identically.
     */
    std::vector<Pick> picks(std::uint64_t first, std::uint64_t n) const;

    /** Per-stratum trial counts of the first @p budget picks. */
    std::vector<std::uint64_t> allocation(std::uint64_t budget) const;

    /**
     * Smallest budget whose *predicted* combined SDC width is at
     * most @p target_width, capped at @p max_budget. Deterministic —
     * it uses level-one predictions, never observed outcomes, so
     * every shard and resume derives the same budget.
     */
    std::uint64_t budgetForTargetCi(double target_width,
                                    std::uint64_t max_budget) const;

    /** Sub-seed stream of stratum @p h under @p base_seed. */
    std::uint64_t stratumSeed(std::uint32_t h,
                              std::uint64_t base_seed) const;

    /** The seed pick @p pick's trial draws from. */
    std::uint64_t pickSeed(const Pick &pick,
                           std::uint64_t base_seed) const;

    /** The single-flip trial spec @p pick draws. */
    TrialSpec trialSpec(const Pick &pick,
                        std::uint64_t base_seed) const;

    /** combinedStratifiedInterval() over this partition's strata. */
    WilsonInterval
    combinedInterval(const std::vector<StratumTally> &tallies,
                     InjectOutcome outcome, double z = 1.96) const
    {
        return combinedStratifiedInterval(strata_, tallies, outcome,
                                          z);
    }

    /** Trigger-window instruction boundaries (numWindows()+1). */
    const std::vector<std::uint64_t> &windowBounds() const
    {
        return windowBounds_;
    }

    /** Sites in class @p c (diagnostics / tests). */
    std::uint64_t classSiteCount(std::uint32_t c) const
    {
        return classOffset_[c + 1] - classOffset_[c];
    }

  private:
    unsigned windows_ = 0;
    std::uint32_t numClasses_ = 0;
    double skippedWeight_ = 0.0;
    std::uint64_t hash_ = 0;
    std::uint64_t goldenInstrs_ = 0;
    unsigned cusUsed_ = 1;
    RegFileGeometry geom_{};
    std::vector<std::uint64_t> windowBounds_; ///< windows_+1 entries
    std::vector<Stratum> strata_;             ///< class-major
    /** Site codes of every class, concatenated; sorted per class. */
    std::vector<std::uint32_t> classSites_;
    std::vector<std::uint64_t> classOffset_;  ///< numClasses_+1
    /** Per-stratum Sainte-Lague scores (0 for skipped strata). */
    std::vector<double> scores_;
};

} // namespace mbavf

#endif // MBAVF_INJECT_STRATIFIED_HH
