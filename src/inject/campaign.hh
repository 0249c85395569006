/**
 * @file
 * Fault-injection trials (paper Section VII-A).
 *
 * A Campaign runs one workload to completion once (the golden run,
 * with all ACE tracking disabled) and snapshots its declared output
 * ranges. Each injection then re-executes the workload from scratch
 * with one or more register-file bit flips armed at a dynamic
 * instruction trigger, and the trial is classified with the standard
 * injection-study taxonomy:
 *
 *   Masked  final output bytes equal the golden snapshot
 *   Sdc     output differs (silent data corruption)
 *   Due     the flips land in a protected domain whose scheme
 *           detects but cannot correct them (detected unrecoverable
 *           error; the trial never executes)
 *   Crash   execution raised a SimTrap (common/trap.hh): the fault
 *           corrupted state a validity check guards, e.g. an
 *           out-of-range address
 *   Hang    the per-trial watchdog budget (derived from the golden
 *           run) expired before the workload finished
 *
 * Trial isolation: every trial is contained at its boundary
 * (runOne()) — a trapped, hung, or otherwise throwing trial records
 * its outcome and never aborts its siblings.
 *
 * Trials are independent — each builds its own Gpu — so a campaign
 * runs them concurrently on the shared pool (common/parallel.hh),
 * through TrialPlan (pipeline/pipeline.hh): uniform trial t runs
 * trialSpec(t, base_seed, kind), whose site comes from an Rng seeded
 * with splitMix64(base_seed, t), so any single trial reproduces in
 * isolation regardless of batch size, thread count, or scheduling —
 * and a checkpointed campaign resumes bit-identically (see
 * inject/journal.hh).
 */

#ifndef MBAVF_INJECT_CAMPAIGN_HH
#define MBAVF_INJECT_CAMPAIGN_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "core/protection.hh"
#include "gpu/gpu.hh"
#include "workloads/workload.hh"

namespace mbavf
{

/** Outcome of one injection (see file comment for the taxonomy). */
enum class InjectOutcome : std::uint8_t
{
    Masked,
    Sdc,
    Due,
    Crash,
    Hang,
};

/** Number of InjectOutcome values. */
inline constexpr std::size_t numInjectOutcomes = 5;

/** Stable lowercase outcome name ("masked", "sdc", ...). */
const char *injectOutcomeName(InjectOutcome outcome);

/** Inverse of injectOutcomeName(); false when @p name is unknown. */
bool parseInjectOutcome(const std::string &name,
                        InjectOutcome &outcome);

/** One trial's classification plus its diagnostic code. */
struct TrialResult
{
    InjectOutcome outcome = InjectOutcome::Masked;
    /**
     * For Crash/Hang: the SimTrap code (e.g. "trap.mem.oob"). For
     * Due: "due.<scheme>". Empty for Masked/Sdc.
     */
    std::string code;

    bool
    operator==(const TrialResult &other) const
    {
        return outcome == other.outcome && code == other.code;
    }
};

/** Outcome and trap-code counts over a set of trials. */
struct CampaignTally
{
    std::array<std::uint64_t, numInjectOutcomes> counts{};
    /** Crash/Hang trap codes and Due scheme codes, by count. */
    std::map<std::string, std::uint64_t> codeCounts;

    void add(const TrialResult &result);

    std::uint64_t
    count(InjectOutcome outcome) const
    {
        return counts[static_cast<std::size_t>(outcome)];
    }

    std::uint64_t total() const;

    /** Wilson 95% interval of @p outcome's rate over the tally. */
    WilsonInterval
    rate(InjectOutcome outcome) const
    {
        return wilsonInterval(count(outcome), total());
    }
};

/** Which state trialSpec() samples injection sites from. */
enum class TrialKind : std::uint8_t
{
    Register, ///< uniform single-bit VGPR flips (sampleSingleBit)
    Memory,   ///< uniform single-bit memory flips (sampleMemBit)
};

/** Stable kind name ("register" / "memory"). */
const char *trialKindName(TrialKind kind);

/** Inverse of trialKindName(); false when @p name is unknown. */
bool parseTrialKind(const std::string &name, TrialKind &kind);

/** One independent trial: the flips to arm in a fresh execution. */
struct TrialSpec
{
    std::vector<RegInjection> regFlips;
    std::vector<MemInjection> memFlips;
};

/** Injection campaign over one workload configuration. */
class Campaign
{
  public:
    /**
     * Runs the golden execution immediately and derives the default
     * watchdog budgets (watchdogMultiplier x the golden run's
     * instruction and cycle counts).
     *
     * @param workload registry name
     * @param scale    problem-size multiplier
     * @param config   device configuration
     */
    Campaign(std::string workload, unsigned scale, GpuConfig config);

    /** Dynamic instructions executed by the golden run. */
    std::uint64_t goldenInstrs() const { return goldenInstrs_; }

    /** Cycles consumed by the golden run. */
    Cycle goldenCycles() const { return goldenCycles_; }

    /**
     * Rescale the watchdog budgets to @p multiple x the golden run
     * (default 8). 0 disables the watchdog entirely; a budget past
     * 2^64 saturates. Jobs reject negative and non-finite multiples
     * (validateJob()).
     */
    void setWatchdogMultiplier(double multiple);

    /**
     * Pin the watchdog budgets directly (tests use a sub-golden
     * budget to provoke a deterministic Hang). 0 disables a budget.
     */
    void
    setWatchdogBudgets(std::uint64_t instrs, Cycle cycles)
    {
        watchdogInstrs_ = instrs;
        watchdogCycles_ = cycles;
    }

    /**
     * Classify trials against a protected structure: flips are
     * grouped into @p domain_bits-wide protection domains of the
     * injected word, and the scheme's per-domain action applies
     * before execution — Corrected flips are scrubbed, a Detected
     * domain makes the whole trial Due (the machine halts on the
     * detected error), Undetected flips execute as armed.
     * @p scheme_name follows makeScheme(); "none" (the default)
     * disables Due classification.
     */
    void setProtection(const std::string &scheme_name,
                       unsigned domain_bits);

    /** Why setProtection() rejects its arguments, or "". */
    static std::string protectionError(const std::string &scheme_name,
                                       unsigned domain_bits);

    /** Inject the given flips and classify the outcome. */
    InjectOutcome inject(const std::vector<RegInjection> &flips) const;

    /** Inject memory bit flips and classify the outcome. */
    InjectOutcome
    injectMem(const std::vector<MemInjection> &flips) const;

    /** Single-flip convenience. */
    InjectOutcome
    inject(const RegInjection &flip) const
    {
        return inject(std::vector<RegInjection>{flip});
    }

    InjectOutcome
    injectMem(const MemInjection &flip) const
    {
        return injectMem(std::vector<MemInjection>{flip});
    }

    /**
     * Run one trial with full containment: traps classify
     * Crash/Hang, protection classifies Due, and any other exception
     * escaping the execution is recorded as Crash
     * (trap.host.exception) rather than propagated.
     */
    TrialResult runOne(const TrialSpec &spec) const;

    /** The single-bit spec trial @p t of @p kind draws. */
    TrialSpec trialSpec(std::uint64_t t, std::uint64_t base_seed,
                        TrialKind kind) const;

    /**
     * Sample a uniform single-bit VGPR injection site: a (cu, slot,
     * register, lane, bit) coordinate and a dynamic-instruction
     * trigger. Only CUs that executed waves in the golden run are
     * targeted.
     */
    RegInjection sampleSingleBit(Rng &rng) const;

    /**
     * Sample a uniform single-bit memory injection site over the
     * workload's allocated footprint.
     */
    MemInjection sampleMemBit(Rng &rng) const;

    /** CUs that received waves in the golden run. */
    unsigned cusUsed() const { return cusUsed_; }

    const std::string &workloadName() const { return workload_; }

    /** Problem-size multiplier the campaign was built with. */
    unsigned scale() const { return scale_; }

    /** Device configuration the campaign executes trials on. */
    const GpuConfig &config() const { return config_; }

  private:
    /** One fresh execution's observable results. */
    struct ExecResult
    {
        std::vector<std::uint8_t> output;
        std::uint64_t instrs = 0;
        Cycle cycles = 0;
        unsigned cusUsed = 0;
        Addr footprint = 0;
    };

    /**
     * Run the workload from scratch with the given flips armed.
     * Touches no Campaign state, so concurrent calls are safe.
     * @p watchdog arms the trial budgets (the golden run passes
     * false). Throws SimTrap when corrupted state hits a validity
     * check or a budget.
     */
    ExecResult execute(const std::vector<RegInjection> &flips,
                       const std::vector<MemInjection> &mem_flips,
                       bool watchdog) const;

    /**
     * Apply the armed protection scheme to @p spec before
     * execution. Returns true when a domain detects the fault (the
     * trial is Due); Corrected flips are removed from @p spec.
     */
    bool applyProtection(TrialSpec &spec) const;

    std::string workload_;
    unsigned scale_;
    GpuConfig config_;
    unsigned cusUsed_ = 1;
    std::uint64_t goldenInstrs_ = 0;
    Cycle goldenCycles_ = 0;
    Addr footprint_ = 0;
    std::uint64_t watchdogInstrs_ = 0;
    Cycle watchdogCycles_ = 0;
    std::unique_ptr<ProtectionScheme> scheme_;
    std::string schemeCode_;
    unsigned protectionDomainBits_ = 0;
    std::vector<std::uint8_t> goldenOutput_;
};

} // namespace mbavf

#endif // MBAVF_INJECT_CAMPAIGN_HH
