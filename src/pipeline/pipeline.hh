/**
 * @file
 * The analysis pipeline every tool runs a job through (DESIGN.md
 * Section 17). A job that passed validateJob() (pipeline/job.hh)
 * becomes either lifetimes, a design and a mode sweep with its SER,
 * or a trial plan and campaign tallies. `mbavf`, `mbavf_serve`
 * shards and `mbavf_analyze` call these functions, so a sweep or a
 * campaign job means the same thing in every tool; the tools keep
 * only their flags, their per-trial hooks and their printing.
 */

#ifndef MBAVF_PIPELINE_PIPELINE_HH
#define MBAVF_PIPELINE_PIPELINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/layout.hh"
#include "core/lifetime.hh"
#include "core/lifetime_arena.hh"
#include "core/mbavf.hh"
#include "core/protection.hh"
#include "core/sweep.hh"
#include "inject/campaign.hh"
#include "inject/stratified.hh"
#include "mem/cache.hh"
#include "pipeline/job.hh"

namespace mbavf
{

struct ProgramCapture;

/** The ACE lifetimes of one job's structure. */
struct Lifetimes
{
    /** Horizon of the run the lifetimes come from. */
    Cycle horizon = 0;
    /** The workload run's store; empty when read from an arena. */
    LifetimeStore store{8, 64};
    /**
     * The arena the sweep reads: the mapped job.arenaIn file, or the
     * snapshot of store saved to --arena-out. Empty otherwise, and
     * then the sweep flattens store itself.
     */
    std::optional<LifetimeArena> arena;
    /** Cache statistics of the workload run (zero for arenas). */
    CacheStats l1Stats;
    CacheStats l2Stats;
};

/**
 * Read @p job's lifetimes: map job.arenaIn, or run job.workload with
 * the ACE probes and build job.structure's store only. A non-empty
 * @p arena_out flattens the store once into out.arena and saves that
 * snapshot to the arena file (core/arena_io.hh); @p capture, when
 * non-null, receives the run's program capture. False + @p error on
 * an unusable arena file, or when the lifetime word width does not
 * match the structure.
 */
bool readLifetimes(const JobConfig &job, const std::string &arena_out,
                   Lifetimes &out, std::string &error,
                   ProgramCapture *capture = nullptr);

/**
 * @p job's physical array: the structure's geometry in its
 * effectiveStyle() and interleave. Null + @p error when the array
 * factories reject the structure, style or interleave.
 */
std::unique_ptr<PhysicalArray> tryMakeArray(const JobConfig &job,
                                            std::string &error);

/** The design point a sweep job evaluates. */
struct Design
{
    std::unique_ptr<PhysicalArray> array;
    std::unique_ptr<ProtectionScheme> scheme;
    /**
     * Horizon and windows; DUE shields SDC under --shield-due and
     * always under inter-thread VGPR interleaving, where every region
     * of a group is read by one operation (Section VIII). Sweeps run
     * on the shared pool as sized by the tool.
     */
    MbAvfOptions options;
};

/** @p job's design over @p horizon; @p job passed validateJob(). */
Design makeDesign(const JobConfig &job, Cycle horizon);

/** A sweep job's result. */
struct SweepResult
{
    ModeSweep sweep;
    /** SER under the case-study rates scaled to job.totalFit. */
    StructureSer ser;
    /** Check-bit area overhead of the scheme on the structure's word. */
    double areaOverhead = 0.0;
};

/** Sweep modes 1x1..(job.modes)x1 of @p design, and fold the SER. */
SweepResult runSweep(const JobConfig &job, const Design &design,
                     const Lifetimes &lifetimes);

/** Campaign outcome tallies: flat, and per stratum when stratified. */
struct CampaignTallies
{
    CampaignTally flat;
    /** One entry per stratum of a stratified plan; else empty. */
    std::vector<StratumTally> strata;

    /** Count one trial; fatal when @p stratum is out of range. */
    void add(std::uint32_t stratum, const TrialResult &result);
};

/**
 * Observer of one finished trial: its absolute trial (or pick) index,
 * the seed its site was drawn from, its stratum (0 when uniform) and
 * its result. Called concurrently from pool workers.
 */
using TrialHook = std::function<void(std::uint64_t, std::uint64_t,
                                     std::uint32_t,
                                     const TrialResult &)>;

/**
 * A campaign job's trial plan: the golden run with the job's
 * watchdog and protection, plus the level-one partition when the job
 * is stratified. Uniform trial t draws from splitMix64(seed, t) and
 * stratified pick j from its stratum's sub-seed stream, so any
 * contiguous range runs identically at any thread count, shard split
 * or resume point.
 */
class TrialPlan
{
  public:
    /** Golden run (and partition); @p job passed validateJob(). */
    explicit TrialPlan(const JobConfig &job);

    /** The partition of a stratified plan; null when uniform. */
    const Stratification *
    stratification() const
    {
        return strat_ ? &*strat_ : nullptr;
    }

    /** Zero tallies shaped for this plan. */
    CampaignTallies emptyTallies() const;

    /**
     * Run trials (or picks) [first, first + n) on the shared pool
     * and count them into @p tallies; @p hook observes each trial.
     */
    void run(std::uint64_t first, std::uint64_t n,
             CampaignTallies &tallies,
             const TrialHook &hook = {}) const;

  private:
    std::uint64_t seed_;
    TrialKind kind_ = TrialKind::Register;
    Campaign campaign_;
    std::optional<Stratification> strat_;
};

} // namespace mbavf

#endif // MBAVF_PIPELINE_PIPELINE_HH
