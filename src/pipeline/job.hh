/**
 * @file
 * One analysis job — a mode sweep or an injection campaign over a
 * workload x structure x layout x scheme configuration — in the form
 * every tool shares: `mbavf` and `mbavf_analyze` build it from flags
 * (jobFromArgs), `mbavf_serve` from a job-spec entry
 * (serve/spec.hh). validateJob() checks every field before any
 * simulation, and pipeline/pipeline.hh runs it.
 *
 * canonical() is the job's identity: the serve spec hash, the result
 * cache key, and the merged manifest's "spec" section all derive
 * from it, so its rendering must not change.
 */

#ifndef MBAVF_PIPELINE_JOB_HH
#define MBAVF_PIPELINE_JOB_HH

#include <cstdint>
#include <string>

namespace mbavf
{

class Args;

/** What one job computes. */
enum class JobType : std::uint8_t
{
    Sweep,    ///< mode sweep + SER (core/sweep.hh)
    Campaign, ///< injection campaign tally (inject/campaign.hh)
};

/** Stable job-type name ("sweep" / "campaign"). */
const char *jobTypeName(JobType type);

/**
 * Largest AVF-over-time window count a sweep accepts: each window
 * keeps per-mode accumulators on every pool thread.
 */
constexpr unsigned maxWindows = 1u << 16;

/** One analysis job. */
struct JobConfig
{
    JobType type = JobType::Sweep;
    std::string workload;
    unsigned scale = 1;

    // Sweep configuration.
    std::string structure = "l1";
    std::string scheme = "parity";
    std::string style;        ///< empty = structure default
    unsigned interleave = 2;
    unsigned modes = 8;
    unsigned windows = 0;
    bool shieldDue = false;
    double totalFit = 100.0;
    std::string arenaIn;      ///< sweep a saved arena (no workload)

    // Campaign configuration.
    std::uint64_t trials = 1000;
    std::uint64_t seed = 1;
    std::string kind = "register";
    double watchdog = 8.0;
    std::string protect = "none";
    unsigned protectDomain = 8;
    std::uint64_t shardTrials = 0; ///< 0 = the whole job is one shard

    // Stratified campaign (inject/stratified.hh): shards become
    // contiguous ranges of the deterministic pick sequence, so any
    // split merges to the same per-stratum tallies. The canonical
    // form only grows when stratify is on — uniform job identities
    // (and their cache keys) are untouched.
    bool stratify = false;
    unsigned stratifyWindows = 8;
    unsigned stratifyClasses = 64;
    std::uint64_t budget = 0; ///< injected-trial budget; 0 = trials

    /** Test instrumentation: "", "crash", or "hang" (serve only). */
    std::string fault;

    /** Trials (uniform) or picks (stratified) the job runs. */
    std::uint64_t
    effectiveTrials() const
    {
        return stratify && budget != 0 ? budget : trials;
    }

    /** The structure-appropriate style when none was given. */
    std::string effectiveStyle() const;

    /**
     * Deterministic key=value identity of this job — stable across
     * spec-file reformatting, field order, and defaulted fields.
     */
    std::string canonical() const;
};

/**
 * Check every field of @p job against the rules of the code that
 * consumes it — the workload registry, the scheme and array
 * factories, the campaign and the stratifier — without running
 * anything. False + @p error naming the first bad field.
 */
bool validateJob(const JobConfig &job, std::string &error);

/**
 * The job the `mbavf` flags describe (--campaign selects a campaign;
 * every other flag maps to the field of the same name). Fields whose
 * flag @p args lacks keep their value in @p job.
 */
JobConfig jobFromArgs(const Args &args, JobConfig job = {});

} // namespace mbavf

#endif // MBAVF_PIPELINE_JOB_HH
