/**
 * @file
 * Job specifications for the analysis service (tools/mbavf_serve).
 *
 * A job-spec file is a JSON document listing analysis jobs — mode
 * sweeps and injection campaigns over workload x layout x scheme
 * configurations:
 *
 *   {
 *     "jobs": [
 *       {"type": "sweep", "workload": "histogram",
 *        "structure": "l1", "scheme": "secded", "style": "way",
 *        "interleave": 2, "modes": 4},
 *       {"type": "campaign", "workload": "histogram",
 *        "trials": 200, "seed": 7, "shard_trials": 50}
 *     ]
 *   }
 *
 * Jobs split into shards, the unit of scheduling, isolation, retry,
 * and caching: a sweep job is one shard; a campaign job with
 * shard_trials = K splits into ceil(trials / K) contiguous trial
 * ranges. Trial t always draws from splitMix64(seed, t) regardless
 * of the split, so any sharding merges to the same tally.
 *
 * Each entry is a JobConfig (pipeline/job.hh), and parse() rejects
 * any job validateJob() rejects, so a bad configuration never
 * reaches a worker. The job's canonical() form
 * is its identity: the spec hash (queue-journal binding), the
 * result-cache key, and the merged manifest's "spec" section all
 * derive from it, never from the raw JSON text — reformatting a spec
 * file does not invalidate caches.
 *
 * The "fault" field ("crash" | "hang") is test instrumentation in
 * the --seed-corruption tradition: the worker process deliberately
 * aborts or stalls inside the shard so supervisor tests can provoke
 * retry, watchdog, and quarantine paths deterministically.
 */

#ifndef MBAVF_SERVE_SPEC_HH
#define MBAVF_SERVE_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "pipeline/job.hh"

namespace mbavf::serve
{

/** A parsed job-spec file. */
struct JobSpec
{
    std::vector<JobConfig> jobs;

    /** Parse a spec document. False + @p error on malformation. */
    static bool parse(const obs::JsonValue &doc, JobSpec &out,
                      std::string &error);

    /** Read + parse @p path. */
    static bool load(const std::string &path, JobSpec &out,
                     std::string &error);

    /**
     * Identity of the whole spec: FNV-1a over every job's canonical
     * form plus the content hash of every referenced input file
     * (arenas), so editing an input invalidates the queue journal
     * and every cache key derived from it. False + @p error when an
     * input file cannot be read.
     */
    bool hash(std::uint64_t &out, std::string &error) const;
};

/** One schedulable unit: a whole sweep job or a campaign range. */
struct ShardSpec
{
    std::size_t job = 0;           ///< index into JobSpec::jobs
    std::uint64_t firstTrial = 0;  ///< campaign shards only
    std::uint64_t numTrials = 0;   ///< 0 for sweep shards

    /** The shard's cache identity: job canonical + trial range. */
    std::string canonical(const JobConfig &config) const;
};

/** Split every job into its shards, in job order. */
std::vector<ShardSpec> shardJobs(const JobSpec &spec);

} // namespace mbavf::serve

#endif // MBAVF_SERVE_SPEC_HH
