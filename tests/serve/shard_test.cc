/**
 * @file
 * Tests for shard execution: a sweep shard yields the avf/ser
 * sections, and a campaign (uniform or stratified) sharded into
 * trial ranges merges to the exact tally of the unsharded run — the
 * invariant that makes any sharding (and any kill/resume split)
 * produce identical manifests.
 */

#include <gtest/gtest.h>

#include "serve/shard.hh"
#include "serve/spec.hh"

namespace mbavf::serve
{
namespace
{

JobConfig
campaignJob()
{
    JobConfig job;
    job.type = JobType::Campaign;
    job.workload = "histogram";
    job.trials = 40;
    job.seed = 5;
    return job;
}

ShardSpec
range(std::uint64_t first, std::uint64_t n)
{
    ShardSpec shard;
    shard.firstTrial = first;
    shard.numTrials = n;
    return shard;
}

TEST(ShardTest, SweepShardYieldsAvfAndSer)
{
    JobConfig job;
    job.type = JobType::Sweep;
    job.workload = "histogram";
    job.modes = 2;

    obs::JsonValue result;
    std::string error;
    ASSERT_TRUE(runShard(job, ShardSpec{}, result, error)) << error;
    EXPECT_NE(result.find("avf"), nullptr);
    EXPECT_NE(result.find("ser"), nullptr);
}

TEST(ShardTest, ShardedCampaignMergesToTheUnshardedTally)
{
    // Uniform trial ranges and stratified pick ranges alike.
    for (const bool stratify : {false, true}) {
        JobConfig job = campaignJob();
        job.stratify = stratify;
        std::string error;

        obs::JsonValue whole;
        ASSERT_TRUE(runShard(job, range(0, 40), whole, error)) << error;

        obs::JsonValue first, second;
        ASSERT_TRUE(runShard(job, range(0, 25), first, error)) << error;
        ASSERT_TRUE(runShard(job, range(25, 15), second, error))
            << error;

        const obs::JsonValue merged_whole = mergeCampaignShards({whole});
        const obs::JsonValue merged_split =
            mergeCampaignShards({first, second});
        EXPECT_EQ(merged_whole.dump(), merged_split.dump());

        // Shard order must not matter either: counts are sums.
        const obs::JsonValue merged_swapped =
            mergeCampaignShards({second, first});
        EXPECT_EQ(merged_split.dump(), merged_swapped.dump());

        if (stratify) {
            obs::JsonValue strata_whole, strata_split;
            ASSERT_TRUE(mergeStratifiedStrata(job, {whole}, strata_whole,
                                              error))
                << error;
            ASSERT_TRUE(mergeStratifiedStrata(job, {first, second},
                                              strata_split, error))
                << error;
            EXPECT_EQ(strata_whole.dump(), strata_split.dump());
        }
    }
}

TEST(ShardTest, BadConfigurationFailsWithAMessage)
{
    JobConfig job;
    job.type = JobType::Sweep;
    job.workload = "histogram";
    job.structure = "l9";
    obs::JsonValue result;
    std::string error;
    EXPECT_FALSE(runShard(job, ShardSpec{}, result, error));
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace mbavf::serve
