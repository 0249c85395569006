/**
 * @file
 * Tests for the two-level stratified campaign (inject/stratified.hh):
 * partition soundness, the deterministic pick sequence, per-pick
 * trial reproducibility, thread-count bit-identity over a sweep of
 * stratification shapes, and the v2 journal round trip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "inject/campaign.hh"
#include "inject/journal.hh"
#include "inject/stratified.hh"
#include "pipeline/pipeline.hh"

namespace mbavf
{
namespace
{

Campaign &
sharedCampaign()
{
    static Campaign campaign("histogram", 1, GpuConfig{});
    return campaign;
}

const Stratification &
sharedStratification()
{
    static Stratification strat =
        Stratification::build(sharedCampaign(), StratifyOptions{});
    return strat;
}

/** The tools' trial plan for a stratified histogram campaign. */
const TrialPlan &
sharedPlan()
{
    static const TrialPlan plan = [] {
        JobConfig job;
        job.type = JobType::Campaign;
        job.workload = "histogram";
        job.seed = 11;
        job.stratify = true;
        job.budget = 40;
        std::string error;
        EXPECT_TRUE(validateJob(job, error)) << error;
        return TrialPlan(job);
    }();
    return plan;
}

void
expectSameStrata(const CampaignTallies &a, const CampaignTallies &b)
{
    EXPECT_EQ(a.flat.counts, b.flat.counts);
    ASSERT_EQ(a.strata.size(), b.strata.size());
    for (std::size_t s = 0; s < a.strata.size(); ++s) {
        EXPECT_EQ(a.strata[s].trials, b.strata[s].trials) << s;
        EXPECT_EQ(a.strata[s].counts, b.strata[s].counts) << s;
    }
}

TEST(Stratified, PartitionWeightsCoverTheFaultSpace)
{
    const Stratification &strat = sharedStratification();
    double total = 0.0;
    double skipped = 0.0;
    for (const Stratum &st : strat.strata()) {
        EXPECT_GE(st.weight, 0.0);
        EXPECT_GE(st.predicted, 0.0);
        EXPECT_LE(st.predicted, 1.0);
        total += st.weight;
        if (st.skipped)
            skipped += st.weight;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_NEAR(skipped, strat.skippedWeight(), 1e-12);
    // The whole point: a meaningful share of the space is provably
    // Masked on every workload we ship.
    EXPECT_GT(strat.skippedWeight(), 0.1);
    EXPECT_LT(strat.skippedWeight(), 1.0);
}

TEST(Stratified, PickSequenceIsPrefixMonotone)
{
    const Stratification &strat = sharedStratification();
    const auto all = strat.picks(0, 300);
    ASSERT_EQ(all.size(), 300u);
    // Any contiguous split replays the same picks — the property
    // sharding and resume lean on.
    for (std::uint64_t cut : {1u, 7u, 64u, 299u}) {
        const auto head = strat.picks(0, cut);
        const auto tail = strat.picks(cut, 300 - cut);
        ASSERT_EQ(head.size() + tail.size(), all.size());
        for (std::size_t i = 0; i < head.size(); ++i) {
            EXPECT_EQ(head[i].stratum, all[i].stratum);
            EXPECT_EQ(head[i].occurrence, all[i].occurrence);
        }
        for (std::size_t i = 0; i < tail.size(); ++i) {
            EXPECT_EQ(tail[i].stratum, all[cut + i].stratum);
            EXPECT_EQ(tail[i].occurrence, all[cut + i].occurrence);
        }
    }
}

TEST(Stratified, PicksNeverLandOnSkippedStrata)
{
    const Stratification &strat = sharedStratification();
    std::vector<std::uint64_t> occurrence(strat.strata().size(), 0);
    for (const Stratification::Pick &pick : strat.picks(0, 500)) {
        ASSERT_LT(pick.stratum, strat.strata().size());
        EXPECT_FALSE(strat.strata()[pick.stratum].skipped);
        // Occurrences count up densely per stratum.
        EXPECT_EQ(pick.occurrence, occurrence[pick.stratum]);
        ++occurrence[pick.stratum];
    }
}

TEST(Stratified, AllocationMatchesThePickSequence)
{
    const Stratification &strat = sharedStratification();
    const auto alloc = strat.allocation(200);
    std::vector<std::uint64_t> counted(strat.strata().size(), 0);
    for (const Stratification::Pick &pick : strat.picks(0, 200))
        ++counted[pick.stratum];
    EXPECT_EQ(alloc, counted);
}

TEST(Stratified, TrialSpecIsReproduciblePerPick)
{
    const Stratification &strat = sharedStratification();
    for (const Stratification::Pick &pick : strat.picks(0, 50)) {
        const TrialSpec a = strat.trialSpec(pick, 42);
        const TrialSpec b = strat.trialSpec(pick, 42);
        ASSERT_EQ(a.regFlips.size(), 1u);
        ASSERT_EQ(b.regFlips.size(), 1u);
        const RegInjection &x = a.regFlips[0];
        const RegInjection &y = b.regFlips[0];
        EXPECT_EQ(x.cu, y.cu);
        EXPECT_EQ(x.slot, y.slot);
        EXPECT_EQ(x.reg, y.reg);
        EXPECT_EQ(x.lane, y.lane);
        EXPECT_EQ(x.bitMask, y.bitMask);
        EXPECT_EQ(x.triggerInstr, y.triggerInstr);
        // The trigger lands inside the pick's window.
        const Stratum &st = strat.strata()[pick.stratum];
        const auto &bounds = strat.windowBounds();
        EXPECT_GE(x.triggerInstr, bounds[st.window]);
        EXPECT_LT(x.triggerInstr, bounds[st.window + 1]);
    }
}

TEST(Stratified, BudgetForTargetCiIsMonotone)
{
    const Stratification &strat = sharedStratification();
    const std::uint64_t loose = strat.budgetForTargetCi(0.2, 5000);
    const std::uint64_t tight = strat.budgetForTargetCi(0.02, 5000);
    EXPECT_LE(loose, tight);
    EXPECT_LE(tight, 5000u);
    // No target: the cap comes straight back.
    EXPECT_EQ(strat.budgetForTargetCi(0.0, 123), 123u);
}

TEST(Stratified, ThreadCountBitIdentityOverStratificationSweep)
{
    // The differential the CI gate leans on: for a sweep of
    // stratification shapes (seeded, so the sweep is reproducible),
    // running the same pick range at 1 thread and at 4 threads must
    // produce identical per-trial outcomes.
    Campaign &campaign = sharedCampaign();
    Rng rng(20260808);
    for (int round = 0; round < 3; ++round) {
        StratifyOptions options;
        options.windows =
            static_cast<unsigned>(1 + rng.below(12));
        options.maxClasses =
            static_cast<unsigned>(2 + rng.below(40));
        const Stratification strat =
            Stratification::build(campaign, options);
        const std::uint64_t seed = rng.next();
        const auto picks = strat.picks(0, 60);

        auto outcomes = [&](unsigned threads) {
            setParallelThreads(threads);
            std::vector<TrialResult> results(picks.size());
            runTasks(picks.size(), [&](std::size_t i) {
                results[i] = campaign.runOne(
                    strat.trialSpec(picks[i], seed));
            });
            return results;
        };
        const auto one = outcomes(1);
        const auto four = outcomes(4);
        ASSERT_EQ(one.size(), four.size());
        for (std::size_t i = 0; i < one.size(); ++i) {
            EXPECT_EQ(one[i].outcome, four[i].outcome)
                << "round " << round << " trial " << i;
            EXPECT_EQ(one[i].code, four[i].code);
        }
    }
}

TEST(Stratified, PlanSplitRangesMergeToTheWholeRun)
{
    // Picks [0, 40) in one call and as [0, 13) + [13, 40) at another
    // thread count count the same trials into the same strata.
    const TrialPlan &plan = sharedPlan();
    ASSERT_NE(plan.stratification(), nullptr);
    CampaignTallies whole = plan.emptyTallies();
    plan.run(0, 40, whole);
    setParallelThreads(3);
    CampaignTallies split = plan.emptyTallies();
    plan.run(0, 13, split);
    plan.run(13, 27, split);
    setParallelThreads(0);
    EXPECT_EQ(whole.flat.total(), 40u);
    expectSameStrata(whole, split);
}

TEST(Stratified, PlanTalliesBitIdenticalAcrossThreadCounts)
{
    const TrialPlan &plan = sharedPlan();
    auto tallies = [&](unsigned threads) {
        setParallelThreads(threads);
        CampaignTallies out = plan.emptyTallies();
        plan.run(0, 40, out);
        return out;
    };
    const CampaignTallies one = tallies(1);
    const CampaignTallies four = tallies(4);
    setParallelThreads(0);
    expectSameStrata(one, four);
}

TEST(Stratified, PartitionHashIsStableAndShapeSensitive)
{
    Campaign &campaign = sharedCampaign();
    const Stratification a =
        Stratification::build(campaign, StratifyOptions{});
    const Stratification b =
        Stratification::build(campaign, StratifyOptions{});
    EXPECT_EQ(a.hash(), b.hash());
    StratifyOptions other;
    other.windows = 4;
    const Stratification c = Stratification::build(campaign, other);
    EXPECT_NE(a.hash(), c.hash());
}

TEST(Stratified, JournalV2RoundTripsStrataFields)
{
    const std::string path = "stratified_journal_test.tmp";
    std::remove(path.c_str());

    JournalHeader header;
    header.workload = "histogram";
    header.scale = 1;
    header.kind = TrialKind::Register;
    header.baseSeed = 9;
    header.trials = 3;
    header.version = 2;
    header.strataHash = 0xdeadbeefcafef00dull;

    CampaignJournal journal;
    journal.header = header;
    for (std::uint64_t i = 0; i < 3; ++i) {
        JournalRecord record;
        record.index = i;
        record.seed = 1000 + i;
        record.stratum = static_cast<std::uint32_t>(7 * i);
        record.result.outcome = InjectOutcome::Masked;
        journal.records.push_back(record);
    }
    std::string error;
    ASSERT_TRUE(journal.save(path, error)) << error;

    CampaignJournal loaded;
    ASSERT_TRUE(CampaignJournal::load(path, loaded, error)) << error;
    EXPECT_TRUE(loaded.header == header);
    ASSERT_EQ(loaded.records.size(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(loaded.records[i] == journal.records[i]);
        EXPECT_EQ(loaded.records[i].stratum,
                  static_cast<std::uint32_t>(7 * i));
    }
    std::remove(path.c_str());
}

TEST(Stratified, CombinedIntervalFoldsSkippedMassExactly)
{
    const Stratification &strat = sharedStratification();
    std::vector<StratumTally> tallies(strat.strata().size());
    // No sampling at all: the Masked point is exactly the skipped
    // weight (certain strata contribute their rate, unsampled ones
    // 0), and the SDC upper bound cannot exceed the sampled weight —
    // the skipped mass is settled without a single injection.
    const WilsonInterval masked =
        strat.combinedInterval(tallies, InjectOutcome::Masked);
    EXPECT_NEAR(masked.point, strat.skippedWeight(), 1e-9);
    EXPECT_GT(masked.high, strat.skippedWeight() - 1e-12);
    const WilsonInterval sdc =
        strat.combinedInterval(tallies, InjectOutcome::Sdc);
    EXPECT_DOUBLE_EQ(sdc.point, 0.0);
    EXPECT_LE(sdc.high, 1.0 - strat.skippedWeight() + 1e-12);
}

} // namespace
} // namespace mbavf
