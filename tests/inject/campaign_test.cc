/**
 * @file
 * Tests for the fault-injection campaign, the trial plan every tool
 * runs campaigns through (TrialPlan, pipeline/pipeline.hh) and the
 * ACE-interference study.
 */

#include <gtest/gtest.h>

#include <map>
#include <mutex>

#include "common/bits.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/trap.hh"
#include "inject/campaign.hh"
#include "inject/interference.hh"
#include "obs/adapters.hh"
#include "pipeline/pipeline.hh"

namespace mbavf
{
namespace
{

GpuConfig
cfg()
{
    return GpuConfig{};
}

/** A uniform campaign job over @p workload. */
JobConfig
campaignJob(const std::string &workload, std::uint64_t seed,
            const std::string &kind = "register")
{
    JobConfig job;
    job.type = JobType::Campaign;
    job.workload = workload;
    job.seed = seed;
    job.kind = kind;
    std::string error;
    EXPECT_TRUE(validateJob(job, error)) << error;
    return job;
}

/** What one TrialPlan::run call counted and its hook observed. */
struct PlanRun
{
    CampaignTallies tallies;
    /** results[i] and calls[i] belong to trial first + i. */
    std::vector<TrialResult> results;
    std::vector<unsigned> calls;
};

/** Run trials [first, first + n) of @p plan through its hook. */
PlanRun
runRange(const TrialPlan &plan, std::uint64_t first, std::uint64_t n)
{
    PlanRun out;
    out.tallies = plan.emptyTallies();
    out.results.resize(n);
    out.calls.resize(n);
    std::mutex mutex;
    plan.run(first, n, out.tallies,
             [&](std::uint64_t t, std::uint64_t, std::uint32_t,
                 const TrialResult &r) {
                 std::lock_guard<std::mutex> guard(mutex);
                 ASSERT_GE(t, first);
                 ASSERT_LT(t, first + n);
                 out.results[t - first] = r;
                 ++out.calls[t - first];
             });
    return out;
}

void
expectSameTally(const CampaignTally &a, const CampaignTally &b)
{
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.codeCounts, b.codeCounts);
}

TEST(Campaign, GoldenRunsOnce)
{
    Campaign c("histogram", 1, cfg());
    EXPECT_GT(c.goldenInstrs(), 0u);
}

TEST(Campaign, NoFlipIsMasked)
{
    Campaign c("histogram", 1, cfg());
    EXPECT_EQ(c.runOne(TrialSpec{}).outcome, InjectOutcome::Masked);
}

TEST(Campaign, UnusedRegisterFlipIsMasked)
{
    Campaign c("histogram", 1, cfg());
    RegInjection inj;
    inj.cu = 0;
    inj.slot = 0;
    inj.reg = 31; // kernels never touch r31
    inj.lane = 0;
    inj.bitMask = 0xFFFFFFFF;
    inj.triggerInstr = c.goldenInstrs() / 2;
    EXPECT_EQ(c.runOne(TrialSpec{{inj}, {}}).outcome,
              InjectOutcome::Masked);
}

TEST(Campaign, TargetedInjectionCausesSdc)
{
    // recursive_gaussian keeps its IIR accumulator in r3 for the
    // whole row loop; flipping it mid-loop must corrupt the output.
    // Its 3 waves run sequentially (CU0, CU1, CU2), so a trigger in
    // the first sixth of the instruction stream lands inside CU0's
    // wave.
    Campaign c("recursive_gaussian", 1, cfg());
    RegInjection inj;
    inj.cu = 0;
    inj.slot = 0;
    inj.reg = 3;
    inj.lane = 5;
    inj.bitMask = 0x4;
    inj.triggerInstr = c.goldenInstrs() / 6;
    EXPECT_EQ(c.runOne(TrialSpec{{inj}, {}}).outcome, InjectOutcome::Sdc);
}

TEST(Campaign, SamplerStaysInBounds)
{
    Campaign c("histogram", 1, cfg());
    Rng rng(5);
    GpuConfig config = cfg();
    for (int i = 0; i < 200; ++i) {
        RegInjection inj = c.sampleSingleBit(rng);
        EXPECT_LT(inj.cu, config.numCus);
        EXPECT_LT(inj.slot, config.regs.numSlots);
        EXPECT_LT(inj.reg, config.regs.numRegs);
        EXPECT_LT(inj.lane, config.regs.numLanes);
        EXPECT_NE(inj.bitMask, 0u);
        EXPECT_EQ(popCount(inj.bitMask), 1);
        EXPECT_LT(inj.triggerInstr, c.goldenInstrs());
    }
}

TEST(Campaign, InjectionIsRepeatable)
{
    Campaign c("dct", 1, cfg());
    Rng rng(17);
    RegInjection inj = c.sampleSingleBit(rng);
    InjectOutcome a = c.runOne(TrialSpec{{inj}, {}}).outcome;
    InjectOutcome b = c.runOne(TrialSpec{{inj}, {}}).outcome;
    EXPECT_EQ(a, b);
}

TEST(Campaign, MemInjectionIntoOutputIsSdc)
{
    // Flipping a bit of an output-buffer byte after the last write
    // must show up in the comparison.
    Campaign c("histogram", 1, cfg());
    MemInjection inj;
    // The bins buffer follows the 4096-word data buffer; bin counts
    // are small, so bit 0 of a low count byte flips the output.
    inj.addr = 4096 * 4; // first bin counter
    inj.bitMask = 0x1;
    inj.triggerInstr = c.goldenInstrs() - 1;
    EXPECT_EQ(c.runOne(TrialSpec{{}, {inj}}).outcome, InjectOutcome::Sdc);
}

TEST(Campaign, MemInjectionIntoDeadInputIsMasked)
{
    // Flipping input data after the last kernel has consumed it has
    // no effect on the output.
    Campaign c("matrix_transpose", 1, cfg());
    MemInjection inj;
    inj.addr = 0; // input matrix byte
    inj.bitMask = 0x80;
    inj.triggerInstr = c.goldenInstrs() - 1;
    EXPECT_EQ(c.runOne(TrialSpec{{}, {inj}}).outcome,
              InjectOutcome::Masked);
}

TEST(Campaign, MemInjectionEarlyIntoInputIsSdc)
{
    Campaign c("matrix_transpose", 1, cfg());
    MemInjection inj;
    inj.addr = 0;
    inj.bitMask = 0x80;
    inj.triggerInstr = 0; // before any lane reads it
    EXPECT_EQ(c.runOne(TrialSpec{{}, {inj}}).outcome, InjectOutcome::Sdc);
}

TEST(Campaign, MemSamplerStaysInFootprint)
{
    Campaign c("histogram", 1, cfg());
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        MemInjection inj = c.sampleMemBit(rng);
        EXPECT_LT(inj.addr, (4096u + 64u) * 4u + 64u);
        EXPECT_NE(inj.bitMask, 0);
    }
}

TEST(Campaign, SamplerTargetsOnlyCusWithWaves)
{
    // recursive_gaussian launches 3 waves; with more CUs than waves
    // the tail CUs execute nothing, and sampling them would deflate
    // the measured SDC probability. The sampler must stay within the
    // CUs that actually received waves.
    GpuConfig config = cfg();
    config.numCus = 8;
    Campaign c("recursive_gaussian", 1, config);
    EXPECT_EQ(c.cusUsed(), 3u);
    Rng rng(11);
    for (int i = 0; i < 200; ++i)
        EXPECT_LT(c.sampleSingleBit(rng).cu, 3u);
}

TEST(Campaign, RunTrialsBitIdenticalAcrossThreadCounts)
{
    // dct seed 19 draws an Sdc among its first register trials, so a
    // trial that lands in another slot changes the vector.
    const TrialPlan reg(campaignJob("dct", 19));
    const TrialPlan mem(campaignJob("histogram", 7, "memory"));
    setParallelThreads(1);
    const PlanRun serial_reg = runRange(reg, 0, 12);
    const PlanRun serial_mem = runRange(mem, 0, 8);
    setParallelThreads(4);
    const PlanRun pool_reg = runRange(reg, 0, 12);
    const PlanRun pool_mem = runRange(mem, 0, 8);
    setParallelThreads(0);
    EXPECT_EQ(serial_reg.results, pool_reg.results);
    EXPECT_EQ(serial_mem.results, pool_mem.results);
    expectSameTally(serial_reg.tallies.flat, pool_reg.tallies.flat);
    expectSameTally(serial_mem.tallies.flat, pool_mem.tallies.flat);
    EXPECT_EQ(pool_reg.tallies.flat.total(), 12u);
    EXPECT_EQ(pool_mem.tallies.flat.total(), 8u);
    EXPECT_LT(pool_reg.tallies.flat.count(InjectOutcome::Masked), 12u);
}

TEST(Campaign, TrialReproducesInIsolation)
{
    // Any trial t of a plan is reproducible alone from
    // (base_seed, t): per-trial seeds are splitMix64(base, t), not a
    // shared RNG stream. lud seed 21 draws an Sdc at trial 1, so a
    // plan that runs another trial in a slot fails here.
    const TrialPlan plan(campaignJob("lud", 21));
    const PlanRun all = runRange(plan, 0, 8);
    EXPECT_LT(all.tallies.flat.count(InjectOutcome::Masked), 8u);
    Campaign c("lud", 1, cfg());
    for (std::uint64_t t = 0; t < 8; ++t) {
        EXPECT_EQ(c.runOne(c.trialSpec(t, 21, TrialKind::Register)),
                  all.results[t])
            << "trial " << t;
    }
    Rng rng(splitMix64(21, 1));
    RegInjection site = c.sampleSingleBit(rng);
    EXPECT_EQ(c.runOne(TrialSpec{{site}, {}}).outcome,
              all.results[1].outcome);
}

TEST(Campaign, AddressFlipCausesCrashNotAbort)
{
    // histogram computes addresses into r5 (rTmp); flipping its top
    // bit between the address computation and the load drives the
    // access out of the 4 MiB memory. The trial must classify Crash
    // with the oob trap code -- and never abort the process.
    Campaign c("histogram", 1, cfg());
    std::vector<TrialSpec> specs;
    for (std::uint64_t t = 0; t < 10; ++t) {
        RegInjection inj;
        inj.cu = 0;
        inj.slot = 0;
        inj.reg = 5;
        inj.lane = 0;
        inj.bitMask = 0x80000000u;
        inj.triggerInstr = t;
        specs.push_back(TrialSpec{{inj}, {}});
    }
    unsigned crashes = 0;
    for (const TrialSpec &spec : specs) {
        const TrialResult r = c.runOne(spec);
        if (r.outcome == InjectOutcome::Crash) {
            ++crashes;
            EXPECT_EQ(r.code, trapcode::memOob);
        }
    }
    EXPECT_GT(crashes, 0u);
}

TEST(Campaign, UnalignedAddressFlipCausesCrash)
{
    Campaign c("histogram", 1, cfg());
    std::vector<TrialSpec> specs;
    for (std::uint64_t t = 0; t < 10; ++t) {
        RegInjection inj;
        inj.reg = 5;
        inj.bitMask = 0x1; // odd address
        inj.triggerInstr = t;
        specs.push_back(TrialSpec{{inj}, {}});
    }
    unsigned align_crashes = 0;
    for (const TrialSpec &spec : specs) {
        const TrialResult r = c.runOne(spec);
        if (r.outcome == InjectOutcome::Crash &&
            r.code == trapcode::memAlign) {
            ++align_crashes;
        }
    }
    EXPECT_GT(align_crashes, 0u);
}

TEST(Campaign, SubGoldenBudgetClassifiesHang)
{
    // A budget below the golden run is the deterministic stand-in
    // for corrupted control flow that never terminates.
    Campaign c("histogram", 1, cfg());
    c.setWatchdogBudgets(c.goldenInstrs() / 2, 0);
    TrialResult r = c.runOne(TrialSpec{});
    EXPECT_EQ(r.outcome, InjectOutcome::Hang);
    EXPECT_EQ(r.code, trapcode::watchdogInstrs);

    c.setWatchdogBudgets(0, c.goldenCycles() / 2);
    r = c.runOne(TrialSpec{});
    EXPECT_EQ(r.outcome, InjectOutcome::Hang);
    EXPECT_EQ(r.code, trapcode::watchdogCycles);
}

TEST(Campaign, DefaultBudgetsPassCleanTrials)
{
    Campaign c("histogram", 1, cfg());
    EXPECT_GT(c.goldenCycles(), 0u);
    TrialResult r = c.runOne(TrialSpec{});
    EXPECT_EQ(r.outcome, InjectOutcome::Masked);
    EXPECT_TRUE(r.code.empty());
}

TEST(Campaign, ProtectionClassifiesDueAndCorrects)
{
    // The recursive_gaussian r3 flip is a known SDC. Parity over an
    // 8-bit domain detects the single flip (Due); SEC-DED corrects
    // it, so the trial executes clean (Masked); no protection lets
    // it through (Sdc).
    Campaign c("recursive_gaussian", 1, cfg());
    RegInjection inj;
    inj.cu = 0;
    inj.slot = 0;
    inj.reg = 3;
    inj.lane = 5;
    inj.bitMask = 0x4;
    inj.triggerInstr = c.goldenInstrs() / 6;
    const TrialSpec spec{{inj}, {}};

    EXPECT_EQ(c.runOne(spec).outcome, InjectOutcome::Sdc);

    c.setProtection("parity", 8);
    TrialResult due = c.runOne(spec);
    EXPECT_EQ(due.outcome, InjectOutcome::Due);
    EXPECT_EQ(due.code, "due.parity");

    c.setProtection("secded", 8);
    EXPECT_EQ(c.runOne(spec).outcome, InjectOutcome::Masked);

    c.setProtection("none", 0);
    EXPECT_EQ(c.runOne(spec).outcome, InjectOutcome::Sdc);
}

TEST(Campaign, SecdedDetectsDoubleFlipInOneDomain)
{
    Campaign c("recursive_gaussian", 1, cfg());
    c.setProtection("secded", 8);
    RegInjection inj;
    inj.reg = 3;
    inj.lane = 5;
    inj.bitMask = 0x6; // two flips, bits 1-2: same 8-bit domain
    inj.triggerInstr = c.goldenInstrs() / 6;
    TrialResult r = c.runOne(TrialSpec{{inj}, {}});
    EXPECT_EQ(r.outcome, InjectOutcome::Due);
    EXPECT_EQ(r.code, "due.secded");
}

TEST(Campaign, CrashedTrialDoesNotAbortSiblings)
{
    // bfs memory trials 14 and 15 of seed 2 flip graph indices into
    // out-of-range addresses. Their siblings in the same plan range
    // must still run and classify exactly as they do alone.
    const TrialPlan plan(campaignJob("bfs", 2, "memory"));
    const PlanRun range = runRange(plan, 10, 10);
    EXPECT_EQ(range.tallies.flat.total(), 10u);
    EXPECT_EQ(range.tallies.flat.count(InjectOutcome::Crash), 2u);
    Campaign c("bfs", 1, cfg());
    for (std::uint64_t i = 0; i < 10; ++i) {
        const std::uint64_t t = 10 + i;
        EXPECT_EQ(range.calls[i], 1u) << "trial " << t;
        EXPECT_EQ(range.results[i],
                  c.runOne(c.trialSpec(t, 2, TrialKind::Memory)))
            << "trial " << t;
        if (t == 14 || t == 15) {
            EXPECT_EQ(range.results[i].outcome, InjectOutcome::Crash);
            EXPECT_EQ(range.results[i].code, trapcode::memOob);
        }
    }
}

TEST(Campaign, RunTrialsDetailedSplitsReproduceFullRun)
{
    // Resume correctness at the API level: [0, 20) in one call must
    // equal [0, 8) + [8, 20) run separately, at any thread count,
    // trial for trial and in the tallies. recursive_gaussian memory
    // trials mix Masked and Sdc, so a misplaced trial shows.
    const TrialPlan plan(campaignJob("recursive_gaussian", 42, "memory"));
    const PlanRun whole = runRange(plan, 0, 20);
    setParallelThreads(3);
    const PlanRun head = runRange(plan, 0, 8);
    const PlanRun tail = runRange(plan, 8, 12);
    CampaignTallies split = plan.emptyTallies();
    plan.run(0, 8, split);
    plan.run(8, 12, split);
    setParallelThreads(0);
    for (std::size_t i = 0; i < head.results.size(); ++i)
        EXPECT_EQ(head.results[i], whole.results[i]);
    for (std::size_t i = 0; i < tail.results.size(); ++i)
        EXPECT_EQ(tail.results[i], whole.results[8 + i]);
    expectSameTally(split.flat, whole.tallies.flat);
    EXPECT_TRUE(split.strata.empty());
}

TEST(Campaign, OnTrialObserverSeesAbsoluteIndices)
{
    // The hook sees every absolute index of [5, 12) exactly once,
    // with the seed its site was drawn from, stratum 0, and the
    // result that trial has in a run from 0.
    const TrialPlan plan(campaignJob("histogram", 13, "memory"));
    const PlanRun from_zero = runRange(plan, 0, 12);
    std::mutex mutex;
    std::map<std::uint64_t, unsigned> calls;
    CampaignTallies tallies = plan.emptyTallies();
    plan.run(5, 7, tallies,
             [&](std::uint64_t t, std::uint64_t seed,
                 std::uint32_t stratum, const TrialResult &r) {
                 std::lock_guard<std::mutex> guard(mutex);
                 ++calls[t];
                 ASSERT_LT(t, 12u);
                 EXPECT_EQ(seed, splitMix64(13, t));
                 EXPECT_EQ(stratum, 0u);
                 EXPECT_EQ(r, from_zero.results[t]);
             });
    ASSERT_EQ(calls.size(), 7u);
    for (const auto &[t, n] : calls) {
        EXPECT_GE(t, 5u);
        EXPECT_EQ(n, 1u) << "trial " << t;
    }
    EXPECT_EQ(tallies.flat.total(), 7u);
}

TEST(Campaign, TallyCountsAndRates)
{
    CampaignTally tally;
    tally.add({InjectOutcome::Masked, ""});
    tally.add({InjectOutcome::Masked, ""});
    tally.add({InjectOutcome::Crash, "trap.mem.oob"});
    tally.add({InjectOutcome::Hang, "trap.watchdog.instrs"});
    EXPECT_EQ(tally.total(), 4u);
    EXPECT_EQ(tally.count(InjectOutcome::Masked), 2u);
    EXPECT_EQ(tally.codeCounts.at("trap.mem.oob"), 1u);
    WilsonInterval rate = tally.rate(InjectOutcome::Masked);
    EXPECT_DOUBLE_EQ(rate.point, 0.5);
    EXPECT_LT(rate.low, 0.5);
    EXPECT_GT(rate.high, 0.5);
}

TEST(Campaign, ZeroTrialTallyEmitsNoNanIntoManifests)
{
    // A fully-degraded serve job or a freshly-created campaign can
    // render a tally with zero trials; the rates must come out as
    // the vacuous [0, 1], and the manifest JSON section built from
    // it must round-trip through the strict parser (which rejects
    // the "nan"/"inf" tokens a division by zero would print).
    CampaignTally tally;
    for (std::size_t i = 0; i < numInjectOutcomes; ++i) {
        const WilsonInterval rate =
            tally.rate(static_cast<InjectOutcome>(i));
        EXPECT_DOUBLE_EQ(rate.point, 0.0);
        EXPECT_DOUBLE_EQ(rate.low, 0.0);
        EXPECT_DOUBLE_EQ(rate.high, 1.0);
    }
    const obs::JsonValue section = obs::tallyJson(tally);
    const std::string text = section.dump();
    EXPECT_EQ(text.find("nan"), std::string::npos) << text;
    EXPECT_EQ(text.find("inf"), std::string::npos) << text;
    obs::JsonValue reparsed;
    std::string error;
    EXPECT_TRUE(obs::JsonValue::parse(text, reparsed, error))
        << error;
}

TEST(Campaign, OutcomeNamesRoundTrip)
{
    for (std::size_t i = 0; i < numInjectOutcomes; ++i) {
        const InjectOutcome o = static_cast<InjectOutcome>(i);
        InjectOutcome parsed;
        ASSERT_TRUE(parseInjectOutcome(injectOutcomeName(o), parsed));
        EXPECT_EQ(parsed, o);
    }
    InjectOutcome scratch;
    EXPECT_FALSE(parseInjectOutcome("exploded", scratch));
    TrialKind kind;
    ASSERT_TRUE(parseTrialKind("memory", kind));
    EXPECT_EQ(kind, TrialKind::Memory);
    EXPECT_FALSE(parseTrialKind("disk", kind));
}

TEST(Interference, StudyRunsAndCounts)
{
    InterferenceStats s =
        runInterferenceStudy("matrix_transpose", 1, cfg(), 60, 7);
    EXPECT_EQ(s.singleInjections, 60u);
    // Every SDC bit produces exactly one group per mode.
    for (unsigned m = 0; m < 3; ++m) {
        EXPECT_EQ(s.groupsTested[m], s.sdcAceBits);
        EXPECT_LE(s.interference[m], s.groupsTested[m]);
    }
}

} // namespace
} // namespace mbavf
