/**
 * @file
 * diffManifests / mergeManifests tests: the drift-vs-structure
 * split, rate objects compared by Wilson-interval overlap, the
 * phases/env perf carve-out (phases paired by name), and
 * structure-only mode CI uses against golden manifests.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "obs/report.hh"

using namespace mbavf;
using obs::JsonValue;

namespace
{

JsonValue
parse(const std::string &text)
{
    JsonValue out;
    std::string error;
    EXPECT_TRUE(JsonValue::parse(text, out, error)) << error;
    return out;
}

/** A minimal manifest-shaped document for diffing. */
JsonValue
baseManifest()
{
    return parse(R"({
        "schema": "mbavf-manifest",
        "version": 1,
        "tool": "test",
        "run": {"workload": "histogram", "seed": 7, "avf": 0.125},
        "campaign": {
            "sdc": {"count": 10, "rate": 0.1,
                    "ci_low": 0.05, "ci_high": 0.18}
        },
        "phases": [{"name": "p", "seconds": 1.0, "count": 1}],
        "env": {"threads": 1}
    })");
}

std::string
joinNotes(const obs::DiffResult &result)
{
    std::string all;
    for (const std::string &note : result.notes)
        all += note + "\n";
    return all;
}

} // namespace

TEST(ReportTest, IdenticalManifestsAreClean)
{
    JsonValue a = baseManifest();
    JsonValue b = baseManifest();
    obs::DiffResult result = obs::diffManifests(a, b, {});
    EXPECT_TRUE(result.clean()) << joinNotes(result);
    EXPECT_TRUE(result.notes.empty());
}

TEST(ReportTest, ValueDriftIsReported)
{
    JsonValue a = baseManifest();
    JsonValue b = baseManifest();
    b.find("run")->set("seed", JsonValue(99));
    obs::DiffResult result = obs::diffManifests(a, b, {});
    EXPECT_TRUE(result.drifted);
    EXPECT_FALSE(result.structuralMismatch);
    EXPECT_NE(joinNotes(result).find("seed"), std::string::npos)
        << joinNotes(result);
}

TEST(ReportTest, AvfTolAbsorbsSmallDrift)
{
    JsonValue a = baseManifest();
    JsonValue b = baseManifest();
    b.find("run")->set("avf", JsonValue(0.1250001));

    obs::DiffResult exact = obs::diffManifests(a, b, {});
    EXPECT_TRUE(exact.drifted);

    obs::DiffOptions loose;
    loose.avfTol = 1e-3;
    EXPECT_TRUE(obs::diffManifests(a, b, loose).clean());

    // But the tolerance is relative, so a big move still drifts.
    b.find("run")->set("avf", JsonValue(0.5));
    EXPECT_TRUE(obs::diffManifests(a, b, loose).drifted);
}

TEST(ReportTest, MissingKeyIsStructural)
{
    JsonValue a = baseManifest();
    JsonValue b = baseManifest();
    b.find("run")->set("extra", JsonValue(1));
    obs::DiffResult result = obs::diffManifests(a, b, {});
    EXPECT_TRUE(result.structuralMismatch);
}

TEST(ReportTest, TypeChangeIsStructural)
{
    JsonValue a = baseManifest();
    JsonValue b = baseManifest();
    b.find("run")->set("workload", JsonValue(3));
    obs::DiffResult result = obs::diffManifests(a, b, {});
    EXPECT_TRUE(result.structuralMismatch);
}

TEST(ReportTest, OverlappingRateCIsAreClean)
{
    JsonValue a = baseManifest();
    JsonValue b = baseManifest();
    // Different point estimate, overlapping intervals: statistically
    // compatible resamples, not drift.
    b.find("campaign")->set("sdc", parse(
        R"({"count": 14, "rate": 0.14,
            "ci_low": 0.08, "ci_high": 0.23})"));
    obs::DiffResult result = obs::diffManifests(a, b, {});
    EXPECT_TRUE(result.clean()) << joinNotes(result);
}

TEST(ReportTest, DisjointRateCIsDrift)
{
    JsonValue a = baseManifest();
    JsonValue b = baseManifest();
    b.find("campaign")->set("sdc", parse(
        R"({"count": 40, "rate": 0.4,
            "ci_low": 0.3, "ci_high": 0.51})"));
    obs::DiffResult result = obs::diffManifests(a, b, {});
    EXPECT_TRUE(result.drifted);
    EXPECT_FALSE(result.structuralMismatch);
}

TEST(ReportTest, ZeroWeightRateIsCompatibleWithAnyInterval)
{
    // A skipped stratum emits its rate object as exactly-0 with
    // weight 0 — a placeholder, not a measurement. It must be
    // compatible with any interval the other side measured, in both
    // directions, or a stratification change would read as rate
    // drift.
    JsonValue a = baseManifest();
    JsonValue b = baseManifest();
    a.find("campaign")->set("sdc", parse(
        R"({"rate": 0.0, "ci_low": 0.0, "ci_high": 0.0,
            "weight": 0.0})"));
    b.find("campaign")->set("sdc", parse(
        R"({"rate": 0.4, "ci_low": 0.3, "ci_high": 0.51,
            "weight": 0.0})"));
    obs::DiffResult result = obs::diffManifests(a, b, {});
    EXPECT_TRUE(result.clean()) << joinNotes(result);
    result = obs::diffManifests(b, a, {});
    EXPECT_TRUE(result.clean()) << joinNotes(result);
}

TEST(ReportTest, WeightedZeroRateStillDrifts)
{
    // Weight > 0 means the rate was measured; exact 0 against a
    // disjoint interval is real drift, not a skipped-stratum
    // placeholder.
    JsonValue a = baseManifest();
    JsonValue b = baseManifest();
    a.find("campaign")->set("sdc", parse(
        R"({"rate": 0.0, "ci_low": 0.0, "ci_high": 0.01,
            "weight": 0.25})"));
    b.find("campaign")->set("sdc", parse(
        R"({"rate": 0.4, "ci_low": 0.3, "ci_high": 0.51,
            "weight": 0.25})"));
    obs::DiffResult result = obs::diffManifests(a, b, {});
    EXPECT_TRUE(result.drifted);
}

TEST(ReportTest, PhasesAndEnvIgnoredByDefault)
{
    JsonValue a = baseManifest();
    JsonValue b = baseManifest();
    b.find("phases")->items()[0].set("seconds", JsonValue(50.0));
    b.find("env")->set("threads", JsonValue(8));
    obs::DiffResult result = obs::diffManifests(a, b, {});
    EXPECT_TRUE(result.clean()) << joinNotes(result);
}

TEST(ReportTest, PerfTolFlagsPhaseDrift)
{
    JsonValue a = baseManifest();
    JsonValue b = baseManifest();
    b.find("phases")->items()[0].set("seconds", JsonValue(50.0));

    obs::DiffOptions perf;
    perf.perfTol = 0.5; // allow 50% relative wobble
    obs::DiffResult result = obs::diffManifests(a, b, perf);
    EXPECT_TRUE(result.drifted) << joinNotes(result);

    // Within tolerance: 1.0 vs 1.2 at 50%.
    b.find("phases")->items()[0].set("seconds", JsonValue(1.2));
    EXPECT_TRUE(obs::diffManifests(a, b, perf).clean());
}

TEST(ReportTest, PerfTolSkipsAPhaseOnlyOneSideRecorded)
{
    // A phase new in the candidate that sorts ahead of the others
    // has no counterpart; it must not be timed against the
    // reference's first phase.
    JsonValue a = baseManifest();
    JsonValue b = baseManifest();
    b.set("phases", parse(R"([
        {"name": "a.new", "seconds": 0.001, "count": 1},
        {"name": "p", "seconds": 1.0, "count": 1}])"));
    obs::DiffOptions perf;
    perf.perfTol = 0.5;
    EXPECT_TRUE(obs::diffManifests(a, b, perf).clean());
    EXPECT_TRUE(obs::diffManifests(b, a, perf).clean());
}

TEST(ReportTest, PerfTolPairsPhasesByName)
{
    // The same phase 20x slower drifts wherever it sits in the list.
    JsonValue a = baseManifest();
    JsonValue b = baseManifest();
    b.set("phases", parse(R"([
        {"name": "a.new", "seconds": 1.0, "count": 1},
        {"name": "p", "seconds": 20.0, "count": 1}])"));
    obs::DiffOptions perf;
    perf.perfTol = 0.5;
    obs::DiffResult result = obs::diffManifests(a, b, perf);
    EXPECT_TRUE(result.drifted) << joinNotes(result);
    EXPECT_NE(joinNotes(result).find("(p)"), std::string::npos)
        << joinNotes(result);
    EXPECT_TRUE(obs::diffManifests(b, a, perf).drifted);
}

TEST(ReportTest, StructureOnlyIgnoresValues)
{
    JsonValue a = baseManifest();
    JsonValue b = baseManifest();
    b.find("run")->set("seed", JsonValue(99));
    b.find("run")->set("avf", JsonValue(0.9));
    b.find("campaign")->set("sdc", parse(
        R"({"count": 40, "rate": 0.4,
            "ci_low": 0.3, "ci_high": 0.51})"));
    obs::DiffOptions shape;
    shape.structureOnly = true;
    obs::DiffResult result = obs::diffManifests(a, b, shape);
    EXPECT_TRUE(result.clean()) << joinNotes(result);
}

TEST(ReportTest, StructureOnlyCatchesShapeChanges)
{
    obs::DiffOptions shape;
    shape.structureOnly = true;

    JsonValue a = baseManifest();
    JsonValue missing = baseManifest();
    // Removing a key: rebuild "run" without "avf".
    missing.set("run", parse(
        R"({"workload": "histogram", "seed": 7})"));
    EXPECT_TRUE(
        obs::diffManifests(a, missing, shape).structuralMismatch);

    JsonValue retyped = baseManifest();
    retyped.find("run")->set("seed", JsonValue("seven"));
    EXPECT_TRUE(
        obs::diffManifests(a, retyped, shape).structuralMismatch);
}

TEST(ReportTest, StructureOnlyComposesWithPerfTol)
{
    // CI's main-branch gate: schema guard plus a perf floor in one
    // diff. Values outside /phases stay unchecked, but a phase that
    // slows beyond the tolerance still fails.
    JsonValue a = baseManifest();
    JsonValue b = baseManifest();
    b.find("run")->set("avf", JsonValue(0.9));
    b.find("phases")->items()[0].set("seconds", JsonValue(50.0));

    obs::DiffOptions gate;
    gate.structureOnly = true;
    gate.perfTol = 0.5;
    obs::DiffResult result = obs::diffManifests(a, b, gate);
    EXPECT_TRUE(result.drifted) << joinNotes(result);
    EXPECT_FALSE(result.structuralMismatch) << joinNotes(result);
    EXPECT_NE(joinNotes(result).find("perf:"), std::string::npos)
        << joinNotes(result);

    // Within tolerance the combined gate is clean again.
    b.find("phases")->items()[0].set("seconds", JsonValue(1.2));
    EXPECT_TRUE(obs::diffManifests(a, b, gate).clean());
}

TEST(ReportTest, MergeSortsByName)
{
    auto distinct = [](int seed) {
        JsonValue m = baseManifest();
        m.find("run")->set("seed", JsonValue(seed));
        return m;
    };
    std::vector<std::pair<std::string, JsonValue>> inputs;
    inputs.emplace_back("zeta", distinct(1));
    inputs.emplace_back("alpha", distinct(2));
    inputs.emplace_back("mid", distinct(3));
    JsonValue traj = obs::mergeManifests(std::move(inputs));

    const JsonValue *schema = traj.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->asString(), "mbavf-trajectory");

    const JsonValue *entries = traj.find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_EQ(entries->items().size(), 3u);
    EXPECT_EQ(entries->items()[0].find("name")->asString(), "alpha");
    EXPECT_EQ(entries->items()[1].find("name")->asString(), "mid");
    EXPECT_EQ(entries->items()[2].find("name")->asString(), "zeta");
    EXPECT_NE(entries->items()[0].find("manifest"), nullptr);
}

TEST(ReportTest, MergeDropsDuplicateRuns)
{
    // Two copies of the same run differing only in phases/env (the
    // volatile sections) are one run measured twice: the trajectory
    // keeps the lexically-first name and reports the other.
    JsonValue original = baseManifest();
    JsonValue recopied = baseManifest();
    recopied.find("phases")->items()[0].set("seconds",
                                            JsonValue(9.0));
    recopied.find("env")->set("threads", JsonValue(8));

    std::vector<std::pair<std::string, JsonValue>> inputs;
    inputs.emplace_back("BENCH_b_copy", std::move(recopied));
    inputs.emplace_back("BENCH_a", std::move(original));
    std::vector<std::string> dropped;
    JsonValue traj = obs::mergeManifests(std::move(inputs), &dropped);

    const JsonValue *entries = traj.find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_EQ(entries->items().size(), 1u);
    EXPECT_EQ(entries->items()[0].find("name")->asString(),
              "BENCH_a");
    ASSERT_EQ(dropped.size(), 1u);
    EXPECT_NE(dropped[0].find("kept BENCH_a"), std::string::npos)
        << dropped[0];
    EXPECT_NE(dropped[0].find("dropped BENCH_b_copy"),
              std::string::npos)
        << dropped[0];
}

TEST(ReportTest, MergeKeepsDistinctRuns)
{
    // A genuinely different result (any deterministic field) is not
    // a duplicate, however similar the rest looks.
    JsonValue a = baseManifest();
    JsonValue b = baseManifest();
    b.find("run")->set("avf", JsonValue(0.25));

    std::vector<std::pair<std::string, JsonValue>> inputs;
    inputs.emplace_back("BENCH_a", std::move(a));
    inputs.emplace_back("BENCH_b", std::move(b));
    std::vector<std::string> dropped;
    JsonValue traj = obs::mergeManifests(std::move(inputs), &dropped);

    ASSERT_EQ(traj.find("entries")->items().size(), 2u);
    EXPECT_TRUE(dropped.empty());
}

TEST(ReportTest, PrintManifestMentionsSections)
{
    std::ostringstream os;
    obs::printManifest(baseManifest(), os);
    const std::string text = os.str();
    EXPECT_NE(text.find("manifest from test"), std::string::npos)
        << text;
    EXPECT_NE(text.find("run"), std::string::npos);
    EXPECT_NE(text.find("histogram"), std::string::npos);
}
