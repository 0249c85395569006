/**
 * @file
 * Tests for the pipeline: readLifetimes() leaves one arena, the
 * snapshot of the builder's store that --arena-out saves; runSweep()
 * sweeps it bit-identically to a fresh snapshot and folds its mode
 * sweep into the structure SER at the job's total FIT; attribution
 * over it returns the Mx1 result of the per-group reference engine
 * on the builder's store.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>

#include "analyze/attribution.hh"
#include "core/arena_io.hh"
#include "gpu/gpu.hh"
#include "pipeline/pipeline.hh"
#include "workloads/ace_runner.hh"

namespace mbavf
{
namespace
{

/** Structural equality of two arenas, column by column. */
void
expectSameColumns(const LifetimeArena &a, const LifetimeArena &b)
{
    ASSERT_EQ(a.wordWidth(), b.wordWidth());
    ASSERT_EQ(a.wordsPerContainer(), b.wordsPerContainer());
    ASSERT_EQ(a.numWords(), b.numWords());
    ASSERT_EQ(a.numSegments(), b.numSegments());
    ASSERT_EQ(a.numContainers(), b.numContainers());
    for (std::uint32_t w = 0; w < a.numWords(); ++w) {
        ASSERT_EQ(a.offset(w), b.offset(w)) << "word " << w;
        ASSERT_EQ(a.count(w), b.count(w)) << "word " << w;
        ASSERT_EQ(a.wordContainer(w), b.wordContainer(w)) << "word " << w;
        ASSERT_EQ(a.wordIndex(w), b.wordIndex(w)) << "word " << w;
        ASSERT_EQ(b.findWord(a.wordContainer(w), a.wordIndex(w)), w);
    }
    for (std::size_t s = 0; s < a.numSegments(); ++s) {
        ASSERT_EQ(a.begins()[s], b.begins()[s]) << "segment " << s;
        ASSERT_EQ(a.ends()[s], b.ends()[s]) << "segment " << s;
        ASSERT_EQ(a.masks()[s].ace, b.masks()[s].ace) << "segment " << s;
        ASSERT_EQ(a.masks()[s].read, b.masks()[s].read) << "segment " << s;
        ASSERT_EQ(a.tags()[s], b.tags()[s]) << "segment " << s;
    }
}

/** Bit-exact equality of two results, window series included. */
void
expectSameResult(const MbAvfResult &a, const MbAvfResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.numGroups, b.numGroups);
    EXPECT_EQ(a.horizon, b.horizon);
    EXPECT_EQ(a.avf.sdc, b.avf.sdc);
    EXPECT_EQ(a.avf.trueDue, b.avf.trueDue);
    EXPECT_EQ(a.avf.falseDue, b.avf.falseDue);
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (std::size_t w = 0; w < a.windows.size(); ++w) {
        EXPECT_EQ(a.windows[w].sdc, b.windows[w].sdc) << "window " << w;
        EXPECT_EQ(a.windows[w].trueDue, b.windows[w].trueDue)
            << "window " << w;
        EXPECT_EQ(a.windows[w].falseDue, b.windows[w].falseDue)
            << "window " << w;
    }
}

/** A histogram job on @p structure with a multi-mode, windowed sweep. */
JobConfig
histogramJob(const std::string &structure)
{
    JobConfig job;
    job.workload = "histogram";
    job.structure = structure;
    job.scheme = "parity";
    job.modes = 6;
    job.windows = 4;
    return job;
}

/** The builder's store of @p job's structure, from a fresh run. */
LifetimeStore
builderStore(const JobConfig &job)
{
    const bool vgpr = job.structure == "vgpr";
    AceRun run = runAceAnalysis(job.workload, job.scale, GpuConfig{},
                                vgpr ? AceStore::Vgpr : AceStore::L1);
    return std::move(vgpr ? run.vgpr : run.l1);
}

class PipelineArena : public ::testing::TestWithParam<std::string>
{};

TEST_P(PipelineArena, ReadLifetimesLeavesTheStoreSnapshot)
{
    const JobConfig job = histogramJob(GetParam());
    std::string error;
    ASSERT_TRUE(validateJob(job, error)) << error;
    Lifetimes lifetimes;
    ASSERT_TRUE(readLifetimes(job, "", lifetimes, error)) << error;
    ASSERT_GT(lifetimes.arena.numSegments(), 0u);
    expectSameColumns(LifetimeArena(builderStore(job)), lifetimes.arena);
}

TEST_P(PipelineArena, ArenaOutSavesTheSameColumns)
{
    const JobConfig job = histogramJob(GetParam());
    const std::string path = ::testing::TempDir() +
                             "pipeline_arena_out_" + GetParam() +
                             ".arena";
    std::string error;
    Lifetimes lifetimes;
    ASSERT_TRUE(readLifetimes(job, path, lifetimes, error)) << error;
    Cycle horizon = 0;
    const std::optional<LifetimeArena> saved =
        tryLoadArena(path, error, &horizon);
    std::remove(path.c_str());
    ASSERT_TRUE(saved) << error;
    EXPECT_EQ(horizon, lifetimes.horizon);
    expectSameColumns(lifetimes.arena, *saved);
}

TEST_P(PipelineArena, RunSweepEqualsTheSnapshotSweep)
{
    const JobConfig job = histogramJob(GetParam());
    std::string error;
    Lifetimes lifetimes;
    ASSERT_TRUE(readLifetimes(job, "", lifetimes, error)) << error;
    const Design design = makeDesign(job, lifetimes.horizon);

    const SweepResult result = runSweep(job, design, lifetimes);
    const ModeSweep snapshot =
        sweepModesArena(*design.array, LifetimeArena(builderStore(job)),
                        *design.scheme, design.options, job.modes);
    ASSERT_EQ(result.sweep.results.size(), job.modes);
    ASSERT_EQ(snapshot.results.size(), job.modes);
    EXPECT_GT(result.sweep.avf(1).total(), 0.0);
    for (unsigned m = 0; m < job.modes; ++m) {
        SCOPED_TRACE("mode " + std::to_string(m + 1));
        expectSameResult(snapshot.results[m], result.sweep.results[m]);
    }
}

TEST_P(PipelineArena, AttributionReturnsTheReferenceResult)
{
    const JobConfig job = histogramJob(GetParam());
    std::string error;
    Lifetimes lifetimes;
    ASSERT_TRUE(readLifetimes(job, "", lifetimes, error)) << error;
    const Design design = makeDesign(job, lifetimes.horizon);
    const LifetimeStore store = builderStore(job);

    for (const unsigned m : {1u, 4u}) {
        SCOPED_TRACE("mode " + std::to_string(m) + "x1");
        const FaultMode mode = FaultMode::mx1(m);
        const analyze::AttributionResult attr = analyze::attributeMbAvf(
            *design.array, lifetimes.arena, *design.scheme, mode,
            design.options);
        // Attribution sweeps the whole run: no window series.
        MbAvfOptions whole_run = design.options;
        whole_run.numWindows = 0;
        const MbAvfResult reference =
            computeMbAvf(*design.array, store, *design.scheme, mode,
                         whole_run);
        EXPECT_GT(reference.avf.total(), 0.0);
        expectSameResult(reference, attr.mbavf);
        EXPECT_EQ(analyze::checkConservation(attr, attr.mbavf), "");
        EXPECT_EQ(analyze::checkConservation(attr, reference), "");
    }
}

INSTANTIATE_TEST_SUITE_P(Structures, PipelineArena,
                         ::testing::Values("l1", "vgpr"),
                         [](const auto &info) { return info.param; });

TEST(Sweep, OneCallSerMatchesManual)
{
    JobConfig job;
    job.workload = "histogram";
    job.scheme = "secded";
    job.totalFit = 250.0;
    std::string error;
    ASSERT_TRUE(validateJob(job, error)) << error;

    // Synthetic lifetimes instead of a workload run: every third
    // byte of the first 16 L1 lines is ACE for a stretch of the run.
    LifetimeStore store(8, 64);
    for (std::uint64_t line = 0; line < 16; ++line) {
        ContainerLifetime &container = store.container(line);
        for (unsigned w = 0; w < 64; w += 3) {
            container.words[w].append(
                {10 * line, 500 + 20 * line, 0xFF, 0xFF});
        }
    }
    Lifetimes lifetimes;
    lifetimes.horizon = 1000;
    lifetimes.arena = LifetimeArena(store);

    const SweepResult result = runSweep(
        job, makeDesign(job, lifetimes.horizon), lifetimes);
    ASSERT_EQ(result.sweep.results.size(), job.modes);
    const StructureSer manual =
        sweepSer(result.sweep, caseStudyFaultRates(job.totalFit));
    EXPECT_GT(result.ser.total(), 0.0);
    EXPECT_EQ(result.ser.sdc, manual.sdc);
    EXPECT_EQ(result.ser.trueDue, manual.trueDue);
    EXPECT_EQ(result.ser.falseDue, manual.falseDue);
    EXPECT_EQ(result.areaOverhead,
              SecDedScheme().areaOverhead(GpuConfig{}.l1.lineBytes * 8));
}

} // namespace
} // namespace mbavf
