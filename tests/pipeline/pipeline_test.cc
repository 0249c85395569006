/**
 * @file
 * Tests for the pipeline's sweep: runSweep() folds its mode sweep
 * into the structure SER at the job's total FIT, and quotes the
 * scheme's area overhead on the structure's word.
 */

#include <gtest/gtest.h>

#include "gpu/gpu.hh"
#include "pipeline/pipeline.hh"

namespace mbavf
{
namespace
{

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
    Lifetimes lifetimes;
    lifetimes.horizon = 1000;
    for (std::uint64_t line = 0; line < 16; ++line) {
        ContainerLifetime &container = lifetimes.store.container(line);
        for (unsigned w = 0; w < 64; w += 3) {
            container.words[w].append(
                {10 * line, 500 + 20 * line, 0xFF, 0xFF});
        }
    }

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
