/**
 * @file
 * Fault-injection vs ACE-analysis cross-validation (the paper's
 * Section VII-A methodology on a single workload).
 *
 * Runs a random single-bit injection campaign into the VGPR and
 * compares the measured SDC probability against the unprotected SDC
 * AVF predicted by ACE analysis. ACE analysis is conservative, so
 * the prediction should upper-bound the measured rate while staying
 * the same order of magnitude.
 *
 *   ./injection_study [--workload=dct] [--n=1500]
 */

#include <cmath>
#include <iostream>
#include <limits>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "pipeline/pipeline.hh"

using namespace mbavf;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    args.requireKnown({"workload", "n", "seed"});
    const std::string workload =
        args.getString("workload", "dct");
    const unsigned n = static_cast<unsigned>(args.getIntInRange(
        "n", 1500, 1, std::numeric_limits<unsigned>::max()));
    const std::uint64_t seed = static_cast<std::uint64_t>(
        args.getIntInRange("seed", 1234, 0,
                           std::numeric_limits<std::int64_t>::max()));

    std::cout << "Injection vs ACE analysis, VGPR of '" << workload
              << "'\n\n";

    // ACE-analysis prediction: unprotected single-bit SDC AVF.
    JobConfig job;
    job.workload = workload;
    job.structure = "vgpr";
    job.scheme = "none";
    job.style = "intra";
    job.interleave = 1;
    job.modes = 1;
    std::string error;
    Lifetimes life;
    if (!validateJob(job, error) || !readLifetimes(job, "", life, error))
        fatal(error);
    double predicted =
        runSweep(job, makeDesign(job, life.horizon), life).sweep.avf(1).sdc;

    // Injection campaign measurement: the tools' trial plan runs n
    // independent trials concurrently on the shared pool, trial t
    // seeded from splitMix64(seed, t), so the study is reproducible
    // at any thread count.
    JobConfig campaign_job;
    campaign_job.type = JobType::Campaign;
    campaign_job.workload = workload;
    campaign_job.trials = n;
    campaign_job.seed = seed;
    if (!validateJob(campaign_job, error))
        fatal(error);
    const TrialPlan plan(campaign_job);
    CampaignTallies tallies = plan.emptyTallies();
    plan.run(0, n, tallies);
    const std::uint64_t sdc = tallies.flat.count(InjectOutcome::Sdc);
    double measured = static_cast<double>(sdc) / n;

    Table table({"quantity", "value"});
    table.beginRow().cell("ACE-predicted SDC AVF").cell(predicted, 4);
    table.beginRow()
        .cell("measured SDC rate (" + std::to_string(n) +
              " injections)")
        .cell(measured, 4);
    table.beginRow()
        .cell("injections causing SDC")
        .cell(sdc);
    table.printText(std::cout);

    std::cout << "\nACE analysis proves state unACE and assumes the "
                 "rest is ACE, so the\nprediction upper-bounds the "
                 "injection measurement (paper Section II-B).\n";
    // Allow three binomial standard deviations of sampling noise on
    // top of the bound so small-n smoke runs don't flag spuriously.
    double margin =
        3.0 * std::sqrt(predicted * (1.0 - predicted) / n);
    if (measured > predicted + margin) {
        std::cout << "WARNING: measured rate exceeds the ACE bound; "
                     "this should not happen.\n";
        return 1;
    }
    return 0;
}
