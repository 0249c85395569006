/**
 * @file
 * Trial-reduction gate for the two-level stratified estimator
 * (DESIGN.md Section 16, inject/stratified.hh).
 *
 * Runs the same injected-trial budget B twice over one workload, each
 * time as a campaign job through the tools' TrialPlan: uniform
 * sampling, and the importance-sampled stratified campaign.
 * The stratified combined SDC interval is converted into the number
 * of uniform trials that would be needed for the same width
 * (effectiveUniformTrials), and the harness reports
 *
 *   reduction = effective_trials / injected
 *
 * — how many uniform injections each stratified injection is worth.
 *
 *   micro_stratified_campaign [--workload=minife] [--scale=N]
 *       [--budget=300] [--seed=5] [--windows=8] [--classes=64]
 *       [--min-trial-reduction=R] [--threads=N]
 *
 * Exit status is nonzero when the stratified and uniform SDC
 * intervals are disjoint (the estimator would be unsound) or when
 * --min-trial-reduction=R is given and the reduction falls below R
 * (the CI performance gate).
 */

#include <iostream>
#include <vector>

#include "bench/bench_util.hh"
#include "common/stats.hh"

using namespace mbavf;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    args.requireKnown({
        "workload", "scale", "budget", "seed", "windows", "classes",
        "min-trial-reduction", "threads", "manifest", "no-manifest",
        "help",
    });
    if (args.getBool("help")) {
        std::cout << "usage: micro_stratified_campaign"
                     " [--workload=minife] [--budget=300]\n"
                     "       [--seed=5] [--windows=8] [--classes=64]"
                     " [--min-trial-reduction=R]\n";
        return 0;
    }
    BenchReporter bench("micro_stratified_campaign", &args);
    configureThreads(args);

    JobConfig job;
    job.type = JobType::Campaign;
    job.workload = args.getString("workload", "minife");
    job.scale = unsignedFlag(args, "scale", 1);
    constexpr std::int64_t int64_max =
        std::numeric_limits<std::int64_t>::max();
    const std::uint64_t budget = static_cast<std::uint64_t>(
        args.getIntInRange("budget", 300, 1, int64_max));
    job.seed = static_cast<std::uint64_t>(
        args.getIntInRange("seed", 5, 0, int64_max));
    const double min_reduction =
        args.getDouble("min-trial-reduction", 0.0);
    job.stratify = true;
    job.stratifyWindows = unsignedFlag(args, "windows", 8);
    job.stratifyClasses = unsignedFlag(args, "classes", 64);
    job.budget = budget;
    std::string error;
    if (!validateJob(job, error))
        fatal(error);

    note("golden run of " + job.workload + ", level one: ACE partition");
    const TrialPlan stratified(job);
    const Stratification &strat = *stratified.stratification();
    note("partition: " +
         std::to_string(strat.strata().size()) + " strata, " +
         std::to_string(100.0 * strat.skippedWeight()) +
         "% provably Masked");

    note("level two: " + std::to_string(budget) +
         " stratified trials");
    CampaignTallies strat_tallies = stratified.emptyTallies();
    stratified.run(0, budget, strat_tallies);
    const WilsonInterval strat_sdc =
        strat.combinedInterval(strat_tallies.strata, InjectOutcome::Sdc);

    note("reference: " + std::to_string(budget) +
         " uniform trials");
    JobConfig uniform_job = job;
    uniform_job.stratify = false;
    uniform_job.budget = 0;
    uniform_job.trials = budget;
    const TrialPlan uniform(uniform_job);
    CampaignTallies uniform_tallies = uniform.emptyTallies();
    uniform.run(0, budget, uniform_tallies);
    const WilsonInterval uniform_sdc =
        uniform_tallies.flat.rate(InjectOutcome::Sdc);

    const std::uint64_t injected = strat_tallies.flat.total();
    const double width = strat_sdc.high - strat_sdc.low;
    const std::uint64_t effective =
        injected == 0
            ? 0
            : effectiveUniformTrials(width, strat_sdc.point);
    const double reduction =
        injected == 0 ? 0.0
                      : static_cast<double>(effective) /
                            static_cast<double>(injected);

    Table table({"sampling", "trials", "sdc", "ci_low", "ci_high",
                 "width", "n_eff"});
    table.beginRow()
        .cell(std::string("uniform"))
        .cell(std::uint64_t(budget))
        .cell(uniform_sdc.point, 6)
        .cell(uniform_sdc.low, 6)
        .cell(uniform_sdc.high, 6)
        .cell(uniform_sdc.high - uniform_sdc.low, 6)
        .cell(std::uint64_t(budget));
    table.beginRow()
        .cell(std::string("stratified"))
        .cell(injected)
        .cell(strat_sdc.point, 6)
        .cell(strat_sdc.low, 6)
        .cell(strat_sdc.high, 6)
        .cell(width, 6)
        .cell(effective);
    bench.emit(table);

    bench.meta("workload", obs::JsonValue(job.workload));
    bench.meta("scale", obs::JsonValue(std::uint64_t(job.scale)));
    bench.meta("budget", obs::JsonValue(budget));
    bench.meta("seed", obs::JsonValue(job.seed));
    bench.meta("skipped_weight",
               obs::JsonValue(strat.skippedWeight()));
    bench.meta("effective_trials", obs::JsonValue(effective));
    bench.meta("trial_reduction", obs::JsonValue(reduction));

    std::cout << "trial reduction: " << reduction
              << "x (stratified " << injected << " trials worth "
              << effective << " uniform)\n";

    // Soundness sanity: both estimators target the same SDC rate, so
    // their 95% intervals must overlap.
    if (strat_sdc.low > uniform_sdc.high ||
        strat_sdc.high < uniform_sdc.low) {
        std::cerr << "FAIL: stratified SDC interval ["
                  << strat_sdc.low << ", " << strat_sdc.high
                  << "] is disjoint from uniform ["
                  << uniform_sdc.low << ", " << uniform_sdc.high
                  << "]\n";
        return 1;
    }
    if (min_reduction > 0.0 && reduction < min_reduction) {
        std::cerr << "FAIL: trial reduction " << reduction
                  << "x below the --min-trial-reduction="
                  << min_reduction << " gate\n";
        return 1;
    }
    return 0;
}
