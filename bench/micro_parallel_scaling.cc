/**
 * @file
 * Parallel-scaling microbenchmark for the shared execution layer.
 *
 * Measures the two fan-out shapes the pool serves — an 8-mode
 * sweep of a structure's lifetime arena, and a uniform injection
 * campaign run through the tools' TrialPlan — at 1/2/4/N threads,
 * and checks that every thread count produces bit-identical AVF
 * fractions and per-trial results (outcome and trap code, collected
 * through the plan's trial hook).
 *
 *   micro_parallel_scaling [--workload=histogram] [--scale=N]
 *                          [--trials=256] [--modes=8] [--max-threads=N]
 *
 * Exit status is nonzero if any thread count diverges from the
 * serial reference.
 */

#include <iostream>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "common/parallel.hh"
#include "obs/stopwatch.hh"

using namespace mbavf;

namespace
{

bool
sameSweep(const ModeSweep &a, const ModeSweep &b)
{
    if (a.results.size() != b.results.size())
        return false;
    for (std::size_t m = 0; m < a.results.size(); ++m) {
        const MbAvfResult &x = a.results[m];
        const MbAvfResult &y = b.results[m];
        if (x.avf.sdc != y.avf.sdc || x.avf.trueDue != y.avf.trueDue ||
            x.avf.falseDue != y.avf.falseDue ||
            x.windows.size() != y.windows.size()) {
            return false;
        }
        for (std::size_t w = 0; w < x.windows.size(); ++w) {
            if (x.windows[w].sdc != y.windows[w].sdc ||
                x.windows[w].trueDue != y.windows[w].trueDue ||
                x.windows[w].falseDue != y.windows[w].falseDue) {
                return false;
            }
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    BenchReporter bench("micro_parallel_scaling", &args);
    JobConfig job;
    job.workload = args.getString("workload", "histogram");
    job.scale = unsignedFlag(args, "scale", 1);
    job.style = "way";
    job.interleave = 4;
    job.windows = 8;
    job.modes = unsignedFlag(args, "modes", 8);
    const unsigned trials = unsignedFlag(args, "trials", 256);
    unsigned max_threads =
        unsignedFlag(args, "max-threads", 0, 0, maxParallelThreads);
    if (max_threads == 0)
        max_threads = std::max(1u, std::thread::hardware_concurrency());

    std::vector<unsigned> counts = {1};
    for (unsigned t : {2u, 4u})
        if (t <= max_threads)
            counts.push_back(t);
    if (max_threads != 1 && max_threads != 2 && max_threads != 4)
        counts.push_back(max_threads);

    note("simulating " + job.workload + " for lifetimes");
    const Lifetimes life = jobLifetimes(job);
    const Design design = makeDesign(job, life.horizon);

    note("golden run of " + job.workload + " for the campaign");
    JobConfig campaign_job;
    campaign_job.type = JobType::Campaign;
    campaign_job.workload = job.workload;
    campaign_job.scale = job.scale;
    campaign_job.seed = 12345;
    const TrialPlan plan(campaign_job);

    MbAvfOptions opt = design.options;

    Table table({"threads", "sweep s", "sweep x", "campaign s",
                 "campaign x", "trials/s"});
    ModeSweep ref_sweep;
    std::vector<TrialResult> ref_results;
    double sweep1 = 0.0, camp1 = 0.0;
    bool identical = true;

    for (unsigned t : counts) {
        setParallelThreads(t);
        opt.numThreads = t == 1 ? 1 : 0;

        obs::Stopwatch watch;
        ModeSweep sweep = sweepModesArena(*design.array, life.arena,
                                          *design.scheme, opt, job.modes);
        double sweep_s = watch.restart();

        std::vector<TrialResult> results(trials);
        CampaignTallies tallies = plan.emptyTallies();
        plan.run(0, trials, tallies,
                 [&](std::uint64_t index, std::uint64_t, std::uint32_t,
                     const TrialResult &r) { results[index] = r; });
        double camp_s = watch.restart();

        if (t == counts.front()) {
            ref_sweep = std::move(sweep);
            ref_results = std::move(results);
            sweep1 = sweep_s;
            camp1 = camp_s;
        } else {
            if (!sameSweep(ref_sweep, sweep)) {
                std::cerr << "FAIL: sweep results diverge at "
                          << t << " threads\n";
                identical = false;
            }
            if (results != ref_results) {
                std::cerr << "FAIL: trial outcomes diverge at "
                          << t << " threads\n";
                identical = false;
            }
        }

        table.beginRow()
            .cell(std::to_string(t))
            .cell(sweep_s, 3)
            .cell(sweep_s > 0 ? sweep1 / sweep_s : 0.0, 2)
            .cell(camp_s, 3)
            .cell(camp_s > 0 ? camp1 / camp_s : 0.0, 2)
            .cell(camp_s > 0 ? trials / camp_s : 0.0, 1);
    }

    std::cout << "parallel scaling: " << job.workload << ", " << job.modes
              << " modes, " << trials << " trials\n\n";
    bench.emit(table);
    std::cout << (identical
                      ? "\nresults bit-identical at every thread "
                        "count\n"
                      : "\nRESULT MISMATCH between thread counts\n");
    return identical ? 0 : 1;
}
