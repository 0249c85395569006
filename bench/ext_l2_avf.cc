/**
 * @file
 * Extension: L2 AVF measurement. The paper measures AVF "in the GPU
 * L1 and L2 caches" but reports L1 figures; this harness produces the
 * L2 view: single-bit and 2x1/4x1 DUE MB-AVF of the shared 256 KB L2
 * under parity with x2 logical vs way-physical interleaving, next to
 * the L1 numbers for the same run.
 *
 * Expected shape: L2 AVF is far below L1 AVF (most L2 lines sit cold
 * or hold dead copies), and the same interleaving ordering holds.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "common/stats.hh"

using namespace mbavf;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    BenchReporter bench("ext_l2_avf", &args);
    configureThreads(args);
    JobConfig job;
    job.scale = unsignedFlag(args, "scale", 1);
    job.modes = 2;

    std::cout << "Extension: L1 vs L2 DUE AVF (parity, x2)\n\n";

    Table table({"workload", "L1 SB", "L1 2x1 way", "L2 SB",
                 "L2 2x1 way", "L2 2x1 logical", "L2/L1 SB"});
    RunningStats ratio_stats;

    for (const std::string &name : selectedWorkloads(args)) {
        note("running " + name);
        job.workload = name;
        auto sweep = [&](const Lifetimes &life, const char *style) {
            job.style = style;
            return runSweep(job, makeDesign(job, life.horizon), life)
                .sweep;
        };
        job.structure = "l1";
        const ModeSweep l1_way = sweep(jobLifetimes(job), "way");
        job.structure = "l2";
        const Lifetimes l2 = jobLifetimes(job);
        const ModeSweep l2_way = sweep(l2, "way");
        const ModeSweep l2_log = sweep(l2, "logical");

        double l1_sb = l1_way.avf(1).due();
        double l1_mb = l1_way.avf(2).due();
        double l2_sb = l2_way.avf(1).due();
        double l2_mb_way = l2_way.avf(2).due();
        double l2_mb_log = l2_log.avf(2).due();

        double ratio = l1_sb > 0 ? l2_sb / l1_sb : 0.0;
        ratio_stats.add(ratio);
        table.beginRow()
            .cell(name)
            .cell(l1_sb, 4)
            .cell(l1_mb, 4)
            .cell(l2_sb, 4)
            .cell(l2_mb_way, 4)
            .cell(l2_mb_log, 4)
            .cell(ratio, 3);
    }
    bench.emit(table);

    std::cout << "\nMean L2/L1 single-bit AVF ratio: "
              << formatFixed(ratio_stats.mean(), 3)
              << ". The L2 is large relative to these working sets, "
                 "so most of its bits\nare unACE; per-bit "
                 "vulnerability is much lower than the L1's.\n";
    return 0;
}
