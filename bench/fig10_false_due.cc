/**
 * @file
 * Paper Figure 10: true vs false DUE AVF in the L1 by fault mode,
 * parity with x4 way-physical interleaving.
 *
 * Expected shape: false DUE is a small contributor on average but
 * large for particular workloads (CoMD-like neighbour re-reads);
 * how the false fraction moves with fault-mode size depends on the
 * workload's access pattern.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "common/stats.hh"

using namespace mbavf;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    BenchReporter bench("fig10_false_due", &args);
    configureThreads(args);
    JobConfig job;
    job.scale = unsignedFlag(args, "scale", 1);
    job.style = "way";
    job.interleave = 4;
    job.modes = 4;
    const std::vector<unsigned> modes = {1, 2, 4};

    std::cout << "Figure 10: true vs false DUE AVF by fault mode, "
                 "L1, parity, x4 way-physical\n\n";

    std::vector<std::string> header = {"workload"};
    for (unsigned m : modes) {
        header.push_back(std::to_string(m) + "x1 true");
        header.push_back(std::to_string(m) + "x1 false");
        header.push_back(std::to_string(m) + "x1 false%");
    }
    Table table(header);

    RunningStats mean_false_frac;

    for (const std::string &name : selectedWorkloads(args)) {
        note("running " + name);
        job.workload = name;
        const Lifetimes life = jobLifetimes(job);
        const ModeSweep sweep =
            runSweep(job, makeDesign(job, life.horizon), life).sweep;

        table.beginRow().cell(name);
        for (unsigned m : modes) {
            const AvfFractions &avf = sweep.avf(m);
            double frac = avf.due() > 0
                ? 100.0 * avf.falseDue / avf.due() : 0.0;
            if (m == 1)
                mean_false_frac.add(frac);
            table.cell(avf.trueDue, 4)
                .cell(avf.falseDue, 4)
                .cell(frac, 1);
        }
    }
    bench.emit(table);

    std::cout << "\nMean single-bit false-DUE share: "
              << formatFixed(mean_false_frac.mean(), 1)
              << "% of DUE AVF. False DUE is small on average but "
                 "large for workloads that\nre-read stale data "
                 "(paper: 41% for CoMD, 29-50% for srad).\n";
    return 0;
}
