/**
 * @file
 * Paper Figure 6: effect of fault mode on DUE MB-AVF in the L1 with
 * x4 way-physical interleaving — (a) parity, (b) SEC-DED ECC.
 * Values are normalized to the parity SB-AVF.
 *
 * Expected shapes: MB-AVF grows with fault-mode size (a larger group
 * is more likely to contain an ACE bit); with SEC-DED, an Mx1 fault
 * behaves like an (M/I)x1 fault with parity — e.g. 8x1 with SEC-DED
 * matches 2x1 with parity under x4 interleaving.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "common/stats.hh"

using namespace mbavf;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    BenchReporter bench("fig6_fault_modes", &args);
    configureThreads(args);
    JobConfig job;
    job.scale = unsignedFlag(args, "scale", 1);
    job.style = "way";
    job.interleave = 4;
    job.modes = 8;
    const std::vector<unsigned> modes = {2, 3, 4, 5, 6, 7, 8};
    const std::vector<std::string> schemes = {"parity", "secded"};

    std::cout << "Figure 6: DUE MB-AVF by fault mode, L1, x4 "
                 "way-physical interleaving\n";

    std::vector<std::string> header = {"workload"};
    for (unsigned m : modes)
        header.push_back(std::to_string(m) + "x1");
    std::vector<Table> tables(2, Table(header));
    std::vector<std::vector<RunningStats>> geo(
        2, std::vector<RunningStats>(modes.size()));

    for (const std::string &name : selectedWorkloads(args)) {
        note("running " + name);
        job.workload = name;
        const Lifetimes life = jobLifetimes(job);

        double sb = 0.0;
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            job.scheme = schemes[s];
            const ModeSweep sweep =
                runSweep(job, makeDesign(job, life.horizon), life).sweep;
            // Normalize to the structure's single-bit DUE AVF
            // (parity).
            if (s == 0)
                sb = sweep.avf(1).due();
            tables[s].beginRow().cell(name);
            for (std::size_t i = 0; i < modes.size(); ++i) {
                double mb = sweep.avf(modes[i]).due();
                double ratio = sb > 0 ? mb / sb : 0.0;
                geo[s][i].add(ratio);
                tables[s].cell(ratio, 3);
            }
        }
    }

    for (std::size_t s = 0; s < schemes.size(); ++s) {
        std::cout << "\n-- (" << (s ? 'b' : 'a') << ") DUE MB-AVF / "
                  << "SB-AVF, " << makeScheme(schemes[s])->name()
                  << " --\n\n";
        tables[s].beginRow().cell("geomean");
        for (std::size_t i = 0; i < modes.size(); ++i)
            tables[s].cell(geo[s][i].geomean(), 3);
        bench.emit(tables[s]);
    }

    std::cout << "\nMB-AVF increases with fault-mode size; Mx1 under "
                 "SEC-DED tracks (M/4)x1 under\nparity (both leave "
                 "the same number of lines uncorrected), e.g. 8x1 "
                 "SEC-DED\n~= 2x1 parity here with x4 interleaving.\n";
    return 0;
}
