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
#include "core/mbavf.hh"
#include "core/protection.hh"
#include "workloads/ace_runner.hh"

using namespace mbavf;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    BenchReporter bench("fig6_fault_modes", &args);
    const unsigned threads = configureThreads(args);
    const unsigned scale =
        static_cast<unsigned>(args.getInt("scale", 1));
    const std::vector<unsigned> modes = {2, 3, 4, 5, 6, 7, 8};

    std::cout << "Figure 6: DUE MB-AVF by fault mode, L1, x4 "
                 "way-physical interleaving\n";

    ParityScheme parity;
    SecDedScheme secded;
    std::vector<const ProtectionScheme *> schemes = {&parity, &secded};

    std::vector<std::string> header = {"workload"};
    for (unsigned m : modes)
        header.push_back(std::to_string(m) + "x1");
    std::vector<Table> tables(2, Table(header));
    std::vector<std::vector<RunningStats>> geo(
        2, std::vector<RunningStats>(modes.size()));

    for (const std::string &name : selectedWorkloads(args)) {
        note("running " + name);
        AceRun run = runAceAnalysis(name, scale, GpuConfig{}, AceStore::L1);
        CacheGeometry geom{run.config.l1.sets, run.config.l1.ways,
                           run.config.l1.lineBytes};
        auto array =
            makeCacheArray(geom, CacheInterleave::WayPhysical, 4);
        MbAvfOptions opt;
        opt.horizon = run.horizon;
        opt.numThreads = threads;

        // Normalize to the structure's single-bit DUE AVF (parity).
        double sb =
            computeSbAvf(*array, run.l1, parity, opt).avf.due();

        for (std::size_t s = 0; s < schemes.size(); ++s) {
            tables[s].beginRow().cell(name);
            for (std::size_t i = 0; i < modes.size(); ++i) {
                double mb =
                    computeMbAvf(*array, run.l1, *schemes[s],
                                 FaultMode::mx1(modes[i]), opt)
                        .avf.due();
                double ratio = sb > 0 ? mb / sb : 0.0;
                geo[s][i].add(ratio);
                tables[s].cell(ratio, 3);
            }
        }
    }

    for (std::size_t s = 0; s < schemes.size(); ++s) {
        std::cout << "\n-- (" << (s ? 'b' : 'a') << ") DUE MB-AVF / "
                  << "SB-AVF, " << schemes[s]->name() << " --\n\n";
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
