/**
 * @file
 * Ablation: arbitrary fault geometries (paper Section VI-A notes the
 * model "supports fault modes with arbitrary geometries").
 *
 * Compares equal-bit-count modes of different shapes on the L1: a
 * 4x1 wordline fault, a 2x2 cluster, a 1x4 bitline (column) fault,
 * and an L-shaped 4-bit pattern, under parity and SEC-DED with x2
 * way-physical interleaving. Shape matters: wordline faults cross
 * interleaved check words while bitline faults stack within the same
 * column of different rows (different lines entirely), so their
 * protection interactions differ sharply.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "core/mbavf.hh"
#include "core/protection.hh"
#include "workloads/ace_runner.hh"

using namespace mbavf;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    BenchReporter bench("ablation_fault_geometry", &args);
    const unsigned threads = configureThreads(args);
    const unsigned scale =
        static_cast<unsigned>(args.getInt("scale", 1));

    std::cout << "Ablation: fault geometry at constant size (4 bits), "
                 "L1, x2 way-physical\n\n";

    const std::vector<FaultMode> modes = {
        FaultMode::mx1(4),
        FaultMode::rect(2, 2),
        FaultMode("1x4-column",
                  {{0, 0}, {1, 0}, {2, 0}, {3, 0}}),
        FaultMode("L-shape", {{0, 0}, {0, 1}, {1, 0}, {2, 0}}),
    };

    std::vector<std::string> header = {"workload", "scheme"};
    for (const FaultMode &m : modes) {
        header.push_back(m.name() + " SDC");
        header.push_back(m.name() + " DUE");
    }
    Table table(header);

    ParityScheme parity;
    SecDedScheme secded;

    for (const std::string &name : selectedWorkloads(args)) {
        note("running " + name);
        AceRun run = runAceAnalysis(name, scale, GpuConfig{}, AceStore::L1);
        CacheGeometry geom{run.config.l1.sets, run.config.l1.ways,
                           run.config.l1.lineBytes};
        auto array =
            makeCacheArray(geom, CacheInterleave::WayPhysical, 2);
        MbAvfOptions opt;
        opt.horizon = run.horizon;
        opt.numThreads = threads;

        for (const ProtectionScheme *scheme :
             {static_cast<const ProtectionScheme *>(&parity),
              static_cast<const ProtectionScheme *>(&secded)}) {
            table.beginRow().cell(name).cell(scheme->name());
            for (const FaultMode &m : modes) {
                MbAvfResult r =
                    computeMbAvf(*array, run.l1, *scheme, m, opt);
                table.cell(r.avf.sdc, 4).cell(r.avf.due(), 4);
            }
        }
    }
    bench.emit(table);

    std::cout << "\nA 4x1 wordline fault puts 2 bits in each of 2 "
                 "check words (SDC under parity);\na 1x4 column "
                 "fault puts 1 bit in each of 4 different lines "
                 "(all detected);\nclustered shapes land in "
                 "between. Geometry, not just size, drives the "
                 "outcome.\n";
    return 0;
}
