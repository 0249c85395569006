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

using namespace mbavf;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    BenchReporter bench("ablation_fault_geometry", &args);
    configureThreads(args);
    JobConfig job;
    job.scale = unsignedFlag(args, "scale", 1);
    job.style = "way";

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

    for (const std::string &name : selectedWorkloads(args)) {
        note("running " + name);
        job.workload = name;
        const Lifetimes life = jobLifetimes(job);

        // The sweep kernel walks Mx1 modes only: each shape goes
        // through the per-group reference engine.
        for (const char *scheme : {"parity", "secded"}) {
            job.scheme = scheme;
            const Design design = makeDesign(job, life.horizon);
            table.beginRow().cell(name).cell(design.scheme->name());
            for (const FaultMode &m : modes) {
                MbAvfResult r =
                    computeMbAvf(*design.array, life.store,
                                 *design.scheme, m, design.options);
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
