/**
 * @file
 * Quickstart: measure single- and multi-bit AVFs of a GPU L1 cache.
 *
 * Runs one workload on the APU model with ACE instrumentation, then
 * computes the single-bit AVF and the 2x1/4x1 spatial multi-bit AVFs
 * of the L1 data array under parity with three interleaving styles.
 *
 *   ./quickstart [--workload=minife] [--scale=1]
 */

#include <iostream>
#include <limits>

#include "common/args.hh"
#include "common/table.hh"
#include "core/protection.hh"
#include "core/sweep.hh"
#include "workloads/ace_runner.hh"

using namespace mbavf;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    args.requireKnown({"workload", "scale"});
    const std::string workload = args.getString("workload", "minife");
    const unsigned scale = static_cast<unsigned>(args.getIntInRange(
        "scale", 1, 0, std::numeric_limits<unsigned>::max()));

    std::cout << "mbavf quickstart: ACE analysis of '" << workload
              << "' (scale " << scale << ")\n";

    AceRun run = runAceAnalysis(workload, scale, GpuConfig{}, AceStore::L1);
    std::cout << "  horizon: " << run.horizon << " cycles\n"
              << "  L1: " << run.l1Stats.hits << " hits, "
              << run.l1Stats.misses << " misses\n"
              << "  dataflow: " << run.numDefs << " defs, "
              << run.numDeadDefs << " dynamically dead\n\n";

    CacheGeometry geom{run.config.l1.sets, run.config.l1.ways,
                       run.config.l1.lineBytes};
    ParityScheme parity;
    MbAvfOptions opt;
    opt.horizon = run.horizon;

    Table table({"interleave", "SB DUE", "2x1 DUE", "2x1 SDC",
                 "4x1 DUE", "4x1 SDC"});
    for (auto style : {CacheInterleave::Logical,
                       CacheInterleave::WayPhysical,
                       CacheInterleave::IndexPhysical}) {
        auto array = makeCacheArray(geom, style, 2);
        // Modes 1x1..4x1 in one pass over the array.
        ModeSweep sweep = sweepModes(*array, run.l1, parity, opt, 4);
        table.beginRow()
            .cell(cacheInterleaveName(style) + " x2")
            .cell(sweep.avf(1).due(), 4)
            .cell(sweep.avf(2).due(), 4)
            .cell(sweep.avf(2).sdc, 4)
            .cell(sweep.avf(4).due(), 4)
            .cell(sweep.avf(4).sdc, 4);
    }
    table.printText(std::cout);

    std::cout << "\nMB-AVF grows with fault-mode size, and logical\n"
                 "interleaving (higher ACE locality) stays closest to\n"
                 "the single-bit AVF — the paper's Figure 4/6 trends.\n";
    return 0;
}
