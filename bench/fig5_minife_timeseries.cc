/**
 * @file
 * Paper Figure 5: DUE AVF over time for MiniFE in the L1 cache.
 *  (a) SB-AVF vs 2x1 MB-AVF with x2 index-physical interleaving;
 *  (b) 2x1 MB-AVF under x2 logical / way-physical / index-physical.
 *
 * Expected shape: both AVFs track the benchmark's phases; the
 * MB-AVF/SB-AVF gap widens in low-AVF phases; the interleaving
 * styles separate in some phases and coincide in others.
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
    BenchReporter bench("fig5_minife_timeseries", &args);
    const unsigned threads = configureThreads(args);
    const unsigned scale =
        static_cast<unsigned>(args.getInt("scale", 1));
    const unsigned windows =
        static_cast<unsigned>(args.getInt("windows", 16));
    const std::string workload = args.getString("workload", "minife");

    std::cout << "Figure 5: DUE AVF over time, " << workload
              << ", L1 cache, parity\n\n";

    note("running " + workload);
    AceRun run = runAceAnalysis(workload, scale, GpuConfig{}, AceStore::L1);
    CacheGeometry geom{run.config.l1.sets, run.config.l1.ways,
                       run.config.l1.lineBytes};
    ParityScheme parity;
    MbAvfOptions opt;
    opt.horizon = run.horizon;
    opt.numThreads = threads;
    opt.numWindows = windows;

    auto windowed = [&](CacheInterleave style, unsigned mode_bits) {
        auto array = makeCacheArray(geom, style, 2);
        return computeMbAvf(*array, run.l1, parity,
                            FaultMode::mx1(mode_bits), opt);
    };

    MbAvfResult sb = windowed(CacheInterleave::IndexPhysical, 1);
    MbAvfResult mb_idx = windowed(CacheInterleave::IndexPhysical, 2);
    MbAvfResult mb_log = windowed(CacheInterleave::Logical, 2);
    MbAvfResult mb_way = windowed(CacheInterleave::WayPhysical, 2);

    Table table({"window", "SB-AVF", "2x1 idx-phys", "2x1 logical",
                 "2x1 way-phys", "MB/SB (idx)"});
    for (unsigned w = 0; w < windows; ++w) {
        double s = sb.windows[w].due();
        double mi = mb_idx.windows[w].due();
        table.beginRow()
            .cell(std::to_string(w))
            .cell(s, 4)
            .cell(mi, 4)
            .cell(mb_log.windows[w].due(), 4)
            .cell(mb_way.windows[w].due(), 4)
            .cell(s > 0 ? mi / s : 0.0, 3);
    }
    table.beginRow()
        .cell("whole-run")
        .cell(sb.avf.due(), 4)
        .cell(mb_idx.avf.due(), 4)
        .cell(mb_log.avf.due(), 4)
        .cell(mb_way.avf.due(), 4)
        .cell(sb.avf.due() > 0 ? mb_idx.avf.due() / sb.avf.due() : 0.0,
              3);
    bench.emit(table);

    std::cout << "\nThe MB/SB ratio changes across application phases "
                 "(paper Fig. 5a), and the\ninterleaving styles "
                 "separate only in some phases (paper Fig. 5b).\n";
    return 0;
}
