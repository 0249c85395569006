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

using namespace mbavf;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    BenchReporter bench("fig5_minife_timeseries", &args);
    configureThreads(args);
    JobConfig job;
    job.workload = args.getString("workload", "minife");
    job.scale = unsignedFlag(args, "scale", 1);
    job.windows = unsignedFlag(args, "windows", 16);
    job.modes = 2;

    std::cout << "Figure 5: DUE AVF over time, " << job.workload
              << ", L1 cache, parity\n\n";

    note("running " + job.workload);
    const Lifetimes life = jobLifetimes(job);
    auto sweep = [&](const char *style) {
        job.style = style;
        return runSweep(job, makeDesign(job, life.horizon), life).sweep;
    };

    const ModeSweep idx = sweep("index");
    const MbAvfResult &sb = idx.results[0];
    const MbAvfResult &mb_idx = idx.results[1];
    const MbAvfResult mb_log = sweep("logical").results[1];
    const MbAvfResult mb_way = sweep("way").results[1];

    Table table({"window", "SB-AVF", "2x1 idx-phys", "2x1 logical",
                 "2x1 way-phys", "MB/SB (idx)"});
    for (unsigned w = 0; w < job.windows; ++w) {
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
