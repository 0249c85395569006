/**
 * @file
 * Paper Figure 8: SDC and DUE MB-AVF for 3x1 faults in the L1 with
 * parity, x2 index-physical vs x2 way-physical interleaving, over
 * application phases of MiniFE.
 *
 * Expected shape: SDC MB-AVF well above DUE MB-AVF for both styles,
 * but a non-trivial DUE rate exists (a 3x1 over x2 interleaving
 * splits 2+1: the 1-bit region detects); designers assuming "all
 * 3x1 faults are SDC" overestimate SDC and miss the DUE component;
 * index-physical shows lower SDC than way-physical.
 */

#include <iostream>

#include "bench/bench_util.hh"

using namespace mbavf;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    BenchReporter bench("fig8_sdc_3x1", &args);
    configureThreads(args);
    JobConfig job;
    job.workload = args.getString("workload", "minife");
    job.scale = unsignedFlag(args, "scale", 1);
    job.windows = unsignedFlag(args, "windows", 12);
    job.modes = 3;

    std::cout << "Figure 8: 3x1 SDC and DUE MB-AVF, " << job.workload
              << ", L1, parity, x2 interleaving\n\n";

    note("running " + job.workload);
    const Lifetimes life = jobLifetimes(job);
    auto mode3 = [&](const char *style) {
        job.style = style;
        return runSweep(job, makeDesign(job, life.horizon), life)
            .sweep.results[2];
    };

    const MbAvfResult r_idx = mode3("index");
    const MbAvfResult r_way = mode3("way");

    // Shielded variant: assume the partner line's parity check fires
    // before the corrupted data propagates (the Section VIII rule).
    // Under the strict cache-mode precedence the undetected 2-bit
    // region is always an adjacent same-line bit pair, so the SDC
    // MB-AVF is provably identical across x2 interleaving styles;
    // the style-dependence the paper observes appears in the DUE
    // split and, under this variant, in SDC as well (EXPERIMENTS.md).
    job.shieldDue = true;
    job.windows = 0;
    const MbAvfResult s_idx = mode3("index");
    const MbAvfResult s_way = mode3("way");

    Table table({"window", "idx SDC", "idx DUE", "way SDC",
                 "way DUE"});
    for (std::size_t w = 0; w < r_idx.windows.size(); ++w) {
        table.beginRow()
            .cell(std::to_string(w))
            .cell(r_idx.windows[w].sdc, 4)
            .cell(r_idx.windows[w].due(), 4)
            .cell(r_way.windows[w].sdc, 4)
            .cell(r_way.windows[w].due(), 4);
    }
    table.beginRow()
        .cell("whole-run")
        .cell(r_idx.avf.sdc, 4)
        .cell(r_idx.avf.due(), 4)
        .cell(r_way.avf.sdc, 4)
        .cell(r_way.avf.due(), 4);
    table.beginRow()
        .cell("shielded")
        .cell(s_idx.avf.sdc, 4)
        .cell(s_idx.avf.due(), 4)
        .cell(s_way.avf.sdc, 4)
        .cell(s_way.avf.due(), 4);
    bench.emit(table);

    double ratio = s_idx.avf.sdc > 0
        ? s_way.avf.sdc / s_idx.avf.sdc : 0.0;
    std::cout << "\nway/idx SDC ratio (shielded variant) = "
              << formatFixed(ratio, 2)
              << " (paper reports ~1.8x for MiniFE).\nThe "
                 "conservative 'all 3x1 faults are SDC' assumption "
                 "overestimates SDC and\nignores the DUE fraction "
                 "shown above.\n";
    return 0;
}
