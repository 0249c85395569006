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
#include "core/mbavf.hh"
#include "core/protection.hh"
#include "workloads/ace_runner.hh"

using namespace mbavf;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    BenchReporter bench("fig8_sdc_3x1", &args);
    const unsigned threads = configureThreads(args);
    const unsigned scale =
        static_cast<unsigned>(args.getInt("scale", 1));
    const unsigned windows =
        static_cast<unsigned>(args.getInt("windows", 12));
    const std::string workload = args.getString("workload", "minife");

    std::cout << "Figure 8: 3x1 SDC and DUE MB-AVF, " << workload
              << ", L1, parity, x2 interleaving\n\n";

    note("running " + workload);
    AceRun run = runAceAnalysis(workload, scale, GpuConfig{}, AceStore::L1);
    CacheGeometry geom{run.config.l1.sets, run.config.l1.ways,
                       run.config.l1.lineBytes};
    ParityScheme parity;
    MbAvfOptions opt;
    opt.horizon = run.horizon;
    opt.numThreads = threads;
    opt.numWindows = windows;

    auto idx = makeCacheArray(geom, CacheInterleave::IndexPhysical, 2);
    auto way = makeCacheArray(geom, CacheInterleave::WayPhysical, 2);
    MbAvfResult r_idx = computeMbAvf(*idx, run.l1, parity,
                                     FaultMode::mx1(3), opt);
    MbAvfResult r_way = computeMbAvf(*way, run.l1, parity,
                                     FaultMode::mx1(3), opt);

    // Shielded variant: assume the partner line's parity check fires
    // before the corrupted data propagates (the Section VIII rule).
    // Under the strict cache-mode precedence the undetected 2-bit
    // region is always an adjacent same-line bit pair, so the SDC
    // MB-AVF is provably identical across x2 interleaving styles;
    // the style-dependence the paper observes appears in the DUE
    // split and, under this variant, in SDC as well (EXPERIMENTS.md).
    MbAvfOptions shield = opt;
    shield.dueShieldsSdc = true;
    shield.numWindows = 0;
    MbAvfResult s_idx = computeMbAvf(*idx, run.l1, parity,
                                     FaultMode::mx1(3), shield);
    MbAvfResult s_way = computeMbAvf(*way, run.l1, parity,
                                     FaultMode::mx1(3), shield);

    Table table({"window", "idx SDC", "idx DUE", "way SDC",
                 "way DUE"});
    for (unsigned w = 0; w < windows; ++w) {
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
