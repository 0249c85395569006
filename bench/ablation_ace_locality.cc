/**
 * @file
 * Ablation: quantifying ACE locality (paper Section VI-B).
 *
 * The paper explains interleaving results through "ACE locality" —
 * the tendency of ACE bits to cluster. This harness measures it
 * directly: the conditional probability that a bit's neighbour is
 * ACE in the same cycle, for three neighbour definitions (next bit
 * in the same line, same position in another way of the set, same
 * position in the adjacent set), and shows it predicts the 2x1
 * MB-AVF ordering of the interleaving styles: higher locality =>
 * lower MB-AVF.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "common/stats.hh"
#include "core/mbavf.hh"
#include "core/protection.hh"
#include "workloads/ace_runner.hh"

using namespace mbavf;

namespace
{

/**
 * P(partner ACE | bit ACE) for pairs defined by a layout's 2x1
 * groups: computed as 2*P(both) / (P(a)+P(b)) aggregated over the
 * array, derived from engine results:
 *   union = P(a or b) = MB-AVF of the 2x1 group (no protection)
 *   sum   = P(a) + P(b) = 2 * SB-AVF
 *   both  = sum - union; locality = both / sum.
 */
double
locality(const PhysicalArray &array, const LifetimeStore &life,
         Cycle horizon)
{
    NoProtection none;
    MbAvfOptions opt;
    opt.horizon = horizon;
    double sb = computeSbAvf(array, life, none, opt).avf.sdc;
    double mb = computeMbAvf(array, life, none, FaultMode::mx1(2), opt)
                    .avf.sdc;
    double sum = 2 * sb;
    double both = sum - mb;
    return sum > 0 ? both / sum : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    BenchReporter bench("ablation_ace_locality", &args);
    const unsigned threads = configureThreads(args);
    const unsigned scale =
        static_cast<unsigned>(args.getInt("scale", 1));

    std::cout << "Ablation: ACE locality vs 2x1 MB-AVF (L1, "
                 "parity)\n\n";

    Table table({"workload", "loc same-line", "loc cross-way",
                 "loc cross-set", "mb/sb logical", "mb/sb way",
                 "mb/sb index"});
    RunningStats corr_ok;

    ParityScheme parity;
    for (const std::string &name : selectedWorkloads(args)) {
        note("running " + name);
        AceRun run = runAceAnalysis(name, scale, GpuConfig{}, AceStore::L1);
        CacheGeometry geom{run.config.l1.sets, run.config.l1.ways,
                           run.config.l1.lineBytes};
        MbAvfOptions opt;
        opt.horizon = run.horizon;
        opt.numThreads = threads;

        auto log = makeCacheArray(geom, CacheInterleave::Logical, 2);
        auto way =
            makeCacheArray(geom, CacheInterleave::WayPhysical, 2);
        auto idx =
            makeCacheArray(geom, CacheInterleave::IndexPhysical, 2);

        double loc_line = locality(*log, run.l1, run.horizon);
        double loc_way = locality(*way, run.l1, run.horizon);
        double loc_idx = locality(*idx, run.l1, run.horizon);

        auto ratio = [&](const PhysicalArray &a) {
            double sb = computeSbAvf(a, run.l1, parity, opt).avf.due();
            double mb = computeMbAvf(a, run.l1, parity,
                                     FaultMode::mx1(2), opt)
                            .avf.due();
            return sb > 0 ? mb / sb : 0.0;
        };
        double r_log = ratio(*log);
        double r_way = ratio(*way);
        double r_idx = ratio(*idx);

        // The claimed relationship: locality ordering is the inverse
        // of the MB-AVF ordering.
        bool consistent = (loc_line >= loc_way) == (r_log <= r_way) &&
                          (loc_line >= loc_idx) == (r_log <= r_idx);
        corr_ok.add(consistent ? 1.0 : 0.0);

        table.beginRow()
            .cell(name)
            .cell(loc_line, 3)
            .cell(loc_way, 3)
            .cell(loc_idx, 3)
            .cell(r_log, 3)
            .cell(r_way, 3)
            .cell(r_idx, 3);
    }
    bench.emit(table);

    std::cout << "\nHigher ACE locality => lower MB-AVF held for "
              << formatFixed(100 * corr_ok.mean(), 0)
              << "% of workloads.\nSame-line bits are written/read "
                 "together, so logical interleaving pairs bits\nwith "
                 "correlated ACEness — the paper's design guidance.\n";
    return 0;
}
