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

using namespace mbavf;

namespace
{

/**
 * P(partner ACE | bit ACE) for pairs defined by a layout's 2x1
 * groups: computed as 2*P(both) / (P(a)+P(b)) aggregated over the
 * array, derived from an unprotected sweep:
 *   union = P(a or b) = MB-AVF of the 2x1 group (no protection)
 *   sum   = P(a) + P(b) = 2 * SB-AVF
 *   both  = sum - union; locality = both / sum.
 */
double
locality(const ModeSweep &none)
{
    double sum = 2 * none.avf(1).sdc;
    double both = sum - none.avf(2).sdc;
    return sum > 0 ? both / sum : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    BenchReporter bench("ablation_ace_locality", &args);
    configureThreads(args);
    JobConfig job;
    job.scale = unsignedFlag(args, "scale", 1);
    job.modes = 2;

    std::cout << "Ablation: ACE locality vs 2x1 MB-AVF (L1, "
                 "parity)\n\n";

    Table table({"workload", "loc same-line", "loc cross-way",
                 "loc cross-set", "mb/sb logical", "mb/sb way",
                 "mb/sb index"});
    RunningStats corr_ok;

    for (const std::string &name : selectedWorkloads(args)) {
        note("running " + name);
        job.workload = name;
        const Lifetimes life = jobLifetimes(job);
        auto sweep = [&](const char *scheme, const char *style) {
            job.scheme = scheme;
            job.style = style;
            return runSweep(job, makeDesign(job, life.horizon), life)
                .sweep;
        };
        auto ratio = [](const ModeSweep &parity) {
            double sb = parity.avf(1).due();
            return sb > 0 ? parity.avf(2).due() / sb : 0.0;
        };

        double loc_line = locality(sweep("none", "logical"));
        double loc_way = locality(sweep("none", "way"));
        double loc_idx = locality(sweep("none", "index"));
        double r_log = ratio(sweep("parity", "logical"));
        double r_way = ratio(sweep("parity", "way"));
        double r_idx = ratio(sweep("parity", "index"));

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
