/**
 * @file
 * Protection-design exploration: the architect's workflow the paper
 * motivates.
 *
 * Given a workload, sweeps protection schemes (parity, SEC-DED,
 * DEC-TED) and interleave factors for the L1 data array, computes
 * per-fault-mode MB-AVFs, folds them with the Table III raw rates
 * into SDC and DUE soft error rates (Eq. 3), and prints a design
 * table with check-bit area overheads — exactly the power/area vs
 * reliability trade-off discussion of the paper's introduction.
 *
 *   ./protection_explorer [--workload=srad] [--scale=1]
 */

#include <iostream>

#include "common/args.hh"
#include "common/table.hh"
#include "core/fault_rates.hh"
#include "core/mbavf.hh"
#include "core/protection.hh"
#include "core/ser.hh"
#include "core/sweep.hh"
#include "workloads/ace_runner.hh"

using namespace mbavf;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    args.requireKnown({"workload", "scale"});
    const std::string workload = args.getString("workload", "srad");
    const unsigned scale =
        static_cast<unsigned>(args.getInt("scale", 1));

    std::cout << "Protection design exploration for '" << workload
              << "' (L1 data array, 100 FIT raw)\n\n";

    AceRun run = runAceAnalysis(workload, scale, GpuConfig{}, AceStore::L1);
    CacheGeometry geom{run.config.l1.sets, run.config.l1.ways,
                       run.config.l1.lineBytes};
    MbAvfOptions opt;
    opt.horizon = run.horizon;

    Table table({"scheme", "interleave", "SDC SER", "DUE SER",
                 "check bits/line", "area"});

    for (const char *scheme_name : {"parity", "secded", "dected"}) {
        auto scheme = makeScheme(scheme_name);
        for (unsigned ileave : {1u, 2u, 4u}) {
            auto array = makeCacheArray(
                geom, CacheInterleave::WayPhysical, ileave);

            StructureSer ser = computeStructureSer(
                *array, run.l1, *scheme, opt, 100.0);

            // Logical check words shrink with interleaving; the
            // check-bit count is per line (one word per line for
            // physical styles).
            unsigned data_bits = geom.lineBits();
            unsigned check = scheme->checkBits(data_bits);
            table.beginRow()
                .cell(scheme->name())
                .cell("x" + std::to_string(ileave) + " way-phys")
                .cell(ser.sdc, 4)
                .cell(ser.due(), 4)
                .cell(std::uint64_t(check))
                .cell(formatFixed(
                          100.0 * scheme->areaOverhead(data_bits), 2) +
                      "%");
        }
    }
    table.printText(std::cout);

    std::cout << "\nReading the table: interleaving converts SDC "
                 "into DUE (or corrections) by\nsplitting a strike "
                 "across more check words; stronger codes cost check "
                 "bits.\nPick the cheapest row that meets the SDC "
                 "target - the paper's Section VIII\nmethodology.\n";
    return 0;
}
