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
#include <limits>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "gpu/gpu.hh"
#include "pipeline/pipeline.hh"

using namespace mbavf;

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    args.requireKnown({"workload", "scale"});
    JobConfig job;
    job.workload = args.getString("workload", "srad");
    job.scale = static_cast<unsigned>(args.getIntInRange(
        "scale", 1, 0, std::numeric_limits<unsigned>::max()));
    job.style = "way";

    std::cout << "Protection design exploration for '" << job.workload
              << "' (L1 data array, 100 FIT raw)\n\n";

    std::string error;
    Lifetimes life;
    if (!validateJob(job, error) || !readLifetimes(job, "", life, error))
        fatal(error);
    // Logical check words shrink with interleaving; the check-bit
    // count is per line (one word per line for physical styles).
    const unsigned data_bits = GpuConfig{}.l1.lineBytes * 8;

    Table table({"scheme", "interleave", "SDC SER", "DUE SER",
                 "check bits/line", "area"});

    for (const char *scheme : {"parity", "secded", "dected"}) {
        job.scheme = scheme;
        for (unsigned ileave : {1u, 2u, 4u}) {
            job.interleave = ileave;
            // Modes 1x1..8x1 folded with the Table III rates at
            // job.totalFit (Eq. 3).
            const Design design = makeDesign(job, life.horizon);
            const SweepResult result = runSweep(job, design, life);
            table.beginRow()
                .cell(design.scheme->name())
                .cell("x" + std::to_string(ileave) + " way-phys")
                .cell(result.ser.sdc, 4)
                .cell(result.ser.due(), 4)
                .cell(std::uint64_t(design.scheme->checkBits(data_bits)))
                .cell(formatFixed(100.0 * result.areaOverhead, 2) + "%");
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
