/**
 * @file
 * Chip-level soft-error-rate rollup (paper Section IV-E: "By summing
 * SER_H over all structures we can calculate the overall soft error
 * rate of a chip from all single- and multi-bit transient faults").
 *
 * Measures per-mode MB-AVFs for the three big SRAM structures of the
 * APU model — the per-CU L1 data arrays, the shared L2, and the
 * per-CU vector register files — under a chosen protection design,
 * scales Ibe-derived per-mode fault rates by each structure's size,
 * and prints the chip SER budget.
 *
 *   ./chip_ser [--workload=minife] [--fit-per-mbit=1000]
 */

#include <iostream>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "gpu/gpu.hh"
#include "pipeline/pipeline.hh"

using namespace mbavf;

namespace
{

/**
 * Per-mode SER of one structure (Eq. 3): @p job's design over its
 * own lifetimes, with job.totalFit the structure's raw FIT.
 */
StructureSer
structureSer(const JobConfig &job)
{
    std::string error;
    Lifetimes life;
    if (!validateJob(job, error) || !readLifetimes(job, "", life, error))
        fatal(error);
    return runSweep(job, makeDesign(job, life.horizon), life).ser;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    args.requireKnown({"workload", "fit-per-mbit"});
    const std::string workload = args.getString("workload", "minife");
    const double fit_per_mbit =
        args.getDouble("fit-per-mbit", 1000.0);

    std::cout << "Chip SER rollup for '" << workload
              << "' at " << fit_per_mbit << " FIT/Mbit (22nm mode "
              << "mix)\n\nDesign: L1 parity x2 logical, L2 SEC-DED "
              << "x2 way-physical, VGPR parity tx4\n\n";

    const GpuConfig cfg;
    auto mbits = [](double bits) { return bits / (1024 * 1024); };
    JobConfig job;
    job.workload = workload;

    // L1: per CU, parity with x2 logical interleaving.
    CacheGeometry l1_geom{cfg.l1.sets, cfg.l1.ways, cfg.l1.lineBytes};
    double l1_bits =
        double(l1_geom.numLines()) * l1_geom.lineBits();
    job.style = "logical";
    job.totalFit = fit_per_mbit * mbits(l1_bits);
    StructureSer l1_ser = structureSer(job);

    // L2: shared, SEC-DED with x2 way-physical interleaving.
    CacheGeometry l2_geom{cfg.l2.sets, cfg.l2.ways, cfg.l2.lineBytes};
    double l2_bits =
        double(l2_geom.numLines()) * l2_geom.lineBits();
    job.structure = "l2";
    job.scheme = "secded";
    job.style = "way";
    job.totalFit = fit_per_mbit * mbits(l2_bits);
    StructureSer l2_ser = structureSer(job);

    // VGPR: per CU, parity with x4 inter-thread interleaving (the
    // paper's case-study winner), where DUE shields SDC.
    double vgpr_bits = double(cfg.regs.numContainers()) *
        cfg.regs.regBits;
    job.structure = "vgpr";
    job.scheme = "parity";
    job.style = "inter";
    job.interleave = 4;
    job.totalFit = fit_per_mbit * mbits(vgpr_bits);
    StructureSer vgpr_ser = structureSer(job);

    Table table({"structure", "copies", "Kbits", "raw FIT",
                 "SDC FIT", "DUE FIT"});
    auto add_row = [&](const std::string &name, unsigned copies,
                       double bits, const StructureSer &ser) {
        table.beginRow()
            .cell(name)
            .cell(std::uint64_t(copies))
            .cell(bits / 1024, 0)
            .cell(copies * fit_per_mbit * mbits(bits), 2)
            .cell(copies * ser.sdc, 4)
            .cell(copies * ser.due(), 4);
    };
    add_row("L1 (parity log-x2)", cfg.numCus, l1_bits, l1_ser);
    add_row("L2 (SEC-DED way-x2)", 1, l2_bits, l2_ser);
    add_row("VGPR (parity tx4)", cfg.numCus, vgpr_bits, vgpr_ser);

    double chip_sdc = cfg.numCus * (l1_ser.sdc + vgpr_ser.sdc) +
        l2_ser.sdc;
    double chip_due = cfg.numCus * (l1_ser.due() + vgpr_ser.due()) +
        l2_ser.due();
    table.beginRow()
        .cell("chip total")
        .cell("")
        .cell("")
        .cell("")
        .cell(chip_sdc, 4)
        .cell(chip_due, 4);
    table.printText(std::cout);

    std::cout << "\nPer-CU structures assume symmetric load "
                 "(round-robin wave dispatch); AVFs are\nmeasured on "
                 "CU0. The SER budget is dominated by whichever "
                 "structure pairs\nhigh residency with weak "
                 "protection - the analysis the paper's Eq. 3 "
                 "enables.\n";
    return 0;
}
