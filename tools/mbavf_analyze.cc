/**
 * @file
 * mbavf_analyze — dataflow static analysis and per-instruction
 * MB-AVF attribution for one instrumented run.
 *
 *   mbavf_analyze --workload=NAME [options]
 *
 * Three layers, all reported through stable dotted finding codes:
 *
 * 1. Program-flow lint over the run's dataflow trace and raw
 *    register event logs: flow.dead-def, flow.masked-output,
 *    flow.overwrite, flow.uninit-read (analyze/passes.hh).
 * 2. Protection-coverage lint over the chosen structure's layout and
 *    the pipeline's arena: domain.uncovered,
 *    domain.mode-undetectable.
 * 3. Per-instruction MB-AVF attribution (analyze/attribution.hh)
 *    over the same arena: every non-unACE group-cycle of the
 *    chosen fault mode is charged to the static instruction whose
 *    write produced the data at risk, and the conservation checker
 *    asserts the per-instruction integer sums equal the class totals
 *    the same kernel call counts apart from its charges — exactly,
 *    at any --threads. A conservation violation reports as
 *    attr.conservation. The tests tie the kernel to the per-group
 *    reference engine; this tool runs no second sweep.
 *
 * Exit codes: 0 = clean, 1 = usage error or unusable input,
 * 2 = findings. (Deliberate deviation from mbavf_lint, which exits
 * 1 on findings: scripts driving both tools can tell "the program /
 * configuration is suspect" apart from "the invocation is broken"
 * without parsing output.)
 *
 * --seed-corruption=dead-def|masked-output|overwrite|uninit-read|
 * uncovered|mode-undetectable|conservation injects one synthetic
 * defect before the matching pass; the regression suite pins each
 * diagnostic code and the exit status. The injected artifacts are
 * marked with kernel id 0x7777 so they can never collide with real
 * instruction tags.
 *
 * --manifest writes a run manifest whose "attribution" section is
 * schema-versioned and deterministic (bit-identical at any
 * --threads); mbavf_report --rank pretty-prints it, and the generic
 * --diff / --merge modes compare and collect it.
 */

#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "analyze/attribution.hh"
#include "analyze/passes.hh"
#include "check/report.hh"
#include "common/args.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "obs/build_info.hh"
#include "obs/manifest.hh"
#include "pipeline/pipeline.hh"
#include "workloads/ace_runner.hh"

using namespace mbavf;

namespace
{

/** Schema version of the manifest "attribution" section. */
constexpr std::uint64_t attributionSchemaVersion = 1;

/** Kernel id of artifacts injected by --seed-corruption. */
constexpr unsigned seededKernel = 0x7777;

void
usage()
{
    std::cout <<
        "usage: mbavf_analyze --workload=NAME [options]\n\n"
        "options:\n"
        "  --structure=l1|l2|vgpr   structure to attribute (vgpr)\n"
        "  --scheme=NAME            none|parity|secded|dected|crc\n"
        "                           (secded)\n"
        "  --style=NAME             logical|way|index | intra|inter\n"
        "  --interleave=N           interleave factor (2)\n"
        "  --mode=M                 attribute fault mode Mx1 (4)\n"
        "  --cover-modes=M          check modes 2x1..Mx1 for\n"
        "                           domain.mode-undetectable (4)\n"
        "  --top=N                  ranked attribution rows to print\n"
        "                           and record (10)\n"
        "  --threads=N              sweep threads; attribution and\n"
        "                           conservation are bit-identical\n"
        "                           at any setting (1)\n"
        "  --scale=N                workload problem-size multiplier\n"
        "  --shield-due             DUE detection shields SDC\n"
        "  --max-findings=N         stored findings per code (16)\n"
        "  --manifest=FILE          write a JSON run manifest with\n"
        "                           the attribution section\n"
        "  --seed-corruption=K      inject one synthetic defect; K is\n"
        "                           dead-def | masked-output |\n"
        "                           overwrite | uninit-read |\n"
        "                           uncovered | mode-undetectable |\n"
        "                           conservation\n"
        "  --version                print build info and exit\n\n"
        "exit codes: 0 clean, 1 usage/unusable input, 2 findings\n";
}

/** Corruption decorator: every bit loses its protection domain. */
class UncoveredArray : public PhysicalArray
{
  public:
    explicit UncoveredArray(const PhysicalArray &inner)
        : inner_(inner)
    {}

    std::uint64_t rows() const override { return inner_.rows(); }
    std::uint64_t cols() const override { return inner_.cols(); }

    PhysBit
    at(std::uint64_t row, std::uint64_t col) const override
    {
        PhysBit bit = inner_.at(row, col);
        bit.domain = invalidDomain;
        return bit;
    }

  private:
    const PhysicalArray &inner_;
};

obs::JsonValue
cyclesJson(const std::array<Cycle, 3> &cycles)
{
    obs::JsonValue v = obs::JsonValue::object();
    v.set("sdc", obs::JsonValue(cycles[0]));
    v.set("true_due", obs::JsonValue(cycles[1]));
    v.set("false_due", obs::JsonValue(cycles[2]));
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    args.requireKnown({
        "help", "version", "workload", "structure", "scheme", "style",
        "interleave", "mode", "cover-modes", "top", "threads", "scale",
        "shield-due", "max-findings", "manifest", "seed-corruption",
    });
    if (args.getBool("help")) {
        usage();
        return 0;
    }
    if (args.getBool("version")) {
        std::cout << obs::versionLine("mbavf_analyze") << "\n";
        return 0;
    }

    const std::string workload = args.getString("workload", "");
    if (workload.empty()) {
        usage();
        return 1;
    }
    const std::string corruption =
        args.getString("seed-corruption", "");
    if (!corruption.empty() && corruption != "dead-def" &&
        corruption != "masked-output" && corruption != "overwrite" &&
        corruption != "uninit-read" && corruption != "uncovered" &&
        corruption != "mode-undetectable" &&
        corruption != "conservation") {
        std::cerr << "mbavf_analyze: unknown corruption '"
                  << corruption << "'\n";
        return 1;
    }

    // The structure set-up is the shared pipeline's; only the
    // defaults (the paper's VGPR case study) are this tool's.
    JobConfig defaults;
    defaults.structure = "vgpr";
    defaults.scheme = "secded";
    JobConfig job = jobFromArgs(args, defaults);
    constexpr std::int64_t uint_max = std::numeric_limits<unsigned>::max();
    const auto mode_size =
        static_cast<unsigned>(args.getIntInRange("mode", 4, 0, uint_max));
    job.modes = mode_size;
    const auto cover_modes = static_cast<unsigned>(
        args.getIntInRange("cover-modes", 4, 0, uint_max));
    const auto top =
        static_cast<unsigned>(args.getIntInRange("top", 10, 0, uint_max));
    std::string error;
    if (!validateJob(job, error)) {
        std::cerr << "mbavf_analyze: " << error << "\n";
        return 1;
    }
    setParallelThreads(static_cast<unsigned>(
        args.getIntInRange("threads", 1, 0, maxParallelThreads)));

    const std::string manifest_path = args.getString("manifest", "");
    obs::Manifest manifest("mbavf_analyze");

    ProgramCapture capture;
    std::cout << "analyzing '" << workload << "' ...\n";
    Lifetimes lifetimes;
    if (!readLifetimes(job, "", lifetimes, error, &capture)) {
        std::cerr << "mbavf_analyze: " << error << "\n";
        return 1;
    }
    const LifetimeArena &arena = lifetimes.arena;
    const Cycle horizon = lifetimes.horizon;

    CheckReport report;
    report.setPerCodeLimit(
        static_cast<std::size_t>(
            args.getIntInRange("max-findings", 16, 0, uint_max)));

    // --- Layer 1: program-flow passes --------------------------------
    if (corruption == "dead-def") {
        // A tagged value nothing ever consumes.
        capture.dataflow.record({}, makeInstrTag(seededKernel, 1));
    }
    if (corruption == "masked-output") {
        // A tagged value whose only consumer attaches relevance 0:
        // consumed, yet fully logic-masked.
        const DefId victim = capture.dataflow.record(
            {}, makeInstrTag(seededKernel, 2));
        const SrcUse masked_use[] = {{victim, 0, false}};
        const DefId consumer = capture.dataflow.record(
            masked_use, makeInstrTag(seededKernel, 3));
        // The consumer itself reaches program output, so only the
        // masked victim is defective — not the whole chain.
        capture.dataflow.markOutput(consumer);
    }
    if (corruption == "overwrite") {
        // Back-to-back register writes with no intervening read.
        WordEventLog &log = capture.vgprEvents[0xDEAD0000ull];
        log.write(0, 0xFFFFFFFFull, makeInstrTag(seededKernel, 4));
        log.write(1, 0xFFFFFFFFull, makeInstrTag(seededKernel, 5));
    }
    if (corruption == "uninit-read") {
        // A register consumed before its first tracked write.
        WordEventLog &log = capture.vgprEvents[0xDEAD0001ull];
        log.read(0, 0xFFFFFFFFull, noDef);
        log.write(1, 0xFFFFFFFFull, makeInstrTag(seededKernel, 6));
    }
    {
        Liveness liveness(capture.dataflow);
        analyze::lintDataflow(capture.dataflow, liveness, report);
        analyze::lintRegisterEvents(capture.vgprEvents,
                                    capture.dataflow, report);
    }

    // --- Layer 2: protection-coverage passes -------------------------
    const Design design = makeDesign(job, horizon);
    const PhysicalArray &array = *design.array;
    const ProtectionScheme &scheme = *design.scheme;
    analyze::DomainLintOptions domain_opts;
    domain_opts.coverModes = cover_modes;
    if (corruption == "uncovered") {
        UncoveredArray bad(array);
        analyze::lintDomainCoverage(bad, arena, scheme, domain_opts,
                                    report);
    } else if (corruption == "mode-undetectable") {
        // Parity over an interleaved layout misses every even flip
        // count; modes >= interleave + 1 land two flips in one
        // domain and must be reported.
        auto parity = makeScheme("parity");
        analyze::lintDomainCoverage(array, arena, *parity, domain_opts,
                                    report);
    } else {
        analyze::lintDomainCoverage(array, arena, scheme, domain_opts,
                                    report);
    }

    // --- Layer 3: attribution + conservation -------------------------
    const FaultMode mode = FaultMode::mx1(mode_size);
    analyze::AttributionResult attr = analyze::attributeMbAvf(
        array, arena, scheme, mode, design.options);

    if (corruption == "conservation") {
        // One stray cycle breaks the partition; the checker must see
        // it and the run must fail.
        if (attr.perTag.empty()) {
            analyze::TagContribution stray;
            stray.tag = makeInstrTag(seededKernel, 7);
            attr.perTag.push_back(stray);
        }
        attr.perTag.front().cycles[analyze::attrSdc] += 1;
    }
    const std::string violation =
        analyze::checkConservation(attr, attr.mbavf);
    if (!violation.empty()) {
        report.error("attr.conservation",
                     job.structure + " " + scheme.name() + " " +
                         std::to_string(mode_size) + "x1",
                     violation);
    }

    // --- Report ------------------------------------------------------
    const std::string style = job.effectiveStyle();
    std::cout << "\n" << job.structure << ", " << scheme.name() << ", "
              << style << " x" << job.interleave << ", mode "
              << mode_size << "x1, horizon " << horizon << "\n";
    std::cout << "attributed cycles: SDC "
              << attr.cycles[analyze::attrSdc] << ", trueDUE "
              << attr.cycles[analyze::attrTrueDue] << ", falseDUE "
              << attr.cycles[analyze::attrFalseDue] << " over "
              << attr.numGroups << " group(s)"
              << (violation.empty() ? " (conserved)" : "") << "\n\n";

    // Ranked per-instruction table: top contributors by total
    // charged group-cycles, ties broken by ascending tag so the
    // ranking is stable.
    std::vector<analyze::TagContribution> ranked = attr.perTag;
    std::sort(ranked.begin(), ranked.end(),
              [](const analyze::TagContribution &a,
                 const analyze::TagContribution &b) {
                  if (a.total() != b.total())
                      return a.total() > b.total();
                  return a.tag < b.tag;
              });
    if (ranked.size() > top)
        ranked.resize(top);

    Table table({"instruction", "SDC", "trueDUE", "falseDUE",
                 "share"});
    for (const analyze::TagContribution &c : ranked) {
        table.beginRow()
            .cell(analyze::tagWhere(c.tag))
            .cell(std::to_string(c.cycles[analyze::attrSdc]))
            .cell(std::to_string(c.cycles[analyze::attrTrueDue]))
            .cell(std::to_string(c.cycles[analyze::attrFalseDue]))
            .cell(attr.share(c), 4);
    }
    table.printText(std::cout);

    const auto kernels = analyze::rollupByKernel(attr);
    std::cout << "\nper-kernel:";
    for (const analyze::KernelContribution &k : kernels) {
        std::cout << "  kernel "
                  << (k.kernel == analyze::KernelContribution::noKernel
                          ? std::string("untracked")
                          : std::to_string(k.kernel))
                  << " = " << k.total();
    }
    std::cout << "\n\n";

    if (!manifest_path.empty()) {
        obs::JsonValue run_section = obs::JsonValue::object();
        run_section.set("workload", workload);
        run_section.set("structure", job.structure);
        run_section.set("scheme", job.scheme);
        run_section.set("style", style);
        run_section.set("interleave",
                        obs::JsonValue(std::uint64_t(job.interleave)));
        run_section.set("mode",
                        std::to_string(mode_size) + "x1");
        run_section.set("cover_modes",
                        obs::JsonValue(std::uint64_t(cover_modes)));
        run_section.set("horizon",
                        obs::JsonValue(std::uint64_t(horizon)));
        manifest.set("run", std::move(run_section));

        obs::JsonValue attribution = obs::JsonValue::object();
        attribution.set(
            "schema_version",
            obs::JsonValue(attributionSchemaVersion));
        attribution.set("num_groups",
                        obs::JsonValue(attr.numGroups));
        attribution.set("cycles", cyclesJson(attr.cycles));
        attribution.set("conserved",
                        obs::JsonValue(violation.empty()));
        obs::JsonValue top_rows = obs::JsonValue::array();
        for (const analyze::TagContribution &c : ranked) {
            obs::JsonValue row = obs::JsonValue::object();
            if (c.tag == noInstrTag) {
                row.set("untracked", obs::JsonValue(true));
            } else {
                row.set("kernel", obs::JsonValue(
                                      std::uint64_t(tagKernel(c.tag))));
                row.set("pc",
                        obs::JsonValue(std::uint64_t(tagPc(c.tag))));
            }
            row.set("cycles", cyclesJson(c.cycles));
            row.set("share", obs::JsonValue(attr.share(c)));
            top_rows.push(std::move(row));
        }
        attribution.set("top", std::move(top_rows));
        obs::JsonValue kernel_rows = obs::JsonValue::array();
        for (const analyze::KernelContribution &k : kernels) {
            obs::JsonValue row = obs::JsonValue::object();
            if (k.kernel == analyze::KernelContribution::noKernel) {
                row.set("untracked", obs::JsonValue(true));
            } else {
                row.set("kernel",
                        obs::JsonValue(std::uint64_t(k.kernel)));
            }
            row.set("cycles", cyclesJson(k.cycles));
            kernel_rows.push(std::move(row));
        }
        attribution.set("kernels", std::move(kernel_rows));
        manifest.set("attribution", std::move(attribution));

        obs::JsonValue analysis = obs::JsonValue::object();
        analysis.set("findings",
                     obs::JsonValue(
                         std::uint64_t(report.totalCount())));
        analysis.set("errors",
                     obs::JsonValue(
                         std::uint64_t(report.errorCount())));
        manifest.set("analyze", std::move(analysis));

        manifest.setEnv();
        std::string error;
        if (!manifest.write(manifest_path, error))
            fatal("cannot write manifest: ", error);
        inform("wrote manifest to ", manifest_path);
    }

    report.print(std::cout);
    return report.errorCount() ? 2 : 0;
}
