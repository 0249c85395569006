/**
 * @file
 * mbavf_report — inspect, compare, and merge run manifests.
 *
 *   mbavf_report FILE                     pretty-print one manifest
 *   mbavf_report --rank FILE [--top=N]    ranked attribution table
 *   mbavf_report --strata FILE [--top=N]  stratified-campaign view
 *   mbavf_report --diff REF CAND [opts]   compare two manifests
 *   mbavf_report --merge=DIR --out=FILE   bench manifests -> trajectory
 *   mbavf_report --check-trace=FILE       validate a Chrome trace
 *
 * --rank renders the "attribution" section an mbavf_analyze manifest
 * carries (schema_version 1): the per-instruction MB-AVF table ranked
 * by attributed group-cycles, the per-kernel rollup, and whether the
 * conservation check held. The generic --diff / --merge modes already
 * cover the section; --rank is the human-readable view.
 *
 * --strata renders the "strata" section a stratified campaign
 * (mbavf --campaign --stratify, or a stratified mbavf_serve job)
 * emits: the partition identity, the per-stratum allocation ranked by
 * injected trials, the skipped (provably-Masked) weight, and the
 * combined estimator with its effective-trials multiplier.
 *
 * --diff compares a reference run against a candidate and exits 0
 * when they agree, 1 on drift (an AVF/result number moved beyond
 * --avf-tol, a campaign rate's Wilson CI became disjoint from the
 * reference's, or with --perf-tol a phase slowed beyond the
 * threshold), and 2 on structural mismatch or unusable input. The
 * "phases" and "env" sections are perf/context data and never count
 * as structural drift; --structure-only restricts the result
 * comparison to key sets and value types, which is how CI guards the
 * manifest schema against a checked-in golden file without pinning
 * any measured value. --structure-only composes with --perf-tol:
 * phase timings are still tolerance-gated, so a main-branch golden
 * can hold both the schema and the performance floor.
 *
 * --merge collects every BENCH_*.json (or *.json) manifest in a
 * directory into one name-sorted trajectory document for plotting
 * perf/AVF history across commits. Two files carrying the same run
 * (identical deterministic content — everything outside "phases" and
 * "env") merge once: the lexically-first name is kept and each
 * duplicate is reported with a warning, so a double-copied bench
 * result cannot double-count in a trajectory plot.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <vector>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "obs/build_info.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/report.hh"

using namespace mbavf;

namespace
{

void
usage()
{
    std::cout <<
        "usage: mbavf_report FILE\n"
        "       mbavf_report --rank FILE [--top=N]\n"
        "       mbavf_report --strata FILE [--top=N]\n"
        "       mbavf_report --diff REF CAND [options]\n"
        "       mbavf_report --merge=DIR --out=FILE\n"
        "       mbavf_report --check-trace=FILE\n\n"
        "rank/strata options:\n"
        "  --top=N              show only the top N rows\n"
        "                       (default: every row)\n\n"
        "diff options:\n"
        "  --avf-tol=T          relative tolerance for result\n"
        "                       numbers (0 = bit-exact)\n"
        "  --perf-tol=T         flag phases slower/faster than T\n"
        "                       relative (default: ignore timing)\n"
        "  --structure-only     compare key sets and types only\n"
        "                       (golden-manifest schema guard)\n\n"
        "other options:\n"
        "  --out=FILE           trajectory output for --merge\n"
        "  --version            print build info and exit\n\n"
        "exit codes: 0 match/success, 1 drift, 2 structural\n"
        "mismatch or unusable input\n";
}

/** Load + envelope-validate, exiting 2 on anything unusable. */
obs::JsonValue
loadManifestOrDie(const std::string &path)
{
    obs::JsonValue doc;
    std::string error;
    if (!obs::Manifest::load(path, doc, error)) {
        std::cerr << "mbavf_report: " << error << "\n";
        std::exit(2);
    }
    return doc;
}

int
runDiff(const std::string &ref_path, const std::string &cand_path,
        const Args &args)
{
    obs::DiffOptions options;
    options.structureOnly = args.getBool("structure-only");
    options.avfTol = args.getDouble("avf-tol", 0.0);
    options.perfTol = args.getDouble("perf-tol", -1.0);

    obs::JsonValue ref = loadManifestOrDie(ref_path);
    obs::JsonValue cand = loadManifestOrDie(cand_path);

    obs::DiffResult result = obs::diffManifests(ref, cand, options);
    for (const std::string &note : result.notes)
        std::cout << note << "\n";
    if (result.clean()) {
        std::cout << "manifests match\n";
        return 0;
    }
    std::cout << result.notes.size() << " difference"
              << (result.notes.size() == 1 ? "" : "s") << "\n";
    return result.structuralMismatch ? 2 : 1;
}

int
runMerge(const std::string &dir, const std::string &out_path)
{
    namespace fs = std::filesystem;
    if (out_path.empty())
        fatal("--merge requires --out=FILE");
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec)
        fatal("cannot read directory '", dir, "': ", ec.message());

    std::vector<std::pair<std::string, obs::JsonValue>> manifests;
    for (const fs::directory_entry &entry : it) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".json") {
            continue;
        }
        obs::JsonValue doc;
        std::string error;
        if (!obs::Manifest::load(entry.path().string(), doc,
                                 error)) {
            // A trace or trajectory file sharing the directory is
            // expected; only actual manifests merge.
            warn("skipping ", entry.path().string(), ": ", error);
            continue;
        }
        manifests.emplace_back(entry.path().stem().string(),
                               std::move(doc));
    }
    if (manifests.empty())
        fatal("no manifests found in '", dir, "'");

    const std::size_t count = manifests.size();
    std::vector<std::string> dropped;
    obs::JsonValue trajectory =
        obs::mergeManifests(std::move(manifests), &dropped);
    for (const std::string &note : dropped)
        warn("duplicate manifest: ", note);
    std::ofstream os(out_path, std::ios::binary);
    if (!os)
        fatal("cannot open '", out_path, "' for writing");
    os << trajectory.dump(1) << "\n";
    if (!os.flush())
        fatal("write to '", out_path, "' failed");
    std::cout << "merged " << (count - dropped.size())
              << " manifests into " << out_path;
    if (!dropped.empty())
        std::cout << " (" << dropped.size() << " duplicates dropped)";
    std::cout << "\n";
    return 0;
}

/**
 * Pretty-print the attribution section of an mbavf_analyze manifest:
 * the ranked per-instruction table, the per-kernel rollup, and the
 * conservation verdict. Exits 2 when the file carries no attribution
 * section (it is some other tool's manifest).
 */
int
runRank(const std::string &path, std::uint64_t limit)
{
    const obs::JsonValue doc = loadManifestOrDie(path);
    const obs::JsonValue *attr = doc.find("attribution");
    if (!attr || !attr->isObject()) {
        std::cerr << "mbavf_report: " << path
                  << ": no attribution section (not an "
                     "mbavf_analyze manifest?)\n";
        return 2;
    }

    if (const obs::JsonValue *run = doc.find("run");
        run && run->isObject()) {
        auto field = [&](const char *key) -> std::string {
            const obs::JsonValue *v = run->find(key);
            return v && v->isString() ? v->asString() : "?";
        };
        std::cout << "attribution for '" << field("workload")
                  << "' " << field("structure") << " "
                  << field("scheme") << " mode " << field("mode")
                  << "\n";
    }

    auto cycleOf = [](const obs::JsonValue *cycles,
                      const char *key) -> std::uint64_t {
        const obs::JsonValue *v =
            cycles ? cycles->find(key) : nullptr;
        return v && v->isNumber() ? v->asUint() : 0;
    };

    const obs::JsonValue *top = attr->find("top");
    if (!top || !top->isArray()) {
        std::cerr << "mbavf_report: " << path
                  << ": attribution section has no top array\n";
        return 2;
    }
    Table table({"rank", "kernel", "pc", "SDC", "trueDUE",
                 "falseDUE", "share"});
    std::uint64_t rank = 0;
    for (const obs::JsonValue &row : top->items()) {
        if (rank >= limit)
            break;
        ++rank;
        const obs::JsonValue *kernel = row.find("kernel");
        const obs::JsonValue *pc = row.find("pc");
        const obs::JsonValue *cycles = row.find("cycles");
        const obs::JsonValue *share = row.find("share");
        table.beginRow()
            .cell(rank)
            .cell(kernel && kernel->isNumber()
                      ? std::to_string(kernel->asUint())
                      : std::string("-"))
            .cell(pc && pc->isNumber() ? std::to_string(pc->asUint())
                                       : std::string("-"))
            .cell(cycleOf(cycles, "sdc"))
            .cell(cycleOf(cycles, "true_due"))
            .cell(cycleOf(cycles, "false_due"))
            .cell(share && share->isNumber() ? share->asDouble()
                                             : 0.0,
                  4);
    }
    table.printText(std::cout);

    if (const obs::JsonValue *kernels = attr->find("kernels");
        kernels && kernels->isArray()) {
        std::cout << "\nper-kernel:";
        for (const obs::JsonValue &row : kernels->items()) {
            const obs::JsonValue *kernel = row.find("kernel");
            const obs::JsonValue *cycles = row.find("cycles");
            const std::uint64_t total = cycleOf(cycles, "sdc") +
                                        cycleOf(cycles, "true_due") +
                                        cycleOf(cycles, "false_due");
            std::cout << "  kernel "
                      << (kernel && kernel->isNumber()
                              ? std::to_string(kernel->asUint())
                              : std::string("-"))
                      << " = " << total;
        }
        std::cout << "\n";
    }

    const obs::JsonValue *conserved = attr->find("conserved");
    if (conserved && conserved->isBool()) {
        std::cout << (conserved->asBool()
                          ? "conservation: held\n"
                          : "conservation: VIOLATED\n");
        return conserved->asBool() ? 0 : 1;
    }
    return 0;
}

/**
 * Pretty-print the strata section of a stratified-campaign manifest:
 * partition summary, combined estimator, and the allocation table
 * ranked by injected trials. Exits 2 when the file carries no strata
 * section.
 */
int
runStrata(const std::string &path, std::uint64_t limit)
{
    const obs::JsonValue doc = loadManifestOrDie(path);

    // The mbavf CLI writes "strata" at top level; a serve manifest
    // nests it per job under "results". Show the first one found.
    const obs::JsonValue *strata = doc.find("strata");
    if (!strata) {
        if (const obs::JsonValue *results = doc.find("results");
            results && results->isArray()) {
            for (const obs::JsonValue &entry : results->items()) {
                if ((strata = entry.find("strata")))
                    break;
            }
        }
    }
    if (!strata || !strata->isObject()) {
        std::cerr << "mbavf_report: " << path
                  << ": no strata section (not a stratified "
                     "campaign manifest?)\n";
        return 2;
    }

    auto num = [&](const char *key) -> double {
        const obs::JsonValue *v = strata->find(key);
        return v && v->isNumber() ? v->asDouble() : 0.0;
    };
    auto uint = [&](const char *key) -> std::uint64_t {
        const obs::JsonValue *v = strata->find(key);
        return v && v->isNumber() ? v->asUint() : 0;
    };

    std::cout << "stratified campaign: " << uint("classes")
              << " classes x " << uint("windows") << " windows\n"
              << "  partition hash    " << std::hex << uint("hash")
              << std::dec << "\n"
              << "  provably Masked   " << 100.0 * num("skipped_weight")
              << "% of fault space (skipped exactly)\n"
              << "  injected          " << uint("injected") << " / "
              << uint("budget") << " budget\n"
              << "  effective trials  " << uint("effective_trials")
              << " uniform-equivalent (" << num("multiplier")
              << "x per injection)\n";

    if (const obs::JsonValue *combined = strata->find("combined");
        combined && combined->isObject()) {
        std::cout << "combined estimator:\n";
        for (const auto &[name, value] : combined->members()) {
            const obs::JsonValue *rate = value.find("rate");
            const obs::JsonValue *low = value.find("ci_low");
            const obs::JsonValue *high = value.find("ci_high");
            if (!rate || !low || !high)
                continue;
            std::cout << "  " << name << " = " << rate->asDouble()
                      << "  [" << low->asDouble() << ", "
                      << high->asDouble() << "]\n";
        }
    }

    const obs::JsonValue *table_in = strata->find("table");
    if (!table_in || !table_in->isArray())
        return 0;

    std::vector<const obs::JsonValue *> rows;
    for (const obs::JsonValue &row : table_in->items())
        rows.push_back(&row);
    auto trialsOf = [](const obs::JsonValue *row) -> std::uint64_t {
        const obs::JsonValue *t = row->find("trials");
        return t && t->isNumber() ? t->asUint() : 0;
    };
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const obs::JsonValue *a,
                         const obs::JsonValue *b) {
                         return trialsOf(a) > trialsOf(b);
                     });
    Table table({"class", "window", "weight", "predicted", "trials",
                 "sdc", "note"});
    std::uint64_t shown = 0;
    std::uint64_t skipped_strata = 0;
    for (const obs::JsonValue *row : rows) {
        const obs::JsonValue *skipped = row->find("skipped");
        if (skipped && skipped->asBool()) {
            ++skipped_strata;
            continue;
        }
        if (shown >= limit)
            continue;
        ++shown;
        auto field = [&](const char *key) -> double {
            const obs::JsonValue *v = row->find(key);
            return v && v->isNumber() ? v->asDouble() : 0.0;
        };
        const obs::JsonValue *sdc = row->find("sdc");
        const obs::JsonValue *sdc_rate =
            sdc ? sdc->find("rate") : nullptr;
        table.beginRow()
            .cell(static_cast<std::uint64_t>(field("class")))
            .cell(static_cast<std::uint64_t>(field("window")))
            .cell(field("weight"), 6)
            .cell(field("predicted"), 4)
            .cell(trialsOf(row))
            .cell(sdc_rate ? sdc_rate->asDouble() : 0.0, 4)
            .cell(trialsOf(row) == 0 ? std::string("unsampled")
                                     : std::string(""));
    }
    table.printText(std::cout);
    std::cout << skipped_strata
              << " strata skipped (provably Masked)\n";
    return 0;
}

/** Minimal Chrome-trace shape check: the format Perfetto ingests. */
int
runCheckTrace(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        std::cerr << "mbavf_report: cannot open '" << path << "'\n";
        return 2;
    }
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    obs::JsonValue doc;
    std::string error;
    if (!obs::JsonValue::parse(text, doc, error)) {
        std::cerr << "mbavf_report: " << path << ": " << error
                  << "\n";
        return 2;
    }
    const obs::JsonValue *events = doc.find("traceEvents");
    if (!events || !events->isArray()) {
        std::cerr << "mbavf_report: " << path
                  << ": no traceEvents array\n";
        return 2;
    }
    std::size_t slices = 0;
    for (const obs::JsonValue &event : events->items()) {
        const obs::JsonValue *ph = event.find("ph");
        if (!ph || !ph->isString()) {
            std::cerr << "mbavf_report: " << path
                      << ": event without ph\n";
            return 2;
        }
        if (ph->asString() == "X") {
            if (!event.find("name") || !event.find("ts") ||
                !event.find("dur") || !event.find("pid") ||
                !event.find("tid")) {
                std::cerr << "mbavf_report: " << path
                          << ": incomplete X event\n";
                return 2;
            }
            ++slices;
        }
    }
    std::cout << path << ": " << events->items().size()
              << " events, " << slices << " slices\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv, Args::Positional::Allow);
    args.requireKnown({
        "help", "version", "diff", "merge", "out", "check-trace",
        "avf-tol", "perf-tol", "structure-only", "rank", "strata",
        "top",
    });
    if (args.getBool("help")) {
        usage();
        return 0;
    }
    if (args.getBool("version")) {
        std::cout << obs::versionLine("mbavf_report") << "\n";
        return 0;
    }

    // --top=N caps the ranked tables; unset shows every row.
    constexpr std::int64_t int64_max =
        std::numeric_limits<std::int64_t>::max();
    const auto top = static_cast<std::uint64_t>(
        args.getIntInRange("top", int64_max, 0, int64_max));

    const std::string merge_dir = args.getString("merge", "");
    if (!merge_dir.empty())
        return runMerge(merge_dir, args.getString("out", ""));

    const std::string trace = args.getString("check-trace", "");
    if (!trace.empty())
        return runCheckTrace(trace);

    const std::vector<std::string> &files = args.positional();
    if (args.getBool("rank")) {
        if (files.size() != 1) {
            usage();
            return 2;
        }
        return runRank(files[0], top);
    }
    if (args.getBool("strata")) {
        if (files.size() != 1) {
            usage();
            return 2;
        }
        return runStrata(files[0], top);
    }
    if (args.getBool("diff")) {
        if (files.size() != 2) {
            usage();
            return 2;
        }
        return runDiff(files[0], files[1], args);
    }
    if (files.size() != 1) {
        usage();
        return 2;
    }
    obs::printManifest(loadManifestOrDie(files[0]), std::cout);
    return 0;
}
