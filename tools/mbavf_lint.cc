/**
 * @file
 * mbavf_lint — model-invariant checker for MB-AVF intermediate
 * artifacts.
 *
 * Validates the inputs the AVF math is computed from, without
 * running any of the AVF math itself:
 *
 * - lifetime lint: segments sorted, disjoint, non-empty, within the
 *   trace horizon, aceMask ⊆ readMask;
 * - event-stream lint: replay of the cache fill/read/write/evict
 *   trace against a residency state machine;
 * - geometry lint: every fault-mode x layout x protection-scheme
 *   combination checked for out-of-array fault groups, interleave
 *   factors that do not divide the row width, and protection domains
 *   that straddle interleave boundaries.
 *
 * Modes:
 *   mbavf_lint --workload=NAME [--scale=N]   instrument a synthetic
 *       run and lint its lifetimes, event streams, and geometry
 *   mbavf_lint --arena=FILE                  lint an arena persisted
 *       by `mbavf --arena-out` (core/arena_io.hh)
 *   mbavf_lint --geometry-only               lint geometry combos only
 *
 * Lifetimes are linted in the one form every pass after the lifetime
 * builder reads, the arena (check/arena_lint.hh): --workload flattens
 * each of the run's stores and --arena=FILE maps the file, and both
 * run the layout lint and the lifetime lint of every word against
 * the horizon. In --arena=FILE mode the loader's byte-level
 * rejections surface as `arena.file` (exit 2, unusable input). A
 * bare --arena names no file and is rejected.
 *
 * Exit codes: 0 = clean (warnings allowed), 1 = lint errors,
 * 2 = unusable input (bad file, bad arguments).
 *
 * --seed-corruption=overlap|read-before-fill|straddle|arena-file
 * deliberately corrupts the analyzed artifact first; the regression
 * suite uses it to pin each diagnostic and its exit code. overlap
 * corrupts the L1 store before it is flattened. arena-file
 * (requires --arena=FILE) lints a magic-smashed copy of the file,
 * which the loader must reject.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <optional>

#include "check/arena_lint.hh"
#include "check/event_lint.hh"
#include "check/geometry_lint.hh"
#include "check/lifetime_lint.hh"
#include "check/report.hh"
#include "common/args.hh"
#include "core/arena_io.hh"
#include "core/mbavf_kernel.hh"
#include "inject/journal.hh"
#include "obs/build_info.hh"
#include "serve/cache.hh"
#include "serve/queue.hh"
#include "workloads/ace_runner.hh"

using namespace mbavf;

namespace
{

void
usage()
{
    std::cout <<
        "usage: mbavf_lint --workload=NAME [options]\n"
        "       mbavf_lint --journal=FILE\n"
        "       mbavf_lint --queue-journal=FILE\n"
        "       mbavf_lint --cache=DIR\n"
        "       mbavf_lint --arena=FILE\n"
        "       mbavf_lint --geometry-only\n\n"
        "options:\n"
        "  --scale=N            workload problem-size multiplier\n"
        "  --modes=M            geometry lint covers 1x1..Mx1, M in\n"
        "                       1..64 (4)\n"
        "  --arena=FILE         lint an arena file written by\n"
        "                       `mbavf --arena-out` (layout and\n"
        "                       lifetime checks; loader rejections\n"
        "                       are arena.file, exit 2)\n"
        "  --max-findings=N     stored findings per code (16)\n"
        "  --seed-corruption=K  corrupt the artifact first; K is\n"
        "                       overlap | read-before-fill | straddle\n"
        "                       | arena-file (needs --arena=FILE)\n"
        "  --version            print build info and exit\n"
        "\n--journal validates a campaign checkpoint (inject/journal):\n"
        "header fields, contiguous trial indices, outcome names,\n"
        "per-outcome diagnostic codes, and per-trial seeds.\n"
        "\n--queue-journal validates an mbavf_serve queue journal\n"
        "(serve/queue): header binding, record grammar, shard ranges,\n"
        "and duplicate shard entries.\n"
        "\n--cache audits an mbavf_serve result cache directory: every\n"
        "entry must be a manifest envelope whose cache.key matches its\n"
        "file name and which carries a result section.\n"
        "\nexit codes: 0 clean, 1 lint errors, 2 unusable input\n";
}

/**
 * Decorator reproducing the bug class the geometry lint hunts: one
 * cell's domain is remapped to its physical neighbor's, so a domain
 * straddles an interleave boundary.
 */
class StraddledArray : public PhysicalArray
{
  public:
    explicit StraddledArray(const PhysicalArray &inner) : inner_(inner)
    {}

    std::uint64_t rows() const override { return inner_.rows(); }
    std::uint64_t cols() const override { return inner_.cols(); }

    PhysBit
    at(std::uint64_t row, std::uint64_t col) const override
    {
        PhysBit bit = inner_.at(row, col);
        if (row == 0 && col == 1)
            bit.domain = inner_.at(0, 0).domain;
        return bit;
    }

  private:
    const PhysicalArray &inner_;
};

/** Append an overlapping segment to the first non-empty word. */
bool
seedOverlap(LifetimeStore &store)
{
    for (const auto &[id, container] : store.containers()) {
        for (std::size_t w = 0; w < container.words.size(); ++w) {
            if (container.words[w].empty())
                continue;
            WordLifetime &word = store.container(id).words[w];
            const LifeSegment &last = word.segments().back();
            word.appendUnchecked({last.begin, last.end + 1,
                                  last.aceMask, last.readMask});
            return true;
        }
    }
    return false;
}

/** Geometry lint over both cache levels and the register file. */
void
lintGeometry(const GpuConfig &config, unsigned max_mode,
             CheckReport &report)
{
    ComboLintConfig combos;
    combos.cacheLabel = "l1";
    combos.cacheGeom = {config.l1.sets, config.l1.ways,
                        config.l1.lineBytes};
    combos.regGeom = config.regs;
    combos.maxMode = max_mode;
    lintGeometryCombos(combos, report);

    ComboLintConfig l2_combos;
    l2_combos.cacheLabel = "l2";
    l2_combos.cacheGeom = {config.l2.sets, config.l2.ways,
                           config.l2.lineBytes};
    l2_combos.regGeom = config.regs;
    l2_combos.maxMode = max_mode;
    // Register-file combos were covered above; an empty scheme list
    // still lints the cache arrays and fault-mode placement.
    lintGeometryCombos(l2_combos, report);
}

/**
 * The layout lint and the lifetime lint of every word of @p arena;
 * a @p horizon of 0 disables the horizon check.
 */
void
lintArena(const LifetimeArena &arena, Cycle horizon, CheckReport &report)
{
    lintArenaStructure(arena, report);
    LifetimeLintOptions opts;
    opts.horizon = horizon;
    lintArenaLifetimes(arena, opts, report);
}

int
finish(const CheckReport &report)
{
    report.print(std::cout);
    return report.errorCount() ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    args.requireKnown({
        "help", "workload", "journal", "queue-journal", "cache",
        "geometry-only", "arena", "scale",
        "modes", "max-findings", "seed-corruption", "version",
    });
    if (args.getBool("help")) {
        usage();
        return 0;
    }
    if (args.getBool("version")) {
        std::cout << obs::versionLine("mbavf_lint") << "\n";
        return 0;
    }

    // Integer flags are range-checked before anything is linted.
    constexpr std::int64_t uint_max = std::numeric_limits<unsigned>::max();
    const auto max_findings = static_cast<std::size_t>(
        args.getIntInRange("max-findings", 16, 0, uint_max));
    const auto max_mode = static_cast<unsigned>(
        args.getIntInRange("modes", 4, 1, detail::maxModeBits));
    const auto scale =
        static_cast<unsigned>(args.getIntInRange("scale", 1, 0, uint_max));

    const std::string journal_path = args.getString("journal", "");
    if (!journal_path.empty()) {
        CheckReport report;
        report.setPerCodeLimit(max_findings);
        lintCampaignJournal(journal_path, report);
        // An unreadable or headerless file is unusable input, not a
        // lint finding about a valid journal.
        if (report.has("journal.io") || report.has("journal.header")) {
            report.print(std::cout);
            return 2;
        }
        std::cout << "linted journal " << journal_path << "\n";
        return finish(report);
    }

    const std::string queue_path = args.getString("queue-journal", "");
    if (!queue_path.empty()) {
        CheckReport report;
        report.setPerCodeLimit(max_findings);
        serve::lintQueueJournal(queue_path, report);
        // An unreadable file or a broken header leaves nothing to
        // lint — that is unusable input, not a finding.
        if (report.has("serve.queue.io") ||
            report.has("serve.queue.header")) {
            report.print(std::cout);
            return 2;
        }
        std::cout << "linted queue journal " << queue_path << "\n";
        return finish(report);
    }

    // Bare --cache parses as "1"; a directory path audits the
    // mbavf_serve result cache stored there.
    const std::string cache_dir = args.getString("cache", "");
    if (!cache_dir.empty() && cache_dir != "1") {
        CheckReport report;
        report.setPerCodeLimit(max_findings);
        const std::size_t entries =
            serve::lintResultCache(cache_dir, report);
        if (report.has("cache.io")) {
            report.print(std::cout);
            return 2;
        }
        std::cout << "linted cache " << cache_dir << ": " << entries
                  << " entry(ies)\n";
        return finish(report);
    }

    const std::string corruption =
        args.getString("seed-corruption", "");
    if (!corruption.empty() && corruption != "overlap" &&
        corruption != "read-before-fill" &&
        corruption != "straddle" && corruption != "arena-file") {
        std::cerr << "mbavf_lint: unknown corruption '" << corruption
                  << "'\n";
        return 2;
    }
    // A bare --arena parses as the value "1"; it, like --arena=,
    // names no file.
    const std::string arena_file = args.getString("arena", "");
    if (args.has("arena") && (arena_file.empty() || arena_file == "1")) {
        std::cerr << "mbavf_lint: --arena needs =FILE, the arena file "
                     "to lint\n";
        return 2;
    }
    if (corruption == "arena-file" && arena_file.empty()) {
        std::cerr << "mbavf_lint: --seed-corruption=arena-file "
                     "needs --arena=FILE\n";
        return 2;
    }
    CheckReport report;
    report.setPerCodeLimit(max_findings);

    if (!arena_file.empty()) {
        std::string load_path = arena_file;
        if (corruption == "arena-file") {
            // Lint a magic-smashed copy; the original stays usable
            // for the rest of the regression chain.
            std::ifstream is(arena_file, std::ios::binary);
            if (!is) {
                std::cerr << "mbavf_lint: cannot open '" << arena_file
                          << "'\n";
                return 2;
            }
            std::string bytes(
                (std::istreambuf_iterator<char>(is)),
                std::istreambuf_iterator<char>());
            for (std::size_t i = 0; i < bytes.size() && i < 8; ++i)
                bytes[i] ^= static_cast<char>(0xff);
            load_path = arena_file + ".corrupt";
            std::ofstream os(load_path, std::ios::binary);
            os.write(bytes.data(),
                     static_cast<std::streamsize>(bytes.size()));
            if (!os.flush()) {
                std::cerr << "mbavf_lint: cannot write '" << load_path
                          << "'\n";
                return 2;
            }
        }
        std::string error;
        Cycle horizon = 0;
        std::optional<LifetimeArena> arena =
            tryLoadArena(load_path, error, &horizon);
        if (corruption == "arena-file")
            std::remove(load_path.c_str());
        if (!arena) {
            // A file the loader rejects is unusable input, framed
            // with the same code the loader's validation uses.
            report.error("arena.file", load_path, error);
            report.print(std::cout);
            return 2;
        }
        std::cout << "linted arena file " << arena_file << ": "
                  << arena->numWords() << " word(s), "
                  << arena->numSegments() << " segment(s)\n";
        // As in --workload mode, cache lifetimes may legitimately
        // run a DRAM latency past the horizon (the end-of-run flush
        // fills the L2). The file does not say which cache level it
        // holds, so every byte-word arena gets that allowance.
        if (horizon != 0 && arena->wordWidth() == 8)
            horizon += GpuConfig{}.dramLatency;
        lintArena(*arena, horizon, report);
        return finish(report);
    }

    const std::string workload = args.getString("workload", "");
    if (workload.empty() || args.getBool("geometry-only")) {
        if (args.getBool("geometry-only")) {
            GpuConfig config;
            if (corruption == "straddle") {
                CacheGeometry geom{config.l1.sets, config.l1.ways,
                                   config.l1.lineBytes};
                auto array = makeCacheArray(
                    geom, CacheInterleave::WayPhysical, 2);
                StraddledArray bad(*array);
                GeometryLintOptions opts;
                opts.interleave = 2;
                opts.containerBits = geom.lineBits();
                lintPhysicalArray(bad, opts, "l1 way x2 (corrupt)",
                                  report);
            }
            lintGeometry(config, max_mode, report);
            return finish(report);
        }
        usage();
        return 2;
    }

    AceRunOptions options;
    options.scale = scale;
    options.stores = AceStore::L1 | AceStore::Vgpr | AceStore::L2;

    CacheTraceRecorder l1_recorder({options.config.l1.sets,
                                    options.config.l1.ways,
                                    options.config.l1.lineBytes});
    CacheTraceRecorder l2_recorder({options.config.l2.sets,
                                    options.config.l2.ways,
                                    options.config.l2.lineBytes});
    options.l1Tap = &l1_recorder;
    options.l2Tap = &l2_recorder;

    std::cout << "simulating '" << workload << "' ...\n";
    AceRun run = runAceAnalysis(workload, options);

    if (corruption == "overlap" && !seedOverlap(run.l1)) {
        std::cerr << "mbavf_lint: no lifetime to corrupt\n";
        return 2;
    }
    if (corruption == "read-before-fill") {
        // A read of a slot the replay has never seen filled.
        CacheEvent bogus;
        bogus.kind = CacheEvent::Kind::Read;
        bogus.set = 0;
        bogus.way = 0;
        bogus.addr = 0;
        bogus.size = 1;
        bogus.time = 0;
        auto &events = l1_recorder.trace().events;
        events.insert(events.begin(), bogus);
    }

    // Lifetime lint, on each store's arena snapshot: what every pass
    // after the builder reads. The end-of-run flush pushes L1
    // write-backs into the L2, whose fills complete at horizon + DRAM
    // latency; the L2's lifetimes legitimately extend that far.
    lintArena(LifetimeArena(run.l1), run.horizon, report);
    lintArena(LifetimeArena(run.vgpr), run.horizon, report);
    lintArena(LifetimeArena(run.l2),
              run.horizon + options.config.dramLatency, report);

    // Event-stream lint.
    lintCacheEvents(l1_recorder.trace(), report);
    lintCacheEvents(l2_recorder.trace(), report);

    // Geometry lint, with the seeded straddle when requested.
    if (corruption == "straddle") {
        CacheGeometry geom{options.config.l1.sets,
                           options.config.l1.ways,
                           options.config.l1.lineBytes};
        auto array =
            makeCacheArray(geom, CacheInterleave::WayPhysical, 2);
        StraddledArray bad(*array);
        GeometryLintOptions gopts;
        gopts.interleave = 2;
        gopts.containerBits = geom.lineBits();
        lintPhysicalArray(bad, gopts, "l1 way x2 (corrupt)", report);
    }
    lintGeometry(options.config, max_mode, report);

    std::cout << "linted l1 " << run.l1.numContainers()
              << " / l2 " << run.l2.numContainers()
              << " / vgpr " << run.vgpr.numContainers()
              << " container(s), " << l1_recorder.trace().events.size()
              << " + " << l2_recorder.trace().events.size()
              << " cache event(s), horizon " << run.horizon << "\n";
    return finish(report);
}
