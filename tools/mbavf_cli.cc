/**
 * @file
 * mbavf — command-line driver for MB-AVF analysis.
 *
 * Runs a workload on the APU model (or maps a saved arena), then
 * reports single- and multi-bit AVFs and SER for a chosen structure,
 * protection scheme, and interleaving — or runs an injection
 * campaign over the workload.
 *
 *   mbavf --workload=minife --structure=l1 --scheme=parity \
 *         --style=way --interleave=2 --modes=4 [--windows=8]
 *         [--total-fit=100] [--arena-out=F] [--arena-in=F]
 *
 * Structures: l1 | l2 | vgpr.
 * Schemes: none | parity | secded | dected | crc.
 * Styles: logical | way | index (caches); intra | inter (vgpr).
 *
 * The flags describe one JobConfig (pipeline/job.hh), which the
 * shared pipeline validates before any simulation and then runs
 * (pipeline/pipeline.hh); this file keeps the flags, the campaign's
 * journal/resume/heartbeat hooks, and the printing. --arena-out
 * persists the flattened LifetimeArena the sweep kernel reads
 * (DESIGN.md Section 13), so later invocations with --arena-in can
 * sweep designs without re-simulating or re-flattening.
 */

#include <fstream>
#include <iostream>
#include <limits>
#include <optional>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "inject/journal.hh"
#include "obs/adapters.hh"
#include "obs/build_info.hh"
#include "obs/heartbeat.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"
#include "obs/trace.hh"
#include "pipeline/pipeline.hh"
#include "workloads/workload.hh"

using namespace mbavf;

namespace
{

void
usage()
{
    std::cout <<
        "usage: mbavf --workload=NAME [options]\n"
        "       mbavf --arena-in=FILE [options]\n"
        "       mbavf --campaign --workload=NAME [options]\n\n"
        "options:\n"
        "  --structure=l1|l2|vgpr   structure to analyze (l1)\n"
        "  --scheme=NAME            none|parity|secded|dected|crc\n"
        "  --style=NAME             logical|way|index | intra|inter\n"
        "  --interleave=N           interleave factor (2)\n"
        "  --modes=M                analyze 1x1..Mx1 (8)\n"
        "  --windows=N              AVF-over-time windows (0)\n"
        "  --threads=N              worker threads; 0 = all hardware\n"
        "                           threads (default MBAVF_THREADS\n"
        "                           or all); results are identical\n"
        "                           at any thread count\n"
        "  --total-fit=F            raw structure fault rate (100)\n"
        "  --scale=N                workload problem-size multiplier\n"
        "  --shield-due             DUE detection shields SDC\n"
        "  --arena-out=FILE         persist the structure's flattened\n"
        "                           sweep arena (mmap-able binary,\n"
        "                           DESIGN.md Section 13)\n"
        "  --arena-in=FILE          map a saved arena and sweep it\n"
        "                           directly (no store, no flatten;\n"
        "                           results identical at any\n"
        "                           --threads)\n"
        "  --list-workloads         print workload names\n"
        "  --manifest=FILE          write a JSON run manifest; its\n"
        "                           numbers (outside phases/env) are\n"
        "                           bit-identical at any --threads\n"
        "  --trace-out=FILE         write a Chrome trace_event JSON\n"
        "                           timeline (chrome://tracing,\n"
        "                           Perfetto)\n"
        "  --version                print build info and exit\n\n"
        "campaign options (--campaign):\n"
        "  --trials=N               injection trials (1000)\n"
        "  --seed=S                 campaign base seed (1); trial t\n"
        "                           draws from splitMix64(S, t)\n"
        "  --kind=register|memory   injection target (register)\n"
        "  --watchdog=M             hang budgets = M x golden run\n"
        "                           (8; 0 disables the watchdog)\n"
        "  --protect=NAME           protection scheme for DUE\n"
        "                           classification (none)\n"
        "  --protect-domain=BITS    protection domain width (8)\n"
        "  --checkpoint=FILE        journal progress to FILE\n"
        "  --checkpoint-every=K     flush every K trials (64)\n"
        "  --resume                 continue FILE's campaign; the\n"
        "                           final tallies are bit-identical\n"
        "                           to an uninterrupted run\n"
        "  --heartbeat              progress lines on stderr every\n"
        "                           --checkpoint-every trials\n\n"
        "stratified campaign options (--campaign --stratify):\n"
        "  --stratify               two-level estimation: partition\n"
        "                           the fault space by ACE analysis,\n"
        "                           skip provably-Masked strata, and\n"
        "                           importance-sample the rest\n"
        "                           (register kind only)\n"
        "  --stratify-windows=N     trigger windows (8)\n"
        "  --stratify-classes=N     site-class cap (64)\n"
        "  --budget=N               injected-trial budget (--trials)\n"
        "  --target-ci=W            spend the smallest budget whose\n"
        "                           predicted SDC CI width is <= W\n"
        "                           (capped by --budget)\n";
}

/** All options both CLI modes accept, for typo rejection. */
void
checkOptions(const Args &args)
{
    args.requireKnown({
        "help", "list-workloads", "workload", "structure", "scheme",
        "style", "interleave", "modes", "windows", "threads",
        "total-fit", "scale", "shield-due", "arena-out", "arena-in",
        "campaign", "trials", "seed", "kind",
        "watchdog", "protect", "protect-domain", "checkpoint",
        "checkpoint-every", "resume", "heartbeat", "manifest",
        "trace-out", "version", "stratify", "stratify-windows",
        "stratify-classes", "budget", "target-ci",
    });
}

/**
 * Enable the obs sinks the run asked for. Flipping the flags before
 * the measured work means the hot-path instrumentation (metrics,
 * phases, trace slices) actually records; with neither flag passed
 * everything stays at its one-relaxed-load disabled cost.
 */
void
enableObsSinks(const std::string &manifest_path,
               const std::string &trace_path)
{
    if (!manifest_path.empty()) {
        obs::setMetricsEnabled(true);
        obs::setTimingEnabled(true);
    }
    if (!trace_path.empty())
        obs::setTracingEnabled(true);
}

/** Flush --manifest / --trace-out files after the measured work. */
void
writeObsOutputs(obs::Manifest *manifest,
                const std::string &manifest_path,
                const std::string &trace_path)
{
    if (manifest && !manifest_path.empty()) {
        manifest->captureObservations();
        manifest->setEnv();
        std::string error;
        if (!manifest->write(manifest_path, error))
            fatal("cannot write manifest: ", error);
        inform("wrote manifest to ", manifest_path);
    }
    if (!trace_path.empty()) {
        std::string error;
        if (!obs::writeChromeTrace(trace_path, error))
            fatal("cannot write trace: ", error);
        inform("wrote trace to ", trace_path);
    }
}

/**
 * The --campaign mode: injection trials with checkpoint/resume. With
 * --stratify it is two-level estimation: level one
 * (inject/stratified.hh) partitions the fault space and prices the
 * allocation; level two injects the picks and folds per-stratum
 * tallies into the combined estimator. Stratified checkpoints use
 * version 2 journals keyed by the partition hash.
 */
int
runCampaignCli(const Args &args, const JobConfig &job)
{
    if (!job.stratify &&
        (args.has("budget") || args.has("target-ci") ||
         args.has("stratify-windows") || args.has("stratify-classes")))
        fatal("--budget/--target-ci/--stratify-* require --stratify");
    const std::string checkpoint = args.getString("checkpoint", "");
    const bool resume = args.getBool("resume");
    if (resume && checkpoint.empty())
        fatal("--resume requires --checkpoint=FILE");
    const bool exists = !checkpoint.empty() &&
        static_cast<bool>(std::ifstream(checkpoint));
    if (!resume && exists) {
        fatal("checkpoint '", checkpoint,
              "' already exists; use --resume to continue it or "
              "remove it first");
    }
    constexpr std::int64_t int64_max =
        std::numeric_limits<std::int64_t>::max();
    const std::uint64_t every = static_cast<std::uint64_t>(
        args.getIntInRange("checkpoint-every", 64, 0, int64_max));
    const std::string manifest_path = args.getString("manifest", "");
    const std::string trace_path = args.getString("trace-out", "");
    enableObsSinks(manifest_path, trace_path);

    JournalHeader header;
    header.workload = job.workload;
    header.scale = job.scale;
    parseTrialKind(job.kind, header.kind);
    header.baseSeed = job.seed;
    header.trials = job.effectiveTrials();

    if (job.stratify) {
        std::cout << "stratified campaign: " << job.workload << " x"
                  << job.scale << ", seed " << job.seed << ", "
                  << job.stratifyWindows << " windows, <= "
                  << job.stratifyClasses << " site classes\n";
    } else {
        std::cout << "campaign: " << job.workload << " x" << job.scale
                  << ", " << job.trials << " " << job.kind
                  << " trials, seed " << job.seed << "\n";
    }

    const TrialPlan plan(job);
    const Stratification *strat = plan.stratification();
    if (strat) {
        // The budget is a pure function of the partition and the
        // flags, so shards and resumes re-derive it identically.
        bool sampleable = false;
        for (const Stratum &st : strat->strata())
            sampleable = sampleable || (!st.skipped && st.weight > 0.0);
        if (args.has("target-ci")) {
            header.trials = strat->budgetForTargetCi(
                args.getDouble("target-ci", 0.0), header.trials);
        }
        if (!sampleable)
            header.trials = 0;
        header.version = 2;
        header.strataHash = strat->hash();
        std::cout << "partition " << std::hex << strat->hash()
                  << std::dec << ": " << strat->strata().size()
                  << " strata, "
                  << formatFixed(100.0 * strat->skippedWeight(), 2)
                  << "% of the fault space provably Masked; budget "
                  << header.trials << " injected trials\n";
    }
    const std::uint64_t budget = header.trials;

    // A resume of a campaign that never started is a fresh start.
    std::vector<JournalRecord> completed;
    if (resume && exists) {
        CampaignJournal journal;
        std::string error;
        if (!CampaignJournal::load(checkpoint, journal, error))
            fatal("cannot resume: ", error);
        if (!(journal.header == header)) {
            fatal("checkpoint '", checkpoint,
                  "' records a different campaign (check "
                  "workload/scale/kind/seed/trials/budget and the "
                  "partition hash)");
        }
        completed = std::move(journal.records);
    }
    if (completed.size() > budget)
        fatal("checkpoint has more trials than the budget ", budget);
    if (!completed.empty()) {
        std::cout << "resuming after " << completed.size()
                  << " completed trials\n";
    }
    const std::uint64_t first = completed.size();

    // Heartbeat lines land on the same boundaries the journal
    // flushes at, so every line corresponds to a recoverable state.
    std::vector<std::string> outcome_labels;
    for (std::size_t i = 0; i < numInjectOutcomes; ++i) {
        outcome_labels.emplace_back(
            injectOutcomeName(static_cast<InjectOutcome>(i)));
    }
    obs::Heartbeat heartbeat(
        outcome_labels, budget, every,
        args.getBool("heartbeat") ? &std::cerr : nullptr);
    CampaignTallies tallies = plan.emptyTallies();
    if (!completed.empty()) {
        std::vector<std::uint64_t> primed(numInjectOutcomes, 0);
        for (const JournalRecord &record : completed) {
            ++primed[static_cast<std::size_t>(record.result.outcome)];
            tallies.add(record.stratum, record.result);
        }
        heartbeat.prime(primed);
    }

    std::optional<JournalWriter> writer;
    if (!checkpoint.empty())
        writer.emplace(checkpoint, header, every, std::move(completed));
    plan.run(first, budget - first, tallies,
             [&](std::uint64_t index, std::uint64_t seed,
                 std::uint32_t stratum, const TrialResult &result) {
                 if (writer)
                     writer->record(index, seed, stratum, result);
                 heartbeat.record(static_cast<std::size_t>(result.outcome));
             });
    if (writer)
        writer->finish();
    heartbeat.finish();

    std::cout << "\n";
    Table table({"outcome", strat ? "injected" : "count",
                 strat ? "combined rate" : "rate", "95% CI"});
    for (std::size_t i = 0; i < numInjectOutcomes; ++i) {
        const InjectOutcome outcome = static_cast<InjectOutcome>(i);
        const WilsonInterval rate = strat
            ? strat->combinedInterval(tallies.strata, outcome)
            : tallies.flat.rate(outcome);
        std::string ci;
        ci += '[';
        ci += formatFixed(rate.low, 5);
        ci += ", ";
        ci += formatFixed(rate.high, 5);
        ci += ']';
        table.beginRow()
            .cell(injectOutcomeName(outcome))
            .cell(std::to_string(tallies.flat.count(outcome)))
            .cell(rate.point, 5)
            .cell(ci);
    }
    table.printText(std::cout);

    if (strat) {
        const WilsonInterval sdc =
            strat->combinedInterval(tallies.strata, InjectOutcome::Sdc);
        const std::uint64_t injected = tallies.flat.total();
        const std::uint64_t effective = injected == 0
            ? 0
            : effectiveUniformTrials(sdc.high - sdc.low, sdc.point);
        std::cout << "\ninjected " << injected << " trials; the SDC "
                  << "interval is worth " << effective
                  << " uniform trials ("
                  << formatFixed(
                         injected == 0
                             ? 0.0
                             : static_cast<double>(effective) /
                                   static_cast<double>(injected),
                         2)
                  << "x)\n";
    }

    if (!tallies.flat.codeCounts.empty()) {
        std::cout << "\ndiagnostic codes:\n";
        for (const auto &[code, count] : tallies.flat.codeCounts)
            std::cout << "  " << code << "  " << count << "\n";
    }

    obs::Manifest manifest(strat ? "mbavf --campaign --stratify"
                                 : "mbavf --campaign");
    if (!manifest_path.empty()) {
        obs::JsonValue run = obs::JsonValue::object();
        run.set("workload", job.workload);
        run.set("scale", obs::JsonValue(std::uint64_t(job.scale)));
        run.set("trials", obs::JsonValue(budget));
        run.set("seed", obs::JsonValue(job.seed));
        run.set("kind", job.kind);
        run.set("protect", job.protect);
        run.set("resumed_trials", obs::JsonValue(first));
        if (strat) {
            run.set("stratify", obs::JsonValue(true));
            run.set("stratify_windows",
                    obs::JsonValue(std::uint64_t(job.stratifyWindows)));
            run.set("stratify_classes",
                    obs::JsonValue(std::uint64_t(job.stratifyClasses)));
        }
        manifest.set("run", std::move(run));
        manifest.set("campaign", obs::tallyJson(tallies.flat));
        if (strat) {
            manifest.set("strata",
                         obs::strataJson(*strat, tallies.strata, budget));
        }
    }
    writeObsOutputs(&manifest, manifest_path, trace_path);
    return 0;
}

/** The sweep mode: lifetimes -> design -> mode sweep + SER. */
int
runSweepCli(const Args &args, const JobConfig &job)
{
    const std::string manifest_path = args.getString("manifest", "");
    const std::string trace_path = args.getString("trace-out", "");
    enableObsSinks(manifest_path, trace_path);
    obs::Manifest manifest("mbavf");

    const std::string arena_out = args.getString("arena-out", "");
    if (job.arenaIn.empty())
        std::cout << "simulating '" << job.workload << "' ...\n";
    Lifetimes lifetimes;
    std::string error;
    if (!readLifetimes(job, arena_out, lifetimes, error))
        fatal(error);
    const Cycle horizon = lifetimes.horizon;
    if (!job.arenaIn.empty()) {
        std::cout << "mapped arena from " << job.arenaIn << " ("
                  << lifetimes.arena.numWords() << " word(s), "
                  << lifetimes.arena.numSegments()
                  << " segment(s), horizon " << horizon << ")\n";
    } else if (!manifest_path.empty()) {
        obs::JsonValue caches = obs::JsonValue::object();
        caches.set("l1", obs::cacheStatsJson(lifetimes.l1Stats));
        caches.set("l2", obs::cacheStatsJson(lifetimes.l2Stats));
        manifest.set("cache", std::move(caches));
    }
    if (!arena_out.empty())
        std::cout << "saved arena to " << arena_out << "\n";

    const Design design = makeDesign(job, horizon);
    const std::string style = job.effectiveStyle();
    std::cout << "\n" << job.structure << ", " << design.scheme->name()
              << ", " << style << " x" << job.interleave
              << ", horizon " << horizon << "\n\n";

    const SweepResult result = runSweep(job, design, lifetimes);
    const ModeSweep &sweep = result.sweep;

    Table table({"mode", "SDC AVF", "trueDUE AVF", "falseDUE AVF",
                 "total"});
    for (unsigned m = 1; m <= job.modes; ++m) {
        const AvfFractions &avf = sweep.avf(m);
        table.beginRow()
            .cell(std::to_string(m) + "x1")
            .cell(avf.sdc, 5)
            .cell(avf.trueDue, 5)
            .cell(avf.falseDue, 5)
            .cell(avf.total(), 5);
    }
    table.printText(std::cout);

    std::cout << "\nSER @ " << job.totalFit << " FIT raw:  SDC "
              << formatFixed(result.ser.sdc, 4) << "  DUE "
              << formatFixed(result.ser.due(), 4) << "  (check bits: +"
              << formatFixed(100.0 * result.areaOverhead, 1)
              << "% area)\n";

    if (job.windows) {
        // A mode wider than the array has no groups and no window
        // series; show the widest mode that has them.
        unsigned mode = job.modes;
        while (mode > 1 && sweep.results[mode - 1].numGroups == 0)
            --mode;
        std::cout << "\nAVF over time (" << job.windows
                  << " windows, mode " << mode << "x1):\n";
        const MbAvfResult &widest = sweep.results[mode - 1];
        Table wt({"window", "SDC", "DUE"});
        for (unsigned w = 0; w < job.windows; ++w) {
            wt.beginRow()
                .cell(std::to_string(w))
                .cell(widest.windows[w].sdc, 4)
                .cell(widest.windows[w].due(), 4);
        }
        wt.printText(std::cout);
    }

    if (!manifest_path.empty()) {
        obs::JsonValue run = obs::JsonValue::object();
        run.set("workload", job.workload);
        run.set("structure", job.structure);
        run.set("scheme", job.scheme);
        run.set("style", style);
        run.set("interleave",
                obs::JsonValue(std::uint64_t(job.interleave)));
        run.set("modes", obs::JsonValue(std::uint64_t(job.modes)));
        run.set("windows", obs::JsonValue(std::uint64_t(job.windows)));
        run.set("horizon", obs::JsonValue(std::uint64_t(horizon)));
        run.set("total_fit", obs::JsonValue(job.totalFit));
        run.set("shield_due",
                obs::JsonValue(design.options.dueShieldsSdc));
        manifest.set("run", std::move(run));
        manifest.set("avf", obs::modeSweepJson(sweep));
        manifest.set("ser", obs::serJson(result.ser));
    }
    writeObsOutputs(&manifest, manifest_path, trace_path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    checkOptions(args);
    if (args.getBool("help")) {
        usage();
        return 0;
    }
    if (args.getBool("version")) {
        std::cout << obs::versionLine("mbavf") << "\n";
        return 0;
    }
    if (args.getBool("list-workloads")) {
        for (const std::string &name : workloadNames())
            std::cout << name << "\n";
        return 0;
    }
    if (args.getString("workload", "").empty() &&
        args.getString("arena-in", "").empty()) {
        usage();
        return 1;
    }

    // 0 = all hardware threads; unset = MBAVF_THREADS or hardware.
    if (args.has("threads")) {
        setParallelThreads(static_cast<unsigned>(
            args.getIntInRange("threads", 0, 0, maxParallelThreads)));
    }

    const JobConfig job = jobFromArgs(args);
    std::string error;
    if (!validateJob(job, error))
        fatal(error);
    return job.type == JobType::Campaign ? runCampaignCli(args, job)
                                         : runSweepCli(args, job);
}
