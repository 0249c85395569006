/**
 * @file
 * perfbench_trace — traced re-run of one mbavf or mbavf_analyze
 * invocation.
 *
 *   perfbench_trace --tool=mbavf|mbavf_analyze --spans-out=FILE
 *                   [--op-id=N] <the tool's own flags>
 *
 * Calls each layer's public function in the order the tool does and
 * records one span (wall and process CPU time) per call, plus counts
 * of the work done at the same boundaries. runAceAnalysis() has no
 * public boundary between simulation, liveness and lifetime build,
 * so its ace.sim / ace.liveness / ace.backward phases
 * (obs::phaseStats) become child spans laid end to end from the
 * start of the call. Spans stay in memory and are written to
 * --spans-out when the run ends. --manifest writes the same
 * deterministic sections the tool writes, so the benchmark checks a
 * traced run against the same expected outputs as an untraced one.
 *
 * The harness accepts exactly the flags perfbench/run.py passes and
 * rejects any other: an L1 or VGPR query (--workload --scale
 * --structure, plus --scheme --style --interleave --modes --windows
 * for a design), --arena-out / --arena-in, --campaign --stratify
 * --workload --budget --seed, and mbavf_analyze --workload; all take
 * --threads and --manifest. Every option the tools have beyond these
 * is fixed at the tool's default, so a traced run and the matching
 * untraced one compute the same thing.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analyze/attribution.hh"
#include "analyze/passes.hh"
#include "check/report.hh"
#include "common/args.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "core/arena_io.hh"
#include "core/layout.hh"
#include "core/lifetime_arena.hh"
#include "core/mbavf.hh"
#include "core/protection.hh"
#include "core/sweep.hh"
#include "inject/campaign.hh"
#include "inject/stratified.hh"
#include "obs/adapters.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"
#include "workloads/ace_runner.hh"

using namespace mbavf;

namespace
{

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec +
                               usage.ru_stime.tv_sec) +
        static_cast<double>(usage.ru_utime.tv_usec +
                            usage.ru_stime.tv_usec) *
        1e-6;
}

double
wallSeconds()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point origin = clock::now();
    return std::chrono::duration<double>(clock::now() - origin).count();
}

/** Peak resident set (VmHWM) of this process, in KiB. */
std::uint64_t
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6));
    }
    return 0;
}

/** In-memory spans and counts of one process. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        /** Process CPU seconds over the span; < 0 when unknown. */
        double cpu = -1.0;
    };

    int
    begin(const std::string &name)
    {
        Span span;
        span.name = name;
        span.start = wallSeconds();
        span.parent = open_.empty() ? -1 : open_.back();
        span.cpu = cpuSeconds();
        spans_.push_back(span);
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    end(int id)
    {
        Span &span = spans_[static_cast<std::size_t>(id)];
        span.end = wallSeconds();
        span.cpu = cpuSeconds() - span.cpu;
        open_.pop_back();
    }

    /** A completed child of @p parent known only by its duration. */
    void
    child(int parent, const std::string &name, double start,
          double seconds)
    {
        Span span;
        span.name = name;
        span.start = start;
        span.end = start + seconds;
        span.parent = parent;
        spans_.push_back(span);
    }

    const Span &span(int id) const
    {
        return spans_[static_cast<std::size_t>(id)];
    }

    void count(const std::string &name, double value)
    {
        counts_[name] += value;
    }

    bool
    write(const std::string &path, long op_id) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"op\": %ld, \"spans\": [", op_id);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n {\"name\": \"%s\", \"start\": %.9f, "
                         "\"end\": %.9f, \"parent\": %d, "
                         "\"cpu\": %.6f}",
                         i ? "," : "", s.name.c_str(), s.start, s.end,
                         s.parent, s.cpu);
        }
        std::fprintf(f, "],\n \"counts\": {");
        bool first = true;
        for (const auto &[name, value] : counts_) {
            std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ",
                         name.c_str(), value);
            first = false;
        }
        std::fprintf(f, "}}\n");
        return std::fclose(f) == 0;
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::map<std::string, double> counts_;
};

Tracer tracer;

/** RAII span on the global tracer. */
class Scope
{
  public:
    explicit Scope(const char *name) : id_(tracer.begin(name)) {}
    ~Scope() { close(); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void
    close()
    {
        if (!closed_)
            tracer.end(id_);
        closed_ = true;
    }

    int id() const { return id_; }

  private:
    int id_;
    bool closed_ = false;
};

std::map<std::string, double>
phaseSeconds()
{
    std::map<std::string, double> out;
    for (const auto &[name, stat] : obs::phaseStats())
        out[name] = stat.seconds;
    return out;
}

/**
 * Turn the ace.* phases recorded since @p before into children of
 * span @p parent, laid end to end from its start.
 */
void
addAcePhases(int parent, const std::map<std::string, double> &before)
{
    const std::map<std::string, double> after = phaseSeconds();
    double at = tracer.span(parent).start;
    for (const char *name : {"ace.sim", "ace.liveness", "ace.backward"}) {
        const auto it = after.find(name);
        if (it == after.end())
            continue;
        const auto old = before.find(name);
        const double seconds =
            it->second - (old == before.end() ? 0.0 : old->second);
        tracer.child(parent, name, at, seconds);
        at += seconds;
    }
}

std::uint64_t
segments(const LifetimeStore &store)
{
    std::uint64_t n = 0;
    for (const auto &[id, container] : store.containers()) {
        for (const WordLifetime &word : container.words)
            n += word.segments().size();
    }
    return n;
}

/** Run the ACE analysis under an "ace.run" span and count its work. */
AceRun
tracedAceRun(const std::string &workload, const AceRunOptions &options)
{
    const std::map<std::string, double> before = phaseSeconds();
    Scope scope("ace.run");
    AceRun run = runAceAnalysis(workload, options);
    scope.close();
    addAcePhases(scope.id(), before);
    tracer.count("gpu.instrs", static_cast<double>(run.instrs));
    tracer.count("trace.defs", static_cast<double>(run.numDefs));
    tracer.count("trace.dead_defs", static_cast<double>(run.numDeadDefs));
    tracer.count("build.l1_segments", static_cast<double>(segments(run.l1)));
    tracer.count("build.vgpr_segments",
                 static_cast<double>(segments(run.vgpr)));
    tracer.count("build.peak_rss_kb", static_cast<double>(peakRssKb()));
    return run;
}

void
writeManifest(obs::Manifest &manifest, const std::string &path,
              bool observations)
{
    if (observations)
        manifest.captureObservations();
    manifest.setEnv();
    std::string error;
    if (!manifest.write(path, error))
        fatal("cannot write manifest: ", error);
    tracer.count("obs.manifest_bytes",
                 static_cast<double>(std::filesystem::file_size(path)));
}

/** The L1 data cache or the VGPR file, with one interleaving. */
std::unique_ptr<PhysicalArray>
buildArray(const GpuConfig &config, const std::string &structure,
           const std::string &style, unsigned interleave)
{
    if (structure == "vgpr") {
        if (style != "intra" && style != "inter")
            fatal("vgpr style must be intra|inter");
        const RegInterleave ri = style == "intra"
            ? RegInterleave::IntraThread
            : RegInterleave::InterThread;
        return makeRegFileArray(config.regs, ri, interleave);
    }
    CacheGeometry geom{config.l1.sets, config.l1.ways,
                       config.l1.lineBytes};
    return makeCacheArray(geom, parseCacheInterleave(style), interleave);
}

/** mbavf: an ACE query, --arena-out, or an --arena-in design sweep. */
int
runQuery(const Args &args)
{
    args.requireKnown({"tool", "spans-out", "op-id", "threads",
                       "manifest", "workload", "scale", "structure",
                       "scheme", "style", "interleave", "modes",
                       "windows", "arena-in", "arena-out"});
    const std::string structure = args.getString("structure", "l1");
    const std::string scheme_name = args.getString("scheme", "parity");
    const std::string style = args.getString(
        "style", structure == "vgpr" ? "inter" : "way");
    const unsigned interleave =
        static_cast<unsigned>(args.getInt("interleave", 2));
    const unsigned max_mode =
        static_cast<unsigned>(args.getInt("modes", 8));
    const unsigned windows =
        static_cast<unsigned>(args.getInt("windows", 0));
    // mbavf's --total-fit default.
    const double total_fit = 100.0;
    const unsigned num_threads =
        static_cast<unsigned>(args.getInt("threads", 0));
    const std::string manifest_path = args.getString("manifest", "");
    const std::string arena_out = args.getString("arena-out", "");
    const std::string arena_in = args.getString("arena-in", "");
    if (structure != "l1" && structure != "vgpr")
        fatal("unknown structure '", structure, "' (l1|vgpr)");

    obs::Manifest manifest("mbavf");
    GpuConfig config;
    LifetimeStore life(8, 64);
    Cycle horizon = 0;
    std::optional<LifetimeArena> arena;

    if (!arena_in.empty()) {
        Scope scope("arena.load");
        std::string error;
        arena = tryLoadArena(arena_in, error, &horizon);
        if (!arena)
            fatal("cannot load arena '", arena_in, "': ", error);
    } else {
        AceRunOptions options;
        options.scale = static_cast<unsigned>(args.getInt("scale", 1));
        options.config = config;
        AceRun run = tracedAceRun(args.getString("workload", ""), options);
        horizon = run.horizon;
        obs::JsonValue caches = obs::JsonValue::object();
        caches.set("l1", obs::cacheStatsJson(run.l1Stats));
        caches.set("l2", obs::cacheStatsJson(run.l2Stats));
        manifest.set("cache", std::move(caches));
        life = std::move(structure == "l1" ? run.l1 : run.vgpr);
        tracer.count("build.requested_segments",
                     static_cast<double>(segments(life)));
    }

    if (!arena_out.empty()) {
        Scope scope("arena.write");
        streamArenaFromStore(life, arena_out, horizon);
        scope.close();
        tracer.count("arena.bytes",
                     static_cast<double>(
                         std::filesystem::file_size(arena_out)));
    }
    if (!arena) {
        Scope scope("arena.flatten");
        arena.emplace(life);
    }

    const unsigned expected_width = structure == "vgpr" ? 32 : 8;
    if (arena->wordWidth() != expected_width)
        fatal("lifetime word width does not match the structure");

    const std::unique_ptr<PhysicalArray> array =
        buildArray(config, structure, style, interleave);
    const auto scheme = makeScheme(scheme_name);
    MbAvfOptions opt;
    opt.horizon = horizon;
    opt.numWindows = windows;
    opt.numThreads = num_threads;
    opt.dueShieldsSdc = structure == "vgpr" && style == "inter";

    ModeSweep sweep;
    {
        Scope scope("sweep");
        sweep = sweepModesArena(*array, *arena, *scheme, opt, max_mode);
    }
    double groups = 0;
    for (const MbAvfResult &r : sweep.results)
        groups += static_cast<double>(r.numGroups);
    tracer.count("sweep.groups", groups);
    const StructureSer ser =
        sweepSer(sweep, caseStudyFaultRates(total_fit));

    if (!manifest_path.empty()) {
        Scope scope("obs.manifest");
        obs::JsonValue run = obs::JsonValue::object();
        run.set("workload", args.getString("workload", ""));
        run.set("structure", structure);
        run.set("scheme", scheme_name);
        run.set("style", style);
        run.set("interleave", obs::JsonValue(std::uint64_t(interleave)));
        run.set("modes", obs::JsonValue(std::uint64_t(max_mode)));
        run.set("windows", obs::JsonValue(std::uint64_t(windows)));
        run.set("horizon", obs::JsonValue(std::uint64_t(horizon)));
        run.set("total_fit", obs::JsonValue(total_fit));
        run.set("shield_due", obs::JsonValue(opt.dueShieldsSdc));
        manifest.set("run", std::move(run));
        manifest.set("avf", obs::modeSweepJson(sweep));
        manifest.set("ser", obs::serJson(ser));
        writeManifest(manifest, manifest_path, true);
    }
    return 0;
}

/** mbavf --campaign --stratify without checkpoints, at scale 1. */
int
runStratifiedCampaign(const Args &args)
{
    args.requireKnown({"tool", "spans-out", "op-id", "threads",
                       "manifest", "campaign", "stratify", "workload",
                       "budget", "seed"});
    if (!args.getBool("stratify"))
        fatal("the harness runs --campaign only with --stratify");
    const std::string workload = args.getString("workload", "");
    const unsigned scale = 1;
    const std::uint64_t base_seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const std::string manifest_path = args.getString("manifest", "");
    // The tool's defaults: 8 windows, 64 site classes.
    const StratifyOptions opts;

    std::optional<Campaign> campaign;
    {
        Scope scope("inject.golden");
        campaign.emplace(workload, scale, GpuConfig{});
    }
    std::optional<Stratification> strat;
    {
        const std::map<std::string, double> before = phaseSeconds();
        Scope scope("inject.stratify");
        strat.emplace(Stratification::build(*campaign, opts));
        scope.close();
        addAcePhases(scope.id(), before);
    }

    bool sampleable = false;
    for (const Stratum &st : strat->strata())
        sampleable = sampleable || (!st.skipped && st.weight > 0.0);
    const std::uint64_t budget =
        sampleable ? static_cast<std::uint64_t>(args.getInt("budget", 1000))
                   : 0;

    const std::vector<Stratification::Pick> picks =
        strat->picks(0, budget);
    std::vector<TrialResult> results(budget);
    std::vector<double> seconds(budget);
    {
        Scope scope("inject.trials");
        runTasks(budget, [&](std::size_t i) {
            const double start = wallSeconds();
            results[i] = campaign->runOne(
                strat->trialSpec(picks[i], base_seed));
            seconds[i] = wallSeconds() - start;
        });
    }
    std::vector<StratumTally> tallies(strat->strata().size());
    CampaignTally tally;
    for (std::size_t i = 0; i < budget; ++i) {
        StratumTally &t = tallies[picks[i].stratum];
        ++t.trials;
        ++t.counts[static_cast<std::size_t>(results[i].outcome)];
        tally.add(results[i]);
    }
    if (!seconds.empty()) {
        std::nth_element(seconds.begin(),
                         seconds.begin() + seconds.size() / 2,
                         seconds.end());
        tracer.count("inject.trial_p50_s", seconds[seconds.size() / 2]);
    }
    tracer.count("inject.strata",
                 static_cast<double>(strat->strata().size()));
    tracer.count("inject.skipped_weight", strat->skippedWeight());
    for (InjectOutcome o : {InjectOutcome::Masked, InjectOutcome::Sdc,
                            InjectOutcome::Crash, InjectOutcome::Hang}) {
        tracer.count(std::string("inject.") + injectOutcomeName(o),
                     static_cast<double>(tally.count(o)));
    }

    if (!manifest_path.empty()) {
        Scope scope("obs.manifest");
        obs::Manifest manifest("mbavf --campaign --stratify");
        obs::JsonValue run = obs::JsonValue::object();
        run.set("workload", workload);
        run.set("scale", obs::JsonValue(std::uint64_t(scale)));
        run.set("trials", obs::JsonValue(budget));
        run.set("seed", obs::JsonValue(base_seed));
        run.set("kind", std::string(trialKindName(TrialKind::Register)));
        run.set("protect", std::string("none"));
        run.set("resumed_trials", obs::JsonValue(std::uint64_t(0)));
        run.set("stratify", obs::JsonValue(true));
        run.set("stratify_windows",
                obs::JsonValue(std::uint64_t(opts.windows)));
        run.set("stratify_classes",
                obs::JsonValue(std::uint64_t(opts.maxClasses)));
        manifest.set("run", std::move(run));
        manifest.set("campaign", obs::tallyJson(tally));
        manifest.set("strata", obs::strataJson(*strat, tallies, budget));
        writeManifest(manifest, manifest_path, true);
    }
    return 0;
}

obs::JsonValue
cyclesJson(const std::array<Cycle, 3> &cycles)
{
    obs::JsonValue v = obs::JsonValue::object();
    v.set("sdc", obs::JsonValue(cycles[0]));
    v.set("true_due", obs::JsonValue(cycles[1]));
    v.set("false_due", obs::JsonValue(cycles[2]));
    return v;
}

/**
 * mbavf_analyze at its defaults: VGPR, SEC-DED, inter x2, 4x1 at
 * scale 1, no --seed-corruption.
 */
int
runAnalyze(const Args &args)
{
    args.requireKnown({"tool", "spans-out", "op-id", "threads",
                       "manifest", "workload"});
    const std::string workload = args.getString("workload", "");
    const std::string structure = "vgpr";
    const std::string scheme_name = "secded";
    const std::string style = "inter";
    const unsigned interleave = 2;
    const unsigned mode_size = 4;
    const unsigned cover_modes = 4;
    const unsigned top = 10;
    const unsigned num_threads =
        static_cast<unsigned>(args.getInt("threads", 1));
    const std::string manifest_path = args.getString("manifest", "");

    AceRunOptions options;
    ProgramCapture capture;
    options.capture = &capture;
    AceRun run = tracedAceRun(workload, options);
    LifetimeStore &life = run.vgpr;
    tracer.count("build.requested_segments",
                 static_cast<double>(segments(life)));

    CheckReport report;
    // mbavf_analyze's --max-findings default.
    report.setPerCodeLimit(16);
    const std::unique_ptr<PhysicalArray> array =
        buildArray(options.config, structure, style, interleave);
    const auto scheme = makeScheme(scheme_name);
    {
        Scope scope("analyze.lint");
        Liveness liveness(capture.dataflow);
        analyze::lintDataflow(capture.dataflow, liveness, report);
        analyze::lintRegisterEvents(capture.vgprEvents, capture.dataflow,
                                    report);
        analyze::DomainLintOptions domain_opts;
        domain_opts.coverModes = cover_modes;
        analyze::lintDomainCoverage(*array, life, *scheme, domain_opts,
                                    report);
    }

    MbAvfOptions opt;
    opt.horizon = run.horizon;
    opt.numThreads = num_threads;
    // A VGPR inter-thread layout always shields SDC with DUE.
    opt.dueShieldsSdc = true;
    const FaultMode mode = FaultMode::mx1(mode_size);
    std::optional<MbAvfResult> reference;
    {
        Scope scope("analyze.ref_sweep");
        reference.emplace(computeMbAvf(*array, life, *scheme, mode, opt));
    }
    std::optional<analyze::AttributionResult> attr;
    std::string violation;
    {
        Scope scope("analyze.attr");
        attr.emplace(
            analyze::attributeMbAvf(*array, life, *scheme, mode, opt));
        violation = analyze::checkConservation(*attr, *reference);
    }
    tracer.count("analyze.tags", static_cast<double>(attr->perTag.size()));
    if (!violation.empty()) {
        report.error("attr.conservation",
                     structure + " " + scheme->name() + " " +
                         std::to_string(mode_size) + "x1",
                     violation);
    }

    std::vector<analyze::TagContribution> ranked = attr->perTag;
    std::sort(ranked.begin(), ranked.end(),
              [](const analyze::TagContribution &a,
                 const analyze::TagContribution &b) {
                  if (a.total() != b.total())
                      return a.total() > b.total();
                  return a.tag < b.tag;
              });
    if (ranked.size() > top)
        ranked.resize(top);
    const auto kernels = analyze::rollupByKernel(*attr);

    if (!manifest_path.empty()) {
        Scope scope("obs.manifest");
        obs::Manifest manifest("mbavf_analyze");
        obs::JsonValue run_section = obs::JsonValue::object();
        run_section.set("workload", workload);
        run_section.set("structure", structure);
        run_section.set("scheme", scheme_name);
        run_section.set("style", style);
        run_section.set("interleave",
                        obs::JsonValue(std::uint64_t(interleave)));
        run_section.set("mode", std::to_string(mode_size) + "x1");
        run_section.set("cover_modes",
                        obs::JsonValue(std::uint64_t(cover_modes)));
        run_section.set("horizon",
                        obs::JsonValue(std::uint64_t(run.horizon)));
        manifest.set("run", std::move(run_section));

        obs::JsonValue attribution = obs::JsonValue::object();
        attribution.set("schema_version", obs::JsonValue(std::uint64_t(1)));
        attribution.set("num_groups", obs::JsonValue(attr->numGroups));
        attribution.set("cycles", cyclesJson(attr->cycles));
        attribution.set("conserved", obs::JsonValue(violation.empty()));
        obs::JsonValue top_rows = obs::JsonValue::array();
        for (const analyze::TagContribution &c : ranked) {
            obs::JsonValue row = obs::JsonValue::object();
            if (c.tag == noInstrTag) {
                row.set("untracked", obs::JsonValue(true));
            } else {
                row.set("kernel",
                        obs::JsonValue(std::uint64_t(tagKernel(c.tag))));
                row.set("pc", obs::JsonValue(std::uint64_t(tagPc(c.tag))));
            }
            row.set("cycles", cyclesJson(c.cycles));
            row.set("share", obs::JsonValue(attr->share(c)));
            top_rows.push(std::move(row));
        }
        attribution.set("top", std::move(top_rows));
        obs::JsonValue kernel_rows = obs::JsonValue::array();
        for (const analyze::KernelContribution &k : kernels) {
            obs::JsonValue row = obs::JsonValue::object();
            if (k.kernel == analyze::KernelContribution::noKernel)
                row.set("untracked", obs::JsonValue(true));
            else
                row.set("kernel", obs::JsonValue(std::uint64_t(k.kernel)));
            row.set("cycles", cyclesJson(k.cycles));
            kernel_rows.push(std::move(row));
        }
        attribution.set("kernels", std::move(kernel_rows));
        manifest.set("attribution", std::move(attribution));

        obs::JsonValue analysis = obs::JsonValue::object();
        analysis.set("findings",
                     obs::JsonValue(std::uint64_t(report.totalCount())));
        analysis.set("errors",
                     obs::JsonValue(std::uint64_t(report.errorCount())));
        manifest.set("analyze", std::move(analysis));
        writeManifest(manifest, manifest_path, false);
    }
    return report.errorCount() ? 2 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args(argc, argv);
    const std::string tool = args.getString("tool", "");
    const std::string spans_out = args.getString("spans-out", "");
    if (spans_out.empty() || (tool != "mbavf" && tool != "mbavf_analyze")) {
        std::cerr << "usage: perfbench_trace --tool=mbavf|mbavf_analyze "
                     "--spans-out=FILE [--op-id=N] <tool flags>\n";
        return 1;
    }
    if (args.has("threads")) {
        const unsigned n =
            static_cast<unsigned>(args.getInt("threads", 0));
        setParallelThreads(n);
    }
    // The tools enable metrics and phase timing with --manifest; the
    // harness always needs phase timing for the ace.* child spans.
    if (args.has("manifest") && tool == "mbavf")
        obs::setMetricsEnabled(true);
    obs::setTimingEnabled(true);

    int status = 0;
    {
        Scope root(tool.c_str());
        if (tool == "mbavf_analyze")
            status = runAnalyze(args);
        else if (args.getBool("campaign"))
            status = runStratifiedCampaign(args);
        else
            status = runQuery(args);
    }
    if (!tracer.write(spans_out, static_cast<long>(args.getInt("op-id", 0))))
        fatal("cannot write spans to '", spans_out, "'");
    return status;
}
