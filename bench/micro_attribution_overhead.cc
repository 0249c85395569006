/**
 * @file
 * Microbenchmark: cost of per-instruction MB-AVF attribution.
 *
 * Attribution rides on an extra InstrTag column threaded from the
 * wavefront pipeline through the lifetime builder into every
 * LifeSegment. That column must be free when nobody asks for
 * attribution: computeMbAvf() never reads segment tags, so a tagged
 * store must sweep at the same speed as the identical store with
 * the tags stripped. This harness measures exactly that "disabled
 * cost", plus the price of attribution itself, per workload on the
 * VGPR array:
 *
 *   sweep ms   computeMbAvf, the per-group reference sweep, on the
 *              instrumented (tagged) store
 *   strip ms   the same on a rebuilt copy with tags stripped
 *   attr ms    attributeMbAvf on the tagged store: the store's
 *              flatten plus the bit-sliced kernel with its per-tag
 *              sink
 *   disabled   sweep / strip — overhead of carrying unused tags
 *   attr x     attr / sweep — attribution over reference-sweep cost
 *
 * Every attribution result is conservation-checked against the
 * reference sweep (exact integer cycle sums per outcome class, from
 * two engines), and the tagged and stripped sweeps must be
 * bit-identical — the tag column may never change a result, only
 * annotate it.
 *
 *   micro_attribution_overhead [--workloads=a,b] [--scale=N]
 *       [--mode=M] [--repeats=3] [--threads=N]
 *       [--max-disabled-cost=X] [--max-attr-cost=Y]
 *
 * Exit status is nonzero if conservation fails, if the tagged and
 * stripped sweeps diverge, if the geomean disabled-cost ratio
 * exceeds --max-disabled-cost, or if the geomean attr-over-sweep
 * ratio exceeds --max-attr-cost (0 disables either gate). CI runs
 * the disabled-cost gate in bench-smoke so a regression that makes
 * the tag column cost measurable sweep time fails the job directly.
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analyze/attribution.hh"
#include "bench/bench_util.hh"
#include "common/stats.hh"
#include "obs/stopwatch.hh"

using namespace mbavf;

namespace
{

/** Copy @p store with every segment's tag reset to noInstrTag. */
LifetimeStore
stripTags(const LifetimeStore &store)
{
    LifetimeStore out(store.wordWidth(), store.wordsPerContainer());
    for (const auto &entry : store.containers()) {
        ContainerLifetime &container = out.container(entry.first);
        for (std::size_t w = 0; w < entry.second.words.size(); ++w) {
            for (const LifeSegment &s : entry.second.words[w].segments())
                container.words[w].append(
                    {s.begin, s.end, s.aceMask, s.readMask});
        }
    }
    return out;
}

bool
sameResult(const MbAvfResult &a, const MbAvfResult &b)
{
    return a.cycles == b.cycles && a.numGroups == b.numGroups &&
           a.horizon == b.horizon;
}

/** Wall time of one computeMbAvf() call. */
double
timeSweep(const PhysicalArray &array, const LifetimeStore &store,
          const ProtectionScheme &scheme, const FaultMode &mode,
          const MbAvfOptions &opt, MbAvfResult &out)
{
    obs::Stopwatch watch;
    out = computeMbAvf(array, store, scheme, mode, opt);
    return watch.seconds();
}

/** Best-of-@p repeats wall time of one attributeMbAvf() call. */
double
timeAttribution(const PhysicalArray &array, const LifetimeStore &store,
                const ProtectionScheme &scheme, const FaultMode &mode,
                const MbAvfOptions &opt, unsigned repeats,
                analyze::AttributionResult &out)
{
    double best = 0.0;
    for (unsigned r = 0; r < repeats; ++r) {
        obs::Stopwatch watch;
        analyze::AttributionResult result =
            analyze::attributeMbAvf(array, store, scheme, mode, opt);
        double s = watch.seconds();
        if (r == 0 || s < best)
            best = s;
        out = std::move(result);
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    BenchReporter bench("micro_attribution_overhead", &args);
    configureThreads(args);
    JobConfig job;
    job.structure = "vgpr";
    job.scheme = "secded";
    job.scale = unsignedFlag(args, "scale", 1);
    job.modes = unsignedFlag(args, "mode", 4);
    const unsigned mode_size = job.modes;
    const unsigned repeats = unsignedFlag(args, "repeats", 3, 1);
    const double max_disabled = args.getDouble("max-disabled-cost", 0.0);
    const double max_attr = args.getDouble("max-attr-cost", 0.0);

    std::cout << "attribution overhead: tagged vs tag-stripped VGPR "
                 "sweep plus attributeMbAvf, secded, mode "
              << mode_size << "x1\n\n";

    Table table({"workload", "sweep ms", "strip ms", "attr ms",
                 "disabled", "attr x"});
    RunningStats g_disabled;
    RunningStats g_attr;
    const FaultMode mode = FaultMode::mx1(mode_size);
    bool identical = true;
    bool conserved = true;

    for (const std::string &name : selectedWorkloads(args)) {
        note("running " + name);
        job.workload = name;
        const Lifetimes life = jobLifetimes(job);
        const Design design = makeDesign(job, life.horizon);
        const PhysicalArray &array = *design.array;
        const ProtectionScheme &secded = *design.scheme;
        const LifetimeStore &store = life.store;
        LifetimeStore stripped = stripTags(store);

        // SDC takes precedence: the study times the sweep without
        // the DUE-shields-SDC rule of inter-thread designs.
        MbAvfOptions opt = design.options;
        opt.dueShieldsSdc = false;

        // One untimed sweep of each store, then tagged and stripped
        // repeats in turn (best of each): a cold first sweep or host
        // drift lands on both sides of the ratio, not on one.
        MbAvfResult tagged, untagged;
        timeSweep(array, store, secded, mode, opt, tagged);
        timeSweep(array, stripped, secded, mode, opt, untagged);
        double sweep_s = 0.0, strip_s = 0.0;
        for (unsigned r = 0; r < repeats; ++r) {
            const double t =
                timeSweep(array, store, secded, mode, opt, tagged);
            const double u =
                timeSweep(array, stripped, secded, mode, opt, untagged);
            if (r == 0 || t < sweep_s)
                sweep_s = t;
            if (r == 0 || u < strip_s)
                strip_s = u;
        }
        analyze::AttributionResult attr;
        double attr_s = timeAttribution(array, store, secded, mode,
                                        opt, repeats, attr);

        if (!sameResult(tagged, untagged)) {
            std::cerr << "FAIL: tagged and stripped sweeps diverge "
                         "on " << name << "\n";
            identical = false;
        }
        const std::string violation =
            analyze::checkConservation(attr, tagged);
        if (!violation.empty()) {
            std::cerr << "FAIL: conservation on " << name << ": "
                      << violation << "\n";
            conserved = false;
        }

        double disabled = strip_s > 0 ? sweep_s / strip_s : 0.0;
        double attr_x = sweep_s > 0 ? attr_s / sweep_s : 0.0;
        g_disabled.add(disabled);
        g_attr.add(attr_x);
        table.beginRow()
            .cell(name)
            .cell(sweep_s * 1e3, 2)
            .cell(strip_s * 1e3, 2)
            .cell(attr_s * 1e3, 2)
            .cell(disabled, 2)
            .cell(attr_x, 2);
    }

    table.beginRow()
        .cell("geomean")
        .cell("")
        .cell("")
        .cell("")
        .cell(g_disabled.geomean(), 2)
        .cell(g_attr.geomean(), 2);
    bench.emit(table);
    bench.meta("mode", static_cast<std::uint64_t>(mode_size));
    bench.meta("repeats", static_cast<std::uint64_t>(repeats));
    bench.meta("max_disabled_cost", max_disabled);
    bench.meta("max_attr_cost", max_attr);

    if (!identical) {
        std::cout << "\nRESULT MISMATCH between tagged and "
                     "stripped stores\n";
        return 1;
    }
    if (!conserved) {
        std::cout << "\nCONSERVATION VIOLATED\n";
        return 1;
    }
    std::cout << "\nconservation held and tag column is "
                 "result-neutral on every workload\n";
    if (max_disabled > 0 && g_disabled.geomean() > max_disabled) {
        std::cout << "FAIL: geomean disabled-cost ratio "
                  << g_disabled.geomean() << "x above the allowed "
                  << max_disabled << "x\n";
        return 1;
    }
    if (max_attr > 0 && g_attr.geomean() > max_attr) {
        std::cout << "FAIL: geomean attribution cost "
                  << g_attr.geomean() << "x above the allowed "
                  << max_attr << "x\n";
        return 1;
    }
    return 0;
}
