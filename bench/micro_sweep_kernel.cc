/**
 * @file
 * Microbenchmark: the sweep kernel against the per-mode reference.
 *
 * Runs the Figure 4 workload shape — L1 cache lifetimes, parity, x2
 * interleaving — through three paths per workload:
 *
 *   ref     max_mode independent computeMbAvf walks over the store,
 *           one per mode
 *   kernel  the store flattened into an arena and swept once by the
 *           single-pass bit-sliced kernel
 *   mmap    the kernel again, sweeping an arena persisted with
 *           core/arena_io.hh and mapped back from disk
 *
 * All three must produce bit-identical AVF fractions and window
 * series; the table records the per-workload times plus the
 * ref-over-kernel speedup and its geomean.
 *
 *   micro_sweep_kernel [--workloads=a,b] [--scale=N] [--modes=8]
 *                      [--repeats=3] [--threads=N] [--min-speedup=X]
 *
 * Exit status is nonzero if any path's results diverge from the
 * reference, or if the geomean ref-over-kernel speedup falls below
 * --min-speedup (0 disables the gate). Workloads below the floor are
 * listed in the manifest's run section as "below_floor", so CI
 * failures name the regressing subset instead of just the aggregate.
 * CI runs the floor so a kernel perf regression fails the bench-smoke
 * job directly, independent of runner-to-runner timing noise in the
 * manifests.
 */

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/stats.hh"
#include "core/arena_io.hh"
#include "core/lifetime_arena.hh"
#include "obs/stopwatch.hh"

using namespace mbavf;

namespace
{

bool
sameSweep(const ModeSweep &a, const ModeSweep &b)
{
    if (a.results.size() != b.results.size())
        return false;
    for (std::size_t m = 0; m < a.results.size(); ++m) {
        const MbAvfResult &x = a.results[m];
        const MbAvfResult &y = b.results[m];
        if (x.avf.sdc != y.avf.sdc || x.avf.trueDue != y.avf.trueDue ||
            x.avf.falseDue != y.avf.falseDue ||
            x.numGroups != y.numGroups ||
            x.windows.size() != y.windows.size()) {
            return false;
        }
        for (std::size_t w = 0; w < x.windows.size(); ++w) {
            if (x.windows[w].sdc != y.windows[w].sdc ||
                x.windows[w].trueDue != y.windows[w].trueDue ||
                x.windows[w].falseDue != y.windows[w].falseDue) {
                return false;
            }
        }
    }
    return true;
}

/**
 * Best-of-@p repeats wall time, seconds, of flattening @p store into
 * an arena and sweeping it once, or with @p reference of one
 * computeMbAvf() per mode.
 */
double
timeSweep(const PhysicalArray &array, const LifetimeStore &store,
          const ProtectionScheme &scheme, const MbAvfOptions &opt,
          unsigned max_mode, bool reference, unsigned repeats,
          ModeSweep &out)
{
    double best = 0.0;
    for (unsigned r = 0; r < repeats; ++r) {
        obs::Stopwatch watch;
        ModeSweep sweep;
        if (!reference) {
            sweep = sweepModesArena(array, LifetimeArena(store), scheme,
                                    opt, max_mode);
        } else {
            for (unsigned m = 1; m <= max_mode; ++m) {
                sweep.results.push_back(computeMbAvf(
                    array, store, scheme, FaultMode::mx1(m), opt));
            }
        }
        double s = watch.seconds();
        if (r == 0 || s < best)
            best = s;
        out = std::move(sweep);
    }
    return best;
}

/** Same, over a pre-built (here: disk-mapped) arena. */
double
timeSweepArena(const PhysicalArray &array, const LifetimeArena &arena,
               const ProtectionScheme &scheme, const MbAvfOptions &opt,
               unsigned max_mode, unsigned repeats, ModeSweep &out)
{
    double best = 0.0;
    for (unsigned r = 0; r < repeats; ++r) {
        obs::Stopwatch watch;
        ModeSweep sweep =
            sweepModesArena(array, arena, scheme, opt, max_mode);
        double s = watch.seconds();
        if (r == 0 || s < best)
            best = s;
        out = std::move(sweep);
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    BenchReporter bench("micro_sweep_kernel", &args);
    configureThreads(args);
    JobConfig job;
    job.scale = unsignedFlag(args, "scale", 1);
    job.style = "logical";
    job.windows = 8;
    job.modes = unsignedFlag(args, "modes", 8);
    const unsigned max_mode = job.modes;
    const unsigned repeats = unsignedFlag(args, "repeats", 3, 1);
    const double min_speedup = args.getDouble("min-speedup", 0.0);

    std::cout << "sweep kernel: reference per-mode path vs in-memory "
                 "and mmap arena kernel, "
              << max_mode << " modes\n\n";

    Table table({"workload", "ref ms", "kernel ms", "mmap ms",
                 "speedup"});
    RunningStats g_speedup;
    bool identical = true;
    std::vector<std::string> below_floor;

    for (const std::string &name : selectedWorkloads(args)) {
        note("running " + name);
        job.workload = name;
        const Lifetimes life = jobLifetimes(job);
        const Design design = makeDesign(job, life.horizon);
        const PhysicalArray &array = *design.array;
        const ProtectionScheme &parity = *design.scheme;
        const MbAvfOptions &opt = design.options;

        ModeSweep ref, kernel, mapped;
        double ref_s = timeSweep(array, life.store, parity, opt,
                                 max_mode, true, repeats, ref);
        double kernel_s = timeSweep(array, life.store, parity, opt,
                                    max_mode, false, repeats, kernel);

        // Persist + map back: the disk round trip must neither
        // change a single bit nor cost measurable sweep time.
        const std::string arena_path =
            "micro_sweep_" + name + ".arena.tmp";
        saveArena(life.arena, arena_path, life.horizon);
        std::string error;
        std::optional<LifetimeArena> disk_arena =
            tryLoadArena(arena_path, error);
        if (!disk_arena) {
            std::cerr << "FAIL: cannot map " << arena_path << ": "
                      << error << "\n";
            return 1;
        }
        double mmap_s = timeSweepArena(array, *disk_arena, parity, opt,
                                       max_mode, repeats, mapped);
        std::remove(arena_path.c_str());

        if (!sameSweep(ref, kernel) || !sameSweep(ref, mapped)) {
            std::cerr << "FAIL: kernel results diverge from the "
                         "reference path on " << name << "\n";
            identical = false;
        }

        double speedup = kernel_s > 0 ? ref_s / kernel_s : 0.0;
        g_speedup.add(speedup);
        if (min_speedup > 0 && speedup < min_speedup)
            below_floor.push_back(name);
        table.beginRow()
            .cell(name)
            .cell(ref_s * 1e3, 2)
            .cell(kernel_s * 1e3, 2)
            .cell(mmap_s * 1e3, 2)
            .cell(speedup, 2);
    }

    table.beginRow()
        .cell("geomean")
        .cell("")
        .cell("")
        .cell("")
        .cell(g_speedup.geomean(), 2);
    bench.emit(table);
    bench.meta("modes", static_cast<std::uint64_t>(max_mode));
    bench.meta("repeats", static_cast<std::uint64_t>(repeats));
    bench.meta("min_speedup", min_speedup);
    obs::JsonValue floor_list = obs::JsonValue::array();
    for (const std::string &name : below_floor)
        floor_list.push(obs::JsonValue(name));
    bench.meta("below_floor", std::move(floor_list));

    if (!identical) {
        std::cout << "\nRESULT MISMATCH between kernels\n";
        return 1;
    }
    std::cout << "\nresults bit-identical across all kernel paths\n";
    if (min_speedup > 0 && g_speedup.geomean() < min_speedup) {
        std::cout << "FAIL: geomean speedup "
                  << g_speedup.geomean() << "x below the required "
                  << min_speedup << "x";
        if (!below_floor.empty()) {
            std::cout << " (below floor:";
            for (const std::string &name : below_floor)
                std::cout << " " << name;
            std::cout << ")";
        }
        std::cout << "\n";
        return 1;
    }
    return 0;
}
