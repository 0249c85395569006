/**
 * @file
 * Shared helpers for the per-figure/table benchmark harnesses.
 *
 * Every harness prints the paper-style rows/series as an aligned
 * text table followed by a CSV block ("== csv ==") for scripting,
 * and — via BenchReporter — writes the same tables plus phase
 * timings, metrics, and build provenance as a BENCH_<name>.json
 * manifest for mbavf_report to diff and merge.
 * Common flags: --workloads=a,b,c  --scale=N  --quick  --threads=N
 * --manifest=FILE (override the path)  --no-manifest.
 *
 * A harness describes each design it measures as a JobConfig and
 * runs it through the tools' pipeline (pipeline/pipeline.hh):
 * jobLifetimes() once per workload and structure, then one
 * runSweep(job, makeDesign(job, horizon), lifetimes) per design.
 */

#ifndef MBAVF_BENCH_BENCH_UTIL_HH
#define MBAVF_BENCH_BENCH_UTIL_HH

#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "obs/adapters.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"
#include "pipeline/pipeline.hh"
#include "workloads/workload.hh"

namespace mbavf
{

/** Split a comma-separated list. */
inline std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** Workload selection from --workloads, default = all. */
inline std::vector<std::string>
selectedWorkloads(const Args &args)
{
    std::string list = args.getString("workloads", "");
    if (!list.empty())
        return splitList(list);
    if (args.getBool("quick"))
        return {"minife", "comd", "srad", "histogram"};
    return workloadNames();
}

/**
 * Integer flag @p key in [@p min, @p max]; a value outside is fatal
 * before anything simulates.
 */
inline unsigned
unsignedFlag(const Args &args, const std::string &key,
             unsigned fallback, unsigned min = 0,
             unsigned max = std::numeric_limits<unsigned>::max())
{
    return static_cast<unsigned>(
        args.getIntInRange(key, fallback, min, max));
}

/**
 * Apply --threads=N (0 = all hardware threads) to the shared pool.
 * Unset keeps the pool at its MBAVF_THREADS / hardware default;
 * results are bit-identical at any setting.
 */
inline void
configureThreads(const Args &args)
{
    if (args.has("threads"))
        setParallelThreads(
            unsignedFlag(args, "threads", 0, 0, maxParallelThreads));
}

/**
 * The lifetimes of @p job's structure (readLifetimes); fatal when
 * validateJob() rejects the job or the lifetimes cannot be read.
 */
inline Lifetimes
jobLifetimes(const JobConfig &job)
{
    std::string error;
    Lifetimes lifetimes;
    if (!validateJob(job, error) ||
        !readLifetimes(job, "", lifetimes, error)) {
        fatal(error);
    }
    return lifetimes;
}

/** Progress note to stderr (keeps stdout machine-readable). */
inline void
note(const std::string &message)
{
    std::cerr << "[bench] " << message << "\n";
}

/**
 * Per-harness result sink: prints each table as text plus a CSV
 * block (exactly the old emit() output) and collects everything into
 * a BENCH_<name>.json manifest written when the reporter goes out of
 * scope. Constructing the reporter turns the obs metrics and phase
 * sinks on, so the timing/metric sections are populated for free.
 *
 * --manifest=FILE overrides the output path; --no-manifest skips the
 * file (and leaves the obs sinks off, keeping the harness at the
 * disabled-instrumentation cost for overhead studies).
 */
class BenchReporter
{
  public:
    explicit BenchReporter(const std::string &name,
                           const Args *args = nullptr)
        : manifest_("bench/" + name), tables_(obs::JsonValue::array())
    {
        path_ = "BENCH_" + name + ".json";
        if (args) {
            path_ = args->getString("manifest", path_);
            if (args->getBool("no-manifest"))
                path_.clear();
        }
        if (!path_.empty()) {
            obs::setMetricsEnabled(true);
            obs::setTimingEnabled(true);
        }
    }

    ~BenchReporter() { finish(); }

    BenchReporter(const BenchReporter &) = delete;
    BenchReporter &operator=(const BenchReporter &) = delete;

    /** Print @p table (text + CSV) and record it in the manifest. */
    void
    emit(const Table &table)
    {
        table.printText(std::cout);
        std::cout << "\n== csv ==\n";
        table.printCsv(std::cout);
        std::cout.flush();
        tables_.push(obs::tableJson(table));
    }

    /** Add a "run" section entry (workload list, scale, ...). */
    void
    meta(const std::string &key, obs::JsonValue value)
    {
        run_.set(key, std::move(value));
    }

    /** Write the manifest now (idempotent; the dtor calls this). */
    void
    finish()
    {
        if (finished_)
            return;
        finished_ = true;
        if (path_.empty())
            return;
        if (run_.size())
            manifest_.set("run", std::move(run_));
        manifest_.set("tables", std::move(tables_));
        manifest_.captureObservations();
        manifest_.setEnv();
        std::string error;
        if (!manifest_.write(path_, error))
            warn("bench manifest not written: ", error);
        else
            note("manifest: " + path_);
    }

  private:
    obs::Manifest manifest_;
    obs::JsonValue run_ = obs::JsonValue::object();
    obs::JsonValue tables_;
    std::string path_;
    bool finished_ = false;
};

} // namespace mbavf

#endif // MBAVF_BENCH_BENCH_UTIL_HH
