/**
 * @file
 * mbavf_serve — fault-isolated analysis service.
 *
 *   mbavf_serve --spec=JOBS.json --state=DIR [options]
 *   mbavf_serve --spec=JOBS.json --state=DIR --resume [options]
 *   mbavf_serve --spec=JOBS.json --cache=DIR --cache-verify[=F]
 *
 * Reads a job-spec file (sweeps and campaigns over workload x
 * layout x scheme configurations), shards the jobs, and runs every
 * shard in a forked worker process under a wall-clock watchdog. A
 * crashing or hanging shard is retried with exponential backoff and
 * quarantined after --max-attempts failures; the run still
 * completes, with the quarantined shards listed in the merged
 * manifest's "degraded" section.
 *
 * Progress is journaled crash-safely to <state>/queue.journal:
 * after kill -9 at any instant, rerunning with --resume recomputes
 * only the unfinished shards and the final merged manifest is
 * bit-identical to an uninterrupted run's, at any --workers and any
 * --threads. With --cache=DIR, finished shard results are published
 * to a content-addressed cache; a rerun of the same spec performs
 * zero sweeps. --cache-verify recomputes a sampled fraction of the
 * cached entries in fresh workers and fails on any staleness.
 *
 * Exit codes: 0 clean, 1 degraded (quarantined shards), 2 failed
 * (unusable spec/state/cache). See DESIGN.md Section 15.
 */

#include <unistd.h>

#include <iostream>
#include <limits>
#include <string>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "obs/build_info.hh"
#include "serve/supervisor.hh"

using namespace mbavf;

namespace
{

void
usage()
{
    std::cout <<
        "usage: mbavf_serve --spec=JOBS.json --state=DIR [options]\n"
        "       mbavf_serve --spec=JOBS.json --cache=DIR"
        " --cache-verify[=F]\n\n"
        "options:\n"
        "  --workers=N          concurrent worker processes (1)\n"
        "  --threads=T          sweep/campaign threads per worker\n"
        "                       (0 = all hardware; results are\n"
        "                       identical at any setting)\n"
        "  --cache=DIR          content-addressed result cache\n"
        "  --manifest=FILE      merged manifest (deterministic:\n"
        "                       bit-identical across kill/resume,\n"
        "                       --workers, --threads)\n"
        "  --metrics-out=FILE   run accounting JSON (wall-clock\n"
        "                       data; never deterministic)\n"
        "  --resume             continue <state>/queue.journal\n"
        "  --shard-timeout=S    per-shard wall-clock budget in\n"
        "                       seconds (0 disables the watchdog)\n"
        "  --max-attempts=N     failures before quarantine (3)\n"
        "  --backoff=S          retry backoff base in seconds\n"
        "                       (0.05; doubles per attempt, plus\n"
        "                       deterministic jitter)\n"
        "  --heartbeat          shard progress lines on stderr\n"
        "  --cache-verify[=F]   re-run fraction F (default 1.0) of\n"
        "                       cached shards and compare\n"
        "  --version            print build info and exit\n\n"
        "exit codes: 0 clean, 1 degraded (quarantined shards),\n"
        "2 failed\n";
}

/** This binary's path, for worker re-exec. */
std::string
selfExePath(const char *argv0)
{
    char buffer[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
    if (n > 0) {
        buffer[n] = '\0';
        return buffer;
    }
    return argv0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    args.requireKnown({
        "help", "version", "spec", "state", "cache", "manifest",
        "metrics-out", "workers", "threads", "resume",
        "shard-timeout", "max-attempts", "backoff", "heartbeat",
        "cache-verify", "worker", "shard", "out",
    });
    if (args.getBool("help")) {
        usage();
        return 0;
    }
    if (args.getBool("version")) {
        std::cout << obs::versionLine("mbavf_serve") << "\n";
        return 0;
    }

    const std::string spec_path = args.getString("spec", "");
    if (spec_path.empty()) {
        usage();
        return 2;
    }

    if (args.has("threads")) {
        const unsigned threads = static_cast<unsigned>(
            args.getIntInRange("threads", 0, 0, maxParallelThreads));
        setParallelThreads(threads);
    }

    // Internal: one forked shard execution (see serve/supervisor.hh).
    if (args.getBool("worker")) {
        const std::string out = args.getString("out", "");
        if (!args.has("shard") || out.empty())
            fatal("--worker needs --shard=N and --out=FILE");
        constexpr std::int64_t int64_max =
            std::numeric_limits<std::int64_t>::max();
        const auto shard = static_cast<std::uint64_t>(
            args.getIntInRange("shard", 0, 0, int64_max));
        return serve::runWorker(spec_path, shard, out);
    }

    serve::ServeOptions options;
    options.specPath = spec_path;
    options.stateDir = args.getString("state", "");
    options.cacheDir = args.getString("cache", "");
    options.manifestPath = args.getString("manifest", "");
    options.metricsPath = args.getString("metrics-out", "");
    options.workers = static_cast<unsigned>(
        args.getIntInRange("workers", 1, 1, 1024));
    options.threadsPerWorker = static_cast<unsigned>(
        args.getIntInRange("threads", 0, 0, maxParallelThreads));
    options.shardTimeoutSeconds =
        args.getDouble("shard-timeout", 0.0);
    options.maxAttempts = static_cast<unsigned>(
        args.getIntInRange("max-attempts", 3, 1, 1000));
    options.backoffBaseSeconds = args.getDouble("backoff", 0.05);
    options.resume = args.getBool("resume");
    options.heartbeat = args.getBool("heartbeat");
    options.workerExe = selfExePath(argv[0]);

    if (args.has("cache-verify")) {
        // Bare --cache-verify stores "1": verify everything.
        const double fraction =
            args.getDouble("cache-verify", 1.0);
        if (fraction <= 0.0 || fraction > 1.0)
            fatal("--cache-verify fraction must be in (0, 1]");
        return serve::verifyCache(options, fraction);
    }

    if (options.stateDir.empty()) {
        usage();
        return 2;
    }
    return serve::runService(options).exitCode;
}
