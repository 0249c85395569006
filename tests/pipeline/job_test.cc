/**
 * @file
 * Tests for the shared job form: validateJob() rejects one bad value
 * of every checked field without running anything, and the `mbavf`
 * flags and the serve job-spec JSON describe the same job — equal
 * canonical() identities for the defaults and for every field.
 */

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "obs/json.hh"
#include "pipeline/job.hh"
#include "serve/spec.hh"

namespace mbavf
{
namespace
{

JobConfig
sweepJob()
{
    JobConfig job;
    job.workload = "histogram";
    return job;
}

JobConfig
campaignJob()
{
    JobConfig job = sweepJob();
    job.type = JobType::Campaign;
    return job;
}

/** validateJob()'s message for @p job; empty when it passes. */
std::string
rejection(const JobConfig &job)
{
    std::string error;
    return validateJob(job, error) ? std::string() : error;
}

TEST(JobValidation, RejectsOneBadValuePerField)
{
    struct Case
    {
        JobConfig job;
        std::function<void(JobConfig &)> spoil;
        std::string message;
    };
    const std::vector<Case> cases = {
        {sweepJob(), [](JobConfig &j) { j.workload = "bogus"; },
         "unknown workload 'bogus'"},
        {sweepJob(), [](JobConfig &j) { j.structure = "l9"; },
         "unknown structure 'l9'"},
        {sweepJob(), [](JobConfig &j) { j.scheme = "bogus"; },
         "unknown protection scheme 'bogus'"},
        {sweepJob(), [](JobConfig &j) { j.style = "diagonal"; },
         "unknown cache interleave style 'diagonal'"},
        {sweepJob(),
         [](JobConfig &j) {
             j.structure = "vgpr";
             j.style = "way";
         },
         "vgpr style must be intra|inter"},
        {sweepJob(), [](JobConfig &j) { j.interleave = 0; },
         "interleave factor must be >= 1"},
        {sweepJob(), [](JobConfig &j) { j.interleave = 3; },
         "way-physical interleave 3 must divide ways 4"},
        {sweepJob(), [](JobConfig &j) { j.modes = 0; },
         "modes must be at least 1"},
        {sweepJob(), [](JobConfig &j) { j.modes = 65; },
         "modes must be at most 64"},
        {sweepJob(), [](JobConfig &j) { j.windows = maxWindows + 1; },
         "windows must be at most 65536"},
        {sweepJob(),
         [](JobConfig &j) {
             j.totalFit = std::numeric_limits<double>::quiet_NaN();
         },
         "total_fit must be a finite rate >= 0"},
        {sweepJob(),
         [](JobConfig &j) {
             j.totalFit = std::numeric_limits<double>::infinity();
         },
         "total_fit must be a finite rate >= 0"},
        {sweepJob(), [](JobConfig &j) { j.totalFit = -5; },
         "total_fit must be a finite rate >= 0"},
        {sweepJob(), [](JobConfig &j) { j.arenaIn = "a.bin"; },
         "a sweep needs exactly one of workload/arena"},
        {sweepJob(), [](JobConfig &j) { j.stratify = true; },
         "stratify applies to campaign jobs only"},
        {sweepJob(), [](JobConfig &j) { j.fault = "wedge"; },
         "fault must be \"crash\" or \"hang\""},
        {campaignJob(), [](JobConfig &j) { j.workload.clear(); },
         "a campaign needs a workload"},
        {campaignJob(), [](JobConfig &j) { j.trials = 0; },
         "trials must be at least 1"},
        {campaignJob(),
         [](JobConfig &j) {
             j.watchdog = std::numeric_limits<double>::quiet_NaN();
         },
         "watchdog must be a finite multiple >= 0"},
        {campaignJob(),
         [](JobConfig &j) {
             j.watchdog = std::numeric_limits<double>::infinity();
         },
         "watchdog must be a finite multiple >= 0"},
        {campaignJob(), [](JobConfig &j) { j.watchdog = -1; },
         "watchdog must be a finite multiple >= 0"},
        {campaignJob(), [](JobConfig &j) { j.kind = "bogus"; },
         "unknown kind 'bogus' (register|memory)"},
        {campaignJob(), [](JobConfig &j) { j.protect = "bogus"; },
         "unknown protection scheme 'bogus'"},
        {campaignJob(),
         [](JobConfig &j) {
             j.protect = "parity";
             j.protectDomain = 0;
         },
         "protection domain must be at least one bit wide"},
        {campaignJob(),
         [](JobConfig &j) {
             j.stratify = true;
             j.kind = "memory";
         },
         "stratify supports kind \"register\" only"},
        {campaignJob(),
         [](JobConfig &j) {
             j.stratify = true;
             j.stratifyWindows = 17;
         },
         "stratify windows must be in [1, 16]"},
        {campaignJob(),
         [](JobConfig &j) {
             j.stratify = true;
             j.stratifyClasses = 1;
         },
         "stratify class cap must be at least 2"},
    };
    for (const Case &c : cases) {
        EXPECT_EQ(rejection(c.job), "") << c.job.canonical();
        JobConfig job = c.job;
        c.spoil(job);
        EXPECT_EQ(rejection(job), c.message) << job.canonical();
    }
}

/** The job the `mbavf` command line @p line describes. */
JobConfig
flagsJob(const std::string &line)
{
    std::vector<std::string> tokens = {"mbavf"};
    std::istringstream words(line);
    for (std::string word; words >> word;)
        tokens.push_back(word);
    std::vector<char *> argv;
    for (std::string &token : tokens)
        argv.push_back(token.data());
    return jobFromArgs(Args(static_cast<int>(argv.size()), argv.data()));
}

/** The job of a one-job spec whose entry holds @p fields. */
JobConfig
specJob(const std::string &fields)
{
    obs::JsonValue doc;
    std::string error;
    EXPECT_TRUE(obs::JsonValue::parse(R"({"jobs": [{)" + fields + "}]}",
                                      doc, error))
        << error;
    serve::JobSpec spec;
    EXPECT_TRUE(serve::JobSpec::parse(doc, spec, error)) << error;
    return spec.jobs.empty() ? JobConfig{} : spec.jobs.front();
}

TEST(JobForms, FlagsAndSpecJsonDescribeTheSameJob)
{
    // {flags, spec fields}: the defaults, then one field at a time.
    const std::string sweep = R"("type": "sweep", )";
    const std::string campaign =
        R"("type": "campaign", "workload": "histogram")";
    const std::string strat = campaign + R"(, "stratify": true)";
    const std::vector<std::pair<std::string, std::string>> pairs = {
        {"--workload=histogram", sweep + R"("workload": "histogram")"},
        {"--arena-in=saved.arena", sweep + R"("arena": "saved.arena")"},
        {"--campaign --workload=histogram", campaign},
        {"--campaign --workload=histogram --stratify", strat},
    };
    const std::vector<std::pair<std::string, std::string>> fields = {
        {"--scale=2", R"("scale": 2)"},
        {"--structure=vgpr", R"("structure": "vgpr")"},
        {"--scheme=secded", R"("scheme": "secded")"},
        {"--style=index", R"("style": "index")"},
        {"--interleave=4", R"("interleave": 4)"},
        {"--modes=3", R"("modes": 3)"},
        {"--windows=5", R"("windows": 5)"},
        {"--shield-due", R"("shield_due": true)"},
        {"--total-fit=250.5", R"("total_fit": 250.5)"},
        {"--trials=40", R"("trials": 40)"},
        {"--seed=9", R"("seed": 9)"},
        {"--kind=memory", R"("kind": "memory")"},
        {"--watchdog=2.5", R"("watchdog": 2.5)"},
        {"--protect=parity --protect-domain=16",
         R"("protect": "parity", "protect_domain": 16)"},
        {"--stratify-windows=4", R"("stratify_windows": 4)"},
        {"--stratify-classes=8", R"("stratify_classes": 8)"},
        {"--budget=77", R"("budget": 77)"},
    };
    for (const auto &[flags, json] : pairs) {
        EXPECT_EQ(flagsJob(flags).canonical(), specJob(json).canonical())
            << flags;
        // A field shows in the canonical form of its own job type
        // only (stratify fields of stratified campaigns only), so
        // every field is crossed with every base job.
        for (const auto &[flag, field] : fields) {
            if (flag == "--kind=memory" && flags.ends_with("stratify"))
                continue; // stratification is register-only
            EXPECT_EQ(flagsJob(flags + " " + flag).canonical(),
                      specJob(json + ", " + field).canonical())
                << flags << " " << flag;
        }
    }
}

} // namespace
} // namespace mbavf
