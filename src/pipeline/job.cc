#include "pipeline/job.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/args.hh"
#include "core/mbavf_kernel.hh"
#include "inject/campaign.hh"
#include "inject/stratified.hh"
#include "obs/json.hh"
#include "pipeline/pipeline.hh"
#include "workloads/workload.hh"

namespace mbavf
{

namespace
{

/** Render a number through JsonValue for a stable lexical form. */
std::string
canonicalNumber(double value)
{
    return obs::JsonValue(value).dump();
}

bool
checkCampaign(const JobConfig &job, std::string &error)
{
    if (job.workload.empty()) {
        error = "a campaign needs a workload";
        return false;
    }
    if (job.trials == 0) {
        error = "trials must be at least 1";
        return false;
    }
    if (!std::isfinite(job.watchdog) || job.watchdog < 0.0) {
        error = "watchdog must be a finite multiple >= 0";
        return false;
    }
    TrialKind kind = TrialKind::Register;
    if (!parseTrialKind(job.kind, kind)) {
        error = "unknown kind '" + job.kind + "' (register|memory)";
        return false;
    }
    error = Campaign::protectionError(job.protect, job.protectDomain);
    if (!error.empty())
        return false;
    if (!job.stratify)
        return true;
    if (kind != TrialKind::Register) {
        error = "stratify supports kind \"register\" only";
        return false;
    }
    StratifyOptions options;
    options.windows = job.stratifyWindows;
    options.maxClasses = job.stratifyClasses;
    error = options.error();
    return error.empty();
}

} // namespace

const char *
jobTypeName(JobType type)
{
    return type == JobType::Sweep ? "sweep" : "campaign";
}

std::string
JobConfig::effectiveStyle() const
{
    if (!style.empty())
        return style;
    return structure == "vgpr" ? "inter" : "way";
}

std::string
JobConfig::canonical() const
{
    std::string out;
    out += "type=";
    out += jobTypeName(type);
    out += " workload=" + (workload.empty() ? "-" : workload);
    out += " scale=" + std::to_string(scale);
    if (type == JobType::Sweep) {
        out += " structure=" + structure;
        out += " scheme=" + scheme;
        out += " style=" + effectiveStyle();
        out += " interleave=" + std::to_string(interleave);
        out += " modes=" + std::to_string(modes);
        out += " windows=" + std::to_string(windows);
        out += std::string(" shield_due=") +
               (shieldDue ? "1" : "0");
        out += " total_fit=" + canonicalNumber(totalFit);
        out += " arena=" + (arenaIn.empty() ? "-" : arenaIn);
    } else {
        out += " trials=" + std::to_string(trials);
        out += " seed=" + std::to_string(seed);
        out += " kind=" + kind;
        out += " watchdog=" + canonicalNumber(watchdog);
        out += " protect=" + protect;
        out += " protect_domain=" + std::to_string(protectDomain);
        if (stratify) {
            out += " stratify=1";
            out += " stratify_windows=" +
                   std::to_string(stratifyWindows);
            out += " stratify_classes=" +
                   std::to_string(stratifyClasses);
            out += " budget=" + std::to_string(effectiveTrials());
        }
    }
    if (!fault.empty())
        out += " fault=" + fault;
    return out;
}

bool
validateJob(const JobConfig &job, std::string &error)
{
    if (!job.workload.empty() && !isWorkload(job.workload)) {
        error = "unknown workload '" + job.workload + "'";
        return false;
    }
    if (!job.fault.empty() && job.fault != "crash" &&
        job.fault != "hang") {
        error = "fault must be \"crash\" or \"hang\"";
        return false;
    }
    if (job.type == JobType::Campaign)
        return checkCampaign(job, error);
    if (job.stratify) {
        error = "stratify applies to campaign jobs only";
        return false;
    }
    if (job.workload.empty() == job.arenaIn.empty()) {
        error = "a sweep needs exactly one of workload/arena";
        return false;
    }
    if (job.modes == 0) {
        error = "modes must be at least 1";
        return false;
    }
    if (job.modes > detail::maxModeBits) {
        error = "modes must be at most " +
                std::to_string(detail::maxModeBits);
        return false;
    }
    if (job.windows > maxWindows) {
        error = "windows must be at most " + std::to_string(maxWindows);
        return false;
    }
    if (!std::isfinite(job.totalFit) || job.totalFit < 0.0) {
        error = "total_fit must be a finite rate >= 0";
        return false;
    }
    return tryMakeScheme(job.scheme, error) &&
        tryMakeArray(job, error);
}

JobConfig
jobFromArgs(const Args &args, JobConfig job)
{
    // Each integer flag parses into its field's range: a negative or
    // oversized value is fatal before anything simulates.
    const auto number = [&args](const char *key, auto fallback) {
        using Field = decltype(fallback);
        constexpr auto max = static_cast<std::int64_t>(
            std::min<std::uint64_t>(std::numeric_limits<Field>::max(),
                                    std::numeric_limits<std::int64_t>::max()));
        return static_cast<Field>(args.getIntInRange(
            key, static_cast<std::int64_t>(fallback), 0, max));
    };
    if (args.getBool("campaign"))
        job.type = JobType::Campaign;
    job.workload = args.getString("workload", job.workload);
    job.scale = number("scale", job.scale);
    job.structure = args.getString("structure", job.structure);
    job.scheme = args.getString("scheme", job.scheme);
    job.style = args.getString("style", job.style);
    job.interleave = number("interleave", job.interleave);
    job.modes = number("modes", job.modes);
    job.windows = number("windows", job.windows);
    job.shieldDue = args.getBool("shield-due", job.shieldDue);
    job.totalFit = args.getDouble("total-fit", job.totalFit);
    job.arenaIn = args.getString("arena-in", job.arenaIn);
    job.trials = number("trials", job.trials);
    job.seed = number("seed", job.seed);
    job.kind = args.getString("kind", job.kind);
    job.watchdog = args.getDouble("watchdog", job.watchdog);
    job.protect = args.getString("protect", job.protect);
    job.protectDomain = number("protect-domain", job.protectDomain);
    job.stratify = args.getBool("stratify", job.stratify);
    job.stratifyWindows =
        number("stratify-windows", job.stratifyWindows);
    job.stratifyClasses =
        number("stratify-classes", job.stratifyClasses);
    job.budget = number("budget", job.budget);
    return job;
}

} // namespace mbavf
