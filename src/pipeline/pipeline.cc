#include "pipeline/pipeline.hh"

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/arena_io.hh"
#include "core/fault_rates.hh"
#include "obs/phase.hh"
#include "workloads/ace_runner.hh"

namespace mbavf
{

bool
readLifetimes(const JobConfig &job, const std::string &arena_out,
              Lifetimes &out, std::string &error,
              ProgramCapture *capture)
{
    if (!job.arenaIn.empty()) {
        if (!arena_out.empty()) {
            error = "--arena-out needs a lifetime store; --arena-in "
                    "provides none";
            return false;
        }
        std::optional<LifetimeArena> loaded;
        {
            obs::ObsPhase phase("arena.load");
            loaded = tryLoadArena(job.arenaIn, error, &out.horizon);
        }
        if (!loaded) {
            error = "cannot load arena '" + job.arenaIn + "': " + error;
            return false;
        }
        out.arena = std::move(*loaded);
        if (out.horizon == 0) {
            error = "arena '" + job.arenaIn +
                    "' records no producer horizon; re-save it with "
                    "--arena-out";
            return false;
        }
    } else {
        AceRunOptions options;
        options.scale = job.scale;
        options.capture = capture;
        options.stores = job.structure == "l2"     ? AceStore::L2
                         : job.structure == "vgpr" ? AceStore::Vgpr
                                                   : AceStore::L1;
        // The run, and with it the store, is freed at the end of
        // this block: the word-width check, --arena-out and every
        // sweep read only the arena.
        const AceRun run = runAceAnalysis(job.workload, options);
        out.horizon = run.horizon;
        out.l1Stats = run.l1Stats;
        out.l2Stats = run.l2Stats;
        obs::ObsPhase phase("arena.flatten");
        out.arena = LifetimeArena(job.structure == "l2"     ? run.l2
                                  : job.structure == "vgpr" ? run.vgpr
                                                            : run.l1);
    }

    // Guard against pairing saved lifetimes with the wrong
    // structure: VGPR stores are 32-bit words, cache stores 8-bit.
    const unsigned width = out.arena.wordWidth();
    const unsigned expected = job.structure == "vgpr" ? 32 : 8;
    if (width != expected) {
        error = "lifetime word width " + std::to_string(width) +
                " does not match structure '" + job.structure + "'";
        return false;
    }

    if (!arena_out.empty()) {
        obs::ObsPhase phase("arena.write");
        saveArena(out.arena, arena_out, out.horizon);
    }
    return true;
}

std::unique_ptr<PhysicalArray>
tryMakeArray(const JobConfig &job, std::string &error)
{
    const GpuConfig gpu;
    const std::string style = job.effectiveStyle();
    if (job.structure == "vgpr") {
        if (style != "intra" && style != "inter") {
            error = "vgpr style must be intra|inter";
            return nullptr;
        }
        return tryMakeRegFileArray(gpu.regs,
                                   style == "intra"
                                       ? RegInterleave::IntraThread
                                       : RegInterleave::InterThread,
                                   job.interleave, error);
    }
    if (job.structure != "l1" && job.structure != "l2") {
        error = "unknown structure '" + job.structure + "'";
        return nullptr;
    }
    CacheInterleave cache_style = CacheInterleave::Logical;
    if (!tryParseCacheInterleave(style, cache_style, error))
        return nullptr;
    const CacheParams &cp = job.structure == "l2" ? gpu.l2 : gpu.l1;
    return tryMakeCacheArray({cp.sets, cp.ways, cp.lineBytes},
                             cache_style, job.interleave, error);
}

Design
makeDesign(const JobConfig &job, Cycle horizon)
{
    Design design;
    std::string error;
    design.array = tryMakeArray(job, error);
    if (!design.array)
        panic("makeDesign on an unvalidated job: ", error);
    design.scheme = makeScheme(job.scheme);
    design.options.horizon = horizon;
    design.options.numWindows = job.windows;
    design.options.numThreads = 0;
    design.options.dueShieldsSdc =
        job.shieldDue ||
        (job.structure == "vgpr" && job.effectiveStyle() == "inter");
    return design;
}

SweepResult
runSweep(const JobConfig &job, const Design &design,
         const Lifetimes &lifetimes)
{
    SweepResult out;
    out.sweep = sweepModesArena(*design.array, lifetimes.arena,
                                *design.scheme, design.options, job.modes);
    out.ser = sweepSer(out.sweep, caseStudyFaultRates(job.totalFit));
    // The overhead is quoted per register or per cache line.
    const GpuConfig gpu;
    out.areaOverhead = design.scheme->areaOverhead(
        job.structure == "vgpr" ? gpu.regs.regBits
                                : gpu.l1.lineBytes * 8);
    return out;
}

void
CampaignTallies::add(std::uint32_t stratum, const TrialResult &result)
{
    flat.add(result);
    if (strata.empty())
        return;
    if (stratum >= strata.size())
        fatal("trial stratum ", stratum, " outside the partition");
    ++strata[stratum].trials;
    ++strata[stratum].counts[static_cast<std::size_t>(result.outcome)];
}

TrialPlan::TrialPlan(const JobConfig &job)
    : seed_(job.seed), campaign_(job.workload, job.scale, GpuConfig{})
{
    parseTrialKind(job.kind, kind_);
    campaign_.setWatchdogMultiplier(job.watchdog);
    if (job.protect != "none")
        campaign_.setProtection(job.protect, job.protectDomain);
    if (job.stratify) {
        StratifyOptions options;
        options.windows = job.stratifyWindows;
        options.maxClasses = job.stratifyClasses;
        strat_.emplace(Stratification::build(campaign_, options));
    }
}

CampaignTallies
TrialPlan::emptyTallies() const
{
    CampaignTallies tallies;
    if (strat_)
        tallies.strata.resize(strat_->strata().size());
    return tallies;
}

void
TrialPlan::run(std::uint64_t first, std::uint64_t n,
               CampaignTallies &tallies, const TrialHook &hook) const
{
    const std::vector<Stratification::Pick> picks =
        strat_ ? strat_->picks(first, n)
               : std::vector<Stratification::Pick>();
    std::vector<TrialResult> results(n);
    runTasks(static_cast<std::size_t>(n), [&](std::size_t i) {
        const std::uint64_t index = first + i;
        std::uint64_t seed = splitMix64(seed_, index);
        std::uint32_t stratum = 0;
        if (strat_) {
            seed = strat_->pickSeed(picks[i], seed_);
            stratum = picks[i].stratum;
            results[i] =
                campaign_.runOne(strat_->trialSpec(picks[i], seed_));
        } else {
            results[i] = campaign_.runOne(
                campaign_.trialSpec(index, seed_, kind_));
        }
        if (hook)
            hook(index, seed, stratum, results[i]);
    });
    for (std::size_t i = 0; i < results.size(); ++i)
        tallies.add(strat_ ? picks[i].stratum : 0, results[i]);
}

} // namespace mbavf
