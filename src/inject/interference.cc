#include "inject/interference.hh"

#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "inject/campaign.hh"

namespace mbavf
{

namespace
{

/** Outcome of each of @p specs, run concurrently on the shared pool. */
std::vector<InjectOutcome>
runSpecs(const Campaign &campaign, const std::vector<TrialSpec> &specs)
{
    std::vector<InjectOutcome> outcomes(specs.size());
    runTasks(specs.size(), [&](std::size_t i) {
        outcomes[i] = campaign.runOne(specs[i]).outcome;
    });
    return outcomes;
}

} // namespace

InterferenceStats
runInterferenceStudy(const std::string &workload, unsigned scale,
                     const GpuConfig &config, unsigned num_injections,
                     std::uint64_t seed)
{
    InterferenceStats stats;
    stats.workload = workload;
    stats.singleInjections = num_injections;

    Campaign campaign(workload, scale, config);
    Rng rng(seed);

    // Phase 1: find SDC ACE bits with random single-bit injections.
    // Sites are drawn serially from one RNG (so the study is the
    // same experiment at any thread count), then executed as one
    // concurrent batch.
    std::vector<RegInjection> sites(num_injections);
    std::vector<TrialSpec> specs(num_injections);
    for (unsigned i = 0; i < num_injections; ++i) {
        sites[i] = campaign.sampleSingleBit(rng);
        specs[i].regFlips.push_back(sites[i]);
    }
    const std::vector<InjectOutcome> outcomes = runSpecs(campaign, specs);

    std::vector<RegInjection> sdc_sites;
    for (unsigned i = 0; i < num_injections; ++i) {
        if (outcomes[i] == InjectOutcome::Sdc)
            sdc_sites.push_back(sites[i]);
    }
    stats.sdcAceBits = static_cast<unsigned>(sdc_sites.size());

    // Phase 2: for each SDC site, inject 2x1/3x1/4x1 groups of
    // adjacent bits in the same register at the same trigger. The
    // group is predicted SDC (it contains a known SDC ACE bit);
    // interference is a non-SDC outcome.
    std::vector<TrialSpec> group_specs;
    group_specs.reserve(sdc_sites.size() * 3);
    for (const RegInjection &site : sdc_sites) {
        unsigned bit = 0;
        while (!(site.bitMask >> bit & 1))
            ++bit;
        for (unsigned m = 2; m <= 4; ++m) {
            unsigned start =
                std::min(bit, config.regs.regBits - m);
            RegInjection multi = site;
            multi.bitMask = static_cast<std::uint32_t>(
                ((std::uint64_t(1) << m) - 1) << start);
            group_specs.push_back(TrialSpec{{multi}, {}});
        }
    }
    const std::vector<InjectOutcome> group_outcomes =
        runSpecs(campaign, group_specs);
    for (std::size_t g = 0; g < group_outcomes.size(); ++g) {
        unsigned m = static_cast<unsigned>(g % 3);
        ++stats.groupsTested[m];
        if (group_outcomes[g] != InjectOutcome::Sdc)
            ++stats.interference[m];
    }
    return stats;
}

} // namespace mbavf
