#include "serve/shard.hh"

#include <unistd.h>

#include <array>
#include <cstdlib>
#include <vector>

#include "obs/adapters.hh"
#include "pipeline/pipeline.hh"

namespace mbavf::serve
{

namespace
{

/** The deliberate failures supervisor tests provoke. */
void
applyFaultInstrumentation(const JobConfig &config)
{
    if (config.fault == "crash")
        std::abort();
    if (config.fault == "hang") {
        for (;;)
            ::pause();
    }
}

bool
runSweepShard(const JobConfig &config, obs::JsonValue &out,
              std::string &error)
{
    Lifetimes lifetimes;
    if (!readLifetimes(config, "", lifetimes, error))
        return false;
    const Design design = makeDesign(config, lifetimes.horizon);

    applyFaultInstrumentation(config);

    const SweepResult result = runSweep(config, design, lifetimes);
    out = obs::JsonValue::object();
    out.set("type", "sweep");
    out.set("avf", obs::modeSweepJson(result.sweep));
    out.set("ser", obs::serJson(result.ser));
    return true;
}

/** "counts" object: outcome name -> count. */
obs::JsonValue
countsJson(const std::array<std::uint64_t, numInjectOutcomes> &counts)
{
    obs::JsonValue out = obs::JsonValue::object();
    for (std::size_t o = 0; o < numInjectOutcomes; ++o) {
        out.set(injectOutcomeName(static_cast<InjectOutcome>(o)),
                obs::JsonValue(counts[o]));
    }
    return out;
}

/**
 * Sparse per-stratum counts of a stratified shard, and — identical
 * from every shard — the stratum table itself, so the supervisor can
 * fold the combined estimator without rebuilding the partition.
 */
void
setStratifiedResult(const Stratification &strat,
                    const std::vector<StratumTally> &tallies,
                    obs::JsonValue &out)
{
    obs::JsonValue stratum_counts = obs::JsonValue::array();
    for (std::size_t h = 0; h < tallies.size(); ++h) {
        if (tallies[h].trials == 0)
            continue;
        obs::JsonValue entry = obs::JsonValue::object();
        entry.set("stratum", obs::JsonValue(std::uint64_t(h)));
        entry.set("trials", obs::JsonValue(tallies[h].trials));
        entry.set("counts", countsJson(tallies[h].counts));
        stratum_counts.push(std::move(entry));
    }

    obs::JsonValue meta = obs::JsonValue::object();
    meta.set("hash", obs::JsonValue(strat.hash()));
    meta.set("windows",
             obs::JsonValue(std::uint64_t(strat.numWindows())));
    meta.set("classes",
             obs::JsonValue(std::uint64_t(strat.numClasses())));
    meta.set("skipped_weight", obs::JsonValue(strat.skippedWeight()));
    obs::JsonValue table = obs::JsonValue::array();
    for (const Stratum &st : strat.strata()) {
        obs::JsonValue entry = obs::JsonValue::object();
        entry.set("class",
                  obs::JsonValue(std::uint64_t(st.siteClass)));
        entry.set("window", obs::JsonValue(std::uint64_t(st.window)));
        entry.set("weight", obs::JsonValue(st.weight));
        entry.set("predicted", obs::JsonValue(st.predicted));
        entry.set("skipped", obs::JsonValue(st.skipped));
        table.push(std::move(entry));
    }
    meta.set("table", std::move(table));

    out.set("stratum_counts", std::move(stratum_counts));
    out.set("strata_meta", std::move(meta));
}

/**
 * A campaign shard runs trials (or, stratified, picks)
 * [firstTrial, firstTrial + numTrials) of its job. Every campaign
 * shard emits flat counts, so mergeCampaignShards works for both.
 */
void
runCampaignShard(const JobConfig &config, const ShardSpec &shard,
                 obs::JsonValue &out)
{
    const TrialPlan plan(config);

    applyFaultInstrumentation(config);

    CampaignTallies tallies = plan.emptyTallies();
    plan.run(shard.firstTrial, shard.numTrials, tallies);

    const Stratification *strat = plan.stratification();
    out = obs::JsonValue::object();
    out.set("type", "campaign");
    if (strat) {
        out.set("stratified", obs::JsonValue(true));
        out.set("strata_hash", obs::JsonValue(strat->hash()));
    }
    out.set("trials", obs::JsonValue(tallies.flat.total()));
    out.set("counts", countsJson(tallies.flat.counts));
    obs::JsonValue codes = obs::JsonValue::object();
    for (const auto &[code, count] : tallies.flat.codeCounts)
        codes.set(code, obs::JsonValue(count));
    out.set("codes", std::move(codes));
    if (strat)
        setStratifiedResult(*strat, tallies.strata, out);
}

} // namespace

bool
runShard(const JobConfig &config, const ShardSpec &shard,
         obs::JsonValue &out, std::string &error)
{
    if (!validateJob(config, error))
        return false;
    if (config.type == JobType::Sweep)
        return runSweepShard(config, out, error);
    runCampaignShard(config, shard, out);
    return true;
}

obs::JsonValue
mergeCampaignShards(const std::vector<obs::JsonValue> &shard_results)
{
    CampaignTally tally;
    for (const obs::JsonValue &result : shard_results) {
        const obs::JsonValue *counts = result.find("counts");
        for (std::size_t i = 0; i < numInjectOutcomes; ++i) {
            const InjectOutcome outcome =
                static_cast<InjectOutcome>(i);
            const obs::JsonValue *count =
                counts ? counts->find(injectOutcomeName(outcome))
                       : nullptr;
            tally.counts[i] += count ? count->asUint() : 0;
        }
        const obs::JsonValue *codes = result.find("codes");
        if (codes && codes->isObject()) {
            for (const auto &[code, count] : codes->members())
                tally.codeCounts[code] += count.asUint();
        }
    }
    return obs::tallyJson(tally);
}

bool
mergeStratifiedStrata(const JobConfig &job,
                      const std::vector<obs::JsonValue> &shard_results,
                      obs::JsonValue &out, std::string &error)
{
    if (shard_results.empty()) {
        error = "stratified merge has no shard results";
        return false;
    }

    // Every shard computes the same partition; the hash check is the
    // guard that a stale cache entry (or a worker running different
    // code) cannot silently fold counts into the wrong strata.
    const obs::JsonValue *meta = shard_results[0].find("strata_meta");
    if (!meta || !meta->isObject()) {
        error = "stratified shard result lacks strata_meta";
        return false;
    }
    const obs::JsonValue *hash = meta->find("hash");
    const obs::JsonValue *windows = meta->find("windows");
    const obs::JsonValue *classes = meta->find("classes");
    const obs::JsonValue *skipped = meta->find("skipped_weight");
    const obs::JsonValue *table = meta->find("table");
    if (!hash || !windows || !classes || !skipped || !table ||
        !table->isArray()) {
        error = "stratified strata_meta is malformed";
        return false;
    }
    for (const obs::JsonValue &result : shard_results) {
        const obs::JsonValue *shard_hash = result.find("strata_hash");
        if (!shard_hash || shard_hash->asUint() != hash->asUint()) {
            error = "stratified shards disagree on the partition "
                    "hash; refusing to merge";
            return false;
        }
    }

    std::vector<Stratum> strata;
    strata.reserve(table->items().size());
    for (const obs::JsonValue &entry : table->items()) {
        const obs::JsonValue *cls = entry.find("class");
        const obs::JsonValue *window = entry.find("window");
        const obs::JsonValue *weight = entry.find("weight");
        const obs::JsonValue *predicted = entry.find("predicted");
        const obs::JsonValue *is_skipped = entry.find("skipped");
        if (!cls || !window || !weight || !predicted || !is_skipped) {
            error = "stratified strata_meta table is malformed";
            return false;
        }
        Stratum st;
        st.siteClass = static_cast<std::uint32_t>(cls->asUint());
        st.window = static_cast<std::uint32_t>(window->asUint());
        st.weight = weight->asDouble();
        st.predicted = predicted->asDouble();
        st.skipped = is_skipped->asBool();
        strata.push_back(st);
    }

    std::vector<StratumTally> tallies(strata.size());
    for (const obs::JsonValue &result : shard_results) {
        const obs::JsonValue *counts = result.find("stratum_counts");
        if (!counts || !counts->isArray()) {
            error = "stratified shard result lacks stratum_counts";
            return false;
        }
        for (const obs::JsonValue &entry : counts->items()) {
            const obs::JsonValue *index = entry.find("stratum");
            const obs::JsonValue *trials = entry.find("trials");
            const obs::JsonValue *outcome_counts =
                entry.find("counts");
            if (!index || !trials || !outcome_counts ||
                index->asUint() >= tallies.size()) {
                error = "stratified stratum_counts entry is "
                        "malformed";
                return false;
            }
            StratumTally &tally = tallies[index->asUint()];
            tally.trials += trials->asUint();
            for (std::size_t o = 0; o < numInjectOutcomes; ++o) {
                const obs::JsonValue *count = outcome_counts->find(
                    injectOutcomeName(static_cast<InjectOutcome>(o)));
                tally.counts[o] += count ? count->asUint() : 0;
            }
        }
    }

    out = obs::strataJson(
        strata, hash->asUint(),
        static_cast<unsigned>(windows->asUint()),
        static_cast<std::uint32_t>(classes->asUint()),
        skipped->asDouble(), tallies, job.effectiveTrials());
    return true;
}

} // namespace mbavf::serve
