/**
 * @file
 * Header-only converters from domain result types (core, mem,
 * inject) to manifest JSON sections.
 *
 * These live outside the mbavf_obs library on purpose: the
 * instrumented layers (inject, core) link against mbavf_obs, so
 * mbavf_obs itself must not link back at them. Inlining the
 * converters into the final binaries (tools, benches, tests — which
 * all link the domain libraries anyway) keeps the layering acyclic.
 */

#ifndef MBAVF_OBS_ADAPTERS_HH
#define MBAVF_OBS_ADAPTERS_HH

#include "common/table.hh"
#include "core/mbavf.hh"
#include "core/sweep.hh"
#include "inject/campaign.hh"
#include "inject/stratified.hh"
#include "mem/cache.hh"
#include "obs/json.hh"

namespace mbavf::obs
{

/** "cache" section entry for one cache's statistics. */
inline JsonValue
cacheStatsJson(const CacheStats &stats)
{
    JsonValue out = JsonValue::object();
    out.set("hits", JsonValue(stats.hits));
    out.set("misses", JsonValue(stats.misses));
    out.set("evictions", JsonValue(stats.evictions));
    out.set("writebacks", JsonValue(stats.writebacks));
    out.set("miss_rate", JsonValue(stats.missRate()));
    return out;
}

/** One AVF split as {sdc, true_due, false_due, total}. */
inline JsonValue
avfJson(const AvfFractions &avf)
{
    JsonValue out = JsonValue::object();
    out.set("sdc", JsonValue(avf.sdc));
    out.set("true_due", JsonValue(avf.trueDue));
    out.set("false_due", JsonValue(avf.falseDue));
    out.set("total", JsonValue(avf.total()));
    return out;
}

/** "avf" section: per-mode whole-run (and windowed) fractions. */
inline JsonValue
modeSweepJson(const ModeSweep &sweep)
{
    JsonValue modes = JsonValue::array();
    for (std::size_t m = 0; m < sweep.results.size(); ++m) {
        const MbAvfResult &result = sweep.results[m];
        JsonValue entry = JsonValue::object();
        entry.set("mode", std::to_string(m + 1) + "x1");
        entry.set("avf", avfJson(result.avf));
        entry.set("groups", JsonValue(result.numGroups));
        if (!result.windows.empty()) {
            JsonValue windows = JsonValue::array();
            for (const AvfFractions &w : result.windows)
                windows.push(avfJson(w));
            entry.set("windows", std::move(windows));
        }
        modes.push(std::move(entry));
    }
    JsonValue out = JsonValue::object();
    out.set("modes", std::move(modes));
    return out;
}

/** "ser" section. */
inline JsonValue
serJson(const StructureSer &ser)
{
    JsonValue out = JsonValue::object();
    out.set("sdc", JsonValue(ser.sdc));
    out.set("true_due", JsonValue(ser.trueDue));
    out.set("false_due", JsonValue(ser.falseDue));
    out.set("due", JsonValue(ser.due()));
    return out;
}

/**
 * "campaign" tally section: per-outcome counts with Wilson 95% CIs
 * (the CI bounds are what mbavf_report's drift check keys on), plus
 * diagnostic-code counts.
 */
inline JsonValue
tallyJson(const CampaignTally &tally)
{
    JsonValue outcomes = JsonValue::object();
    for (std::size_t i = 0; i < numInjectOutcomes; ++i) {
        const InjectOutcome outcome = static_cast<InjectOutcome>(i);
        const WilsonInterval rate = tally.rate(outcome);
        JsonValue entry = JsonValue::object();
        entry.set("count", JsonValue(tally.count(outcome)));
        entry.set("rate", JsonValue(rate.point));
        entry.set("ci_low", JsonValue(rate.low));
        entry.set("ci_high", JsonValue(rate.high));
        outcomes.set(injectOutcomeName(outcome), std::move(entry));
    }
    JsonValue codes = JsonValue::object();
    for (const auto &[code, count] : tally.codeCounts)
        codes.set(code, JsonValue(count));
    JsonValue out = JsonValue::object();
    out.set("trials", JsonValue(tally.total()));
    out.set("outcomes", std::move(outcomes));
    out.set("codes", std::move(codes));
    return out;
}

/**
 * "strata" section of a stratified campaign: the partition identity,
 * the allocation, per-stratum outcome tallies, and the combined
 * estimator with its effective-trials multiplier (how many uniform
 * trials the stratified interval is worth per injected trial).
 *
 * Skipped strata emit their rate object with weight 0 — the
 * placeholder mbavf_report's drift check treats as compatible with
 * any interval — while sampled strata carry their true weight.
 */
inline JsonValue
strataJson(const std::vector<Stratum> &strata, std::uint64_t hash,
           unsigned windows, std::uint32_t classes,
           double skipped_weight,
           const std::vector<StratumTally> &tallies,
           std::uint64_t budget)
{
    std::uint64_t injected = 0;
    for (const StratumTally &tally : tallies)
        injected += tally.trials;

    JsonValue combined = JsonValue::object();
    for (std::size_t i = 0; i < numInjectOutcomes; ++i) {
        const InjectOutcome outcome = static_cast<InjectOutcome>(i);
        const WilsonInterval w =
            combinedStratifiedInterval(strata, tallies, outcome);
        JsonValue entry = JsonValue::object();
        entry.set("rate", JsonValue(w.point));
        entry.set("ci_low", JsonValue(w.low));
        entry.set("ci_high", JsonValue(w.high));
        combined.set(injectOutcomeName(outcome), std::move(entry));
    }

    const WilsonInterval sdc = combinedStratifiedInterval(
        strata, tallies, InjectOutcome::Sdc);
    const std::uint64_t effective =
        injected == 0
            ? 0
            : effectiveUniformTrials(sdc.high - sdc.low, sdc.point);

    JsonValue table = JsonValue::array();
    for (std::size_t i = 0; i < strata.size(); ++i) {
        const Stratum &st = strata[i];
        const StratumTally &tally = tallies[i];
        JsonValue entry = JsonValue::object();
        entry.set("class", JsonValue(std::uint64_t(st.siteClass)));
        entry.set("window", JsonValue(std::uint64_t(st.window)));
        entry.set("weight", JsonValue(st.weight));
        entry.set("predicted", JsonValue(st.predicted));
        entry.set("skipped", JsonValue(st.skipped));
        entry.set("trials", JsonValue(tally.trials));
        JsonValue counts = JsonValue::object();
        for (std::size_t o = 0; o < numInjectOutcomes; ++o) {
            counts.set(
                injectOutcomeName(static_cast<InjectOutcome>(o)),
                JsonValue(tally.counts[o]));
        }
        entry.set("counts", std::move(counts));
        const WilsonInterval rate =
            st.skipped
                ? WilsonInterval{0.0, 0.0, 0.0}
                : wilsonInterval(tally.counts[static_cast<
                                     std::size_t>(
                                     InjectOutcome::Sdc)],
                                 tally.trials);
        JsonValue sdc_entry = JsonValue::object();
        sdc_entry.set("rate", JsonValue(rate.point));
        sdc_entry.set("ci_low", JsonValue(rate.low));
        sdc_entry.set("ci_high", JsonValue(rate.high));
        sdc_entry.set("weight",
                      JsonValue(st.skipped ? 0.0 : st.weight));
        entry.set("sdc", std::move(sdc_entry));
        table.push(std::move(entry));
    }

    JsonValue out = JsonValue::object();
    out.set("hash", JsonValue(hash));
    out.set("windows", JsonValue(std::uint64_t(windows)));
    out.set("classes", JsonValue(std::uint64_t(classes)));
    out.set("budget", JsonValue(budget));
    out.set("injected", JsonValue(injected));
    out.set("skipped_weight", JsonValue(skipped_weight));
    out.set("effective_trials", JsonValue(effective));
    out.set("multiplier",
            JsonValue(injected == 0
                          ? 0.0
                          : static_cast<double>(effective) /
                                static_cast<double>(injected)));
    out.set("combined", std::move(combined));
    out.set("table", std::move(table));
    return out;
}

/** strataJson() from a built partition. */
inline JsonValue
strataJson(const Stratification &strat,
           const std::vector<StratumTally> &tallies,
           std::uint64_t budget)
{
    return strataJson(strat.strata(), strat.hash(),
                      strat.numWindows(), strat.numClasses(),
                      strat.skippedWeight(), tallies, budget);
}

/** "tables" entry for one bench table (header + preformatted rows). */
inline JsonValue
tableJson(const Table &table)
{
    JsonValue header = JsonValue::array();
    for (const std::string &cell : table.header())
        header.push(JsonValue(cell));
    JsonValue rows = JsonValue::array();
    for (std::size_t r = 0; r < table.numRows(); ++r) {
        JsonValue row = JsonValue::array();
        for (const std::string &cell : table.row(r))
            row.push(JsonValue(cell));
        rows.push(std::move(row));
    }
    JsonValue out = JsonValue::object();
    out.set("header", std::move(header));
    out.set("rows", std::move(rows));
    return out;
}

} // namespace mbavf::obs

#endif // MBAVF_OBS_ADAPTERS_HH
