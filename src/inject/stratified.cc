#include "inject/stratified.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <queue>
#include <unordered_map>

#include "common/journal_io.hh"
#include "common/logging.hh"
#include "core/lifetime_arena.hh"
#include "workloads/ace_runner.hh"

namespace mbavf
{

namespace
{

/** Seed-domain tag separating stratum streams from uniform trials. */
constexpr std::uint64_t stratumSeedTag = 0x737472617466ull; // "stratf"

/** Coarse log2 band of a site's total ACE cycles (3 bits). */
unsigned
massBand(std::uint64_t ace_cycles)
{
    if (ace_cycles == 0)
        return 0;
    const unsigned lg = 63u - std::countl_zero(ace_cycles);
    return 1 + std::min(6u, lg / 5);
}

/**
 * Generous cycle-overlap test: errs toward "overlaps" at the window
 * edges, which can only demote a skippable stratum to sampled —
 * never the unsound direction.
 */
bool
overlaps(Cycle begin, Cycle end, Cycle win_start, Cycle win_end)
{
    return begin <= win_end && end >= win_start;
}

/**
 * Floor on a sampled stratum's predicted spread, so level-one
 * confidence can concentrate but never zero out sampling of a
 * stratum the analysis cannot prove Masked.
 */
constexpr double predictedFloor = 0.02;

double
clampSpread(double p)
{
    return std::min(std::max(p, predictedFloor), 1.0 - predictedFloor);
}

/** Predicted Wilson-ish half-width of a stratum at n trials. */
double
predictedHalf(double p, std::uint64_t n, double z)
{
    if (n == 0)
        return 0.5; // vacuous [0,1] before the first trial
    const double q = clampSpread(p);
    return z * std::sqrt(q * (1.0 - q) / static_cast<double>(n));
}

/** Max-heap entry of the Sainte-Lague pick replay. */
struct HeapEntry
{
    double value;
    std::uint32_t stratum;
    std::uint64_t count; ///< picks already taken from the stratum
};

struct HeapLess
{
    bool
    operator()(const HeapEntry &a, const HeapEntry &b) const
    {
        if (a.value != b.value)
            return a.value < b.value;
        return a.stratum > b.stratum; // ties: lowest index on top
    }
};

using PickHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess>;

PickHeap
seedHeap(const std::vector<double> &scores)
{
    std::vector<HeapEntry> entries;
    for (std::uint32_t h = 0; h < scores.size(); ++h) {
        if (scores[h] > 0.0)
            entries.push_back({scores[h], h, 0});
    }
    return PickHeap(HeapLess{}, std::move(entries));
}

/** Pop the next pick and re-insert the stratum with its new score. */
HeapEntry
takePick(PickHeap &heap, const std::vector<double> &scores)
{
    HeapEntry top = heap.top();
    heap.pop();
    const std::uint64_t next = top.count + 1;
    heap.push({scores[top.stratum] /
                   static_cast<double>(2 * next + 1),
               top.stratum, next});
    return top;
}

} // namespace

std::string
StratifyOptions::error() const
{
    if (windows == 0 || windows > 16)
        return "stratify windows must be in [1, 16]";
    if (maxClasses < 2)
        return "stratify class cap must be at least 2";
    return "";
}

Stratification
Stratification::build(const Campaign &campaign,
                      const StratifyOptions &options)
{
    if (const std::string error = options.error(); !error.empty())
        fatal(error);
    if (campaign.goldenInstrs() == 0)
        fatal("cannot stratify a workload with no instructions");

    Stratification strat;
    strat.windows_ = options.windows;
    strat.goldenInstrs_ = campaign.goldenInstrs();
    strat.cusUsed_ = campaign.cusUsed();
    strat.geom_ = campaign.config().regs;

    const unsigned W = options.windows;
    strat.windowBounds_.resize(W + 1);
    for (unsigned w = 0; w <= W; ++w) {
        strat.windowBounds_[w] =
            strat.goldenInstrs_ * w / W;
    }

    // Level one: the instrumented run. Sampling the window
    // boundaries' begin cycles at the injection fire point maps the
    // instruction-indexed trigger windows onto the cycle-indexed
    // lifetime segments; the final boundary never fires (trigger
    // indices stop at goldenInstrs-1) and pads to the horizon, which
    // bounds every lifetime.
    AceRunOptions ace;
    ace.scale = campaign.scale();
    ace.config = campaign.config();
    ace.stores = AceStore::VgprPerCu;
    ace.sampleCyclesAt = strat.windowBounds_;
    const AceRun run = runAceAnalysis(campaign.workloadName(), ace);
    if (run.instrs != strat.goldenInstrs_) {
        fatal("stratifier ACE run executed ", run.instrs,
              " instructions but the golden run executed ",
              strat.goldenInstrs_,
              "; the trigger-window mapping would be unsound");
    }
    if (run.vgprPerCu.size() < strat.cusUsed_)
        fatal("ACE run probed fewer CUs than the golden run used");

    // Pad each window's upper cycle bound for intra-wave lane skew:
    // the boundary instruction's lanes retire up to aluCycles after
    // its begin cycle, and a flip at the last trigger of the window
    // can land anywhere in that span.
    const Cycle pad = campaign.config().aluCycles;
    std::vector<Cycle> cycleBounds(W + 1);
    for (unsigned w = 0; w <= W; ++w)
        cycleBounds[w] = run.sampledCycles[w];

    const RegFileGeometry &geom = strat.geom_;
    const std::uint64_t containers_per_cu = geom.numContainers();
    const std::uint64_t bits_per_container = geom.regBits;
    const std::uint64_t total_sites =
        strat.cusUsed_ * containers_per_cu * bits_per_container;

    // Pass 1: per-site windowed ACE signature and mass band. An
    // untouched site keeps key 0 (no signature, no mass) — the
    // provably-dead class that makes skipping pay.
    std::vector<std::uint32_t> site_key(total_sites, 0);
    std::vector<LifetimeArena> arenas;
    arenas.reserve(strat.cusUsed_);
    for (unsigned cu = 0; cu < strat.cusUsed_; ++cu)
        arenas.emplace_back(run.vgprPerCu[cu]);

    for (unsigned cu = 0; cu < strat.cusUsed_; ++cu) {
        const LifetimeArena &arena = arenas[cu];
        const unsigned width = arena.wordWidth();
        for (std::uint32_t w = 0; w < arena.numWords(); ++w) {
            const std::uint64_t container = arena.wordContainer(w);
            const unsigned word_base = arena.wordIndex(w) * width;
            std::uint32_t sig[64] = {};
            std::uint64_t ace_cycles[64] = {};
            const std::uint32_t off = arena.offset(w);
            const std::uint32_t cnt = arena.count(w);
            for (std::uint32_t s = off; s < off + cnt; ++s) {
                std::uint64_t ace = arena.masks()[s].ace;
                if (ace == 0)
                    continue;
                const Cycle begin = arena.begins()[s];
                const Cycle end = arena.ends()[s];
                std::uint32_t winmask = 0;
                for (unsigned v = 0; v < W; ++v) {
                    if (overlaps(begin, end, cycleBounds[v],
                                 cycleBounds[v + 1] + pad))
                        winmask |= std::uint32_t(1) << v;
                }
                while (ace != 0) {
                    const unsigned bit = std::countr_zero(ace);
                    ace &= ace - 1;
                    sig[bit] |= winmask;
                    ace_cycles[bit] += end - begin;
                }
            }
            for (unsigned bit = 0; bit < width; ++bit) {
                const std::uint64_t site =
                    (cu * containers_per_cu + container) *
                        bits_per_container +
                    word_base + bit;
                site_key[site] =
                    (sig[bit] << 3) | massBand(ace_cycles[bit]);
            }
        }
    }

    // Class formation: the most populous keys keep their own class,
    // the tail merges into a mixed class that is never skipped.
    std::unordered_map<std::uint32_t, std::uint64_t> key_count;
    for (std::uint32_t key : site_key)
        ++key_count[key];
    std::vector<std::pair<std::uint32_t, std::uint64_t>> ranked(
        key_count.begin(), key_count.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    const bool mixed = ranked.size() > options.maxClasses - 1;
    const std::size_t kept =
        mixed ? options.maxClasses - 1 : ranked.size();
    std::vector<std::uint32_t> kept_keys;
    for (std::size_t i = 0; i < kept; ++i)
        kept_keys.push_back(ranked[i].first);
    std::sort(kept_keys.begin(), kept_keys.end());
    strat.numClasses_ =
        static_cast<std::uint32_t>(kept + (mixed ? 1 : 0));
    const std::uint32_t mixed_class = strat.numClasses_ - 1;

    std::unordered_map<std::uint32_t, std::uint32_t> class_of_key;
    for (std::uint32_t c = 0; c < kept_keys.size(); ++c)
        class_of_key[kept_keys[c]] = c;

    std::vector<std::uint32_t> site_class(total_sites);
    std::vector<std::uint64_t> class_count(strat.numClasses_, 0);
    for (std::uint64_t site = 0; site < total_sites; ++site) {
        auto it = class_of_key.find(site_key[site]);
        const std::uint32_t c =
            it != class_of_key.end() ? it->second : mixed_class;
        site_class[site] = c;
        ++class_count[c];
    }

    // Counting-sort the site codes per class (ascending site order
    // within each class, which makes the membership lists — and the
    // hash over them — canonical).
    strat.classOffset_.assign(strat.numClasses_ + 1, 0);
    for (std::uint32_t c = 0; c < strat.numClasses_; ++c)
        strat.classOffset_[c + 1] =
            strat.classOffset_[c] + class_count[c];
    strat.classSites_.resize(total_sites);
    std::vector<std::uint64_t> fill(strat.classOffset_.begin(),
                                    strat.classOffset_.end() - 1);
    for (std::uint64_t site = 0; site < total_sites; ++site) {
        strat.classSites_[fill[site_class[site]]++] =
            static_cast<std::uint32_t>(site);
    }

    // Pass 2: per-(class, window) ACE mass for the level-one density
    // predictions that drive the allocation.
    std::vector<double> ace_win(
        std::uint64_t(strat.numClasses_) * W, 0.0);
    for (unsigned cu = 0; cu < strat.cusUsed_; ++cu) {
        const LifetimeArena &arena = arenas[cu];
        const unsigned width = arena.wordWidth();
        for (std::uint32_t w = 0; w < arena.numWords(); ++w) {
            const std::uint64_t container = arena.wordContainer(w);
            const unsigned word_base = arena.wordIndex(w) * width;
            const std::uint64_t site_base =
                (cu * containers_per_cu + container) *
                    bits_per_container +
                word_base;
            const std::uint32_t off = arena.offset(w);
            const std::uint32_t cnt = arena.count(w);
            for (std::uint32_t s = off; s < off + cnt; ++s) {
                std::uint64_t ace = arena.masks()[s].ace;
                if (ace == 0)
                    continue;
                const Cycle begin = arena.begins()[s];
                const Cycle end = arena.ends()[s];
                while (ace != 0) {
                    const unsigned bit = std::countr_zero(ace);
                    ace &= ace - 1;
                    const std::uint32_t c =
                        site_class[site_base + bit];
                    for (unsigned v = 0; v < W; ++v) {
                        const Cycle lo = std::max(
                            begin, cycleBounds[v]);
                        const Cycle hi = std::min(
                            end, cycleBounds[v + 1] + pad);
                        if (hi > lo) {
                            ace_win[std::uint64_t(c) * W + v] +=
                                static_cast<double>(hi - lo);
                        }
                    }
                }
            }
        }
    }

    // Assemble the strata (class-major) with exact weights, density
    // predictions, and the soundness-gated skip flags.
    strat.strata_.resize(std::uint64_t(strat.numClasses_) * W);
    strat.scores_.assign(strat.strata_.size(), 0.0);
    for (std::uint32_t c = 0; c < strat.numClasses_; ++c) {
        // Every site of a non-mixed class shares one signature, so
        // one representative decides the class's window overlap.
        std::uint32_t class_sig = 0;
        if (class_count[c] > 0) {
            const std::uint32_t rep =
                strat.classSites_[strat.classOffset_[c]];
            class_sig = site_key[rep] >> 3;
        }
        const bool is_mixed = mixed && c == mixed_class;
        for (unsigned v = 0; v < W; ++v) {
            Stratum &st = strat.strata_[std::uint64_t(c) * W + v];
            st.siteClass = c;
            st.window = v;
            const std::uint64_t span = strat.windowBounds_[v + 1] -
                                       strat.windowBounds_[v];
            st.weight =
                (static_cast<double>(class_count[c]) /
                 static_cast<double>(total_sites)) *
                (static_cast<double>(span) /
                 static_cast<double>(strat.goldenInstrs_));
            const Cycle cyc_span = cycleBounds[v + 1] + pad -
                                   cycleBounds[v];
            const double mass =
                ace_win[std::uint64_t(c) * W + v];
            st.predicted =
                class_count[c] == 0 || cyc_span == 0
                    ? 0.0
                    : std::min(
                          1.0,
                          mass /
                              (static_cast<double>(class_count[c]) *
                               static_cast<double>(cyc_span)));
            // Skip only what the analysis proves Masked: a zero-span
            // window holds no trigger, and a class whose signature
            // clears window v has no ACE overlap anywhere in the
            // (padded) window — the flip lands on a dead bit. The
            // mixed class pools different signatures and is never
            // skipped.
            st.skipped =
                span == 0 ||
                (!is_mixed && ((class_sig >> v) & 1u) == 0);
            if (st.skipped) {
                strat.skippedWeight_ += span == 0 ? 0.0 : st.weight;
            } else {
                const double q = clampSpread(st.predicted);
                strat.scores_[std::uint64_t(c) * W + v] =
                    st.weight * std::sqrt(q * (1.0 - q));
            }
        }
    }

    // Partition identity: everything a merge must agree on before
    // per-stratum counts may be summed.
    std::string head =
        "mbavf-strata v1 workload=" + campaign.workloadName() +
        " scale=" + std::to_string(campaign.scale()) +
        " windows=" + std::to_string(W) +
        " classes=" + std::to_string(strat.numClasses_) +
        " cus=" + std::to_string(strat.cusUsed_) +
        " instrs=" + std::to_string(strat.goldenInstrs_);
    std::uint64_t h = fnv1a64(head);
    h = fnv1a64(strat.windowBounds_.data(),
                strat.windowBounds_.size() *
                    sizeof(strat.windowBounds_[0]),
                h);
    h = fnv1a64(cycleBounds.data(),
                cycleBounds.size() * sizeof(cycleBounds[0]), h);
    h = fnv1a64(strat.classOffset_.data(),
                strat.classOffset_.size() *
                    sizeof(strat.classOffset_[0]),
                h);
    h = fnv1a64(strat.classSites_.data(),
                strat.classSites_.size() *
                    sizeof(strat.classSites_[0]),
                h);
    std::string flags(strat.strata_.size(), '0');
    for (std::size_t i = 0; i < strat.strata_.size(); ++i)
        flags[i] = strat.strata_[i].skipped ? '1' : '0';
    strat.hash_ = fnv1a64(flags, h);
    return strat;
}

std::vector<Stratification::Pick>
Stratification::picks(std::uint64_t first, std::uint64_t n) const
{
    std::vector<Pick> out;
    if (n == 0)
        return out;
    PickHeap heap = seedHeap(scores_);
    if (heap.empty()) {
        fatal("no sampleable strata: every stratum is provably "
              "Masked, so the campaign needs no trials");
    }
    out.reserve(n);
    for (std::uint64_t j = 0; j < first + n; ++j) {
        const HeapEntry pick = takePick(heap, scores_);
        if (j >= first)
            out.push_back({pick.stratum, pick.count});
    }
    return out;
}

std::vector<std::uint64_t>
Stratification::allocation(std::uint64_t budget) const
{
    std::vector<std::uint64_t> counts(strata_.size(), 0);
    for (const Pick &pick : picks(0, budget))
        ++counts[pick.stratum];
    return counts;
}

std::uint64_t
Stratification::budgetForTargetCi(double target_width,
                                  std::uint64_t max_budget) const
{
    if (target_width <= 0.0)
        return max_budget;
    PickHeap heap = seedHeap(scores_);
    if (heap.empty())
        return 0;
    constexpr double z = 1.96;
    std::vector<std::uint64_t> counts(strata_.size(), 0);
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < strata_.size(); ++i) {
        if (strata_[i].skipped || scores_[i] <= 0.0)
            continue;
        const double term =
            strata_[i].weight * predictedHalf(strata_[i].predicted, 0, z);
        sum_sq += term * term;
    }
    for (std::uint64_t budget = 1; budget <= max_budget; ++budget) {
        const HeapEntry pick = takePick(heap, scores_);
        const Stratum &st = strata_[pick.stratum];
        const std::uint64_t n = ++counts[pick.stratum];
        const double before =
            st.weight * predictedHalf(st.predicted, n - 1, z);
        const double after = st.weight * predictedHalf(st.predicted, n, z);
        sum_sq += after * after - before * before;
        if (2.0 * std::sqrt(std::max(sum_sq, 0.0)) <= target_width)
            return budget;
    }
    return max_budget;
}

std::uint64_t
Stratification::stratumSeed(std::uint32_t h,
                            std::uint64_t base_seed) const
{
    return splitMix64(base_seed ^ stratumSeedTag, h);
}

std::uint64_t
Stratification::pickSeed(const Pick &pick,
                         std::uint64_t base_seed) const
{
    return splitMix64(stratumSeed(pick.stratum, base_seed),
                      pick.occurrence);
}

TrialSpec
Stratification::trialSpec(const Pick &pick,
                          std::uint64_t base_seed) const
{
    const Stratum &st = strata_.at(pick.stratum);
    if (st.skipped)
        fatal("drew a trial from a skipped stratum");
    const std::uint64_t n_sites = classSiteCount(st.siteClass);
    const std::uint64_t span = windowBounds_[st.window + 1] -
                               windowBounds_[st.window];
    if (n_sites == 0 || span == 0)
        fatal("drew a trial from an empty stratum");

    Rng rng(pickSeed(pick, base_seed));
    const std::uint32_t site =
        classSites_[classOffset_[st.siteClass] + rng.below(n_sites)];
    const std::uint64_t trigger =
        windowBounds_[st.window] + rng.below(span);

    const std::uint64_t bits = geom_.regBits;
    const std::uint64_t containers = geom_.numContainers();
    const std::uint64_t bit = site % bits;
    const std::uint64_t container = (site / bits) % containers;
    const std::uint64_t cu = site / bits / containers;
    RegInjection inj;
    inj.cu = static_cast<unsigned>(cu);
    inj.lane = static_cast<unsigned>(container % geom_.numLanes);
    inj.reg = static_cast<unsigned>(container / geom_.numLanes %
                                    geom_.numRegs);
    inj.slot = static_cast<unsigned>(container / geom_.numLanes /
                                     geom_.numRegs);
    inj.bitMask = std::uint32_t(1) << bit;
    inj.triggerInstr = trigger;
    TrialSpec spec;
    spec.regFlips.push_back(inj);
    return spec;
}

WilsonInterval
combinedStratifiedInterval(const std::vector<Stratum> &strata,
                           const std::vector<StratumTally> &tallies,
                           InjectOutcome outcome, double z)
{
    if (tallies.size() != strata.size())
        fatal("stratum tally count does not match the partition");
    std::vector<StratumStat> stats(strata.size());
    for (std::size_t i = 0; i < strata.size(); ++i) {
        StratumStat &stat = stats[i];
        stat.weight = strata[i].weight;
        if (strata[i].skipped) {
            stat.certain = true;
            stat.certainRate =
                outcome == InjectOutcome::Masked ? 1.0 : 0.0;
        } else {
            stat.trials = tallies[i].trials;
            stat.successes =
                tallies[i].counts[static_cast<std::size_t>(outcome)];
        }
    }
    return stratifiedInterval(stats, z);
}

} // namespace mbavf
