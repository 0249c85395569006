#include "inject/campaign.hh"

#include <algorithm>
#include <array>
#include <limits>

#include "common/bits.hh"
#include "common/check.hh"
#include "common/logging.hh"
#include "common/trap.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"

namespace mbavf
{

const char *
injectOutcomeName(InjectOutcome outcome)
{
    switch (outcome) {
      case InjectOutcome::Masked: return "masked";
      case InjectOutcome::Sdc: return "sdc";
      case InjectOutcome::Due: return "due";
      case InjectOutcome::Crash: return "crash";
      case InjectOutcome::Hang: return "hang";
    }
    return "?";
}

bool
parseInjectOutcome(const std::string &name, InjectOutcome &outcome)
{
    for (std::size_t i = 0; i < numInjectOutcomes; ++i) {
        InjectOutcome o = static_cast<InjectOutcome>(i);
        if (name == injectOutcomeName(o)) {
            outcome = o;
            return true;
        }
    }
    return false;
}

const char *
trialKindName(TrialKind kind)
{
    return kind == TrialKind::Register ? "register" : "memory";
}

bool
parseTrialKind(const std::string &name, TrialKind &kind)
{
    if (name == "register") {
        kind = TrialKind::Register;
        return true;
    }
    if (name == "memory") {
        kind = TrialKind::Memory;
        return true;
    }
    return false;
}

void
CampaignTally::add(const TrialResult &result)
{
    ++counts[static_cast<std::size_t>(result.outcome)];
    if (!result.code.empty())
        ++codeCounts[result.code];
}

std::uint64_t
CampaignTally::total() const
{
    std::uint64_t n = 0;
    for (std::uint64_t c : counts)
        n += c;
    return n;
}

namespace
{

/** Default watchdog headroom over the golden run. */
constexpr double defaultWatchdogMultiplier = 8.0;

std::uint64_t
scaleBudget(std::uint64_t golden, double multiple)
{
    if (!(multiple > 0.0))
        return 0;
    // Converting a double at or past 2^64 (or NaN) to an integer is
    // undefined, so saturate instead.
    const double budget = static_cast<double>(golden) * multiple;
    if (budget >= 0x1p64)
        return std::numeric_limits<std::uint64_t>::max();
    return budget >= 1.0 ? static_cast<std::uint64_t>(budget) : 1;
}

/** Per-outcome trial counters, registered once. */
const obs::Counter &
outcomeCounter(InjectOutcome outcome)
{
    static const auto counters = [] {
        std::array<obs::Counter, numInjectOutcomes> c;
        for (std::size_t i = 0; i < numInjectOutcomes; ++i) {
            c[i] = obs::MetricsRegistry::global().counter(
                std::string("campaign.outcome.") +
                injectOutcomeName(static_cast<InjectOutcome>(i)));
        }
        return c;
    }();
    return counters[static_cast<std::size_t>(outcome)];
}

} // namespace

Campaign::Campaign(std::string workload, unsigned scale,
                   GpuConfig config)
    : workload_(std::move(workload)), scale_(scale), config_(config)
{
    obs::ObsPhase obs_phase("campaign.golden");
    ExecResult golden = execute({}, {}, false);
    if (golden.instrs == 0)
        fatal("golden run of '", workload_, "' executed nothing");
    goldenOutput_ = std::move(golden.output);
    goldenInstrs_ = golden.instrs;
    goldenCycles_ = golden.cycles;
    // Remember how many CUs actually received waves and the memory
    // footprint so the samplers target state that can matter. A
    // launch shorter than the device leaves tail CUs with untouched
    // register files; sampling those would silently deflate the
    // measured SDC probability.
    cusUsed_ = std::max(1u, golden.cusUsed);
    footprint_ = golden.footprint;
    setWatchdogMultiplier(defaultWatchdogMultiplier);
}

void
Campaign::setWatchdogMultiplier(double multiple)
{
    watchdogInstrs_ = scaleBudget(goldenInstrs_, multiple);
    watchdogCycles_ = scaleBudget(goldenCycles_, multiple);
}

void
Campaign::setProtection(const std::string &scheme_name,
                        unsigned domain_bits)
{
    if (scheme_name == "none") {
        scheme_.reset();
        schemeCode_.clear();
        protectionDomainBits_ = 0;
        return;
    }
    if (const std::string error =
            protectionError(scheme_name, domain_bits);
        !error.empty())
        fatal(error);
    scheme_ = makeScheme(scheme_name);
    schemeCode_ = "due." + scheme_name;
    protectionDomainBits_ = domain_bits;
}

std::string
Campaign::protectionError(const std::string &scheme_name,
                          unsigned domain_bits)
{
    if (scheme_name == "none")
        return "";
    if (domain_bits == 0)
        return "protection domain must be at least one bit wide";
    std::string error;
    return tryMakeScheme(scheme_name, error) ? "" : error;
}

Campaign::ExecResult
Campaign::execute(const std::vector<RegInjection> &flips,
                  const std::vector<MemInjection> &mem_flips,
                  bool watchdog) const
{
    // An injection outside the device geometry would either hit a
    // register that no wave can ever touch (silently deflating the
    // measured SDC rate) or index out of the register file. The
    // samplers below construct in-range sites; this guards externally
    // supplied flips in checked builds.
    for (const RegInjection &inj : flips) {
        MBAVF_CHECK(inj.cu < config_.numCus, "cu ", inj.cu);
        MBAVF_CHECK(inj.slot < config_.regs.numSlots, "slot ",
                    inj.slot);
        MBAVF_CHECK(inj.reg < config_.regs.numRegs, "reg ", inj.reg);
        MBAVF_CHECK(inj.lane < config_.regs.numLanes, "lane ",
                    inj.lane);
        MBAVF_CHECK((inj.bitMask &
                     ~lowMask(config_.regs.regBits)) == 0,
                    "bit mask wider than the register");
    }
    for (const MemInjection &inj : mem_flips)
        MBAVF_CHECK(inj.addr < config_.memBytes, "addr ", inj.addr);

    Gpu gpu(config_);
    gpu.setTracking(false);
    if (watchdog)
        gpu.setWatchdog(watchdogInstrs_, watchdogCycles_);
    if (!flips.empty())
        gpu.armInjections(flips);
    if (!mem_flips.empty())
        gpu.armMemInjections(mem_flips);

    auto workload = makeWorkload(workload_, scale_);
    workload->run(gpu);
    gpu.finish();

    ExecResult result;
    result.instrs = gpu.instrCount();
    result.cycles = gpu.clock().now();
    result.cusUsed = gpu.cusWithWaves();
    result.footprint = gpu.mem().allocatedBytes();

    std::uint64_t total = 0;
    for (const Workload::Range &range : workload->outputs())
        total += range.bytes;
    result.output.reserve(total);
    for (const Workload::Range &range : workload->outputs())
        gpu.mem().readBlock(range.addr, range.bytes, result.output);
    return result;
}

bool
Campaign::applyProtection(TrialSpec &spec) const
{
    const unsigned domain = protectionDomainBits_;
    bool detected = false;
    auto scrub = [&](auto &flip, unsigned word_bits) {
        std::uint64_t mask = flip.bitMask;
        for (unsigned lo = 0; lo < word_bits && !detected;
             lo += domain) {
            std::uint64_t window =
                (mask >> lo) & lowMask(std::min(domain,
                                                word_bits - lo));
            unsigned flipped =
                static_cast<unsigned>(popCount(window));
            switch (scheme_->action(flipped)) {
              case FaultAction::Corrected:
                // The scheme corrects the domain before any consumer
                // observes it: scrub the flips.
                mask &= ~(window << lo);
                break;
              case FaultAction::Detected:
                detected = true;
                break;
              case FaultAction::Undetected:
                break;
            }
        }
        flip.bitMask = static_cast<decltype(flip.bitMask)>(mask);
    };
    for (RegInjection &flip : spec.regFlips)
        scrub(flip, config_.regs.regBits);
    for (MemInjection &flip : spec.memFlips)
        scrub(flip, 8);
    if (detected)
        return true;
    auto dead = [](const auto &flip) { return flip.bitMask == 0; };
    std::erase_if(spec.regFlips, dead);
    std::erase_if(spec.memFlips, dead);
    return false;
}

TrialResult
Campaign::runOne(const TrialSpec &spec) const
{
    // One slice per trial on the worker's trace track.
    obs::TraceScope trace("trial");
    TrialResult result;
    TrialSpec armed = spec;
    if (scheme_ && applyProtection(armed)) {
        result.outcome = InjectOutcome::Due;
        result.code = schemeCode_;
        outcomeCounter(result.outcome).add();
        return result;
    }
    // The trial boundary: nothing a corrupted execution throws may
    // escape into the pool or abort sibling trials.
    try {
        ExecResult r = execute(armed.regFlips, armed.memFlips, true);
        result.outcome = r.output == goldenOutput_
            ? InjectOutcome::Masked
            : InjectOutcome::Sdc;
    } catch (const SimTrap &t) {
        result.outcome = isWatchdogTrapCode(t.code())
            ? InjectOutcome::Hang
            : InjectOutcome::Crash;
        result.code = t.code();
    } catch (const std::exception &) {
        result.outcome = InjectOutcome::Crash;
        result.code = trapcode::hostException;
    } catch (...) {
        result.outcome = InjectOutcome::Crash;
        result.code = trapcode::hostUnknown;
    }
    outcomeCounter(result.outcome).add();
    return result;
}

TrialSpec
Campaign::trialSpec(std::uint64_t t, std::uint64_t base_seed,
                    TrialKind kind) const
{
    // One private Rng per trial index, so the spec is a pure
    // function of (base_seed, t) — never of scheduling, batch size,
    // or resume position.
    Rng rng(splitMix64(base_seed, t));
    TrialSpec spec;
    if (kind == TrialKind::Register)
        spec.regFlips.push_back(sampleSingleBit(rng));
    else
        spec.memFlips.push_back(sampleMemBit(rng));
    return spec;
}

InjectOutcome
Campaign::inject(const std::vector<RegInjection> &flips) const
{
    return runOne(TrialSpec{flips, {}}).outcome;
}

InjectOutcome
Campaign::injectMem(const std::vector<MemInjection> &flips) const
{
    return runOne(TrialSpec{{}, flips}).outcome;
}

RegInjection
Campaign::sampleSingleBit(Rng &rng) const
{
    RegInjection inj;
    inj.cu = static_cast<unsigned>(rng.below(cusUsed_));
    inj.slot =
        static_cast<unsigned>(rng.below(config_.regs.numSlots));
    inj.reg = static_cast<unsigned>(rng.below(config_.regs.numRegs));
    inj.lane = static_cast<unsigned>(rng.below(config_.regs.numLanes));
    inj.bitMask = std::uint32_t(1)
        << rng.below(config_.regs.regBits);
    inj.triggerInstr = rng.below(goldenInstrs_);
    return inj;
}

MemInjection
Campaign::sampleMemBit(Rng &rng) const
{
    MemInjection inj;
    inj.addr = rng.below(std::max<Addr>(footprint_, 1));
    inj.bitMask = static_cast<std::uint8_t>(1u << rng.below(8));
    inj.triggerInstr = rng.below(goldenInstrs_);
    return inj;
}

} // namespace mbavf
