/**
 * @file
 * Unit tests for the program-flow and protection-coverage lint
 * passes: each stable finding code fires on a minimal synthetic
 * defect and stays silent on the matching near-miss (one healthy
 * dynamic instance, an intervening read, a partial overwrite, a
 * scheme that makes no protection claim, a cover budget below the
 * vulnerable mode).
 */

#include <gtest/gtest.h>

#include <array>
#include <unordered_map>

#include "analyze/passes.hh"
#include "core/layout.hh"

namespace mbavf
{
namespace
{

DefId
defTagged(DataflowLog &log, InstrTag tag)
{
    return log.record({}, tag);
}

DefId
useTagged(DataflowLog &log, DefId src, std::uint32_t rel,
          InstrTag tag)
{
    std::array<SrcUse, 1> s{SrcUse{src, rel, false}};
    return log.record(s, tag);
}

TEST(AnalyzePasses, DeadDefFires)
{
    DataflowLog log;
    defTagged(log, makeInstrTag(1, 5));
    Liveness live(log);
    CheckReport report;
    analyze::lintDataflow(log, live, report);
    EXPECT_EQ(report.countOf("flow.dead-def"), 1u);
}

TEST(AnalyzePasses, DeadDefSparedByOneConsumedInstance)
{
    // Two dynamic instances of the same static instruction; one is
    // consumed, so the instruction is not unconditionally dead.
    DataflowLog log;
    const InstrTag tag = makeInstrTag(1, 5);
    defTagged(log, tag);
    DefId second = defTagged(log, tag);
    DefId user = useTagged(log, second, ~0u, makeInstrTag(1, 6));
    log.markOutput(user);
    Liveness live(log);
    CheckReport report;
    analyze::lintDataflow(log, live, report);
    EXPECT_FALSE(report.has("flow.dead-def"));
}

TEST(AnalyzePasses, AnchorsAreNeverFlagged)
{
    // Untagged defs are synthetic anchors (addresses, fills), not
    // instructions; a dead anchor is not a program defect.
    DataflowLog log;
    log.record({});
    Liveness live(log);
    CheckReport report;
    analyze::lintDataflow(log, live, report);
    EXPECT_EQ(report.errorCount(), 0u);
}

TEST(AnalyzePasses, MaskedOutputFires)
{
    // The victim is consumed, but its only consumer attaches
    // relevance 0: no produced bit can reach program output.
    DataflowLog log;
    const InstrTag tag = makeInstrTag(0, 11);
    DefId victim = defTagged(log, tag);
    DefId user = useTagged(log, victim, 0, makeInstrTag(0, 12));
    log.markOutput(user);
    Liveness live(log);
    CheckReport report;
    analyze::lintDataflow(log, live, report);
    EXPECT_EQ(report.countOf("flow.masked-output"), 1u);
    EXPECT_FALSE(report.has("flow.dead-def"));
}

TEST(AnalyzePasses, MaskedOutputSparedByOneRelevantUse)
{
    DataflowLog log;
    const InstrTag tag = makeInstrTag(0, 11);
    DefId a = defTagged(log, tag);
    DefId masked = useTagged(log, a, 0, makeInstrTag(0, 12));
    log.markOutput(masked);
    DefId b = defTagged(log, tag);
    DefId live_use = useTagged(log, b, 0xFF, makeInstrTag(0, 13));
    log.markOutput(live_use);
    Liveness live(log);
    CheckReport report;
    analyze::lintDataflow(log, live, report);
    EXPECT_FALSE(report.has("flow.masked-output"));
}

TEST(AnalyzePasses, OverwriteFires)
{
    DataflowLog dataflow;
    std::unordered_map<std::uint64_t, WordEventLog> logs;
    const InstrTag tag = makeInstrTag(2, 3);
    logs[7].write(0, 0xFF, tag);
    logs[7].write(5, 0xFF, makeInstrTag(2, 4));
    CheckReport report;
    analyze::lintRegisterEvents(logs, dataflow, report);
    EXPECT_EQ(report.countOf("flow.overwrite"), 1u);
}

TEST(AnalyzePasses, OverwriteSparedByInterveningRead)
{
    DataflowLog dataflow;
    DefId reader = dataflow.record({});
    dataflow.markOutput(reader);
    std::unordered_map<std::uint64_t, WordEventLog> logs;
    logs[7].write(0, 0xFF, makeInstrTag(2, 3));
    logs[7].read(2, 0xFF, reader);
    logs[7].write(5, 0xFF, makeInstrTag(2, 4));
    CheckReport report;
    analyze::lintRegisterEvents(logs, dataflow, report);
    EXPECT_FALSE(report.has("flow.overwrite"));
}

TEST(AnalyzePasses, OverwriteSparedByPartialOverwrite)
{
    // The second write covers only half the first one's bits; the
    // surviving half may still be read later.
    DataflowLog dataflow;
    std::unordered_map<std::uint64_t, WordEventLog> logs;
    logs[7].write(0, 0xFF, makeInstrTag(2, 3));
    logs[7].write(5, 0x0F, makeInstrTag(2, 4));
    CheckReport report;
    analyze::lintRegisterEvents(logs, dataflow, report);
    EXPECT_FALSE(report.has("flow.overwrite"));
}

TEST(AnalyzePasses, UninitReadFires)
{
    DataflowLog dataflow;
    DefId reader = dataflow.record({}, makeInstrTag(3, 8));
    std::unordered_map<std::uint64_t, WordEventLog> logs;
    logs[9].read(1, 0xFF, reader);
    logs[9].write(4, 0xFF, makeInstrTag(3, 9));
    CheckReport report;
    analyze::lintRegisterEvents(logs, dataflow, report);
    EXPECT_EQ(report.countOf("flow.uninit-read"), 1u);
}

TEST(AnalyzePasses, UninitReadSparedAfterFirstWrite)
{
    DataflowLog dataflow;
    DefId reader = dataflow.record({}, makeInstrTag(3, 8));
    std::unordered_map<std::uint64_t, WordEventLog> logs;
    logs[9].write(0, 0xFF, makeInstrTag(3, 9));
    logs[9].read(1, 0xFF, reader);
    CheckReport report;
    analyze::lintRegisterEvents(logs, dataflow, report);
    EXPECT_FALSE(report.has("flow.uninit-read"));
}

/** Array whose first column belongs to no protection domain. */
class HoleyArray : public PhysicalArray
{
  public:
    explicit HoleyArray(std::uint64_t bits) : bits_(bits) {}

    std::uint64_t rows() const override { return 1; }
    std::uint64_t cols() const override { return bits_; }

    PhysBit
    at(std::uint64_t, std::uint64_t col) const override
    {
        return {col, 0, col == 0 ? invalidDomain : DomainId(0)};
    }

  private:
    std::uint64_t bits_;
};

/** One-row array of 1-bit containers, domain_bits wide domains. */
class FlatArray : public PhysicalArray
{
  public:
    FlatArray(std::uint64_t bits, unsigned domain_bits)
        : bits_(bits), domainBits_(domain_bits)
    {}

    std::uint64_t rows() const override { return 1; }
    std::uint64_t cols() const override { return bits_; }

    PhysBit
    at(std::uint64_t, std::uint64_t col) const override
    {
        return {col, 0, col / domainBits_};
    }

  private:
    std::uint64_t bits_;
    unsigned domainBits_;
};

/** One one-bit container per bit, ACE for cycles [0, 10). */
LifetimeArena
aceArena(std::uint64_t bits)
{
    LifetimeStore store(1, 1);
    for (std::uint64_t b = 0; b < bits; ++b)
        store.container(b).words[0].append({0, 10, 1, 1});
    return LifetimeArena(store);
}

TEST(AnalyzePasses, UncoveredFires)
{
    HoleyArray array(2);
    const LifetimeArena arena = aceArena(2);
    const auto scheme = makeScheme("secded");
    CheckReport report;
    analyze::lintDomainCoverage(array, arena, *scheme, {}, report);
    EXPECT_EQ(report.countOf("domain.uncovered"), 1u);
}

TEST(AnalyzePasses, UncoveredNeedsAceTime)
{
    HoleyArray array(2);
    LifetimeStore store(1, 1);
    // Read-only (never ACE) data outside every domain is harmless.
    store.container(0).words[0].append({0, 10, 0, 1});
    store.container(1).words[0].append({0, 10, 1, 1});
    const auto scheme = makeScheme("secded");
    CheckReport report;
    analyze::lintDomainCoverage(array, LifetimeArena(store), *scheme, {},
                                report);
    EXPECT_FALSE(report.has("domain.uncovered"));
}

TEST(AnalyzePasses, NoProtectionClaimSkipsDomainPasses)
{
    // scheme "none" never detects anything: there is no coverage to
    // have gaps in, so neither domain code may fire.
    HoleyArray array(2);
    const LifetimeArena arena = aceArena(2);
    const auto scheme = makeScheme("none");
    CheckReport report;
    analyze::lintDomainCoverage(array, arena, *scheme, {}, report);
    EXPECT_EQ(report.errorCount(), 0u);
}

TEST(AnalyzePasses, ModeUndetectableFires)
{
    // Two adjacent bits share one parity domain: a 2x1 fault puts an
    // even flip count into it, which parity cannot detect.
    FlatArray array(4, 2);
    const LifetimeArena arena = aceArena(4);
    const auto scheme = makeScheme("parity");
    CheckReport report;
    analyze::lintDomainCoverage(array, arena, *scheme, {}, report);
    EXPECT_GE(report.countOf("domain.mode-undetectable"), 1u);
}

TEST(AnalyzePasses, ModeUndetectableDedupesPerModeAndCount)
{
    // Every anchor of the 4-bit row repeats the same (mode, flips)
    // hole; the pass reports each distinct pair once.
    FlatArray array(4, 2);
    const LifetimeArena arena = aceArena(4);
    const auto scheme = makeScheme("parity");
    analyze::DomainLintOptions opt;
    opt.coverModes = 2;
    CheckReport report;
    analyze::lintDomainCoverage(array, arena, *scheme, opt, report);
    EXPECT_EQ(report.countOf("domain.mode-undetectable"), 1u);
}

TEST(AnalyzePasses, ModeUndetectableRespectsCoverBudget)
{
    // SEC-DED detects 2 flips and corrects 1; with 3-bit domains the
    // first undetectable pattern needs mode 3, so a cover budget of 2
    // must stay clean and a budget of 3 must fire.
    FlatArray array(6, 3);
    const LifetimeArena arena = aceArena(6);
    const auto scheme = makeScheme("secded");
    analyze::DomainLintOptions narrow;
    narrow.coverModes = 2;
    CheckReport clean;
    analyze::lintDomainCoverage(array, arena, *scheme, narrow, clean);
    EXPECT_EQ(clean.errorCount(), 0u);

    analyze::DomainLintOptions wide;
    wide.coverModes = 3;
    CheckReport report;
    analyze::lintDomainCoverage(array, arena, *scheme, wide, report);
    EXPECT_EQ(report.countOf("domain.mode-undetectable"), 1u);
}

} // namespace
} // namespace mbavf
