/**
 * @file
 * Tests for the campaign checkpoint journal: round-trip, the
 * incremental writer's contiguous-prefix invariant, resume
 * bit-identity, the journal lint, and a truncation fuzz mirroring
 * the arena file's: a journal cut at EVERY byte offset must
 * either load as an exact prefix of the original (safe replay) or
 * be rejected -- never load wrong data.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/rng.hh"
#include "common/trap.hh"
#include "inject/campaign.hh"
#include "inject/journal.hh"
#include "pipeline/pipeline.hh"

namespace mbavf
{
namespace
{

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + "/" + name;
}

JournalHeader
sampleHeader()
{
    JournalHeader h;
    h.workload = "histogram";
    h.scale = 2;
    h.kind = TrialKind::Register;
    h.baseSeed = 99;
    h.trials = 50;
    return h;
}

JournalRecord
makeRecord(const JournalHeader &h, std::uint64_t index,
           InjectOutcome outcome, std::string code = "")
{
    JournalRecord r;
    r.index = index;
    r.seed = splitMix64(h.baseSeed, index);
    r.result.outcome = outcome;
    r.result.code = std::move(code);
    return r;
}

CampaignJournal
sampleJournal(std::size_t n)
{
    CampaignJournal j;
    j.header = sampleHeader();
    for (std::size_t i = 0; i < n; ++i) {
        switch (i % 4) {
          case 0:
            j.records.push_back(
                makeRecord(j.header, i, InjectOutcome::Masked));
            break;
          case 1:
            j.records.push_back(
                makeRecord(j.header, i, InjectOutcome::Sdc));
            break;
          case 2:
            j.records.push_back(makeRecord(
                j.header, i, InjectOutcome::Crash, trapcode::memOob));
            break;
          default:
            j.records.push_back(
                makeRecord(j.header, i, InjectOutcome::Hang,
                           trapcode::watchdogInstrs));
            break;
        }
    }
    return j;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

TEST(Journal, SaveLoadRoundTrip)
{
    const std::string path = tempPath("journal_roundtrip.txt");
    CampaignJournal journal = sampleJournal(9);
    std::string error;
    ASSERT_TRUE(journal.save(path, error)) << error;

    CampaignJournal loaded;
    ASSERT_TRUE(CampaignJournal::load(path, loaded, error)) << error;
    EXPECT_TRUE(loaded.header == journal.header);
    ASSERT_EQ(loaded.records.size(), journal.records.size());
    for (std::size_t i = 0; i < loaded.records.size(); ++i)
        EXPECT_EQ(loaded.records[i], journal.records[i]);
    std::remove(path.c_str());
}

TEST(Journal, TallyMatchesRecords)
{
    CampaignJournal journal = sampleJournal(8);
    CampaignTally tally = journal.tally();
    EXPECT_EQ(tally.total(), 8u);
    EXPECT_EQ(tally.count(InjectOutcome::Masked), 2u);
    EXPECT_EQ(tally.count(InjectOutcome::Sdc), 2u);
    EXPECT_EQ(tally.count(InjectOutcome::Crash), 2u);
    EXPECT_EQ(tally.count(InjectOutcome::Hang), 2u);
    EXPECT_EQ(tally.codeCounts.at(trapcode::memOob), 2u);
}

TEST(Journal, TruncationAtEveryByteRejectsOrReplaysPrefix)
{
    const std::string path = tempPath("journal_truncate.txt");
    CampaignJournal journal = sampleJournal(12);
    std::string error;
    ASSERT_TRUE(journal.save(path, error)) << error;
    const std::string bytes = fileBytes(path);
    ASSERT_FALSE(bytes.empty());

    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
        writeBytes(path, bytes.substr(0, cut));
        CampaignJournal loaded;
        std::string err;
        if (!CampaignJournal::load(path, loaded, err))
            continue; // rejected: fine
        // Accepted: must be the true header and an exact record
        // prefix -- anything else would resume the wrong campaign.
        EXPECT_TRUE(loaded.header == journal.header)
            << "cut at byte " << cut;
        ASSERT_LE(loaded.records.size(), journal.records.size());
        for (std::size_t i = 0; i < loaded.records.size(); ++i) {
            EXPECT_EQ(loaded.records[i], journal.records[i])
                << "cut at byte " << cut << " record " << i;
        }
    }
    std::remove(path.c_str());
}

TEST(Journal, LoadRejectsCorruptedLines)
{
    const std::string path = tempPath("journal_corrupt.txt");
    CampaignJournal journal = sampleJournal(4);
    std::string error;
    ASSERT_TRUE(journal.save(path, error)) << error;
    std::string bytes = fileBytes(path);

    CampaignJournal loaded;
    // Break a complete (newline-terminated) record line.
    writeBytes(path, [&] {
        std::string bad = bytes;
        bad.replace(bad.find("masked"), 6, "junked");
        return bad;
    }());
    EXPECT_FALSE(CampaignJournal::load(path, loaded, error));

    // Out-of-order indices.
    writeBytes(path, [&] {
        std::string bad = bytes;
        bad.replace(bad.find("\n2 "), 3, "\n7 ");
        return bad;
    }());
    EXPECT_FALSE(CampaignJournal::load(path, loaded, error));

    // Wrong magic.
    writeBytes(path, "mbavf-journal v9 workload=h scale=1 "
                     "kind=register seed=1 trials=1\n");
    EXPECT_FALSE(CampaignJournal::load(path, loaded, error));

    std::remove(path.c_str());
}

TEST(Journal, WriterKeepsContiguousPrefixOnDisk)
{
    const std::string path = tempPath("journal_writer.txt");
    std::remove(path.c_str());
    JournalHeader header = sampleHeader();
    header.trials = 5;
    JournalWriter writer(path, header, 1);

    const TrialResult masked{InjectOutcome::Masked, ""};
    // Trial 2 completes first: nothing contiguous yet, but the
    // flush interval of 1 means any prefix growth hits the disk.
    writer.record(2, masked);
    writer.record(0, masked);
    CampaignJournal snap;
    std::string error;
    ASSERT_TRUE(CampaignJournal::load(path, snap, error)) << error;
    EXPECT_EQ(snap.records.size(), 1u); // only trial 0 is contiguous

    writer.record(1, masked); // unlocks 0-2
    ASSERT_TRUE(CampaignJournal::load(path, snap, error)) << error;
    EXPECT_EQ(snap.records.size(), 3u);

    writer.record(4, masked);
    writer.record(3, masked);
    writer.finish();
    ASSERT_TRUE(CampaignJournal::load(path, snap, error)) << error;
    EXPECT_EQ(snap.records.size(), 5u);
    EXPECT_EQ(snap.tally().count(InjectOutcome::Masked), 5u);
    std::remove(path.c_str());
}

TEST(Journal, WriterResumesFromCompletedPrefix)
{
    const std::string path = tempPath("journal_resume.txt");
    std::remove(path.c_str());
    JournalHeader header = sampleHeader();
    header.trials = 4;

    CampaignJournal first;
    first.header = header;
    first.records.push_back(
        makeRecord(header, 0, InjectOutcome::Sdc));
    first.records.push_back(makeRecord(
        header, 1, InjectOutcome::Crash, trapcode::memAlign));

    JournalWriter writer(path, header, 1, first.records);
    writer.record(2, {InjectOutcome::Masked, ""});
    writer.record(3, {InjectOutcome::Masked, ""});
    writer.finish();

    CampaignJournal loaded;
    std::string error;
    ASSERT_TRUE(CampaignJournal::load(path, loaded, error)) << error;
    ASSERT_EQ(loaded.records.size(), 4u);
    EXPECT_EQ(loaded.records[1].result.code, trapcode::memAlign);
    EXPECT_EQ(loaded.records[3].result.outcome,
              InjectOutcome::Masked);
    std::remove(path.c_str());
}

TEST(Journal, LintAcceptsValidJournal)
{
    const std::string path = tempPath("journal_lint_ok.txt");
    CampaignJournal journal = sampleJournal(10);
    journal.records.push_back(makeRecord(journal.header, 10,
                                         InjectOutcome::Due,
                                         "due.parity"));
    std::string error;
    ASSERT_TRUE(journal.save(path, error)) << error;
    CheckReport report;
    lintCampaignJournal(path, report);
    EXPECT_TRUE(report.clean());
    std::remove(path.c_str());
}

TEST(Journal, LintFlagsSemanticCorruption)
{
    const std::string path = tempPath("journal_lint_bad.txt");
    JournalHeader h = sampleHeader();
    CampaignJournal journal;
    journal.header = h;
    journal.records.push_back(
        makeRecord(h, 0, InjectOutcome::Masked));
    std::string error;
    ASSERT_TRUE(journal.save(path, error)) << error;
    std::string bytes = fileBytes(path);

    // Seed tampering.
    {
        CampaignJournal bad = journal;
        bad.records[0].seed ^= 1;
        ASSERT_TRUE(bad.save(path, error)) << error;
        CheckReport report;
        lintCampaignJournal(path, report);
        EXPECT_TRUE(report.has("journal.seed"));
    }
    // Index gap.
    {
        CampaignJournal bad = journal;
        bad.records[0] = makeRecord(h, 3, InjectOutcome::Masked);
        ASSERT_TRUE(bad.save(path, error)) << error;
        CheckReport report;
        lintCampaignJournal(path, report);
        EXPECT_TRUE(report.has("journal.index"));
    }
    // A crash must carry a known non-watchdog trap code...
    {
        CampaignJournal bad = journal;
        bad.records[0] = makeRecord(h, 0, InjectOutcome::Crash,
                                    "trap.nonsense");
        ASSERT_TRUE(bad.save(path, error)) << error;
        CheckReport report;
        lintCampaignJournal(path, report);
        EXPECT_TRUE(report.has("journal.code"));
    }
    // ... a hang a watchdog code ...
    {
        CampaignJournal bad = journal;
        bad.records[0] = makeRecord(h, 0, InjectOutcome::Hang,
                                    trapcode::memOob);
        ASSERT_TRUE(bad.save(path, error)) << error;
        CheckReport report;
        lintCampaignJournal(path, report);
        EXPECT_TRUE(report.has("journal.code"));
    }
    // ... and a masked trial none at all.
    {
        CampaignJournal bad = journal;
        bad.records[0].result.code = "trap.mem.oob";
        ASSERT_TRUE(bad.save(path, error)) << error;
        CheckReport report;
        lintCampaignJournal(path, report);
        EXPECT_TRUE(report.has("journal.code"));
    }
    // Malformed record line.
    {
        writeBytes(path, bytes + "one two\n");
        CheckReport report;
        lintCampaignJournal(path, report);
        EXPECT_TRUE(report.has("journal.record"));
    }
    std::remove(path.c_str());
}

TEST(Journal, ResumedCampaignIsBitIdenticalToStraightRun)
{
    // The end-to-end resume property at the library level: run a
    // campaign journaled to completion, then replay its first half
    // as a resume seed and run the rest -- the two journals must be
    // byte-identical on disk.
    const std::string straight = tempPath("journal_straight.txt");
    const std::string resumed = tempPath("journal_resumed.txt");
    std::remove(straight.c_str());
    std::remove(resumed.c_str());

    JobConfig job;
    job.type = JobType::Campaign;
    job.workload = "histogram";
    job.trials = 24;
    job.seed = 5;
    job.kind = "memory";
    const TrialPlan plan(job);
    CampaignTallies tallies = plan.emptyTallies();
    JournalHeader header;
    header.workload = "histogram";
    header.scale = 1;
    header.kind = TrialKind::Memory;
    header.baseSeed = 5;
    header.trials = 24;

    {
        JournalWriter writer(straight, header, 4);
        plan.run(0, 24, tallies,
                 [&](std::uint64_t t, std::uint64_t, std::uint32_t,
                     const TrialResult &r) { writer.record(t, r); });
        writer.finish();
    }
    CampaignJournal full;
    std::string error;
    ASSERT_TRUE(CampaignJournal::load(straight, full, error))
        << error;

    std::vector<JournalRecord> half(full.records.begin(),
                                    full.records.begin() + 12);
    {
        JournalWriter writer(resumed, header, 4, std::move(half));
        plan.run(12, 12, tallies,
                 [&](std::uint64_t t, std::uint64_t, std::uint32_t,
                     const TrialResult &r) { writer.record(t, r); });
        writer.finish();
    }
    EXPECT_EQ(fileBytes(straight), fileBytes(resumed));
    std::remove(straight.c_str());
    std::remove(resumed.c_str());
}

} // namespace
} // namespace mbavf
