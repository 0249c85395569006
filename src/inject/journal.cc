#include "inject/journal.hh"

#include "common/journal_io.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/trap.hh"

namespace mbavf
{

namespace
{

constexpr const char *journalMagic = "mbavf-journal";
constexpr const char *journalVersionV1 = "v1";
constexpr const char *journalVersionV2 = "v2";

// The parsing/atomic-write discipline is shared with the serve queue
// journal (common/journal_io.hh); local aliases keep the call sites
// below readable.
constexpr auto parseU64 = parseJournalU64;
constexpr auto splitTokens = splitJournalTokens;
constexpr auto keyValue = journalKeyValue;

bool
parseHeaderLine(const std::string &line, JournalHeader &header,
                std::string &error)
{
    const std::vector<std::string> tokens = splitTokens(line);
    if (tokens.size() >= 2 && tokens[0] == journalMagic &&
        tokens[1] == journalVersionV1 && tokens.size() == 7) {
        header.version = 1;
    } else if (tokens.size() >= 2 && tokens[0] == journalMagic &&
               tokens[1] == journalVersionV2 && tokens.size() == 8) {
        header.version = 2;
    } else {
        error = "not a " + std::string(journalMagic) + " " +
                journalVersionV1 + "/" + journalVersionV2 + " header";
        return false;
    }
    std::string value;
    if (!keyValue(tokens[2], "workload", value) || value.empty()) {
        error = "bad workload field '" + tokens[2] + "'";
        return false;
    }
    header.workload = value;
    std::uint64_t scale = 0;
    if (!keyValue(tokens[3], "scale", value) ||
        !parseU64(value, scale) || scale == 0) {
        error = "bad scale field '" + tokens[3] + "'";
        return false;
    }
    header.scale = static_cast<unsigned>(scale);
    if (!keyValue(tokens[4], "kind", value) ||
        !parseTrialKind(value, header.kind)) {
        error = "bad kind field '" + tokens[4] + "'";
        return false;
    }
    if (!keyValue(tokens[5], "seed", value) ||
        !parseU64(value, header.baseSeed)) {
        error = "bad seed field '" + tokens[5] + "'";
        return false;
    }
    if (!keyValue(tokens[6], "trials", value) ||
        !parseU64(value, header.trials)) {
        error = "bad trials field '" + tokens[6] + "'";
        return false;
    }
    if (header.version == 2) {
        if (!keyValue(tokens[7], "strata", value) ||
            !parseU64(value, header.strataHash)) {
            error = "bad strata field '" + tokens[7] + "'";
            return false;
        }
    }
    return true;
}

bool
parseRecordLine(const std::string &line, unsigned version,
                JournalRecord &record, std::string &error)
{
    const std::vector<std::string> tokens = splitTokens(line);
    const std::size_t want = version == 2 ? 5 : 4;
    if (tokens.size() != want) {
        error = version == 2
                    ? "expected '<index> <seed> <stratum> <outcome> "
                      "<code>'"
                    : "expected '<index> <seed> <outcome> <code>'";
        return false;
    }
    if (!parseU64(tokens[0], record.index)) {
        error = "bad trial index '" + tokens[0] + "'";
        return false;
    }
    if (!parseU64(tokens[1], record.seed)) {
        error = "bad seed '" + tokens[1] + "'";
        return false;
    }
    std::size_t at = 2;
    if (version == 2) {
        std::uint64_t stratum = 0;
        if (!parseU64(tokens[at], stratum) ||
            stratum > 0xffffffffull) {
            error = "bad stratum '" + tokens[at] + "'";
            return false;
        }
        record.stratum = static_cast<std::uint32_t>(stratum);
        ++at;
    }
    if (!parseInjectOutcome(tokens[at], record.result.outcome)) {
        error = "unknown outcome '" + tokens[at] + "'";
        return false;
    }
    record.result.code =
        tokens[at + 1] == "-" ? "" : tokens[at + 1];
    return true;
}

void
formatHeader(std::string &out, const JournalHeader &header)
{
    out += journalMagic;
    out += ' ';
    out += header.version == 2 ? journalVersionV2 : journalVersionV1;
    out += " workload=" + header.workload;
    out += " scale=" + std::to_string(header.scale);
    out += " kind=";
    out += trialKindName(header.kind);
    out += " seed=" + std::to_string(header.baseSeed);
    out += " trials=" + std::to_string(header.trials);
    if (header.version == 2)
        out += " strata=" + std::to_string(header.strataHash);
    out += '\n';
}

void
formatRecord(std::string &out, unsigned version,
             const JournalRecord &record)
{
    out += std::to_string(record.index);
    out += ' ';
    out += std::to_string(record.seed);
    if (version == 2) {
        out += ' ';
        out += std::to_string(record.stratum);
    }
    out += ' ';
    out += injectOutcomeName(record.result.outcome);
    out += ' ';
    out += record.result.code.empty() ? "-" : record.result.code;
    out += '\n';
}

} // namespace

CampaignTally
CampaignJournal::tally() const
{
    CampaignTally tally;
    for (const JournalRecord &record : records)
        tally.add(record.result);
    return tally;
}

bool
CampaignJournal::load(const std::string &path, CampaignJournal &out,
                      std::string &error)
{
    std::vector<std::string> lines;
    if (!readCompleteLines(path, lines, error))
        return false;
    if (lines.empty()) {
        error = "'" + path + "' has no complete header line";
        return false;
    }
    CampaignJournal journal;
    if (!parseHeaderLine(lines[0], journal.header, error)) {
        error = path + ":1: " + error;
        return false;
    }
    journal.records.reserve(lines.size() - 1);
    for (std::size_t i = 1; i < lines.size(); ++i) {
        JournalRecord record;
        if (!parseRecordLine(lines[i], journal.header.version,
                             record, error)) {
            error = path + ":" + std::to_string(i + 1) + ": " + error;
            return false;
        }
        if (record.index != journal.records.size()) {
            error = path + ":" + std::to_string(i + 1) +
                    ": trial index " + std::to_string(record.index) +
                    " breaks the contiguous sequence (expected " +
                    std::to_string(journal.records.size()) + ")";
            return false;
        }
        if (record.index >= journal.header.trials) {
            error = path + ":" + std::to_string(i + 1) +
                    ": trial index " + std::to_string(record.index) +
                    " outside the campaign's " +
                    std::to_string(journal.header.trials) + " trials";
            return false;
        }
        journal.records.push_back(std::move(record));
    }
    out = std::move(journal);
    return true;
}

bool
CampaignJournal::save(const std::string &path,
                      std::string &error) const
{
    std::string text;
    formatHeader(text, header);
    for (const JournalRecord &record : records)
        formatRecord(text, header.version, record);
    return atomicWriteFile(path, text, error);
}

JournalWriter::JournalWriter(std::string path, JournalHeader header,
                             std::uint64_t flush_every,
                             std::vector<JournalRecord> completed)
    : path_(std::move(path)),
      flushEvery_(flush_every == 0 ? 1 : flush_every)
{
    journal_.header = std::move(header);
    journal_.records = std::move(completed);
    for (std::size_t i = 0; i < journal_.records.size(); ++i) {
        if (journal_.records[i].index != i)
            panic("journal resume records are not a contiguous "
                  "prefix");
    }
    flushedAt_ = journal_.records.size();
}

void
JournalWriter::record(std::uint64_t index, std::uint64_t seed,
                      std::uint32_t stratum,
                      const TrialResult &result)
{
    std::lock_guard<std::mutex> guard(mutex_);
    JournalRecord rec;
    rec.index = index;
    rec.seed = seed;
    rec.stratum = stratum;
    rec.result = result;
    if (index < journal_.records.size())
        panic("trial ", index, " recorded twice");
    pending_.push_back(std::move(rec));

    // Fold everything contiguous into the prefix.
    bool grew = true;
    while (grew) {
        grew = false;
        const std::uint64_t next = journal_.records.size();
        for (std::size_t i = 0; i < pending_.size(); ++i) {
            if (pending_[i].index == next) {
                journal_.records.push_back(std::move(pending_[i]));
                pending_.erase(pending_.begin() +
                               static_cast<std::ptrdiff_t>(i));
                grew = true;
                break;
            }
        }
    }
    if (journal_.records.size() >= flushedAt_ + flushEvery_)
        flushLocked();
}

void
JournalWriter::finish()
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (!pending_.empty())
        panic("journal finished with ", pending_.size(),
              " non-contiguous trial results");
    flushLocked();
}

void
JournalWriter::flushLocked()
{
    std::string error;
    if (!journal_.save(path_, error))
        fatal("campaign checkpoint failed: ", error);
    flushedAt_ = journal_.records.size();
}

void
lintCampaignJournal(const std::string &path, CheckReport &report)
{
    std::vector<std::string> lines;
    std::string error;
    if (!readCompleteLines(path, lines, error)) {
        report.error("journal.io", path, error);
        return;
    }
    if (lines.empty()) {
        report.error("journal.header", path + ":1",
                     "no complete header line");
        return;
    }
    JournalHeader header;
    if (!parseHeaderLine(lines[0], header, error)) {
        report.error("journal.header", path + ":1", error);
        return;
    }
    std::uint64_t expected = 0;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        const std::string where = path + ":" + std::to_string(i + 1);
        JournalRecord record;
        if (!parseRecordLine(lines[i], header.version, record,
                             error)) {
            report.error("journal.record", where, error);
            continue;
        }
        if (record.index != expected) {
            report.error("journal.index", where,
                         "trial index " +
                             std::to_string(record.index) +
                             " breaks the contiguous sequence "
                             "(expected " +
                             std::to_string(expected) + ")");
            // Re-sync on the recorded index so one gap doesn't
            // cascade into a finding per remaining line.
            expected = record.index;
        }
        if (record.index >= header.trials) {
            report.error("journal.index", where,
                         "trial index " +
                             std::to_string(record.index) +
                             " outside the campaign's " +
                             std::to_string(header.trials) +
                             " trials");
        }
        // Version 2 seeds come from the stratum pick streams; only
        // the partition (not the journal alone) can validate them.
        if (header.version == 1) {
            const std::uint64_t want =
                splitMix64(header.baseSeed, record.index);
            if (record.seed != want) {
                report.error(
                    "journal.seed", where,
                    "seed " + std::to_string(record.seed) +
                        " does not match splitMix64(base, " +
                        std::to_string(record.index) + ") = " +
                        std::to_string(want));
            }
        }
        const std::string &code = record.result.code;
        switch (record.result.outcome) {
          case InjectOutcome::Masked:
          case InjectOutcome::Sdc:
            if (!code.empty()) {
                report.error(
                    "journal.code", where,
                    std::string(
                        injectOutcomeName(record.result.outcome)) +
                        " trial carries diagnostic code '" + code +
                        "'");
            }
            break;
          case InjectOutcome::Due:
            if (code.compare(0, 4, "due.") != 0) {
                report.error("journal.code", where,
                             "due trial code '" + code +
                                 "' lacks the due. scheme prefix");
            }
            break;
          case InjectOutcome::Crash:
            if (!isKnownTrapCode(code) || isWatchdogTrapCode(code)) {
                report.error("journal.code", where,
                             "crash trial code '" + code +
                                 "' is not a known non-watchdog "
                                 "trap code");
            }
            break;
          case InjectOutcome::Hang:
            if (!isWatchdogTrapCode(code)) {
                report.error("journal.code", where,
                             "hang trial code '" + code +
                                 "' is not a watchdog trap code");
            }
            break;
        }
        ++expected;
    }
}

} // namespace mbavf
