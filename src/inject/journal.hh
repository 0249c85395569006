/**
 * @file
 * Campaign checkpoint journal: crash-consistent progress for long
 * injection campaigns.
 *
 * A journal is a plain-text file with one header line and one record
 * per completed trial:
 *
 *   mbavf-journal v1 workload=<name> scale=<n> kind=<register|memory>
 *       seed=<base> trials=<n>                          (one line)
 *   <index> <seed> <outcome> <code>
 *   ...
 *
 * Records are contiguous and ascending from index 0; <seed> is
 * splitMix64(base, index), <outcome> an injectOutcomeName(), and
 * <code> the trial's diagnostic code or "-" when it has none. Because
 * trial specs are pure functions of (base seed, index), a journal
 * plus its header is sufficient to resume a campaign bit-identically
 * at any thread count: completed trials are replayed from the file
 * and the remainder re-derive their sites from their seeds.
 *
 * Version 2 journals checkpoint stratified campaigns
 * (inject/stratified.hh). The header gains a trailing
 * strata=<hash> field carrying the partition identity, records gain
 * a stratum column —
 *
 *   <index> <seed> <stratum> <outcome> <code>
 *
 * — and <seed> is the pick's stratum-stream seed
 * (Stratification::pickSeed) rather than splitMix64(base, index).
 * Resume refuses a journal whose strata hash disagrees with the
 * partition rebuilt from the campaign configuration, exactly like a
 * workload mismatch: the pick sequence would attribute trials to the
 * wrong strata.
 *
 * Crash consistency: the journal is only ever replaced via
 * write-to-temporary + fsync + atomic rename, so a reader observes
 * either the previous or the new complete snapshot. The loader
 * additionally tolerates a file whose final line lost its newline
 * (e.g. a copy truncated mid-write by an imperfect transport): that
 * trailing partial record is dropped and its trial re-runs. Any
 * other malformation is rejected outright — resuming from a
 * corrupted journal would silently misattribute outcomes.
 */

#ifndef MBAVF_INJECT_JOURNAL_HH
#define MBAVF_INJECT_JOURNAL_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "check/report.hh"
#include "inject/campaign.hh"

namespace mbavf
{

/** Campaign identity; resume refuses a journal that doesn't match. */
struct JournalHeader
{
    std::string workload;
    unsigned scale = 1;
    TrialKind kind = TrialKind::Register;
    std::uint64_t baseSeed = 0;
    std::uint64_t trials = 0;
    /** Journal format version: 1 = uniform, 2 = stratified. */
    unsigned version = 1;
    /** Stratification::hash() of the partition (version 2 only). */
    std::uint64_t strataHash = 0;

    bool
    operator==(const JournalHeader &other) const
    {
        return workload == other.workload && scale == other.scale &&
               kind == other.kind && baseSeed == other.baseSeed &&
               trials == other.trials && version == other.version &&
               strataHash == other.strataHash;
    }
};

/** One completed trial as recorded in a journal. */
struct JournalRecord
{
    std::uint64_t index = 0;
    std::uint64_t seed = 0;
    /** Stratum the pick belongs to (version 2 journals only). */
    std::uint32_t stratum = 0;
    TrialResult result;

    bool
    operator==(const JournalRecord &other) const
    {
        return index == other.index && seed == other.seed &&
               stratum == other.stratum && result == other.result;
    }
};

/** An in-memory journal snapshot. */
struct CampaignJournal
{
    JournalHeader header;
    /** Completed trials, contiguous and ascending from index 0. */
    std::vector<JournalRecord> records;

    /** Outcome/code tallies over the recorded trials. */
    CampaignTally tally() const;

    /**
     * Parse @p path. Returns false with a diagnostic in @p error for
     * anything malformed; a final line missing its newline is dropped
     * silently (see the file comment). @p out is valid only on true.
     */
    static bool load(const std::string &path, CampaignJournal &out,
                     std::string &error);

    /**
     * Atomically replace @p path with this snapshot
     * (write-temporary, fsync, rename). Returns false with a
     * diagnostic in @p error on I/O failure.
     */
    bool save(const std::string &path, std::string &error) const;
};

/**
 * Thread-safe incremental journal writer for a running campaign.
 *
 * Workers deposit results in any order via record(); the writer
 * tracks the longest contiguous completed prefix and atomically
 * rewrites the journal file whenever the prefix has grown by at
 * least the flush interval. Out-of-order completions are buffered —
 * the on-disk journal only ever contains a contiguous prefix, which
 * is what makes resume trivially correct.
 */
class JournalWriter
{
  public:
    /**
     * @param path        journal file to maintain
     * @param header      campaign identity written on every flush
     * @param flush_every rewrite the file when the contiguous prefix
     *                    has grown by this many records (>= 1)
     * @param completed   records already on disk (resume); must be a
     *                    contiguous prefix
     */
    JournalWriter(std::string path, JournalHeader header,
                  std::uint64_t flush_every,
                  std::vector<JournalRecord> completed = {});

    /**
     * Deposit trial (or pick) @p index's result with the seed its
     * site was drawn from and its stratum (0 when uniform); may
     * flush. Thread-safe.
     */
    void record(std::uint64_t index, std::uint64_t seed,
                std::uint32_t stratum, const TrialResult &result);

    /** Flush everything contiguous to disk (end of campaign). */
    void finish();

    /** The journal as of the last flush/finish. */
    const CampaignJournal &journal() const { return journal_; }

  private:
    /** Rewrite the file with the current prefix. Caller holds the lock. */
    void flushLocked();

    std::string path_;
    std::uint64_t flushEvery_;
    std::mutex mutex_;
    CampaignJournal journal_;   ///< contiguous prefix (records)
    std::vector<JournalRecord> pending_; ///< out-of-order buffer
    std::uint64_t flushedAt_ = 0; ///< prefix length at last flush
};

/**
 * Validate a journal file for mbavf_lint --journal. Structural
 * problems (unreadable file, bad header, malformed records,
 * non-contiguous indices) and semantic ones (unknown outcome names,
 * invalid diagnostic codes for the outcome, seeds that disagree with
 * splitMix64(base, index)) report under stable "journal.*" codes.
 */
void lintCampaignJournal(const std::string &path, CheckReport &report);

} // namespace mbavf

#endif // MBAVF_INJECT_JOURNAL_HH
