/**
 * @file
 * Manifest reporting logic behind tools/mbavf_report: pretty-print
 * one manifest, diff two (the perf/AVF drift gate CI runs), and
 * merge a set of bench manifests into one trajectory document.
 *
 * Diff semantics (diffManifests):
 *
 * - "phases" and "env" are perf/context data. Their values are never
 *   structural drift; with perfTol >= 0 a phase's seconds drifting
 *   by more than perfTol (relative) is reported as perf drift.
 *   Phases pair by name; a phase only one run recorded is skipped.
 * - An object of shape {count, rate, ci_low, ci_high} is a campaign
 *   rate: the two runs drift only when their Wilson intervals are
 *   disjoint — statistically incompatible, not merely resampled.
 * - Every other number must match within avfTol (relative; 0 =
 *   exact), strings and bools exactly; a key present on one side
 *   only is a structural mismatch.
 * - structureOnly compares shape alone: matching key sets and value
 *   types, recursing through objects but not into array elements or
 *   leaf values. CI diffs a fresh bench manifest against a golden
 *   one this way, since values and timings legitimately move.
 */

#ifndef MBAVF_OBS_REPORT_HH
#define MBAVF_OBS_REPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace mbavf::obs
{

/** Knobs for diffManifests (see file comment). */
struct DiffOptions
{
    /** Compare shape only (key sets and value types). */
    bool structureOnly = false;
    /** Relative tolerance for deterministic numbers (0 = exact). */
    double avfTol = 0.0;
    /** Relative tolerance for phase seconds; < 0 ignores timing. */
    double perfTol = -1.0;
};

/** Outcome of one manifest diff. */
struct DiffResult
{
    /** Key-set or type mismatches ("structure: ..." notes). */
    bool structuralMismatch = false;
    /** Value drift beyond tolerance / disjoint CIs / perf drift. */
    bool drifted = false;
    /** Human-readable findings, one per difference. */
    std::vector<std::string> notes;

    bool clean() const { return !structuralMismatch && !drifted; }
};

/** Compare @p a (reference) against @p b (candidate). */
DiffResult diffManifests(const JsonValue &a, const JsonValue &b,
                         const DiffOptions &options);

/** Human-oriented rendering of one manifest. */
void printManifest(const JsonValue &manifest, std::ostream &os);

/**
 * Merge bench manifests into one trajectory document:
 * { schema: "mbavf-trajectory", version, entries: [ {name, manifest},
 * ... ] } with entries sorted by name for reproducible output.
 *
 * Two manifests whose deterministic content (everything outside
 * "phases" and "env" — the run id under the determinism contract) is
 * identical are the same run measured twice; merging both would
 * double-count it in any trajectory plot. The duplicate with the
 * lexically-later name is dropped, and when @p dropped is non-null a
 * "kept X, dropped Y" diagnostic per duplicate is appended to it.
 */
JsonValue mergeManifests(
    std::vector<std::pair<std::string, JsonValue>> manifests,
    std::vector<std::string> *dropped = nullptr);

} // namespace mbavf::obs

#endif // MBAVF_OBS_REPORT_HH
