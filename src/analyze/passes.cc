#include "analyze/passes.hh"

#include <map>
#include <set>
#include <vector>

#include "common/bits.hh"

namespace mbavf::analyze
{

std::string
tagWhere(InstrTag tag)
{
    if (tag == noInstrTag)
        return "untracked instruction";
    return "kernel " + std::to_string(tagKernel(tag)) + " pc " +
           std::to_string(tagPc(tag));
}

namespace
{

/** Per-static-instruction tally of one dataflow defect pattern. */
struct TagTally
{
    std::uint64_t instances = 0;
    std::uint64_t defective = 0;
};

} // namespace

void
lintDataflow(const DataflowLog &log, const Liveness &liveness,
             CheckReport &report)
{
    const std::uint64_t num_defs = log.size();

    // One forward pass marks every definition that some later
    // definition consumes; anchors (tag == noInstrTag) count as
    // consumers too — an address use keeps a value "used" even
    // though address anchors themselves are never flagged.
    std::vector<bool> used(num_defs, false);
    log.forEachSrc([&](DefId, const SrcUse &s) {
        if (s.def != noDef && s.def < num_defs)
            used[s.def] = true;
    });

    // Aggregate per static instruction: an instruction is broken
    // only when every dynamic instance shows the pattern. std::map
    // keys the report order by tag, so findings come out sorted.
    std::map<InstrTag, TagTally> dead;
    std::map<InstrTag, TagTally> masked;
    log.forEachDef([&](DefId d, InstrTag tag, std::uint32_t output) {
        if (tag == noInstrTag)
            return; // synthetic anchors are not instructions
        const bool consumed = used[d] || output != 0;
        TagTally &dt = dead[tag];
        ++dt.instances;
        if (!consumed)
            ++dt.defective;
        TagTally &mt = masked[tag];
        ++mt.instances;
        if (consumed && liveness.relevance(d) == 0)
            ++mt.defective;
    });

    for (const auto &[tag, tally] : dead) {
        if (tally.defective == tally.instances) {
            report.error(
                "flow.dead-def", tagWhere(tag),
                "all " + std::to_string(tally.instances) +
                    " value(s) this instruction produced are never "
                    "consumed and never reach program output");
        }
    }
    for (const auto &[tag, tally] : masked) {
        // Fully-dead instructions are flow.dead-def's finding; the
        // masked-output code is for values that ARE consumed yet can
        // never matter. Mixed consumed/unconsumed instances still
        // qualify when every consumed one is masked and none of the
        // unconsumed ones could rescue relevance (they have none).
        const TagTally &dt = dead.find(tag)->second;
        if (dt.defective == dt.instances)
            continue;
        const std::uint64_t consumed_instances =
            tally.instances - dt.defective;
        if (consumed_instances > 0 &&
            tally.defective == consumed_instances) {
            report.error(
                "flow.masked-output", tagWhere(tag),
                "all " + std::to_string(consumed_instances) +
                    " consumed value(s) of this instruction are "
                    "fully logic-masked: no produced bit can ever "
                    "affect program output");
        }
    }
}

void
lintRegisterEvents(
    const std::unordered_map<std::uint64_t, WordEventLog> &logs,
    const DataflowLog &dataflow, CheckReport &report)
{
    // flow.overwrite aggregates per writing instruction across every
    // register; flow.uninit-read reports per instance (one read of
    // never-written state is already a defect, and the per-code cap
    // bounds a systemic flood). Ordered containers keep the report
    // deterministic over the unordered log map.
    std::map<InstrTag, TagTally> writes;
    std::map<std::pair<InstrTag, std::uint64_t>, std::uint64_t>
        uninit;

    for (const auto &[container, log] : logs) {
        bool seen_write = false;
        const WordEvent *last_write = nullptr;
        bool read_since_write = false;
        for (const WordEvent &e : log.events) {
            if (e.kind == WordEvent::Kind::Write) {
                if (last_write && !read_since_write &&
                    (last_write->mask & ~e.mask) == 0 &&
                    last_write->tag != noInstrTag) {
                    ++writes[last_write->tag].defective;
                }
                if (e.tag != noInstrTag)
                    ++writes[e.tag].instances;
                last_write = &e;
                read_since_write = false;
                seen_write = true;
            } else {
                if (!seen_write) {
                    ++uninit[{dataflow.defTag(e.def), container}];
                }
                if (last_write && (e.mask & last_write->mask) != 0)
                    read_since_write = true;
            }
        }
    }

    for (const auto &[tag, tally] : writes) {
        if (tally.instances > 0 &&
            tally.defective == tally.instances) {
            report.error(
                "flow.overwrite", tagWhere(tag),
                "all " + std::to_string(tally.instances) +
                    " register write(s) this instruction made were "
                    "fully overwritten before any read");
        }
    }
    for (const auto &[key, count] : uninit) {
        report.error(
            "flow.uninit-read",
            tagWhere(key.first) + " register " +
                std::to_string(key.second),
            std::to_string(count) +
                " read(s) of this register before its first "
                "tracked write (uninitialized data consumed)");
    }
}

void
lintDomainCoverage(const PhysicalArray &array,
                   const LifetimeArena &arena,
                   const ProtectionScheme &scheme,
                   const DomainLintOptions &opt, CheckReport &report)
{
    // A scheme that never detects a single flip makes no protection
    // claim; there is no coverage to have gaps in.
    if (scheme.action(1) == FaultAction::Undetected)
        return;

    const std::uint64_t rows = array.rows();
    const std::uint64_t cols = array.cols();

    // domain.uncovered: a bit outside every protection domain whose
    // word holds ACE time is silently unprotected — a flip there is
    // invisible to the scheme yet can corrupt consumed data.
    for (std::uint64_t r = 0; r < rows; ++r) {
        for (std::uint64_t c = 0; c < cols; ++c) {
            const PhysBit pb = array.at(r, c);
            if (pb.domain != invalidDomain)
                continue;
            unsigned bit_in_word = 0;
            const std::uint32_t w = arena.findBit(
                pb.container, pb.bitInContainer, bit_in_word);
            if (w == LifetimeArena::noWord)
                continue;
            bool ace = false;
            for (std::uint32_t s = arena.offset(w);
                 s < arena.offset(w) + arena.count(w); ++s)
                ace |= bitAt(arena.masks()[s].ace, bit_in_word);
            if (!ace)
                continue;
            report.error(
                "domain.uncovered",
                "row " + std::to_string(r) + " col " +
                    std::to_string(c) + " (container " +
                    std::to_string(pb.container) + " bit " +
                    std::to_string(pb.bitInContainer) + ")",
                "bit with ACE time belongs to no protection domain "
                "of scheme " + scheme.name());
        }
    }

    // domain.mode-undetectable: place every contiguous wordline mode
    // up to the cover budget and count the flips each protection
    // domain absorbs; a count the scheme's action table misses is a
    // spatial-fault hole in an otherwise protective layout. One
    // finding per (mode, flip count) — every anchor repeating the
    // same interleave pattern would repeat the same finding.
    std::set<std::pair<unsigned, unsigned>> reported;
    std::vector<DomainId> domains;
    std::vector<unsigned> flips;
    for (unsigned m = 2; m <= opt.coverModes && m <= cols; ++m) {
        for (std::uint64_t r = 0; r < rows; ++r) {
            for (std::uint64_t c = 0; c + m <= cols; ++c) {
                domains.clear();
                flips.clear();
                for (unsigned i = 0; i < m; ++i) {
                    const PhysBit pb = array.at(r, c + i);
                    if (pb.domain == invalidDomain)
                        continue; // domain.uncovered's finding
                    std::size_t j = 0;
                    for (; j < domains.size(); ++j) {
                        if (domains[j] == pb.domain)
                            break;
                    }
                    if (j == domains.size()) {
                        domains.push_back(pb.domain);
                        flips.push_back(0);
                    }
                    ++flips[j];
                }
                for (std::size_t j = 0; j < domains.size(); ++j) {
                    if (scheme.action(flips[j]) !=
                        FaultAction::Undetected) {
                        continue;
                    }
                    if (!reported.insert({m, flips[j]}).second)
                        continue;
                    report.error(
                        "domain.mode-undetectable",
                        "mode " + std::to_string(m) +
                            "x1 anchor row " + std::to_string(r) +
                            " col " + std::to_string(c),
                        std::to_string(flips[j]) +
                            " simultaneous flip(s) land in one "
                            "protection domain, which scheme " +
                            scheme.name() + " cannot detect");
                }
            }
        }
    }
}

void
lintDomainCoverage(const PhysicalArray &array,
                   const LifetimeStore &store,
                   const ProtectionScheme &scheme,
                   const DomainLintOptions &opt, CheckReport &report)
{
    lintDomainCoverage(array, LifetimeArena(store), scheme, opt, report);
}

} // namespace mbavf::analyze
