#include "core/lifetime_builder.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/check.hh"
#include "common/logging.hh"

namespace mbavf
{

WordLifetime
buildWordLifetime(const WordEventLog &log, Cycle end_time, unsigned width,
                  RelevanceTable relevance)
{
    WordLifetime out;
    const auto &events = log.events;
    if (events.empty())
        return out;

    const std::uint64_t all = lowMask(width);

    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i > 0 && events[i].time < events[i - 1].time)
            panic("WordEventLog out of time order");
        MBAVF_CHECK((events[i].mask & ~all) == 0, "event #", i,
                    " mask wider than the ", width, "-bit word");
    }

    // Forward tag prepass: tag_at[i] is the static instruction whose
    // write most recently defined the word among events[0..i]. The
    // segment emitted just after event i fires carries exactly that
    // producer; before the first write the cell holds untracked data
    // (noInstrTag).
    std::vector<InstrTag> tag_at(events.size());
    {
        InstrTag tag = noInstrTag;
        for (std::size_t i = 0; i < events.size(); ++i) {
            if (events[i].kind == WordEvent::Kind::Write)
                tag = events[i].tag;
            tag_at[i] = tag;
        }
    }

    // Backward pass. State masks describe the future as seen from just
    // before the segment being emitted: liveAhead(b) = a live
    // consumption of b happens before b is overwritten; readAhead(b) =
    // some read of the word happens before b is overwritten.
    std::uint64_t liveAhead = 0;
    std::uint64_t readAhead = 0;

    // Collect segments back-to-front, then reverse.
    std::vector<LifeSegment> rev;
    Cycle seg_end = std::max(end_time, events.back().time);

    for (std::size_t i = events.size(); i-- > 0;) {
        const WordEvent &e = events[i];
        if (e.time < seg_end) {
            rev.push_back({e.time, seg_end, liveAhead & all,
                           (liveAhead | readAhead) & all, tag_at[i]});
            seg_end = e.time;
        }
        switch (e.kind) {
          case WordEvent::Kind::Write:
            liveAhead &= ~e.mask;
            readAhead &= ~e.mask;
            break;
          case WordEvent::Kind::Read: {
            readAhead |= all;
            std::uint64_t consumed = e.mask;
            if (e.def != noDef) {
                const std::uint64_t rel = relevanceOf(relevance, e.def);
                if (e.exact)
                    consumed &= rel >> e.relShift;
                else if (!rel)
                    consumed = 0;
            }
            liveAhead |= consumed;
            break;
          }
        }
    }

    // Before the first event the cell holds the previous generation
    // (or garbage); a fault there is erased by the first write, so the
    // residual masks correctly describe it.
    if (events.front().time > 0) {
        rev.push_back({0, events.front().time, liveAhead & all,
                       (liveAhead | readAhead) & all});
    }

    for (std::size_t i = rev.size(); i-- > 0;)
        out.append(rev[i]);
    return out;
}

} // namespace mbavf
