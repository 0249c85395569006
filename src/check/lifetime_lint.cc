#include "check/lifetime_lint.hh"

#include <string>

#include "common/bits.hh"

namespace mbavf
{

namespace
{

std::string
segmentLoc(const std::string &where, std::size_t index)
{
    std::string loc = where;
    loc += " segment ";
    loc += std::to_string(index);
    return loc;
}

// Built with += rather than an operator+ chain: g++ 12's -Wrestrict
// false-fires on concatenation chains involving to_string results.
std::string
describe(const LifeSegment &seg)
{
    std::string s = "[";
    s += std::to_string(seg.begin);
    s += ", ";
    s += std::to_string(seg.end);
    s += ")";
    return s;
}

} // namespace

void
lintWordLifetime(const WordLifetime &word, unsigned word_width,
                 const LifetimeLintOptions &opts,
                 const std::string &where, CheckReport &report)
{
    const std::uint64_t width_mask = lowMask(word_width);
    const auto &segs = word.segments();

    for (std::size_t i = 0; i < segs.size(); ++i) {
        const LifeSegment &seg = segs[i];

        if (seg.end < seg.begin) {
            report.error("lifetime.backwards", segmentLoc(where, i),
                         "segment " + describe(seg) + " runs backwards");
        } else if (seg.end == seg.begin) {
            report.error("lifetime.empty-segment", segmentLoc(where, i),
                         "segment " + describe(seg) + " is empty");
        }

        if (i > 0) {
            const LifeSegment &prev = segs[i - 1];
            if (seg.begin < prev.begin) {
                report.error("lifetime.unsorted", segmentLoc(where, i),
                             "segment " + describe(seg) +
                                 " begins before predecessor " +
                                 describe(prev));
            } else if (seg.begin < prev.end) {
                report.error("lifetime.overlap", segmentLoc(where, i),
                             "segment " + describe(seg) +
                                 " overlaps predecessor " +
                                 describe(prev));
            }
        }

        if (opts.horizon && seg.end > opts.horizon) {
            report.error("lifetime.horizon", segmentLoc(where, i),
                         "segment " + describe(seg) +
                             " extends past horizon " +
                             std::to_string(opts.horizon));
        }

        if ((seg.aceMask | seg.readMask) & ~width_mask) {
            report.error("lifetime.mask-width", segmentLoc(where, i),
                         "mask bits beyond word width " +
                             std::to_string(word_width));
        }

        if (seg.aceMask & ~seg.readMask) {
            report.error("lifetime.ace-not-read", segmentLoc(where, i),
                         "aceMask has bits outside readMask (AceLive "
                         "bits must be read out)");
        }
    }
}

} // namespace mbavf
