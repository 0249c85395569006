#include "mem/ref_index.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"

namespace mbavf
{

void
MemRefIndex::add(Addr addr, std::uint64_t size, Cycle t, DefId def,
                 bool is_load)
{
    if (finalized_)
        panic("MemRefIndex reference added after finalize()");
    const Addr end = addr + size;
    for (Addr a = addr; a < end;) {
        const Addr word = a / 4;
        const Addr stop = std::min(end, (word + 1) * 4);
        std::uint8_t bytes = 0;
        for (Addr b = a; b < stop; ++b)
            bytes |= std::uint8_t(1u << (b % 4));
        // Byte b of the access sits at bit 8 * (b - addr) of the
        // value, which wraps past byte 31 as the uint8 shift always
        // did; only loads with a definition read it.
        const auto shift = static_cast<std::uint8_t>(8 * (word * 4 - addr));
        refs_.push_back({word, t, def, shift, bytes, is_load});
        a = stop;
    }
}

void
MemRefIndex::addLoad(Addr addr, std::uint64_t size, Cycle t, DefId def)
{
    add(addr, size, t, def, true);
}

void
MemRefIndex::addStore(Addr addr, std::uint64_t size, Cycle t)
{
    add(addr, size, t, noDef, false);
}

void
MemRefIndex::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;

    // Bucket the log by word, keeping recording order within a word
    // (a counting sort: the words in play are few and dense).
    Addr words = 0;
    for (const Ref &r : refs_)
        words = std::max(words, r.word + 1);
    start_.assign(words + 1, 0);
    for (const Ref &r : refs_)
        ++start_[r.word + 1];
    for (Addr w = 0; w < words; ++w)
        start_[w + 1] += start_[w];
    std::vector<Ref> sorted(refs_.size());
    {
        std::vector<std::uint64_t> next(start_.begin(), start_.end() - 1);
        for (const Ref &r : refs_)
            sorted[next[r.word]++] = r;
    }
    refs_ = std::move(sorted);

    for (Addr w = 0; w < words; ++w) {
        const auto group = refs_.begin() + start_[w];
        const auto end = refs_.begin() + start_[w + 1];
        // Each byte's references, in recording order, must not go
        // back in time; then one stable sort by time orders the word
        // without reordering any byte's references.
        std::array<Cycle, 4> last{};
        std::uint8_t seen = 0;
        for (auto r = group; r != end; ++r) {
            for (unsigned b = 0; b < 4; ++b) {
                if ((r->bytes >> b & 1) == 0)
                    continue;
                if ((seen >> b & 1) != 0 && r->time < last[b]) {
                    panic("MemRefIndex ", r->isLoad ? "loads" : "stores",
                          " out of time order");
                }
                last[b] = r->time;
            }
            seen |= r->bytes;
        }
        std::stable_sort(group, end, [](const Ref &a, const Ref &b) {
            return a.time < b.time;
        });
    }
}

std::optional<ByteRef>
MemRefIndex::firstAfter(Addr addr, Cycle t) const
{
    if (!finalized_)
        panic("MemRefIndex queried before finalize()");
    const Addr word = addr / 4;
    if (word + 1 >= start_.size())
        return std::nullopt;
    const unsigned byte = static_cast<unsigned>(addr % 4);
    const auto end = refs_.begin() + start_[word + 1];
    auto it = std::lower_bound(
        refs_.begin() + start_[word], end, t,
        [](const Ref &r, Cycle c) { return r.time < c; });
    for (; it != end; ++it) {
        if ((it->bytes >> byte & 1) != 0) {
            return ByteRef{it->time, it->isLoad, it->def,
                           static_cast<std::uint8_t>(it->shift + 8 * byte)};
        }
    }
    return std::nullopt;
}

} // namespace mbavf
