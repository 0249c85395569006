#include "gpu/regfile_probe.hh"

#include <utility>
#include <vector>

#include "common/parallel.hh"

namespace mbavf
{

LifetimeStore
RegFileAvfProbe::finalize(Cycle horizon,
                          const LivenessResolver &live) const
{
    // Create the containers serially, in log order, so the store is
    // laid out the same at any pool width; each task then writes
    // only the words of its own registers.
    LifetimeStore store(geom_.regBits, 1);
    std::vector<std::pair<const WordEventLog *, WordLifetime *>> work;
    work.reserve(logs_.size());
    for (const auto &[container, log] : logs_)
        work.emplace_back(&log, &store.container(container).words[0]);

    parallelFor(0, work.size(), 64,
                [&](std::uint64_t begin, std::uint64_t end) {
                    for (std::uint64_t i = begin; i < end; ++i) {
                        const auto &[log, word] = work[i];
                        *word = buildWordLifetime(*log, horizon,
                                                  geom_.regBits, live);
                    }
                });
    return store;
}

} // namespace mbavf
