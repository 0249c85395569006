#include "analyze/attribution.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/lifetime_arena.hh"

namespace mbavf::analyze
{

double
AttributionResult::share(const TagContribution &c) const
{
    const Cycle total = cycles[0] + cycles[1] + cycles[2];
    return total ? static_cast<double>(c.total()) /
                       static_cast<double>(total)
                 : 0.0;
}

AttributionResult
attributeMbAvf(const PhysicalArray &array, const LifetimeStore &store,
               const ProtectionScheme &scheme, const FaultMode &mode,
               const MbAvfOptions &opt)
{
    // Offsets are normalized, so M columns from 0 in row 0 are Mx1.
    if (mode.maxDRow() != 0 ||
        static_cast<unsigned>(mode.maxDCol()) + 1 != mode.size()) {
        fatal("attribution supports Mx1 fault modes only, not ",
              mode.name());
    }

    // The kernel sweeps modes 1x1 .. Mx1 and charges the widest;
    // attribution ignores windows.
    MbAvfOptions whole_run = opt;
    whole_run.numWindows = 0;
    const LifetimeArena arena(store);
    TagCycles charges;
    computeMbAvfModes(array, arena, scheme, whole_run, mode.size(),
                      &charges);

    AttributionResult result;
    result.horizon = opt.horizon;
    result.numGroups = mode.numGroups(array.rows(), array.cols());
    result.perTag.reserve(charges.size());
    for (const auto &[tag, c] : charges) {
        result.perTag.push_back({tag, c});
        for (unsigned i = 0; i < 3; ++i)
            result.cycles[i] += c[i];
    }
    std::sort(result.perTag.begin(), result.perTag.end(),
              [](const TagContribution &a, const TagContribution &b) {
                  return a.tag < b.tag;
              });
    return result;
}

std::vector<KernelContribution>
rollupByKernel(const AttributionResult &attr)
{
    std::vector<KernelContribution> out;
    for (const TagContribution &c : attr.perTag) {
        const unsigned kernel = c.tag == noInstrTag
            ? KernelContribution::noKernel
            : tagKernel(c.tag);
        // perTag is tag-ordered, so equal kernels are adjacent.
        if (out.empty() || out.back().kernel != kernel) {
            KernelContribution kc;
            kc.kernel = kernel;
            out.push_back(kc);
        }
        for (unsigned i = 0; i < 3; ++i)
            out.back().cycles[i] += c.cycles[i];
    }
    return out;
}

std::string
checkConservation(const AttributionResult &attr,
                  const MbAvfResult &reference)
{
    if (attr.horizon != reference.horizon) {
        return "horizon mismatch: attribution " +
               std::to_string(attr.horizon) + ", reference " +
               std::to_string(reference.horizon);
    }
    if (attr.numGroups != reference.numGroups) {
        return "group count mismatch: attribution " +
               std::to_string(attr.numGroups) + ", reference " +
               std::to_string(reference.numGroups);
    }
    static const char *const class_names[3] = {"SDC", "trueDUE",
                                               "falseDUE"};
    std::array<Cycle, 3> resummed = {0, 0, 0};
    for (const TagContribution &c : attr.perTag) {
        for (unsigned i = 0; i < 3; ++i)
            resummed[i] += c.cycles[i];
    }
    for (unsigned i = 0; i < 3; ++i) {
        if (resummed[i] != attr.cycles[i]) {
            return std::string("internal ") + class_names[i] +
                   " sum drifted from the recorded column total: " +
                   std::to_string(resummed[i]) + " != " +
                   std::to_string(attr.cycles[i]);
        }
        if (attr.cycles[i] != reference.cycles[i]) {
            return std::string(class_names[i]) +
                   " not conserved: per-tag sum " +
                   std::to_string(attr.cycles[i]) +
                   " != reference total " +
                   std::to_string(reference.cycles[i]);
        }
    }
    return {};
}

} // namespace mbavf::analyze
