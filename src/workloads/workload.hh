/**
 * @file
 * Workload abstraction and registry.
 *
 * Each workload is a synthetic stand-in for one of the paper's
 * Rodinia / AMD APP SDK / Mantevo benchmarks (see DESIGN.md §3): it
 * allocates buffers, initializes inputs deterministically, launches
 * kernels on the GPU model, and registers its output ranges. The
 * caller drives gpu.finish() and the ACE analysis.
 */

#ifndef MBAVF_WORKLOADS_WORKLOAD_HH
#define MBAVF_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "gpu/gpu.hh"

namespace mbavf
{

/** A runnable benchmark. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /**
     * Execute to completion on @p gpu (allocate, launch all kernels,
     * register output ranges). Does not call gpu.finish().
     */
    virtual void run(Gpu &gpu) = 0;

    /**
     * Output buffer ranges for golden-output comparison in fault
     * injection campaigns; valid after run().
     */
    struct Range
    {
        Addr addr;
        std::uint64_t bytes;
    };

    const std::vector<Range> &outputs() const { return outputs_; }

  protected:
    /** Register an output range with both this record and the GPU. */
    void
    declareOutput(Gpu &gpu, Addr addr, std::uint64_t bytes)
    {
        outputs_.push_back({addr, bytes});
        gpu.addOutputRange(addr, bytes);
    }

    std::vector<Range> outputs_;
};

/**
 * Construct a workload by name. @p scale multiplies the default
 * problem size; 0 or 1 selects the default.
 *
 * Names: minife comd srad hotspot pathfinder scan_large_arrays dct
 * dwt_haar1d fast_walsh histogram matrix_transpose prefix_sum
 * recursive_gaussian matmul
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       unsigned scale = 1);

/** Whether makeWorkload() knows @p name. */
bool isWorkload(const std::string &name);

/** All registered workload names, in canonical order. */
const std::vector<std::string> &workloadNames();

/** The nine AMD APP SDK workloads used in the injection study. */
const std::vector<std::string> &appSdkWorkloadNames();

} // namespace mbavf

#endif // MBAVF_WORKLOADS_WORKLOAD_HH
