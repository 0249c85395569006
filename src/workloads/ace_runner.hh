/**
 * @file
 * End-to-end ACE analysis driver: run a workload on the GPU model
 * with probes attached, resolve liveness, and return the per-bit
 * lifetime stores that the MB-AVF engine consumes.
 */

#ifndef MBAVF_WORKLOADS_ACE_RUNNER_HH
#define MBAVF_WORKLOADS_ACE_RUNNER_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/lifetime.hh"
#include "core/lifetime_builder.hh"
#include "gpu/gpu.hh"
#include "mem/cache.hh"
#include "trace/dataflow.hh"
#include "workloads/workload.hh"

namespace mbavf
{

/**
 * Program-level artifacts of one instrumented run, captured for the
 * static-analysis passes (analyze/passes.hh): the full dataflow trace
 * and CU0's raw per-register event logs. Both are moved out of the
 * Gpu and the probe at the end of the run, which destroys them.
 */
struct ProgramCapture
{
    DataflowLog dataflow;
    std::unordered_map<std::uint64_t, WordEventLog> vgprEvents;
};

/**
 * Everything the AVF benches need from one instrumented run. Of the
 * lifetime stores, only those AceRunOptions::stores requested are
 * built; the others stay empty.
 */
struct AceRun
{
    std::string workload;
    GpuConfig config;
    Cycle horizon = 0;

    /** Per-bit lifetimes of CU0's L1 data array (AceStore::L1). */
    LifetimeStore l1;
    /** Per-bit lifetimes of CU0's vector register file (Vgpr). */
    LifetimeStore vgpr;
    /** Per-bit lifetimes of the shared L2 (AceStore::L2). */
    LifetimeStore l2;

    CacheStats l1Stats;
    CacheStats l2Stats;
    std::uint64_t numDefs = 0;
    std::uint64_t numDeadDefs = 0;
    /** Dynamic instructions the run executed. */
    std::uint64_t instrs = 0;

    /**
     * Per-CU VGPR lifetimes (AceStore::VgprPerCu), indexed by CU.
     * Container ids are CU-local regId()s, exactly like vgpr.
     */
    std::vector<LifetimeStore> vgprPerCu;

    /**
     * Cycles sampled at AceRunOptions::sampleCyclesAt instruction
     * indices, padded with the horizon for indices the run never
     * reached, so sampledCycles.size() == sampleCyclesAt.size().
     */
    std::vector<Cycle> sampledCycles;

    AceRun() : l1(8, 64), vgpr(32, 1), l2(8, 64) {}
};

/**
 * One lifetime store of an AceRun. AceRunOptions::stores is a set of
 * them, combined with |.
 */
enum class AceStore : unsigned
{
    L1 = 1u << 0,        ///< AceRun::l1, CU0's L1 data array
    Vgpr = 1u << 1,      ///< AceRun::vgpr, CU0's VGPR
    L2 = 1u << 2,        ///< AceRun::l2, the shared L2
    VgprPerCu = 1u << 3, ///< AceRun::vgprPerCu, every CU's VGPR
};

constexpr AceStore
operator|(AceStore a, AceStore b)
{
    return static_cast<AceStore>(static_cast<unsigned>(a) |
                                 static_cast<unsigned>(b));
}

/** True when the store set @p set includes @p store. */
constexpr bool
hasStore(AceStore set, AceStore store)
{
    return (static_cast<unsigned>(set) & static_cast<unsigned>(store)) ==
           static_cast<unsigned>(store);
}

/** Optional knobs for runAceAnalysis. */
struct AceRunOptions
{
    /** Problem-size multiplier (0/1 = default). */
    unsigned scale = 1;
    GpuConfig config = {};
    /**
     * Extra listeners tee'd with the ACE probes on CU0's L1 / the
     * shared L2; mbavf_lint hangs its event recorders here. May be
     * null. A tap observes its cache's events whether or not that
     * cache's store is requested.
     */
    CacheListener *l1Tap = nullptr;
    CacheListener *l2Tap = nullptr;
    /**
     * When non-null, receives the run's dataflow trace and CU0's raw
     * VGPR event logs for the program-analysis passes. CU0's VGPR is
     * probed for it even when no VGPR store is requested. May be
     * null.
     */
    ProgramCapture *capture = nullptr;
    /**
     * Dynamic-instruction indices (sorted ascending) whose begin
     * cycles to record into AceRun::sampledCycles.
     */
    std::vector<std::uint64_t> sampleCyclesAt;
    /**
     * The lifetime stores to build. Only their probes are attached
     * and finalized, and the program-order reference index is
     * recorded only for a cache store, so a run pays for what its
     * caller reads. The stratifier asks for VgprPerCu alone: waves
     * round-robin across CUs, so proving a site Unace on CU0 says
     * nothing about the same register on CU1.
     */
    AceStore stores = AceStore::L1 | AceStore::Vgpr;
};

/**
 * Run @p workload_name with ACE instrumentation and build the
 * lifetime stores @p options requests. The stores are finalized on
 * the shared pool (common/parallel.hh) and are identical at any
 * pool width.
 */
AceRun runAceAnalysis(const std::string &workload_name,
                      const AceRunOptions &options);

/** Convenience overload: default options but these. */
AceRun runAceAnalysis(const std::string &workload_name,
                      unsigned scale = 1, GpuConfig config = {},
                      AceStore stores = AceStore::L1 | AceStore::Vgpr);

} // namespace mbavf

#endif // MBAVF_WORKLOADS_ACE_RUNNER_HH
