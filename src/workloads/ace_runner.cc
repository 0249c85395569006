#include "workloads/ace_runner.hh"

#include <functional>
#include <optional>

#include "common/parallel.hh"
#include "gpu/regfile_probe.hh"
#include "mem/cache_probe.hh"
#include "mem/ref_index.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"
#include "trace/dataflow.hh"

namespace mbavf
{

AceRun
runAceAnalysis(const std::string &workload_name,
               const AceRunOptions &options)
{
    const GpuConfig &config = options.config;
    const bool want_l1 = hasStore(options.stores, AceStore::L1);
    const bool want_l2 = hasStore(options.stores, AceStore::L2);
    const bool want_vgpr = hasStore(options.stores, AceStore::Vgpr);
    const bool want_per_cu = hasStore(options.stores, AceStore::VgprPerCu);

    AceRun out;
    out.workload = workload_name;
    out.config = config;

    // Only the cache probes read the program-order reference index;
    // it outlives the Gpu that records into it.
    MemRefIndex ref_index;
    Gpu gpu(config);
    if (want_l1 || want_l2)
        gpu.setRefIndex(&ref_index);

    const CacheGeometry l1_geom{config.l1.sets, config.l1.ways,
                                config.l1.lineBytes};
    std::optional<CacheAvfProbe> l1_probe;
    if (want_l1)
        l1_probe.emplace(l1_geom, ref_index);
    CacheListenerTee l1_tee(l1_probe ? &*l1_probe : nullptr, options.l1Tap);
    if (l1_probe || options.l1Tap)
        gpu.l1(0).setListener(&l1_tee);

    const CacheGeometry l2_geom{config.l2.sets, config.l2.ways,
                                config.l2.lineBytes};
    std::optional<CacheAvfProbe> l2_probe;
    if (want_l2) {
        l2_probe.emplace(l2_geom, ref_index);
        l2_probe->setResolveReadsViaRefIndex(true);
    }
    CacheListenerTee l2_tee(l2_probe ? &*l2_probe : nullptr, options.l2Tap);
    if (l2_probe || options.l2Tap)
        gpu.l2().setListener(&l2_tee);

    // VGPR probes for CUs [0, n): CU0's log feeds vgpr, vgprPerCu[0]
    // and the program capture.
    unsigned probed_cus = 0;
    if (want_per_cu)
        probed_cus = config.numCus;
    else if (want_vgpr || options.capture)
        probed_cus = 1;
    std::vector<std::unique_ptr<RegFileAvfProbe>> vgpr_probes;
    for (unsigned cu = 0; cu < probed_cus; ++cu) {
        vgpr_probes.push_back(
            std::make_unique<RegFileAvfProbe>(config.regs));
        gpu.regFile(cu).setListener(vgpr_probes.back().get());
    }

    if (!options.sampleCyclesAt.empty())
        gpu.sampleCyclesAt(options.sampleCyclesAt);

    {
        obs::ObsPhase phase("ace.sim");
        auto workload = makeWorkload(workload_name, options.scale);
        workload->run(gpu);
        gpu.finish();
    }

    out.horizon = gpu.horizon();
    out.instrs = gpu.instrCount();
    out.l1Stats = gpu.l1(0).stats();
    out.l2Stats = gpu.l2().stats();
    if (!options.sampleCyclesAt.empty()) {
        out.sampledCycles = gpu.sampledCycles();
        // Indices at or beyond the instruction count never fired;
        // the horizon bounds every lifetime, so it is the sound pad.
        out.sampledCycles.resize(options.sampleCyclesAt.size(),
                                 out.horizon);
    }

    // The backward pass: liveness over the dataflow graph, then each
    // probe resolves its recorded lifetimes against it. The probes
    // read only the relevance table, so the trace goes as soon as
    // liveness exists unless the capture takes it.
    std::optional<Liveness> liveness;
    {
        obs::ObsPhase phase("ace.liveness");
        liveness.emplace(gpu.dataflow());
    }
    out.numDefs = liveness->numDefs();
    out.numDeadDefs = liveness->numDead();
    if (options.capture)
        options.capture->dataflow = std::move(gpu.dataflow());
    gpu.dataflow().clear();

    static const obs::Counter defs_counter =
        obs::MetricsRegistry::global().counter("ace.defs");
    static const obs::Counter dead_counter =
        obs::MetricsRegistry::global().counter("ace.dead_defs");
    defs_counter.add(out.numDefs);
    dead_counter.add(out.numDeadDefs);

    {
        obs::ObsPhase phase("ace.backward");
        const Cycle horizon = out.horizon;
        const RelevanceTable relevance = liveness->relevances();
        ref_index.finalize();
        // The stores are independent, so each is one pool task; every
        // finalize fans out over its own containers in turn.
        std::vector<std::function<void()>> builds;
        if (want_l1) {
            builds.emplace_back([&] {
                out.l1 = l1_probe->finalize(horizon, relevance);
            });
        }
        if (want_vgpr) {
            builds.emplace_back([&] {
                out.vgpr = vgpr_probes[0]->finalize(horizon, relevance);
            });
        }
        if (want_l2) {
            builds.emplace_back([&] {
                out.l2 = l2_probe->finalize(horizon, relevance);
            });
        }
        if (want_per_cu) {
            out.vgprPerCu.assign(config.numCus,
                                 LifetimeStore(config.regs.regBits, 1));
            for (unsigned cu = 0; cu < config.numCus; ++cu) {
                builds.emplace_back([&, cu] {
                    out.vgprPerCu[cu] =
                        vgpr_probes[cu]->finalize(horizon, relevance);
                });
            }
        }
        runTasks(builds.size(), [&builds](std::size_t i) { builds[i](); });
    }
    if (options.capture)
        options.capture->vgprEvents = vgpr_probes[0]->takeLogs();
    return out;
}

AceRun
runAceAnalysis(const std::string &workload_name, unsigned scale,
               GpuConfig config, AceStore stores)
{
    AceRunOptions options;
    options.scale = scale;
    options.config = config;
    options.stores = stores;
    return runAceAnalysis(workload_name, options);
}

} // namespace mbavf
