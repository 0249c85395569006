/**
 * @file
 * The block liveness pass against a per-definition oracle.
 *
 * The oracle is the per-definition backward pass the trace used
 * before it was recorded in blocks, run over DataflowLog's
 * per-definition view (numSrcs / src / outputMask, what lintDataflow
 * reads). Liveness must give every definition the oracle's relevance
 * and the same numDead(), on every workload and on small hand-written
 * kernels that exercise each block form: partial and nested exec
 * masks, divergent writes read under a full mask, select, the
 * value-dependent relevance of AND/OR/MUL/mad, loads of host data and
 * of stored words, and output stores. One kernel's expanded
 * per-register event logs are checked event by event.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "gpu/gpu.hh"
#include "gpu/regfile_probe.hh"
#include "gpu/wave.hh"
#include "trace/dataflow.hh"
#include "workloads/ace_runner.hh"
#include "workloads/workload.hh"

namespace mbavf
{
namespace
{

/** Per-definition backward liveness over @p log's per-def view. */
std::vector<std::uint32_t>
oracleRelevance(const DataflowLog &log)
{
    const std::uint64_t n = log.size();
    std::vector<std::uint32_t> rel(n);
    for (DefId d = 0; d < n; ++d)
        rel[d] = log.outputMask(d);
    for (std::uint64_t e = n; e-- > 0;) {
        const DefId def = static_cast<DefId>(e);
        const std::uint32_t rel_e = rel[def];
        if (!rel_e)
            continue;
        for (unsigned i = 0; i < log.numSrcs(def); ++i) {
            const SrcUse s = log.src(def, i);
            if (s.def == noDef || s.relevance == 0)
                continue;
            EXPECT_LT(s.def, def) << "source refers forward";
            rel[s.def] |= s.positional ? (s.relevance & rel_e)
                                       : s.relevance;
        }
    }
    return rel;
}

void
expectMatchesOracle(const DataflowLog &log)
{
    const Liveness live(log);
    const std::vector<std::uint32_t> want = oracleRelevance(log);
    ASSERT_EQ(live.numDefs(), want.size());
    std::uint64_t dead = 0;
    std::uint64_t mismatches = 0;
    for (DefId d = 0; d < want.size(); ++d) {
        dead += want[d] == 0;
        if (live.relevance(d) != want[d] && mismatches++ < 5) {
            ADD_FAILURE() << "def " << d << ": block pass "
                          << live.relevance(d) << ", oracle " << want[d];
        }
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(live.numDead(), dead);
}

class WorkloadOracle : public ::testing::TestWithParam<std::string>
{};

TEST_P(WorkloadOracle, BlockPassMatchesPerDefOracle)
{
    ProgramCapture capture;
    AceRunOptions options;
    options.stores = AceStore::L1;
    options.capture = &capture;
    const AceRun run = runAceAnalysis(GetParam(), options);
    ASSERT_GT(capture.dataflow.size(), 0u);
    EXPECT_EQ(run.numDefs, capture.dataflow.size());
    expectMatchesOracle(capture.dataflow);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadOracle,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

GpuConfig
smallGpu()
{
    GpuConfig cfg;
    cfg.numCus = 1;
    cfg.memBytes = 1 << 20;
    return cfg;
}

/** Run @p kernel on one wave; @p out is a 64-word output buffer. */
void
runKernel(const std::function<void(Wave &, Gpu &, Addr)> &kernel,
          RegFileListener *listener = nullptr)
{
    Gpu gpu(smallGpu());
    if (listener)
        gpu.regFile(0).setListener(listener);
    const Addr out = gpu.alloc(64 * 4);
    gpu.launch([&](Wave &w) { kernel(w, gpu, out); }, 1);
    gpu.finish();
    expectMatchesOracle(gpu.dataflow());
}

/** Store r@p reg of every active lane to out[lane] as output. */
void
emit(Wave &w, Addr out, unsigned reg, unsigned tmp)
{
    w.laneIdx(tmp);
    w.muli(tmp, tmp, 4);
    w.addi(tmp, tmp, static_cast<std::uint32_t>(out));
    w.storeOut(tmp, reg);
}

TEST(LivenessOracle, NestedPartialExecAndDivergentWrite)
{
    runKernel([](Wave &w, Gpu &, Addr out) {
        w.laneIdx(0);
        w.movi(2, 9);
        w.cmpLtui(1, 0, 40);
        w.pushExecNonzero(1);       // lanes 0-39
        w.addi(2, 0, 1);            // r2 of mixed origin from here
        w.cmpLtui(3, 0, 10);
        w.pushExecZero(3);          // lanes 10-39
        w.muli(2, 2, 3);
        w.addi(4, 2, 5);            // a partial read of a partial write
        w.popExec();
        w.popExec();
        w.add(5, 2, 0);             // full-mask read of a divergent write
        emit(w, out, 5, 6);
    });
}

TEST(LivenessOracle, SelectWithEqualOperands)
{
    runKernel([](Wave &w, Gpu &, Addr out) {
        w.laneIdx(0);
        w.andi(1, 0, 1);
        w.movi(2, 3);
        w.select(3, 1, 0, 0);       // a == b
        w.select(4, 1, 0, 2);       // per-lane taken operand
        w.select(5, 1, 1, 4);       // pred == a
        w.add(6, 3, 4);
        w.add(6, 6, 5);
        emit(w, out, 6, 7);
    });
}

TEST(LivenessOracle, ValueDependentRelevance)
{
    runKernel([](Wave &w, Gpu &, Addr out) {
        w.laneIdx(0);
        w.andi(1, 0, 0x0F);
        w.movi(2, 0xF0F0);
        w.and_(3, 2, 1);            // relevance per lane
        w.or_(4, 2, 0);
        w.mul(5, 1, 0);             // lane 0 multiplies by zero
        w.mad(6, 1, 0, 2);
        w.xor_(7, 3, 4);
        w.add(7, 7, 5);
        w.add(7, 7, 6);
        emit(w, out, 7, 8);
    });
}

TEST(LivenessOracle, LoadsOfHostDataAndStoredWords)
{
    runKernel([](Wave &w, Gpu &gpu, Addr out) {
        const Addr buf = gpu.alloc(64 * 4);
        for (unsigned i = 0; i < 64; i += 2)
            gpu.mem().hostWrite32(buf + i * 4, i * 7);
        w.laneIdx(0);
        w.muli(0, 0, 4);
        w.addi(1, 0, static_cast<std::uint32_t>(buf));
        w.cmpLtui(2, 0, 32 * 4);
        w.pushExecNonzero(2);       // lanes 0-31 store their word
        w.addi(3, 0, 11);
        w.store(1, 3);
        w.popExec();
        w.load(4, 1);               // stored words and host data
        w.load(5, 1, 4);            // a neighbour's word
        w.add(6, 4, 5);
        emit(w, out, 6, 7);
    });
}

/** Expected event fields of one register lane. */
struct Ev
{
    Cycle time;
    WordEvent::Kind kind;
    std::uint64_t mask;
    DefId def;
    bool exact;
    InstrTag tag;
};

void
expectEvents(const WordEventLog &log, const std::vector<Ev> &want)
{
    ASSERT_EQ(log.events.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE(i);
        const WordEvent &e = log.events[i];
        EXPECT_EQ(e.time, want[i].time);
        EXPECT_EQ(e.kind, want[i].kind);
        EXPECT_EQ(e.mask, want[i].mask);
        EXPECT_EQ(e.def, want[i].def);
        EXPECT_EQ(e.exact, want[i].exact);
        EXPECT_EQ(e.relShift, 0);
        EXPECT_EQ(e.tag, want[i].tag);
    }
}

TEST(LivenessOracle, ExpandedRegisterEventsMatchPerLaneOrder)
{
    // Four ALU instructions at cycles 0, 4, 8, 12; their blocks
    // define 0-63, 64-127, 128-191 and 192-255. Lanes 0 and 1 take
    // select's r0, the others its r1.
    RegFileAvfProbe probe(smallGpu().regs);
    runKernel(
        [](Wave &w, Gpu &, Addr) {
            w.movi(0, 7);
            w.laneIdx(1);
            w.cmpLtui(2, 1, 2);
            w.select(3, 2, 0, 1);
        },
        &probe);
    const auto logs = probe.takeLogs();
    const RegFileGeometry geom = smallGpu().regs;
    const auto at = [&](unsigned reg, unsigned lane) -> const WordEventLog & {
        return logs.at(geom.regId(0, reg, lane));
    };
    constexpr auto W = WordEvent::Kind::Write;
    constexpr auto R = WordEvent::Kind::Read;
    constexpr std::uint64_t all = 0xFFFFFFFFull;
    const InstrTag none = noInstrTag;

    expectEvents(at(0, 0), {{0, W, all, noDef, false, makeInstrTag(0, 0)},
                            {12, R, all, 192, false, none}});
    expectEvents(at(0, 5), {{0, W, all, noDef, false, makeInstrTag(0, 0)},
                            {12, R, 0, noDef, false, none}});
    expectEvents(at(1, 0), {{4, W, all, noDef, false, makeInstrTag(0, 1)},
                            {8, R, all, 128, false, none},
                            {12, R, 0, noDef, false, none}});
    expectEvents(at(1, 20), {{5, W, all, noDef, false, makeInstrTag(0, 1)},
                             {9, R, all, 148, false, none},
                             {13, R, all, 212, false, none}});
    expectEvents(at(2, 63), {{11, W, all, noDef, false, makeInstrTag(0, 2)},
                             {15, R, all, 255, false, none}});
    expectEvents(at(3, 17), {{13, W, all, noDef, false, makeInstrTag(0, 3)}});
    EXPECT_EQ(logs.size(), 4u * 64u);
}

TEST(LivenessOracle, OutOfRangeDefinitionsAreDead)
{
    DataflowLog log;
    const Liveness live(log);
    EXPECT_TRUE(live.relevances().empty());
    EXPECT_EQ(live.relevance(noDef), 0u);
}

} // namespace
} // namespace mbavf
