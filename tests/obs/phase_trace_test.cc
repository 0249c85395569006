/**
 * @file
 * Phase timer and Chrome trace collector tests: enable-flag gating,
 * phase accumulation, and the trace export format Perfetto loads.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hh"
#include "obs/phase.hh"
#include "obs/trace.hh"

using namespace mbavf;

namespace
{

struct ObsClean
{
    ObsClean() { reset(); }
    ~ObsClean() { reset(); }

    static void
    reset()
    {
        obs::setTimingEnabled(false);
        obs::setTracingEnabled(false);
        obs::resetPhases();
        obs::resetTrace();
    }
};

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

} // namespace

TEST(PhaseTest, DisabledRecordsNothing)
{
    ObsClean clean;
    {
        obs::ObsPhase phase("test.phase");
    }
    EXPECT_TRUE(obs::phaseStats().empty());
    EXPECT_EQ(obs::traceEventCount(), 0u);
}

TEST(PhaseTest, TimerAccumulatesUnderName)
{
    ObsClean clean;
    obs::setTimingEnabled(true);
    for (int i = 0; i < 3; ++i)
        obs::ObsPhase phase("test.timer");
    auto stats = obs::phaseStats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].first, "test.timer");
    EXPECT_EQ(stats[0].second.count, 3u);
    EXPECT_GE(stats[0].second.seconds, 0.0);
    // Timing alone attaches no trace sink.
    EXPECT_EQ(obs::traceEventCount(), 0u);
}

TEST(PhaseTest, StatsSortedByName)
{
    ObsClean clean;
    obs::setTimingEnabled(true);
    obs::recordPhase("zz.last", 0.1);
    obs::recordPhase("aa.first", 0.2);
    obs::recordPhase("mm.mid", 0.3);
    auto stats = obs::phaseStats();
    ASSERT_EQ(stats.size(), 3u);
    EXPECT_EQ(stats[0].first, "aa.first");
    EXPECT_EQ(stats[1].first, "mm.mid");
    EXPECT_EQ(stats[2].first, "zz.last");
}

TEST(PhaseTest, ObsPhaseFeedsBothSinks)
{
    ObsClean clean;
    obs::setTimingEnabled(true);
    obs::setTracingEnabled(true);
    {
        obs::ObsPhase phase("test.both");
    }
    auto stats = obs::phaseStats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].first, "test.both");
    EXPECT_EQ(obs::traceEventCount(), 1u);
}

TEST(PhaseTest, ResetClearsTable)
{
    ObsClean clean;
    obs::setTimingEnabled(true);
    obs::recordPhase("test.reset", 1.0);
    ASSERT_FALSE(obs::phaseStats().empty());
    obs::resetPhases();
    EXPECT_TRUE(obs::phaseStats().empty());
}

TEST(TraceTest, ScopeRecordsWhenEnabled)
{
    ObsClean clean;
    obs::setTracingEnabled(true);
    {
        obs::TraceScope a("test.a");
        obs::TraceScope b("test.b");
    }
    EXPECT_EQ(obs::traceEventCount(), 2u);
    obs::resetTrace();
    EXPECT_EQ(obs::traceEventCount(), 0u);
}

TEST(TraceTest, WriteChromeTraceIsLoadableJson)
{
    ObsClean clean;
    obs::setTracingEnabled(true);
    {
        obs::TraceScope outer("test.outer");
        obs::TraceScope inner("test.inner");
    }
    const std::string path = tempPath("trace_test.json");
    std::string error;
    ASSERT_TRUE(obs::writeChromeTrace(path, error)) << error;

    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    obs::JsonValue doc;
    ASSERT_TRUE(obs::JsonValue::parse(buf.str(), doc, error)) << error;

    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::size_t slices = 0, meta = 0;
    for (const obs::JsonValue &ev : events->items()) {
        const obs::JsonValue *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->asString() == "X") {
            ++slices;
            EXPECT_NE(ev.find("name"), nullptr);
            EXPECT_NE(ev.find("ts"), nullptr);
            EXPECT_NE(ev.find("dur"), nullptr);
            EXPECT_NE(ev.find("pid"), nullptr);
            EXPECT_NE(ev.find("tid"), nullptr);
            const obs::JsonValue *dur = ev.find("dur");
            EXPECT_GE(dur->asDouble(), 0.0);
        } else if (ph->asString() == "M") {
            ++meta;
            const obs::JsonValue *name = ev.find("name");
            ASSERT_NE(name, nullptr);
            EXPECT_EQ(name->asString(), "thread_name");
        }
    }
    EXPECT_EQ(slices, 2u);
    EXPECT_GE(meta, 1u); // one thread_name per track used
    std::remove(path.c_str());
}

TEST(TraceTest, WriteFailsOnBadPath)
{
    ObsClean clean;
    std::string error;
    EXPECT_FALSE(obs::writeChromeTrace(
        "/nonexistent-dir-xyzzy/trace.json", error));
    EXPECT_FALSE(error.empty());
}
