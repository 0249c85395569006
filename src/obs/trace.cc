#include "obs/trace.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <mutex>
#include <vector>

#include "common/parallel.hh"
#include "obs/json.hh"

namespace mbavf::obs
{

namespace detail
{
std::atomic<bool> tracingEnabledFlag{false};
} // namespace detail

namespace
{

struct TraceEvent
{
    const char *name;
    double startUs;
    double durUs;
    unsigned tid;
};

/**
 * Per-thread event buffer, registered with the global list on first
 * use. Buffers live until the process exits, so the writer can
 * snapshot a pool worker's events from any thread.
 */
struct Buffer
{
    std::mutex mutex; ///< taken by the owner per push and the writer
    std::vector<TraceEvent> events;
};

struct Collector
{
    std::mutex mutex;
    std::vector<Buffer *> buffers;
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
};

/**
 * Never destroyed: its list keeps every buffer reachable until the
 * process exits, so a leak checker at exit finds no lost allocation,
 * and a thread that still traces while static objects are destroyed
 * finds the list intact.
 */
Collector &
collector()
{
    static Collector *instance = new Collector();
    return *instance;
}

Buffer &
threadBuffer()
{
    thread_local Buffer *buffer = [] {
        auto *b = new Buffer();
        Collector &c = collector();
        std::lock_guard<std::mutex> lock(c.mutex);
        c.buffers.push_back(b);
        return b;
    }();
    return *buffer;
}

} // namespace

void
setTracingEnabled(bool enabled)
{
    detail::tracingEnabledFlag.store(enabled,
                                     std::memory_order_relaxed);
}

double
traceNowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() -
               collector().epoch)
        .count();
}

void
traceComplete(const char *name, double start_us, double dur_us)
{
    Buffer &buffer = threadBuffer();
    TraceEvent event{name, start_us, dur_us, parallelWorkerId()};
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.events.push_back(event);
}

bool
writeChromeTrace(const std::string &path, std::string &error)
{
    std::vector<TraceEvent> events;
    {
        Collector &c = collector();
        std::lock_guard<std::mutex> lock(c.mutex);
        for (Buffer *buffer : c.buffers) {
            std::lock_guard<std::mutex> bl(buffer->mutex);
            events.insert(events.end(), buffer->events.begin(),
                          buffer->events.end());
        }
    }
    std::sort(events.begin(), events.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  return a.startUs < b.startUs;
              });

    JsonValue doc = JsonValue::object();
    JsonValue list = JsonValue::array();
    unsigned last_tid = ~0u;
    for (const TraceEvent &event : events) {
        if (event.tid != last_tid) {
            last_tid = event.tid;
            // One thread_name metadata record per track so the
            // viewer labels pool workers.
            JsonValue meta = JsonValue::object();
            meta.set("ph", "M");
            meta.set("pid", std::uint64_t(1));
            meta.set("tid", std::uint64_t(event.tid));
            meta.set("name", "thread_name");
            JsonValue args = JsonValue::object();
            args.set("name",
                     event.tid == 0
                         ? std::string("main")
                         : "worker-" + std::to_string(event.tid));
            meta.set("args", std::move(args));
            list.push(std::move(meta));
        }
        JsonValue e = JsonValue::object();
        e.set("ph", "X");
        e.set("pid", std::uint64_t(1));
        e.set("tid", std::uint64_t(event.tid));
        e.set("name", event.name);
        e.set("ts", event.startUs);
        e.set("dur", event.durUs);
        list.push(std::move(e));
    }
    doc.set("traceEvents", std::move(list));
    doc.set("displayTimeUnit", "ms");

    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        error = "cannot open '" + path + "' for writing";
        return false;
    }
    os << doc.dump(1) << "\n";
    os.flush();
    if (!os) {
        error = "write to '" + path + "' failed";
        return false;
    }
    return true;
}

void
resetTrace()
{
    Collector &c = collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    for (Buffer *buffer : c.buffers) {
        std::lock_guard<std::mutex> bl(buffer->mutex);
        buffer->events.clear();
    }
}

std::size_t
traceEventCount()
{
    Collector &c = collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    std::size_t n = 0;
    for (Buffer *buffer : c.buffers) {
        std::lock_guard<std::mutex> bl(buffer->mutex);
        n += buffer->events.size();
    }
    return n;
}

} // namespace mbavf::obs
