/**
 * @file
 * Set-associative write-back, write-allocate cache timing model.
 *
 * Caches here track tags, LRU state, and per-byte dirty masks; data
 * contents live in MainMemory (see memory.hh). A CacheListener
 * observes fills, reads, writes, and evictions with cycle timestamps
 * — the event stream the ACE analysis is built from.
 */

#ifndef MBAVF_MEM_CACHE_HH
#define MBAVF_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mbavf
{

/** Command of a memory request. */
enum class MemCmd : std::uint8_t { Read, Write };

/** One memory request, at most one cache line. */
struct MemRequest
{
    Addr addr = 0;
    unsigned size = 0;
    MemCmd cmd = MemCmd::Read;
    /** For reads: the dynamic definition the loaded value becomes. */
    DefId def = noDef;
    /** For writes: the static instruction producing the data. */
    InstrTag tag = noInstrTag;
};

/** Anything that can serve memory requests with a completion time. */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /** Serve @p req issued at @p now; returns completion cycle. */
    virtual Cycle access(const MemRequest &req, Cycle now) = 0;
};

/** Fixed-latency DRAM endpoint. */
class Dram : public MemLevel
{
  public:
    explicit Dram(Cycle latency) : latency_(latency) {}

    Cycle
    access(const MemRequest &, Cycle now) override
    {
        return now + latency_;
    }

  private:
    Cycle latency_;
};

/** Observer of one cache's microarchitectural events. */
class CacheListener
{
  public:
    virtual ~CacheListener() = default;

    /** A line was installed into (set, way) at cycle @p t. */
    virtual void onFill(unsigned set, unsigned way, Addr line_addr,
                        Cycle t) = 0;

    /** @p size bytes at @p addr were read from (set, way). */
    virtual void onRead(unsigned set, unsigned way, Addr addr,
                        unsigned size, Cycle t, DefId def) = 0;

    /**
     * @p size bytes at @p addr were written into (set, way). @p tag
     * is the static instruction that produced the written data
     * (noInstrTag when untracked).
     */
    virtual void onWrite(unsigned set, unsigned way, Addr addr,
                         unsigned size, Cycle t, InstrTag tag) = 0;

    /**
     * The line in (set, way) was evicted at @p t. @p dirty_bytes is a
     * per-byte mask (bit i = byte i of the line was dirty); nonzero
     * means the line was written back.
     */
    virtual void onEvict(unsigned set, unsigned way, Addr line_addr,
                         std::uint64_t dirty_bytes, Cycle t) = 0;
};

/**
 * Fan-out listener: forwards every event to two listeners (either
 * may be null). Lets a diagnostic recorder observe the same stream
 * an ACE probe consumes without the cache knowing about either.
 */
class CacheListenerTee : public CacheListener
{
  public:
    CacheListenerTee(CacheListener *first, CacheListener *second)
        : first_(first), second_(second)
    {}

    void
    onFill(unsigned set, unsigned way, Addr line_addr, Cycle t) override
    {
        if (first_)
            first_->onFill(set, way, line_addr, t);
        if (second_)
            second_->onFill(set, way, line_addr, t);
    }

    void
    onRead(unsigned set, unsigned way, Addr addr, unsigned size,
           Cycle t, DefId def) override
    {
        if (first_)
            first_->onRead(set, way, addr, size, t, def);
        if (second_)
            second_->onRead(set, way, addr, size, t, def);
    }

    void
    onWrite(unsigned set, unsigned way, Addr addr, unsigned size,
            Cycle t, InstrTag tag) override
    {
        if (first_)
            first_->onWrite(set, way, addr, size, t, tag);
        if (second_)
            second_->onWrite(set, way, addr, size, t, tag);
    }

    void
    onEvict(unsigned set, unsigned way, Addr line_addr,
            std::uint64_t dirty_bytes, Cycle t) override
    {
        if (first_)
            first_->onEvict(set, way, line_addr, dirty_bytes, t);
        if (second_)
            second_->onEvict(set, way, line_addr, dirty_bytes, t);
    }

  private:
    CacheListener *first_;
    CacheListener *second_;
};

/** Cache configuration. */
struct CacheParams
{
    std::string name = "cache";
    unsigned sets = 64;
    unsigned ways = 4;
    unsigned lineBytes = 64;
    Cycle hitLatency = 4;
};

/** Aggregate cache statistics. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

    double
    missRate() const
    {
        std::uint64_t total = hits + misses;
        return total ? static_cast<double>(misses) / total : 0.0;
    }
};

/**
 * Blocking set-associative cache with true-LRU replacement,
 * write-back write-allocate policy, and byte-granular dirty tracking.
 * Final, so that a Wave's L1 calls are direct rather than virtual.
 */
class Cache final : public MemLevel
{
  public:
    Cache(const CacheParams &params, MemLevel &next);

    /** Requests must not cross a line boundary. */
    Cycle access(const MemRequest &req, Cycle now) override;

    /** Write back and invalidate every line (kernel-end flush). */
    void flush(Cycle now);

    void setListener(CacheListener *listener) { listener_ = listener; }

    const CacheParams &params() const { return params_; }
    const CacheStats &stats() const { return stats_; }

    /** True when @p addr currently hits (no state change). */
    bool probe(Addr addr) const;

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t dirtyBytes = 0;
        std::uint64_t lruStamp = 0;
    };

    Line &line(unsigned set, unsigned way)
    {
        return lines_[std::size_t(set) * params_.ways + way];
    }

    const Line &line(unsigned set, unsigned way) const
    {
        return lines_[std::size_t(set) * params_.ways + way];
    }

    // Both sets and lineBytes are powers of two (checked in the
    // constructor), so indexing is shifts and masks.
    unsigned
    setOf(Addr addr) const
    {
        return static_cast<unsigned>(addr >> lineShift_) &
            (params_.sets - 1);
    }

    Addr tagOf(Addr addr) const { return addr >> tagShift_; }

    Addr
    lineAddrOf(Addr addr) const
    {
        return addr & ~Addr(params_.lineBytes - 1);
    }

    unsigned
    offsetOf(Addr addr) const
    {
        return static_cast<unsigned>(addr) & (params_.lineBytes - 1);
    }

    /** Base address of the line holding @p tag in @p set. */
    Addr
    lineAddrAt(Addr tag, unsigned set) const
    {
        return ((tag << (tagShift_ - lineShift_)) | set) << lineShift_;
    }

    /** Find the hit way, or -1. */
    int findWay(unsigned set, Addr tag) const;

    /** Choose the LRU victim way in @p set. */
    unsigned victimWay(unsigned set) const;

    CacheParams params_;
    unsigned lineShift_ = 0; ///< log2(lineBytes)
    unsigned tagShift_ = 0;  ///< log2(lineBytes) + log2(sets)
    MemLevel &next_;
    CacheListener *listener_ = nullptr;
    std::vector<Line> lines_;
    CacheStats stats_;
    std::uint64_t lruCounter_ = 0;
};

} // namespace mbavf

#endif // MBAVF_MEM_CACHE_HH
