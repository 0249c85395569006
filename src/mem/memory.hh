/**
 * @file
 * Flat functional main memory.
 *
 * Holds the simulated system's data contents plus per-word dataflow
 * provenance: which dynamic definition produced each aligned 32-bit
 * word (byte i of the word is byte i of that definition's value).
 * Every provenance write is a whole aligned word — wave stores trap
 * on unaligned addresses and host writes are word writes — so one
 * origin per word is exact. Caches model timing and residency only;
 * data always lives here, which keeps functional execution and fault
 * injection simple.
 */

#ifndef MBAVF_MEM_MEMORY_HH
#define MBAVF_MEM_MEMORY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mbavf
{

/** Flat byte-addressable memory with a bump allocator. */
class MainMemory
{
  public:
    explicit MainMemory(std::uint64_t size_bytes);

    std::uint64_t size() const { return data_.size(); }

    /** Allocate @p bytes aligned to @p align; fatal on exhaustion. */
    Addr alloc(std::uint64_t bytes, std::uint64_t align = 64);

    /** High-water mark of the bump allocator. */
    Addr allocatedBytes() const { return allocPtr_; }

    std::uint8_t read8(Addr addr) const;
    std::uint32_t read32(Addr addr) const;

    /** Bulk copy of [addr, addr+bytes) appended onto @p out. */
    void readBlock(Addr addr, std::uint64_t bytes,
                   std::vector<std::uint8_t> &out) const;

    void write8(Addr addr, std::uint8_t value);
    void write32(Addr addr, std::uint32_t value);

    /** Definition that produced the aligned word holding @p addr. */
    DefId origin(Addr addr) const;

    /**
     * Record that the aligned word at @p addr holds @p def's value.
     * @p addr must be word aligned (checked).
     */
    void setOrigin(Addr addr, DefId def);

    /** Host store of a 32-bit value (no provenance). */
    void
    hostWrite32(Addr addr, std::uint32_t value)
    {
        write32(addr, value);
        setOrigin(addr, noDef);
    }

  private:
    void checkRange(Addr addr, unsigned size) const;

    std::vector<std::uint8_t> data_;
    /**
     * One origin per word of the allocated range; empty until the
     * first tracked write, then grown with the bump allocator.
     */
    std::vector<DefId> origins_;
    Addr allocPtr_ = 0;
};

} // namespace mbavf

#endif // MBAVF_MEM_MEMORY_HH
