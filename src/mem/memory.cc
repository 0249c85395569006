#include "mem/memory.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/trap.hh"

namespace mbavf
{

MainMemory::MainMemory(std::uint64_t size_bytes)
    : data_(size_bytes, 0)
{
    // origins_ is allocated lazily on the first real provenance
    // write: fault-injection runs never track provenance.
}

Addr
MainMemory::alloc(std::uint64_t bytes, std::uint64_t align)
{
    Addr base = (allocPtr_ + align - 1) / align * align;
    if (base + bytes > data_.size()) {
        fatal("MainMemory exhausted: need ", bytes, " at ", base,
              " of ", data_.size());
    }
    allocPtr_ = base + bytes;
    if (!origins_.empty() && origins_.size() < (allocPtr_ + 3) / 4)
        origins_.resize((allocPtr_ + 3) / 4, noDef);
    return base;
}

void
MainMemory::checkRange(Addr addr, unsigned size) const
{
    // Fault-reachable: a flipped address register can direct an
    // access anywhere. Trap instead of panicking so an injection
    // trial classifies Crash rather than aborting the process.
    if (addr + size > data_.size())
        simTrap(trapcode::memOob, "memory access out of range: ", addr,
                "+", size, " of ", data_.size());
}

std::uint8_t
MainMemory::read8(Addr addr) const
{
    checkRange(addr, 1);
    return data_[addr];
}

std::uint32_t
MainMemory::read32(Addr addr) const
{
    checkRange(addr, 4);
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= std::uint32_t(data_[addr + i]) << (8 * i);
    return v;
}

void
MainMemory::readBlock(Addr addr, std::uint64_t bytes,
                      std::vector<std::uint8_t> &out) const
{
    if (bytes == 0)
        return;
    if (addr + bytes > data_.size())
        simTrap(trapcode::memOob, "memory access out of range: ", addr,
                "+", bytes, " of ", data_.size());
    out.insert(out.end(), data_.begin() + addr,
               data_.begin() + addr + bytes);
}

void
MainMemory::write8(Addr addr, std::uint8_t value)
{
    checkRange(addr, 1);
    data_[addr] = value;
}

void
MainMemory::write32(Addr addr, std::uint32_t value)
{
    checkRange(addr, 4);
    for (unsigned i = 0; i < 4; ++i)
        data_[addr + i] = static_cast<std::uint8_t>(value >> (8 * i));
}

DefId
MainMemory::origin(Addr addr) const
{
    checkRange(addr, 1);
    const Addr word = addr / 4;
    return word < origins_.size() ? origins_[word] : noDef;
}

void
MainMemory::setOrigin(Addr addr, DefId def)
{
    checkRange(addr, 4);
    if (addr % 4 != 0)
        panic("setOrigin at unaligned address ", addr);
    const Addr word = addr / 4;
    if (word >= origins_.size()) {
        if (def == noDef)
            return; // an unrecorded word's origin is already noDef
        // Cover the allocated range; alloc() grows it from here on.
        origins_.resize(std::max(word + 1, (allocPtr_ + 3) / 4), noDef);
    }
    origins_[word] = def;
}

} // namespace mbavf
