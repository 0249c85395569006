#include "core/layout.hh"

#include "common/logging.hh"

namespace mbavf
{

namespace
{

/**
 * Cache data array, logical interleaving: one physical row per cache
 * line; column c belongs to check word (c mod I) of that line.
 */
class LogicalCacheArray : public PhysicalArray
{
  public:
    LogicalCacheArray(const CacheGeometry &geom, unsigned interleave)
        : geom_(geom), ileave_(interleave)
    {}

    std::uint64_t rows() const override { return geom_.numLines(); }
    std::uint64_t cols() const override { return geom_.lineBits(); }

    PhysBit
    at(std::uint64_t row, std::uint64_t col) const override
    {
        PhysBit b;
        b.container = row;
        b.bitInContainer = static_cast<std::uint32_t>(col);
        b.domain = row * ileave_ + (col % ileave_);
        return b;
    }

  private:
    CacheGeometry geom_;
    unsigned ileave_;
};

/**
 * Cache data array, way-physical interleaving: a physical row holds I
 * lines from different ways of the same set, bit-interleaved.
 */
class WayPhysicalCacheArray : public PhysicalArray
{
  public:
    WayPhysicalCacheArray(const CacheGeometry &geom, unsigned interleave)
        : geom_(geom), ileave_(interleave)
    {}

    std::uint64_t
    rows() const override
    {
        return std::uint64_t(geom_.sets) * (geom_.ways / ileave_);
    }

    std::uint64_t
    cols() const override
    {
        return std::uint64_t(geom_.lineBits()) * ileave_;
    }

    PhysBit
    at(std::uint64_t row, std::uint64_t col) const override
    {
        unsigned way_groups = geom_.ways / ileave_;
        unsigned set = static_cast<unsigned>(row / way_groups);
        unsigned group = static_cast<unsigned>(row % way_groups);
        unsigned way = group * ileave_ +
            static_cast<unsigned>(col % ileave_);
        PhysBit b;
        b.container = geom_.lineId(set, way);
        b.bitInContainer = static_cast<std::uint32_t>(col / ileave_);
        b.domain = b.container;
        return b;
    }

  private:
    CacheGeometry geom_;
    unsigned ileave_;
};

/**
 * Cache data array, index-physical interleaving: a physical row holds
 * I lines at adjacent set indices (same way), bit-interleaved.
 */
class IndexPhysicalCacheArray : public PhysicalArray
{
  public:
    IndexPhysicalCacheArray(const CacheGeometry &geom,
                            unsigned interleave)
        : geom_(geom), ileave_(interleave)
    {}

    std::uint64_t
    rows() const override
    {
        return std::uint64_t(geom_.sets / ileave_) * geom_.ways;
    }

    std::uint64_t
    cols() const override
    {
        return std::uint64_t(geom_.lineBits()) * ileave_;
    }

    PhysBit
    at(std::uint64_t row, std::uint64_t col) const override
    {
        unsigned set_group = static_cast<unsigned>(row / geom_.ways);
        unsigned way = static_cast<unsigned>(row % geom_.ways);
        unsigned set = set_group * ileave_ +
            static_cast<unsigned>(col % ileave_);
        PhysBit b;
        b.container = geom_.lineId(set, way);
        b.bitInContainer = static_cast<std::uint32_t>(col / ileave_);
        b.domain = b.container;
        return b;
    }

  private:
    CacheGeometry geom_;
    unsigned ileave_;
};

/** Vector register file array for both interleaving styles. */
class RegFileArray : public PhysicalArray
{
  public:
    RegFileArray(const RegFileGeometry &geom, RegInterleave style,
                 unsigned interleave)
        : geom_(geom), style_(style), ileave_(interleave)
    {}

    std::uint64_t
    rows() const override
    {
        return geom_.numContainers() / ileave_;
    }

    std::uint64_t
    cols() const override
    {
        return std::uint64_t(geom_.regBits) * ileave_;
    }

    PhysBit
    at(std::uint64_t row, std::uint64_t col) const override
    {
        unsigned slot, reg, lane;
        unsigned pick = static_cast<unsigned>(col % ileave_);
        if (style_ == RegInterleave::IntraThread) {
            // Row order: slot-major, then lane, then register group.
            unsigned reg_groups = geom_.numRegs / ileave_;
            std::uint64_t per_slot =
                std::uint64_t(geom_.numLanes) * reg_groups;
            slot = static_cast<unsigned>(row / per_slot);
            std::uint64_t rem = row % per_slot;
            lane = static_cast<unsigned>(rem / reg_groups);
            unsigned group = static_cast<unsigned>(rem % reg_groups);
            reg = group * ileave_ + pick;
        } else {
            // Row order: slot-major, then register, then lane group.
            unsigned lane_groups = geom_.numLanes / ileave_;
            std::uint64_t per_slot =
                std::uint64_t(geom_.numRegs) * lane_groups;
            slot = static_cast<unsigned>(row / per_slot);
            std::uint64_t rem = row % per_slot;
            reg = static_cast<unsigned>(rem / lane_groups);
            unsigned group = static_cast<unsigned>(rem % lane_groups);
            lane = group * ileave_ + pick;
        }
        PhysBit b;
        b.container = geom_.regId(slot, reg, lane);
        b.bitInContainer = static_cast<std::uint32_t>(col / ileave_);
        b.domain = b.container;
        return b;
    }

  private:
    RegFileGeometry geom_;
    RegInterleave style_;
    unsigned ileave_;
};

/** "@p what interleave @p interleave must divide @p noun @p count". */
std::string
divideError(const char *what, unsigned interleave, const char *noun,
            unsigned count)
{
    return std::string(what) + " interleave " +
           std::to_string(interleave) + " must divide " + noun + " " +
           std::to_string(count);
}

} // namespace

std::unique_ptr<PhysicalArray>
tryMakeCacheArray(const CacheGeometry &geom, CacheInterleave style,
                  unsigned interleave, std::string &error)
{
    if (interleave == 0) {
        error = "interleave factor must be >= 1";
        return nullptr;
    }
    if (style == CacheInterleave::Logical || interleave == 1)
        return std::make_unique<LogicalCacheArray>(geom, interleave);
    if (style == CacheInterleave::WayPhysical) {
        if (geom.ways % interleave != 0) {
            error = divideError("way-physical", interleave, "ways",
                                geom.ways);
            return nullptr;
        }
        return std::make_unique<WayPhysicalCacheArray>(geom, interleave);
    }
    if (geom.sets % interleave != 0) {
        error =
            divideError("index-physical", interleave, "sets", geom.sets);
        return nullptr;
    }
    return std::make_unique<IndexPhysicalCacheArray>(geom, interleave);
}

std::unique_ptr<PhysicalArray>
makeCacheArray(const CacheGeometry &geom, CacheInterleave style,
               unsigned interleave)
{
    std::string error;
    auto array = tryMakeCacheArray(geom, style, interleave, error);
    if (!array)
        fatal(error);
    return array;
}

std::unique_ptr<PhysicalArray>
tryMakeRegFileArray(const RegFileGeometry &geom, RegInterleave style,
                    unsigned interleave, std::string &error)
{
    if (interleave == 0) {
        error = "interleave factor must be >= 1";
        return nullptr;
    }
    if (style == RegInterleave::IntraThread &&
        geom.numRegs % interleave != 0) {
        error = divideError("intra-thread", interleave, "registers",
                            geom.numRegs);
        return nullptr;
    }
    if (style == RegInterleave::InterThread &&
        geom.numLanes % interleave != 0) {
        error = divideError("inter-thread", interleave, "lanes",
                            geom.numLanes);
        return nullptr;
    }
    return std::make_unique<RegFileArray>(geom, style, interleave);
}

std::unique_ptr<PhysicalArray>
makeRegFileArray(const RegFileGeometry &geom, RegInterleave style,
                 unsigned interleave)
{
    std::string error;
    auto array = tryMakeRegFileArray(geom, style, interleave, error);
    if (!array)
        fatal(error);
    return array;
}

bool
tryParseCacheInterleave(const std::string &name, CacheInterleave &style,
                        std::string &error)
{
    if (name == "logical")
        style = CacheInterleave::Logical;
    else if (name == "way")
        style = CacheInterleave::WayPhysical;
    else if (name == "index")
        style = CacheInterleave::IndexPhysical;
    else {
        error = "unknown cache interleave style '" + name + "'";
        return false;
    }
    return true;
}

CacheInterleave
parseCacheInterleave(const std::string &name)
{
    CacheInterleave style = CacheInterleave::Logical;
    std::string error;
    if (!tryParseCacheInterleave(name, style, error))
        fatal(error);
    return style;
}

std::string
cacheInterleaveName(CacheInterleave style)
{
    switch (style) {
      case CacheInterleave::Logical: return "logical";
      case CacheInterleave::WayPhysical: return "way-phys";
      case CacheInterleave::IndexPhysical: return "index-phys";
    }
    return "?";
}

} // namespace mbavf
