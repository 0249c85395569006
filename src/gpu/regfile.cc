#include "gpu/regfile.hh"

namespace mbavf
{

VectorRegFile::VectorRegFile(const RegFileGeometry &geom)
    : geom_(geom), values_(geom.numContainers())
{
}

void
VectorRegFile::flipBits(unsigned slot, unsigned reg, unsigned lane,
                        std::uint32_t mask)
{
    values_[geom_.regId(slot, reg, lane)].bits ^= mask;
}

} // namespace mbavf
