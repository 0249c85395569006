/**
 * @file
 * Fundamental scalar types shared across the mbavf library.
 */

#ifndef MBAVF_COMMON_TYPES_HH
#define MBAVF_COMMON_TYPES_HH

#include <cstdint>

namespace mbavf
{

/** Simulation time in cycles. */
using Cycle = std::uint64_t;

/** Byte address in the simulated flat memory. */
using Addr = std::uint64_t;

/** Identifier of a protection domain (ECC/parity word). */
using DomainId = std::uint64_t;

/** Invalid/absent domain marker. */
constexpr DomainId invalidDomain = ~DomainId(0);

/**
 * Identifier of a dynamic value definition in the dataflow trace. A
 * trace past 2^32 - 1 definitions is fatal (DataflowLog checks it).
 */
using DefId = std::uint32_t;

/** Marker for "no producing definition" (e.g., constants). */
constexpr DefId noDef = ~DefId(0);

/**
 * Packed identity of the static instruction that produced a value:
 * kernel launch id in the high 16 bits, wave-local program counter in
 * the low 16 bits. The attribution passes (src/analyze) use it to
 * walk MB-AVF contributions back to program locations.
 */
using InstrTag = std::uint32_t;

/** Marker for "no producing instruction" (fills, pre-run garbage). */
constexpr InstrTag noInstrTag = ~InstrTag(0);

/**
 * Pack (kernel launch id, wave-local pc) into an InstrTag. Both
 * fields saturate; the pc saturates one short of full so a saturated
 * tag can never collide with noInstrTag.
 */
constexpr InstrTag
makeInstrTag(unsigned kernel, unsigned pc)
{
    const InstrTag k = kernel < 0xFFFFu ? kernel : 0xFFFFu;
    const InstrTag p = pc < 0xFFFEu ? pc : 0xFFFEu;
    return (k << 16) | p;
}

/** Kernel launch id of @p tag. */
constexpr unsigned tagKernel(InstrTag tag) { return tag >> 16; }

/** Wave-local program counter of @p tag. */
constexpr unsigned tagPc(InstrTag tag) { return tag & 0xFFFFu; }

} // namespace mbavf

#endif // MBAVF_COMMON_TYPES_HH
