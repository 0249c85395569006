/**
 * @file
 * Error protection schemes and their interaction with multi-bit
 * faults (paper Section V-A).
 *
 * A protection domain is the region of data covered by a single
 * element of the scheme (one parity or ECC word). A scheme defines
 * what happens when a fault of n flipped bits lands inside one
 * domain: corrected, detected (DUE), or undetected (SDC-capable).
 */

#ifndef MBAVF_CORE_PROTECTION_HH
#define MBAVF_CORE_PROTECTION_HH

#include <cstdint>
#include <memory>
#include <string>

namespace mbavf
{

/** The action a protection domain takes upon observing a fault. */
enum class FaultAction : std::uint8_t
{
    Corrected,
    Detected,
    Undetected,
};

/**
 * Abstract protection scheme: maps the number of flipped bits within
 * one protection domain to the domain's reaction, and reports its
 * check-bit area overhead for a given data-word size.
 */
class ProtectionScheme
{
  public:
    virtual ~ProtectionScheme() = default;

    /** Scheme name for reports. */
    virtual std::string name() const = 0;

    /** Reaction to @p flipped_bits simultaneous flips in one domain. */
    virtual FaultAction action(unsigned flipped_bits) const = 0;

    /** Check bits required to protect @p data_bits. */
    virtual unsigned checkBits(unsigned data_bits) const = 0;

    /** Fractional area overhead: checkBits / dataBits. */
    double
    areaOverhead(unsigned data_bits) const
    {
        return static_cast<double>(checkBits(data_bits)) / data_bits;
    }
};

/** No protection: every fault is undetected. */
class NoProtection : public ProtectionScheme
{
  public:
    std::string name() const override { return "none"; }
    FaultAction
    action(unsigned flipped_bits) const override
    {
        return flipped_bits == 0 ? FaultAction::Corrected
                                 : FaultAction::Undetected;
    }
    unsigned checkBits(unsigned) const override { return 0; }
};

/**
 * Even parity over the domain: detects any odd number of flips,
 * misses any even number.
 */
class ParityScheme : public ProtectionScheme
{
  public:
    std::string name() const override { return "parity"; }
    FaultAction
    action(unsigned flipped_bits) const override
    {
        if (flipped_bits == 0)
            return FaultAction::Corrected;
        return (flipped_bits % 2) ? FaultAction::Detected
                                  : FaultAction::Undetected;
    }
    unsigned checkBits(unsigned) const override { return 1; }
};

/**
 * Single-error-correct, double-error-detect Hamming code. Faults of
 * three or more bits exceed the code distance and may be silently
 * miscorrected, so they are modeled as undetected (the conservative
 * reading the paper uses for its 6x1/7x1 miscorrection discussion).
 */
class SecDedScheme : public ProtectionScheme
{
  public:
    std::string name() const override { return "SEC-DED"; }
    FaultAction
    action(unsigned flipped_bits) const override
    {
        if (flipped_bits <= 1)
            return FaultAction::Corrected;
        if (flipped_bits == 2)
            return FaultAction::Detected;
        return FaultAction::Undetected;
    }
    unsigned checkBits(unsigned data_bits) const override;
};

/** Double-error-correct, triple-error-detect code. */
class DecTedScheme : public ProtectionScheme
{
  public:
    std::string name() const override { return "DEC-TED"; }
    FaultAction
    action(unsigned flipped_bits) const override
    {
        if (flipped_bits <= 2)
            return FaultAction::Corrected;
        if (flipped_bits == 3)
            return FaultAction::Detected;
        return FaultAction::Undetected;
    }
    unsigned checkBits(unsigned data_bits) const override;
};

/**
 * Idealized strong detection (e.g. a CRC over the domain): detects
 * every fault, corrects none. Useful as an upper bound for
 * detection-oriented designs (Section VIII discussion).
 */
class CrcDetectScheme : public ProtectionScheme
{
  public:
    std::string name() const override { return "CRC"; }
    FaultAction
    action(unsigned flipped_bits) const override
    {
        return flipped_bits == 0 ? FaultAction::Corrected
                                 : FaultAction::Detected;
    }
    unsigned checkBits(unsigned) const override { return 8; }
};

/** Factory by name: none | parity | secded | dected | crc. */
std::unique_ptr<ProtectionScheme>
makeScheme(const std::string &name);

/** makeScheme() that returns null with the reason in @p error. */
std::unique_ptr<ProtectionScheme>
tryMakeScheme(const std::string &name, std::string &error);

} // namespace mbavf

#endif // MBAVF_CORE_PROTECTION_HH
