#include "core/protection.hh"

#include "common/logging.hh"

namespace mbavf
{

namespace
{

/**
 * Minimum Hamming check bits r for single-error correction over k
 * data bits: smallest r with 2^r >= k + r + 1.
 */
unsigned
hammingCheckBits(unsigned data_bits)
{
    unsigned r = 1;
    while ((1ull << r) < data_bits + r + 1)
        ++r;
    return r;
}

} // namespace

unsigned
SecDedScheme::checkBits(unsigned data_bits) const
{
    // Hamming + one extra overall parity bit (Hsiao-equivalent cost):
    // 32 -> 7, 64 -> 8, 128 -> 9 check bits.
    return hammingCheckBits(data_bits) + 1;
}

unsigned
DecTedScheme::checkBits(unsigned data_bits) const
{
    // BCH DEC-TED cost: 2 * ceil(log2(n)) + 1; 128 data bits -> 17
    // check bits as quoted in the paper's introduction.
    unsigned r = 2 * hammingCheckBits(data_bits) + 1;
    return r;
}

std::unique_ptr<ProtectionScheme>
tryMakeScheme(const std::string &name, std::string &error)
{
    if (name == "none")
        return std::make_unique<NoProtection>();
    if (name == "parity")
        return std::make_unique<ParityScheme>();
    if (name == "secded")
        return std::make_unique<SecDedScheme>();
    if (name == "dected")
        return std::make_unique<DecTedScheme>();
    if (name == "crc")
        return std::make_unique<CrcDetectScheme>();
    error = "unknown protection scheme '" + name + "'";
    return nullptr;
}

std::unique_ptr<ProtectionScheme>
makeScheme(const std::string &name)
{
    std::string error;
    auto scheme = tryMakeScheme(name, error);
    if (!scheme)
        fatal(error);
    return scheme;
}

} // namespace mbavf
