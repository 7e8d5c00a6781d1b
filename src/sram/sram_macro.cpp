#include "sram/sram_macro.hpp"

#include "common/logging.hpp"
#include "sram/packed_fault_map.hpp"
#include "sram/word_fault_masks.hpp"

namespace vboost::sram {

SramMacro::SramMacro(std::uint64_t cell_base)
    : cellBase_(cell_base), data_(kWords, 0)
{
}

void
SramMacro::checkAddr(std::uint32_t addr) const
{
    if (addr >= kWords)
        fatal("SramMacro: address ", addr, " out of range [0,", kWords, ")");
}

void
SramMacro::write(std::uint32_t addr, std::uint64_t data)
{
    checkAddr(addr);
    data_[addr] = data;
}

std::uint64_t
SramMacro::read(std::uint32_t addr, const VulnerabilityMap &map,
                FaultParams params, Rng &rng) const
{
    checkAddr(addr);
    std::uint64_t word = data_[addr];
    if (params.failProb <= 0.0 || params.flipProb <= 0.0)
        return word;
    const PackedFaultMap faults(map, cellIndex(addr, 0), kWordBits,
                                params.failProb);
    std::uint8_t no_check = 0;
    flipMasked(word, no_check, {faults.words()[0], 0}, params.flipProb,
               rng);
    return word;
}

std::uint64_t
SramMacro::peek(std::uint32_t addr) const
{
    checkAddr(addr);
    return data_[addr];
}

std::uint64_t
SramMacro::cellIndex(std::uint32_t addr, std::uint32_t bit) const
{
    checkAddr(addr);
    if (bit >= kWordBits)
        fatal("SramMacro::cellIndex: bit ", bit, " out of range");
    return cellBase_ + static_cast<std::uint64_t>(addr) * kWordBits + bit;
}

} // namespace vboost::sram
