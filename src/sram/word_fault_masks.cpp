#include "sram/word_fault_masks.hpp"

#include "sram/packed_fault_map.hpp"

namespace vboost::sram {

int
flipMasked(std::uint64_t &data, std::uint8_t &check, WordMask mask,
           double flip_prob, Rng &rng)
{
    std::uint64_t flips = 0;
    data ^= drawFlips(mask.data, flip_prob, rng, flips);
    check ^= static_cast<std::uint8_t>(
        drawFlips(mask.check, flip_prob, rng, flips));
    return static_cast<int>(flips);
}

WordFaultMasks::WordFaultMasks(const VulnerabilityMap &map,
                               std::uint64_t data_base,
                               std::uint64_t check_base,
                               std::uint32_t words, double fail_prob)
    : flagged_((words + 63) / 64, 0), rank_(flagged_.size(), 0)
{
    const PackedFaultMap data(map, data_base, std::uint64_t{words} * 64,
                              fail_prob);
    const bool has_check = check_base != kNoCheckCells;
    const PackedFaultMap check(map, has_check ? check_base : 0,
                               has_check ? std::uint64_t{words} * 8 : 0,
                               has_check ? fail_prob : 0.0);
    for (std::uint32_t w = 0; w < words; ++w) {
        WordMask m;
        m.data = data.words()[w];
        if (has_check)
            m.check = static_cast<std::uint8_t>(
                check.mask(std::uint64_t{w} * 8, 8));
        if (m.empty())
            continue;
        flagged_[w >> 6] |= 1ull << (w & 63);
        dataMasks_.push_back(m.data);
        checkMasks_.push_back(m.check);
    }
    // A bank keeps its tables while its map stays the same.
    dataMasks_.shrink_to_fit();
    checkMasks_.shrink_to_fit();
    std::uint32_t before = 0;
    for (std::size_t i = 0; i < flagged_.size(); ++i) {
        rank_[i] = before;
        before += static_cast<std::uint32_t>(std::popcount(flagged_[i]));
    }
}

} // namespace vboost::sram
