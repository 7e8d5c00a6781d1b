/**
 * @file
 * Per-word fault masks and the one draw loop of every faulty read
 * (DESIGN.md §8, "Packed resilient reads").
 *
 * A read through a faulty array flips each faulty cell with the flip
 * probability p. Instead of asking the vulnerability map about every
 * cell on every read, a bank packs the faults of all its codewords once
 * per (map, fail probability) with PackedFaultMap — the 64 data cells
 * of each word plus the 8 SECDED check cells that protect it — and
 * keeps only the words that have a faulty cell. A read then looks its
 * word up and draws randomness for the set mask bits alone.
 */

#ifndef VBOOST_SRAM_WORD_FAULT_MASKS_HPP
#define VBOOST_SRAM_WORD_FAULT_MASKS_HPP

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sram/fault_map.hpp"

namespace vboost::sram {

/** Faulty cells of one codeword: bit b of `data` is data cell b, bit b
 *  of `check` is check cell b. */
struct WordMask
{
    std::uint64_t data = 0;
    std::uint8_t check = 0;

    bool empty() const { return data == 0 && check == 0; }
};

/**
 * The one draw loop of a faulty read: one rng.bernoulli(flip_prob)
 * per set bit of `faults`, in ascending bit order, even at flip_prob
 * 0. The accepted bits form the returned flip mask, built without
 * branching on the draws (flip |= accept << bit), and are counted into
 * `flipped` as a running sum (generic x86-64 has no popcount
 * instruction). Bank, ECC and resilient reads draw here through
 * flipMasked(), so a set mask bit is exactly one
 * `isFaulty(cell) && rng.bernoulli(p)` step of a per-cell loop.
 */
inline std::uint64_t
drawFlips(std::uint64_t faults, double flip_prob, Rng &rng,
          std::uint64_t &flipped)
{
    std::uint64_t flip = 0;
    while (faults != 0) {
        const int b = std::countr_zero(faults);
        faults &= faults - 1;
        const auto accept =
            static_cast<std::uint64_t>(rng.bernoulli(flip_prob));
        flip |= accept << b;
        flipped += accept;
    }
    return flip;
}

/**
 * Manifest one read of a codeword with drawFlips(): the data cells'
 * draws, then the check cells'. These are exactly the draws a
 * per-cell `isFaulty(cell) && rng.bernoulli(p)` loop over the data
 * cells and then the check cells makes, so the flip stream of a read
 * is unchanged by the packing.
 *
 * @return number of bits flipped.
 */
int flipMasked(std::uint64_t &data, std::uint8_t &check, WordMask mask,
               double flip_prob, Rng &rng);

/**
 * Sparse fault masks of `words` consecutive codewords. Word w's data
 * cells are data_base + 64w .. +63 and its check cells check_base + 8w
 * .. +7. Storage: a bitmap with one "has a faulty cell" bit per word,
 * the number of flagged words before each bitmap word, and the masks
 * of the flagged words only.
 */
class WordFaultMasks
{
  public:
    /** check_base value for memories without check cells: every
     *  check mask reads as zero. */
    static constexpr std::uint64_t kNoCheckCells = ~0ull;

    WordFaultMasks(const VulnerabilityMap &map, std::uint64_t data_base,
                   std::uint64_t check_base, std::uint32_t words,
                   double fail_prob);

    /** Mask of word `w` (w < words). */
    WordMask
    at(std::uint32_t w) const
    {
        const std::uint64_t flags = flagged_[w >> 6];
        const std::uint64_t bit = 1ull << (w & 63);
        if ((flags & bit) == 0)
            return {};
        const std::uint32_t i =
            rank_[w >> 6] +
            static_cast<std::uint32_t>(std::popcount(flags & (bit - 1)));
        return {dataMasks_[i], checkMasks_[i]};
    }

    /** Bit w % 64 of element w / 64: word w has a faulty cell. */
    const std::vector<std::uint64_t> &flagged() const { return flagged_; }

  private:
    std::vector<std::uint64_t> flagged_;
    std::vector<std::uint32_t> rank_;
    /** Masks of the flagged words, in word order (split so a flagged
     *  word costs 9 bytes, not a padded 16). */
    std::vector<std::uint64_t> dataMasks_;
    std::vector<std::uint8_t> checkMasks_;
};

} // namespace vboost::sram

#endif // VBOOST_SRAM_WORD_FAULT_MASKS_HPP
