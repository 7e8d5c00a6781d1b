/**
 * @file
 * Bit-packed fault maps (DESIGN.md §12): precompute 64 cells per word
 * of fault bits for one Monte-Carlo map at one fail probability,
 * instead of re-hashing every cell on every access.
 *
 * A packed map captures a *visit sequence* through the wrapped SRAM
 * region walked by the fault-injection staging loop: sequence bit j
 * corresponds to cell
 *
 *     region_base + (start_bit + j) mod region_bits,
 *
 * exactly the order `fi`'s staging visits cells. Packing hashes each
 * distinct visited cell once (the same counter-based hash
 * VulnerabilityMap uses, so packed bits are bitwise-identical to
 * per-cell isFaulty() answers by construction); a walk longer than
 * the region repeats with period region_bits, so its revisits are
 * filled by copying the first period's bits. Application then reduces
 * to mask extraction, so entire fault-free words are skipped with one
 * compare instead of 16-64 hash-and-threshold draws.
 *
 * A *region image* is the walk from start 0 over the first n <=
 * region_bits cells: bit p is cell region_base + p. Staging windows
 * that start anywhere in the region read it with maskWrapped(). A
 * walk packed from any start is itself a region image read from
 * position 0: bit j mod region_bits repeats visit j's cell.
 *
 * Packing also keeps a summary with one bit per nonzero packed word
 * (1/64 of the packed bits), so forEachFaulty() reaches the faulty
 * visits of a range at a cost that follows its faulty words, not its
 * length.
 */

#ifndef VBOOST_SRAM_PACKED_FAULT_MAP_HPP
#define VBOOST_SRAM_PACKED_FAULT_MAP_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sram/fault_map.hpp"

namespace vboost::sram {

/**
 * Fault bits for one wrapped-region visit sequence, 64 cells per word.
 * Immutable after construction; cheap to query from many threads.
 */
class PackedFaultMap
{
  public:
    /**
     * Pack the faults a wrapped walk will visit.
     *
     * @param map vulnerability map to pack.
     * @param region_base first cell of the physical region.
     * @param region_bits region size in cells (wrap modulus, > 0).
     * @param start_bit offset of the walk's first visit in the region.
     * @param num_bits visits to pack (may exceed region_bits: the walk
     *        then revisits cells, and the packed bits repeat with it).
     * @param fail_prob bit failure probability F(v).
     * @param parts participants the first period's packing splits
     *        across, by packed-word ranges (each word is a pure
     *        function of its cells, so the bits do not depend on it).
     */
    PackedFaultMap(const VulnerabilityMap &map, std::uint64_t region_base,
                   std::uint64_t region_bits, std::uint64_t start_bit,
                   std::uint64_t num_bits, double fail_prob,
                   unsigned parts = 1);

    /** Pack a linear (non-wrapping) run of cells starting at
     *  `base_cell`: bit j is cell base_cell + j (a bank's word masks,
     *  WordFaultMasks). */
    PackedFaultMap(const VulnerabilityMap &map, std::uint64_t base_cell,
                   std::uint64_t num_bits, double fail_prob);

    /** Number of visits packed. */
    std::uint64_t numBits() const { return numBits_; }

    /** Wrap modulus of the walk (region size in cells). */
    std::uint64_t regionBits() const { return regionBits_; }

    /** Is visit j's cell faulty? */
    bool test(std::uint64_t j) const
    {
        return (words_[j >> 6] >> (j & 63)) & 1u;
    }

    /**
     * Fault bits for visits [j, j+nbits), nbits in [1, 64]; bit b of
     * the result is visit j+b. Visits past numBits() read as zero.
     */
    std::uint64_t mask(std::uint64_t j, unsigned nbits) const;

    /**
     * Region-image read: bit b of the result is packed bit
     * (pos + b) mod regionBits(), nbits in [1, 64], pos below
     * regionBits(). Bits at positions past numBits() read as zero.
     */
    std::uint64_t maskWrapped(std::uint64_t pos, unsigned nbits) const
    {
        if (regionBits_ - pos >= nbits)
            return mask(pos, nbits);
        // Wraps (possibly several times, for regions under 64 cells).
        std::uint64_t out = 0;
        for (unsigned done = 0; done < nbits; pos = 0) {
            const auto piece = static_cast<unsigned>(std::min<std::uint64_t>(
                nbits - done, regionBits_ - pos));
            out |= mask(pos, piece) << done;
            done += piece;
        }
        return out;
    }

    /** Total faulty visits (popcount of the packed words). */
    std::uint64_t countFaulty() const;

    /** Packed words; bit b of word w is visit 64*w + b. */
    const std::vector<std::uint64_t> &words() const { return words_; }

    /** Bit b of element s is set when packed word 64*s + b is nonzero. */
    const std::vector<std::uint64_t> &summary() const { return summary_; }

    /**
     * Call f(j) for every faulty visit j in [lo, hi), in ascending
     * order (visits at or past numBits() are clear). Only the summary
     * and the packed words it marks are read.
     */
    template <class F>
    void
    forEachFaulty(std::uint64_t lo, std::uint64_t hi, F &&f) const
    {
        hi = std::min(hi, numBits_);
        if (lo >= hi)
            return;
        const std::uint64_t first = lo >> 6;
        const std::uint64_t last = (hi - 1) >> 6;
        for (std::uint64_t s = first >> 6; s <= last >> 6; ++s) {
            std::uint64_t live = summary_[s];
            if (s == first >> 6)
                live &= ~0ull << (first & 63);
            if (s == last >> 6)
                live &= ~0ull >> (63 - (last & 63));
            while (live != 0) {
                const std::uint64_t w =
                    64 * s + static_cast<unsigned>(std::countr_zero(live));
                live &= live - 1;
                std::uint64_t bits = words_[w];
                if (w == first)
                    bits &= ~0ull << (lo & 63);
                if (w == last)
                    bits &= ~0ull >> (63 - ((hi - 1) & 63));
                while (bits != 0) {
                    f(64 * w + static_cast<unsigned>(std::countr_zero(bits)));
                    bits &= bits - 1;
                }
            }
        }
    }

    /** True when packing ran on the AVX2 hash path (diagnostics; the
     *  packed bits are bitwise-identical either way). */
    static bool simdPackingActive();

  private:
    void pack(const VulnerabilityMap &map, std::uint64_t region_base,
              std::uint64_t region_bits, std::uint64_t start_bit,
              double fail_prob, unsigned parts);
    /** Pack visits [begin, end) of the first period, which start at
     *  region offset `start` and wrap at `region_bits`. */
    void packVisits(const VulnerabilityMap &map, std::uint64_t region_base,
                    std::uint64_t region_bits, std::uint64_t start,
                    double fail_prob, std::uint64_t begin, std::uint64_t end);
    /** OR `count` fault bits for cells [cell, cell+count) into the
     *  packed words at sequence position `bit_offset`. */
    void packRun(std::uint64_t stream_key, std::uint64_t threshold,
                 std::uint64_t cell, std::uint64_t count,
                 std::uint64_t bit_offset);
    /** Scalar run packer for clustered maps: per-cell isFaulty(), so
     *  stratum thresholds are honored (no raw-hash shortcut). */
    void packClusteredRun(const VulnerabilityMap &map, double fail_prob,
                          std::uint64_t cell, std::uint64_t count,
                          std::uint64_t bit_offset);
    void deposit(std::uint64_t bits, std::uint64_t bit_offset,
                 unsigned nbits);

    std::uint64_t numBits_ = 0;
    std::uint64_t regionBits_ = 0;
    std::vector<std::uint64_t> words_;
    std::vector<std::uint64_t> summary_;
};

/**
 * AVX2 packing kernel (packed_fault_map_simd.cpp): fault mask for the
 * 64 consecutive cells [cell, cell+64). Bitwise-identical to 64 scalar
 * cellHash-vs-threshold compares — the hash is exact integer
 * arithmetic either way. Only callable when simdPackingActive().
 */
std::uint64_t packMask64Avx2(std::uint64_t stream_key,
                             std::uint64_t threshold, std::uint64_t cell);

} // namespace vboost::sram

#endif // VBOOST_SRAM_PACKED_FAULT_MAP_HPP
