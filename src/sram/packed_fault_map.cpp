#include "sram/packed_fault_map.hpp"

#include <bit>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "sram/cell_hash.hpp"

namespace vboost::sram {

namespace {

bool
avx2Available()
{
#if defined(VBOOST_HAVE_AVX2)
    static const bool ok = __builtin_cpu_supports("avx2");
    return ok;
#else
    return false;
#endif
}

} // namespace

bool
PackedFaultMap::simdPackingActive()
{
    return avx2Available();
}

PackedFaultMap::PackedFaultMap(const VulnerabilityMap &map,
                               std::uint64_t region_base,
                               std::uint64_t region_bits,
                               std::uint64_t start_bit,
                               std::uint64_t num_bits, double fail_prob,
                               unsigned parts)
    : numBits_(num_bits), regionBits_(region_bits)
{
    if (region_bits == 0)
        fatal("PackedFaultMap: empty region");
    words_.assign((num_bits + 63) / 64, 0);
    pack(map, region_base, region_bits, start_bit, fail_prob, parts);
    summary_.assign((words_.size() + 63) / 64, 0);
    for (std::size_t w = 0; w < words_.size(); ++w)
        summary_[w >> 6] |= static_cast<std::uint64_t>(words_[w] != 0)
                            << (w & 63);
}

PackedFaultMap::PackedFaultMap(const VulnerabilityMap &map,
                               std::uint64_t base_cell,
                               std::uint64_t num_bits, double fail_prob)
    : PackedFaultMap(map, base_cell,
                     num_bits == 0 ? 1 : num_bits, 0, num_bits, fail_prob)
{
}

void
PackedFaultMap::pack(const VulnerabilityMap &map, std::uint64_t region_base,
                     std::uint64_t region_bits, std::uint64_t start_bit,
                     double fail_prob, unsigned parts)
{
    if (detail::probThreshold(fail_prob) == 0)
        return; // no cell can be faulty; leave all bits clear
    // Every distinct cell is hashed once, in the first period of the
    // visit sequence. Parts own disjoint ranges of whole packed words,
    // so they never write the same word.
    const std::uint64_t period = std::min(numBits_, region_bits);
    const std::uint64_t start = start_bit % region_bits;
    const std::uint64_t period_words = (period + 63) / 64;
    parts = static_cast<unsigned>(
        std::max<std::uint64_t>(1, std::min<std::uint64_t>(parts,
                                                            period_words)));
    // Part p writes only the words of its visit range; map is const.
    parallelFor(parts, static_cast<int>(parts),
                [this, &map, region_base, region_bits, start, fail_prob,
                 period, period_words, parts](std::size_t p, unsigned) {
                    const std::uint64_t lo =
                        std::min(period, period_words * p / parts * 64);
                    const std::uint64_t hi = std::min(
                        period, period_words * (p + 1) / parts * 64);
                    packVisits(map, region_base, region_bits, start,
                               fail_prob, lo, hi);
                });
    // Visit j >= region_bits is the cell of visit j - region_bits:
    // copy the bits one period back. A chunk never reads bits it has
    // not yet written, since it spans at most one period.
    const auto chunk_max =
        static_cast<unsigned>(std::min<std::uint64_t>(64, region_bits));
    for (std::uint64_t j = period; j < numBits_;) {
        const auto chunk = static_cast<unsigned>(
            std::min<std::uint64_t>(chunk_max, numBits_ - j));
        deposit(mask(j - region_bits, chunk), j, chunk);
        j += chunk;
    }
}

void
PackedFaultMap::packVisits(const VulnerabilityMap &map,
                           std::uint64_t region_base,
                           std::uint64_t region_bits, std::uint64_t start,
                           double fail_prob, std::uint64_t begin,
                           std::uint64_t end)
{
    const std::uint64_t key = map.streamKey();
    const std::uint64_t thr = detail::probThreshold(fail_prob);
    // Split the visits into contiguous cell runs so packing can walk
    // consecutive cells (which the SIMD kernel exploits with an
    // incremental counter).
    std::uint64_t j = begin;
    std::uint64_t offset = (start + begin) % region_bits;
    while (j < end) {
        const std::uint64_t run = std::min(end - j, region_bits - offset);
        if (map.model() == MapModel::Iid) {
            packRun(key, thr, region_base + offset, run, j);
        } else {
            // Clustered maps mix per-stratum thresholds into the
            // per-cell decision; the raw hash-vs-threshold kernel
            // would silently reproduce the i.i.d. pattern. Go through
            // isFaulty() so packed bits stay bitwise-identical to the
            // scalar query path by construction.
            packClusteredRun(map, fail_prob, region_base + offset, run, j);
        }
        j += run;
        offset = 0; // every later run restarts at the region base
    }
}

void
PackedFaultMap::packClusteredRun(const VulnerabilityMap &map,
                                 double fail_prob, std::uint64_t cell,
                                 std::uint64_t count,
                                 std::uint64_t bit_offset)
{
    std::uint64_t done = 0;
    while (done < count) {
        const unsigned chunk =
            static_cast<unsigned>(std::min<std::uint64_t>(64, count - done));
        std::uint64_t m = 0;
        for (unsigned b = 0; b < chunk; ++b) {
            if (map.isFaulty(cell + done + b, fail_prob))
                m |= 1ull << b;
        }
        deposit(m, bit_offset + done, chunk);
        done += chunk;
    }
}

void
PackedFaultMap::packRun(std::uint64_t stream_key, std::uint64_t threshold,
                        std::uint64_t cell, std::uint64_t count,
                        std::uint64_t bit_offset)
{
    std::uint64_t done = 0;
    if (avx2Available()) {
        while (count - done >= 64) {
            const std::uint64_t m =
                packMask64Avx2(stream_key, threshold, cell + done);
            deposit(m, bit_offset + done, 64);
            done += 64;
        }
    }
    // Scalar path: also covers the sub-64-cell tail of the SIMD path.
    while (done < count) {
        const unsigned chunk =
            static_cast<unsigned>(std::min<std::uint64_t>(64, count - done));
        std::uint64_t m = 0;
        for (unsigned b = 0; b < chunk; ++b) {
            if (detail::cellHash(stream_key, cell + done + b) < threshold)
                m |= 1ull << b;
        }
        deposit(m, bit_offset + done, chunk);
        done += chunk;
    }
}

void
PackedFaultMap::deposit(std::uint64_t bits, std::uint64_t bit_offset,
                        unsigned nbits)
{
    if (nbits < 64)
        bits &= (1ull << nbits) - 1;
    const std::uint64_t w = bit_offset >> 6;
    const unsigned shift = static_cast<unsigned>(bit_offset & 63);
    words_[w] |= bits << shift;
    if (shift != 0 && shift + nbits > 64)
        words_[w + 1] |= bits >> (64 - shift);
}

std::uint64_t
PackedFaultMap::mask(std::uint64_t j, unsigned nbits) const
{
    if (nbits == 0 || nbits > 64)
        fatal("PackedFaultMap::mask: nbits must be in [1,64], got ", nbits);
    std::uint64_t out = 0;
    if (j < numBits_) {
        const std::uint64_t w = j >> 6;
        const unsigned shift = static_cast<unsigned>(j & 63);
        out = words_[w] >> shift;
        if (shift != 0 && w + 1 < words_.size())
            out |= words_[w + 1] << (64 - shift);
        // Clear bits past the packed range (the tail word may carry
        // garbage-free zeros already, but the straddle above can pull
        // in bits beyond numBits_ only when numBits_ % 64 != 0 and the
        // caller asks across the end; keep the contract explicit).
        if (numBits_ - j < 64 && nbits > numBits_ - j)
            out &= (1ull << (numBits_ - j)) - 1;
    }
    if (nbits < 64)
        out &= (1ull << nbits) - 1;
    return out;
}

std::uint64_t
PackedFaultMap::countFaulty() const
{
    std::uint64_t n = 0;
    for (std::uint64_t w : words_)
        n += static_cast<std::uint64_t>(std::popcount(w));
    return n;
}

} // namespace vboost::sram
