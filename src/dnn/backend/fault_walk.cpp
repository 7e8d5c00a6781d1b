/**
 * @file
 * The fault walk of the vectorized backend's fault kernel (DESIGN.md
 * §12): given a region image, flip the staged words, drawing exactly
 * one bernoulli per faulty visited cell in ascending visit order — the
 * reference scalar loop's RNG stream.
 *
 * The walk goes round the image from the start position, one pass per
 * wrap, and reaches each pass's faulty cells through the image's
 * summary of nonzero words (PackedFaultMap::forEachFaulty), so its
 * cost follows the faulty visits rather than the staged bits. Visit j
 * is bit j & 15 of staged word j >> 4.
 *
 * This translation unit is generic (no SIMD flags): the walk is scalar
 * bit manipulation, and the inline Rng draws it calls must not be
 * emitted as COMDAT copies inside an AVX translation unit
 * (simd_comdat).
 */

#include <algorithm>

#include "dnn/backend/impl.hpp"

namespace vboost::dnn::detail {

std::uint64_t
stageRegionImage(std::span<std::int16_t> words, const FixedPointCodec &codec,
                 float *out, const sram::PackedFaultMap &region,
                 std::uint64_t start_bit, double flip_prob, Rng &rng,
                 DequantFn dequant)
{
    std::uint64_t flipped = 0;
    if (flip_prob > 0.0) {
        const std::uint64_t region_bits = region.regionBits();
        const std::uint64_t visits =
            16 * static_cast<std::uint64_t>(words.size());
        std::int16_t *const w = words.data();
        std::uint64_t pos = start_bit % region_bits;
        for (std::uint64_t j = 0; j < visits; pos = 0) {
            // This pass visits image bits [pos, pos + run): bit p is
            // visit j + (p - pos), computed mod 2^64.
            const std::uint64_t run =
                std::min(visits - j, region_bits - pos);
            const std::uint64_t first_visit = j - pos;
            region.forEachFaulty(pos, pos + run, [&](std::uint64_t p) {
                const std::uint64_t v = first_visit + p;
                const auto accept =
                    static_cast<unsigned>(rng.bernoulli(flip_prob));
                w[v >> 4] = static_cast<std::int16_t>(
                    static_cast<std::uint16_t>(w[v >> 4]) ^
                    (accept << (v & 15)));
                flipped += accept;
            });
            j += run;
        }
    }
    dequant(words, codec, out);
    return flipped;
}

} // namespace vboost::dnn::detail
