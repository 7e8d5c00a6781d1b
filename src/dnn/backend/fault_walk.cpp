/**
 * @file
 * The fault walk of the vectorized backend's fault kernel (DESIGN.md
 * §12): given a region image, flip the staged words, drawing exactly
 * one bernoulli per faulty visited cell in ascending visit order — the
 * reference scalar loop's RNG stream.
 *
 * Each 64-visit group (four staged 16-bit words) reads its fault mask
 * from the image and draws its flips with sram::drawFlips, the one
 * draw loop every faulty read shares, then XORs them into the four
 * words once; fault-free groups cost one compare.
 *
 * Inside a training split (dnn/split.hpp) a region-image walk splits
 * by group ranges: each part counts its faulty visits, the draws are
 * then made serially — the same draws, in the same order — into a bit
 * stream, and each part deposits its slice of the stream onto its own
 * faulty cells and decodes its words. Only the draws stay serial.
 *
 * This translation unit is generic (no SIMD flags): the walk is scalar
 * bit manipulation, and the inline Rng draws it calls must not be
 * emitted as COMDAT copies inside an AVX translation unit
 * (simd_comdat).
 */

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "common/thread_pool.hpp"
#include "dnn/backend/impl.hpp"
#include "dnn/split.hpp"
#include "sram/word_fault_masks.hpp"

namespace vboost::dnn::detail {

namespace {

/** XOR a 64-visit flip mask into up to four consecutive staged words
 *  (bit 16q + b is bit b of word q). */
inline void
xorGroup(std::int16_t *words, std::size_t nwords, std::uint64_t flip)
{
    if (nwords == 4) {
        // Four little-endian int16 words are one 64-bit lane group.
        std::uint64_t group;
        std::memcpy(&group, words, sizeof(group));
        group ^= flip;
        std::memcpy(words, &group, sizeof(group));
        return;
    }
    for (std::size_t q = 0; q < nwords; ++q)
        words[q] = static_cast<std::int16_t>(
            static_cast<std::uint16_t>(words[q]) ^
            static_cast<std::uint16_t>(flip >> (16 * q)));
}

/** Set bits of x, branch-free (generic x86-64 has no POPCNT). */
inline std::uint64_t
popcount64(std::uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return (x * 0x0101010101010101ull) >> 56;
}

/**
 * The region image's fault masks of a run of staged words, one per
 * 64-visit group: group g covers words 4g..4g+3 and visits from image
 * bit (start + 64 g) mod regionBits().
 */
class RegionGroups
{
  public:
    RegionGroups(const sram::PackedFaultMap &region, std::uint64_t start_bit,
                 std::size_t nwords)
        : region_(region), start_(start_bit % region.regionBits()),
          nwords_(nwords)
    {
    }

    std::size_t count() const { return (nwords_ + 3) / 4; }

    /** Image position of group g's first visit. */
    std::uint64_t
    posOf(std::size_t g) const
    {
        return (start_ + 64 * static_cast<std::uint64_t>(g) %
                             region_.regionBits()) %
               region_.regionBits();
    }

    /** Staged words in group g (4, fewer for the tail group). */
    std::size_t
    wordsOf(std::size_t g) const
    {
        return std::min<std::size_t>(4, nwords_ - 4 * g);
    }

    /** Fault mask of a group of `nwords` words starting at image
     *  position `pos`. */
    std::uint64_t
    mask(std::uint64_t pos, std::size_t nwords) const
    {
        if (nwords == 4 && pos + 64 <= region_.numBits()) {
            // Inside the image: one straddling read of two words.
            const std::uint64_t *packed = region_.words().data();
            const std::uint64_t i = pos >> 6;
            const unsigned shift = static_cast<unsigned>(pos & 63);
            return shift == 0 ? packed[i]
                              : (packed[i] >> shift) |
                                    (packed[i + 1] << (64 - shift));
        }
        return region_.maskWrapped(pos, static_cast<unsigned>(16 * nwords));
    }

    /** The position one group after `pos`. */
    std::uint64_t
    next(std::uint64_t pos) const
    {
        pos += 64;
        return pos >= region_.regionBits() ? pos % region_.regionBits()
                                           : pos;
    }

  private:
    const sram::PackedFaultMap &region_;
    std::uint64_t start_;
    std::size_t nwords_;
};

/** Words a split region walk gives each part at least. */
constexpr std::size_t kMinWalkWordsPerPart = std::size_t{1} << 15;

/** stageRegionImage split into `parts` group ranges (see the file
 *  comment). */
std::uint64_t
splitRegionWalk(std::span<std::int16_t> words, const FixedPointCodec &codec,
                float *out, const sram::PackedFaultMap &region,
                std::uint64_t start_bit, double flip_prob, Rng &rng,
                DequantFn dequant, unsigned parts)
{
    const RegionGroups groups(region, start_bit, words.size());
    const std::size_t ngroups = groups.count();
    std::int16_t *const w = words.data();

    // 1. Each part counts the faulty visits of its groups.
    std::vector<std::uint64_t> first_draw(parts + 1, 0);
    std::uint64_t *const counts = first_draw.data() + 1;
    // Part p writes only counts[p].
    parallelFor(parts, static_cast<int>(parts),
                [&groups, ngroups, parts, counts](std::size_t p, unsigned) {
                    const auto [g0, g1] = partRange(
                        ngroups, parts, static_cast<unsigned>(p));
                    std::uint64_t pos = groups.posOf(g0);
                    std::uint64_t n = 0;
                    for (std::size_t g = g0; g < g1; ++g) {
                        n += popcount64(groups.mask(pos, groups.wordsOf(g)));
                        pos = groups.next(pos);
                    }
                    counts[p] = n;
                });
    for (unsigned p = 0; p < parts; ++p)
        first_draw[p + 1] += first_draw[p];

    // 2. The serial part: every draw, in visit order, into a bit stream
    //    (draw i is bit i of the stream).
    const std::uint64_t total = first_draw[parts];
    std::vector<std::uint64_t> draws((total + 63) / 64, 0);
    std::uint64_t flipped = 0;
    for (std::uint64_t i = 0; i < total; i += 64) {
        const std::uint64_t n = std::min<std::uint64_t>(64, total - i);
        draws[i >> 6] = sram::drawFlips(n == 64 ? ~0ull : (1ull << n) - 1,
                                        flip_prob, rng, flipped);
    }

    // 3. Each part deposits its slice of the stream onto its faulty
    //    cells, then decodes its words. Part p writes only the words
    //    (and outputs) of its groups.
    const std::uint64_t *const stream = draws.data();
    const std::uint64_t *const firsts = first_draw.data();
    const std::size_t nwords = words.size();
    parallelFor(
        parts, static_cast<int>(parts),
        [&groups, &codec, ngroups, parts, nwords, w, out, stream, firsts,
         dequant](std::size_t p, unsigned) {
            const auto [g0, g1] =
                partRange(ngroups, parts, static_cast<unsigned>(p));
            std::uint64_t pos = groups.posOf(g0);
            std::uint64_t d = firsts[p];
            for (std::size_t g = g0; g < g1; ++g) {
                const std::size_t nw = groups.wordsOf(g);
                std::uint64_t faults = groups.mask(pos, nw);
                pos = groups.next(pos);
                if (faults == 0)
                    continue;
                std::uint64_t flip = 0;
                while (faults != 0) {
                    const int b = std::countr_zero(faults);
                    faults &= faults - 1;
                    flip |= ((stream[d >> 6] >> (d & 63)) & 1u) << b;
                    ++d;
                }
                xorGroup(w + 4 * g, nw, flip);
            }
            const std::size_t w0 = 4 * g0;
            const std::size_t w1 = std::min(nwords, 4 * g1);
            dequant(std::span<const std::int16_t>(w + w0, w1 - w0), codec,
                    out + w0);
        });
    return flipped;
}

} // namespace

std::uint64_t
stageRegionImage(std::span<std::int16_t> words, const FixedPointCodec &codec,
                 float *out, const sram::PackedFaultMap &region,
                 std::uint64_t start_bit, double flip_prob, Rng &rng,
                 DequantFn dequant)
{
    if (flip_prob <= 0.0) {
        dequant(words, codec, out);
        return 0;
    }
    const unsigned parts = splitParts(words.size(), kMinWalkWordsPerPart);
    if (parts > 1)
        return splitRegionWalk(words, codec, out, region, start_bit,
                               flip_prob, rng, dequant, parts);
    const RegionGroups groups(region, start_bit, words.size());
    std::uint64_t pos = groups.posOf(0);
    std::uint64_t flipped = 0;
    for (std::size_t g = 0; g < groups.count(); ++g) {
        const std::size_t nw = groups.wordsOf(g);
        const std::uint64_t m = groups.mask(pos, nw);
        pos = groups.next(pos);
        if (m != 0)
            xorGroup(words.data() + 4 * g, nw,
                     sram::drawFlips(m, flip_prob, rng, flipped));
    }
    dequant(words, codec, out);
    return flipped;
}

} // namespace vboost::dnn::detail
