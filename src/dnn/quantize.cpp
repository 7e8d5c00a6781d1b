#include "dnn/quantize.hpp"

#include <algorithm>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "dnn/split.hpp"

namespace vboost::dnn {

namespace {

/**
 * codec.encode(src[i]) for every i, eight lanes at a time where SSE2
 * (the x86-64 baseline) is available. Bitwise the same as encode():
 * x * 2^frac is exact (a power-of-two scale), and adding then
 * subtracting 1.5 * 2^23 rounds any |y| < 2^22 to the nearest integer,
 * ties to even, which is std::nearbyint in the default rounding mode,
 * because the sum's ulp is 1 and 1.5 * 2^23 is even. Every larger |y|,
 * infinities included, lands beyond the int16 range with its sign and
 * hits the same clamps, after which the truncating conversion and the
 * saturating pack are exact.
 */
void
encodeAll(const float *src, std::int16_t *dst, std::size_t n,
          const FixedPointCodec &codec)
{
    std::size_t i = 0;
#if defined(__SSE2__)
    const __m128 scale = _mm_set1_ps(1.0f / codec.resolution());
    const __m128 magic = _mm_set1_ps(12582912.0f); // 1.5 * 2^23
    const __m128 hi = _mm_set1_ps(32767.0f);
    const __m128 lo = _mm_set1_ps(-32768.0f);
    const auto round_clamp = [&](const float *p) {
        const __m128 y = _mm_mul_ps(_mm_loadu_ps(p), scale);
        const __m128 r = _mm_sub_ps(_mm_add_ps(y, magic), magic);
        return _mm_cvttps_epi32(_mm_max_ps(_mm_min_ps(r, hi), lo));
    };
    for (; i + 8 <= n; i += 8)
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i),
                         _mm_packs_epi32(round_clamp(src + i),
                                         round_clamp(src + i + 4)));
#endif
    for (; i < n; ++i)
        dst[i] = codec.encode(src[i]);
}

} // namespace

FixedPointCodec
chooseCodec(const Tensor &t)
{
    // The max of per-range maxima is the max (exact, NaN-free): a
    // training split takes one range per part.
    const std::size_t n = t.numel();
    const float *x = t.data();
    const unsigned parts = splitParts(n, kMinElemsPerPart);
    std::vector<float> part_max(parts);
    float *const maxima = part_max.data();
    // Part p writes only maxima[p].
    parallelFor(parts, static_cast<int>(parts),
                [n, parts, x, maxima](std::size_t p, unsigned) {
                    const auto [begin, end] =
                        partRange(n, parts, static_cast<unsigned>(p));
                    maxima[p] = maxAbs(x + begin, end - begin);
                });
    float max_abs = 0.0f;
    for (float m : part_max)
        max_abs = std::max(max_abs, m);
    // Smallest number of integer bits whose range covers max_abs; no
    // wasted headroom bits (a flip in an unused top bit would be a
    // disproportionately large perturbation).
    int int_bits = 0;
    float range = 1.0f;
    while (range < max_abs && int_bits < 15) {
        range *= 2.0f;
        ++int_bits;
    }
    return FixedPointCodec(15 - int_bits);
}

QuantizedTensor
quantize(const Tensor &t)
{
    return quantize(t, chooseCodec(t));
}

QuantizedTensor
quantize(const Tensor &t, const FixedPointCodec &codec)
{
    if (t.numel() == 0)
        fatal("quantize: empty tensor");
    const std::size_t n = t.numel();
    QuantizedTensor q{std::vector<std::int16_t>(n), codec, t.shape()};
    const float *src = t.data();
    std::int16_t *dst = q.words.data();
    const unsigned parts = splitParts(n, kMinElemsPerPart);
    // Part p encodes only its element range.
    parallelFor(parts, static_cast<int>(parts),
                [n, parts, src, dst, &codec](std::size_t p, unsigned) {
                    const auto [begin, end] =
                        partRange(n, parts, static_cast<unsigned>(p));
                    encodeAll(src + begin, dst + begin, end - begin, codec);
                });
    return q;
}

Tensor
dequantize(const QuantizedTensor &q)
{
    // decode(raw) = float(raw) / 2^frac = float(raw) * 2^-frac, exact
    // either way: every int16 is a float, and a power-of-two scale
    // only moves the exponent (no int16 result is subnormal).
    Tensor t = Tensor::uninitialized(q.shape);
    const std::int16_t *src = q.words.data();
    float *dst = t.data();
    const std::size_t n = q.words.size();
    std::size_t i = 0;
#if defined(__SSE2__)
    const __m128 scale = _mm_set1_ps(q.codec.resolution());
    for (; i + 8 <= n; i += 8) {
        const __m128i raw =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(src + i));
        // Sign-extend: each int16 lands in the top half of a lane.
        const __m128i lo = _mm_srai_epi32(_mm_unpacklo_epi16(raw, raw), 16);
        const __m128i hi = _mm_srai_epi32(_mm_unpackhi_epi16(raw, raw), 16);
        _mm_storeu_ps(dst + i, _mm_mul_ps(_mm_cvtepi32_ps(lo), scale));
        _mm_storeu_ps(dst + i + 4, _mm_mul_ps(_mm_cvtepi32_ps(hi), scale));
    }
#endif
    for (; i < n; ++i)
        dst[i] = q.codec.decode(src[i]);
    return t;
}

Tensor
quantizeRoundTrip(const Tensor &t)
{
    return dequantize(quantize(t));
}

void
clipParameters(Network &net, float limit)
{
    if (limit <= 0.0f)
        fatal("clipParameters: limit must be positive");
    for (auto &p : net.params()) {
        for (std::size_t i = 0; i < p.value->numel(); ++i) {
            float &v = (*p.value)[i];
            v = std::clamp(v, -limit, limit);
        }
    }
}

} // namespace vboost::dnn
