/**
 * @file
 * The AVX-512 tier of the vectorized backend: the GEMM template of
 * simd_gemm.hpp at 16-float width, and an expand-load im2col. Same
 * bitwise contract as vectorized.cpp (DESIGN.md §12); masked loads and
 * stores touch exact element subsets, so tails leave every other
 * element alone.
 *
 * This is the only translation unit compiled with -mavx512f; callers
 * must gate on avx512Gemm(), which performs the runtime CPU check.
 */

#include "dnn/backend/impl.hpp"

#if defined(VBOOST_HAVE_AVX512)

#include <algorithm>
#include <immintrin.h>
#include <vector>

#include "dnn/backend/simd_gemm.hpp"

namespace vboost::dnn::detail {

namespace {

/** AVX-512 traits of the GEMM template: 8 x 32 register tiles, sixteen
 *  accumulators of the thirty-two zmm registers. */
struct Avx512
{
    using Vec = __m512;
    using Mask = __mmask16;
    static constexpr int W = 16;
    static constexpr int MR = 8;
    static constexpr int NC = 512;
    static constexpr int KC = 256;

    static Vec load(const float *p) { return _mm512_loadu_ps(p); }
    static void store(float *p, Vec v) { _mm512_storeu_ps(p, v); }
    static Vec set1(float x) { return _mm512_set1_ps(x); }
    static Vec add(Vec x, Vec y) { return _mm512_add_ps(x, y); }
    static Vec mul(Vec x, Vec y) { return _mm512_mul_ps(x, y); }
    static Mask
    mask(int cols)
    {
        return static_cast<Mask>((1u << cols) - 1u);
    }
    static Vec
    maskLoad(Mask m, const float *p)
    {
        return _mm512_maskz_loadu_ps(m, p);
    }
    static void
    maskStore(float *p, Mask m, Vec v)
    {
        _mm512_mask_storeu_ps(p, m, v);
    }
};

const GemmKernels kAvx512Gemm{&simd::gemmForward<Avx512>,
                              &simd::gemmTransA<Avx512>};

} // namespace

const GemmKernels *
avx512Gemm()
{
    static const bool supported = __builtin_cpu_supports("avx512f");
    return supported ? &kAvx512Gemm : nullptr;
}

void
im2colAvx512(const float *image, const ConvGeom &g,
             std::vector<float> &cols)
{
    const int out_h = g.outH();
    const int out_w = g.outW();
    const std::size_t spatial = g.spatial();
    float *const out = resizeFloats(
        cols, static_cast<std::size_t>(g.patch()) * spatial);
    // Each cols row (one (c, ki, kj) patch element) is out_h segments
    // of out_w floats; within an output row the valid sources form a
    // contiguous interval of the input row, so a single fault-free
    // expand-load (reads exactly popcount(mask) floats from the first
    // valid element, zeroes the rest) plus one store moves each
    // 16-output segment. The masks depend only on kj and the segment,
    // not on oi, so they are hoisted out of the row loop.
    constexpr int kMaxSeg = 8; // out_w <= 128, enforced by the caller
    const int nseg = (out_w + 15) / 16;
    __mmask16 load_mask[kMaxSeg];
    __mmask16 store_mask[kMaxSeg];
    int src_off[kMaxSeg];
    const __m512 zero = _mm512_setzero_ps();
    std::size_t row = 0;
    for (int c = 0; c < g.inCh; ++c) {
        const float *chan = image + static_cast<std::size_t>(c) *
                                        static_cast<std::size_t>(g.h) *
                                        static_cast<std::size_t>(g.w);
        for (int ki = 0; ki < g.kernel; ++ki) {
            for (int kj = 0; kj < g.kernel; ++kj, ++row) {
                // Valid output columns: 0 <= oj + kj - pad < w.
                const int oj_lo = std::max(0, g.pad - kj);
                const int oj_hi = std::min(out_w, g.w + g.pad - kj);
                for (int s = 0; s < nseg; ++s) {
                    const int j = 16 * s;
                    const int len = std::min(16, out_w - j);
                    const int lo = std::max(0, oj_lo - j);
                    const int hi = std::min(len, oj_hi - j);
                    load_mask[s] =
                        hi > lo ? static_cast<__mmask16>(
                                      ((1u << hi) - 1u) & ~((1u << lo) - 1u))
                                : static_cast<__mmask16>(0);
                    store_mask[s] = static_cast<__mmask16>(
                        len == 16 ? 0xffffu : (1u << len) - 1u);
                    // Offset of the first valid source float; pinned to
                    // 0 for all-padding segments so the (zero-element)
                    // expand-load never forms an out-of-row pointer.
                    src_off[s] =
                        hi > lo ? std::max(j, oj_lo) + kj - g.pad : 0;
                }
                float *base = out + row * spatial;
                // Stride-matched fast path (out_w == w, every conv in
                // the repro): within the live rows, src and dst are
                // both flat streams — dst position p maps to source
                // chan[(ii_a + p/w)*w + (p%w) + kj - pad] = src[p] for
                // src = chan + ii_a*w + (kj - pad) — so whole planes
                // move as 16-lane chunks under a periodic column mask
                // (period w divides or is a multiple of 16 for
                // w in {8, 16, 32}). Masked-off (padding) lanes are
                // never accessed and come out as the +0.0 the scalar
                // expansion writes.
                if (out_w == g.w &&
                    (out_w == 8 || out_w == 16 || out_w == 32)) {
                    const int oi_a = std::max(0, g.pad - ki);
                    const int oi_b = std::min(out_h, g.h + g.pad - ki);
                    const auto zero_run = [&](float *p, std::size_t nz) {
                        std::size_t z = 0;
                        for (; z + 16 <= nz; z += 16)
                            _mm512_storeu_ps(p + z, zero);
                        if (z < nz)
                            _mm512_mask_storeu_ps(
                                p + z,
                                static_cast<__mmask16>((1u << (nz - z)) -
                                                       1u),
                                zero);
                    };
                    zero_run(base, static_cast<std::size_t>(oi_a) * out_w);
                    zero_run(base + static_cast<std::size_t>(oi_b) * out_w,
                             static_cast<std::size_t>(out_h - oi_b) *
                                 out_w);
                    if (oj_hi <= oj_lo) {
                        zero_run(base + static_cast<std::size_t>(oi_a) *
                                            out_w,
                                 static_cast<std::size_t>(oi_b - oi_a) *
                                     out_w);
                        continue;
                    }
                    __mmask16 pm[2];
                    pm[0] = out_w == 8
                                ? static_cast<__mmask16>(
                                      load_mask[0] |
                                      static_cast<unsigned>(load_mask[0])
                                          << 8)
                                : load_mask[0];
                    pm[1] = out_w == 32 ? load_mask[1] : pm[0];
                    const float *src =
                        chan +
                        static_cast<std::ptrdiff_t>(oi_a + ki - g.pad) *
                            g.w +
                        (kj - g.pad);
                    float *dst = base + static_cast<std::size_t>(oi_a) *
                                            out_w;
                    const std::size_t nflat =
                        static_cast<std::size_t>(oi_b - oi_a) * out_w;
                    std::size_t p = 0;
                    for (; p + 16 <= nflat; p += 16)
                        _mm512_storeu_ps(
                            dst + p, _mm512_maskz_loadu_ps(
                                         pm[(p >> 4) & 1], src + p));
                    if (p < nflat) {
                        const __mmask16 tail = static_cast<__mmask16>(
                            (1u << (nflat - p)) - 1u);
                        _mm512_mask_storeu_ps(
                            dst + p, tail,
                            _mm512_maskz_loadu_ps(
                                static_cast<__mmask16>(pm[(p >> 4) & 1] &
                                                       tail),
                                src + p));
                    }
                    continue;
                }
                for (int oi = 0; oi < out_h; ++oi) {
                    float *dst = base + static_cast<std::size_t>(oi) *
                                            static_cast<std::size_t>(out_w);
                    const int ii = oi + ki - g.pad;
                    if (ii < 0 || ii >= g.h) {
                        for (int s = 0; s < nseg; ++s)
                            _mm512_mask_storeu_ps(dst + 16 * s,
                                                  store_mask[s], zero);
                        continue;
                    }
                    const float *src_row =
                        chan + static_cast<std::size_t>(ii) *
                                   static_cast<std::size_t>(g.w);
                    for (int s = 0; s < nseg; ++s) {
                        // Interior segments (the bulk for k >= 3) are
                        // straight 16-float copies; only edge segments
                        // pay the expand-load. The branch is on a
                        // hoisted mask, so it predicts perfectly.
                        if (load_mask[s] == 0xffffu) {
                            _mm512_storeu_ps(
                                dst + 16 * s,
                                _mm512_loadu_ps(src_row + src_off[s]));
                            continue;
                        }
                        const __m512 v = _mm512_maskz_expandloadu_ps(
                            load_mask[s], src_row + src_off[s]);
                        _mm512_mask_storeu_ps(dst + 16 * s, store_mask[s],
                                              v);
                    }
                }
            }
        }
    }
}

} // namespace vboost::dnn::detail

#else // !VBOOST_HAVE_AVX512

#include "common/logging.hpp"

namespace vboost::dnn::detail {

const GemmKernels *
avx512Gemm()
{
    return nullptr;
}

void
im2colAvx512(const float *, const ConvGeom &, std::vector<float> &)
{
    fatal("im2colAvx512: called in a build without AVX-512 support");
}

} // namespace vboost::dnn::detail

#endif // VBOOST_HAVE_AVX512
