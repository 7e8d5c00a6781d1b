/**
 * @file
 * AVX-512 GEMM inner kernels for the vectorized backend. Same bitwise
 * contract as vectorized.cpp (DESIGN.md §12): every output element
 * accumulates its products in ascending-k order, one product at a
 * time, with separate multiply and add instructions (no FMA; the TU
 * is additionally built with -ffp-contract=off). Masked loads/stores
 * handle row/column tails by touching exact element subsets, so the
 * result is bitwise-identical to the scalar reference on finite
 * inputs regardless of shape.
 *
 * This is the only translation unit compiled with -mavx512f; callers
 * must gate on avx512GemmAvailable(), which performs the runtime CPU
 * check.
 */

#include "dnn/backend/impl.hpp"

#if defined(VBOOST_HAVE_AVX512)

#include <algorithm>
#include <cstring>
#include <immintrin.h>
#include <vector>

namespace vboost::dnn::detail {

namespace {

/**
 * 8x32 micro-kernel: eight C rows x two zmm columns, sixteen resident
 * accumulators (AVX-512 has 32 vector registers). C is loaded,
 * accumulated and stored back, so K blocking preserves each element's
 * left-to-right addition chain.
 */
inline void
micro8x32(const float *a, int lda, const float *b, float *c, int ldc,
          int kb, int n)
{
    __m512 acc[8][2];
    for (int r = 0; r < 8; ++r) {
        acc[r][0] = _mm512_loadu_ps(c + static_cast<std::size_t>(r) * ldc);
        acc[r][1] =
            _mm512_loadu_ps(c + static_cast<std::size_t>(r) * ldc + 16);
    }
    const float *bp = b;
    for (int kk = 0; kk < kb; ++kk, bp += n) {
        const __m512 b0 = _mm512_loadu_ps(bp);
        const __m512 b1 = _mm512_loadu_ps(bp + 16);
        for (int r = 0; r < 8; ++r) {
            const __m512 av =
                _mm512_set1_ps(a[static_cast<std::size_t>(r) * lda + kk]);
            acc[r][0] = _mm512_add_ps(acc[r][0], _mm512_mul_ps(av, b0));
            acc[r][1] = _mm512_add_ps(acc[r][1], _mm512_mul_ps(av, b1));
        }
    }
    for (int r = 0; r < 8; ++r) {
        _mm512_storeu_ps(c + static_cast<std::size_t>(r) * ldc, acc[r][0]);
        _mm512_storeu_ps(c + static_cast<std::size_t>(r) * ldc + 16,
                         acc[r][1]);
    }
}

/** Masked tail micro-kernel: up to 8 rows x up to 16 columns. The
 *  mask picks the live columns; masked-off lanes are never read from
 *  or written to C. */
inline void
microMasked(const float *a, int lda, int rows, const float *b, float *c,
            int ldc, int kb, int n, __mmask16 mask)
{
    __m512 acc[8];
    for (int r = 0; r < rows; ++r)
        acc[r] = _mm512_maskz_loadu_ps(
            mask, c + static_cast<std::size_t>(r) * ldc);
    const float *bp = b;
    for (int kk = 0; kk < kb; ++kk, bp += n) {
        const __m512 bv = _mm512_maskz_loadu_ps(mask, bp);
        for (int r = 0; r < rows; ++r) {
            const __m512 av =
                _mm512_set1_ps(a[static_cast<std::size_t>(r) * lda + kk]);
            acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(av, bv));
        }
    }
    for (int r = 0; r < rows; ++r)
        _mm512_mask_storeu_ps(c + static_cast<std::size_t>(r) * ldc, mask,
                              acc[r]);
}

/**
 * Pack the full 32-column tiles of a B block into tile-contiguous
 * [tile][kk][32] layout so the micro-kernel streams 128-byte rows
 * instead of striding n floats (which thrashes the DTLB when n spans
 * a page). Packing only moves bytes — arithmetic order is untouched.
 */
inline void
packB(const float *bblk, int kb, int n, int tiles, float *pack)
{
    for (int t = 0; t < tiles; ++t) {
        const float *src = bblk + static_cast<std::size_t>(t) * 32;
        float *dst = pack + static_cast<std::size_t>(t) * kb * 32;
        // vblint: assoc-ok(pointer stride advance, not a float reduction)
        for (int kk = 0; kk < kb; ++kk, src += n, dst += 32) {
            _mm512_storeu_ps(dst, _mm512_loadu_ps(src));
            _mm512_storeu_ps(dst + 16, _mm512_loadu_ps(src + 16));
        }
    }
}

} // namespace

bool
avx512GemmAvailable()
{
    static const bool supported = __builtin_cpu_supports("avx512f");
    return supported;
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
                    // vblint: assoc-ok(integer chunk offset, not a float reduction)
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

void
gemmAvx512(const float *a, const float *b, float *c, int m, int k, int n,
           int ldb, int ldc, bool accumulate)
{
    if (!accumulate) {
        for (int i = 0; i < m; ++i)
            std::memset(c + static_cast<std::size_t>(i) * ldc, 0,
                        sizeof(float) * static_cast<std::size_t>(n));
    }
    // Cache blocking as in gemmAvx2: B column panels stay resident
    // while a K block streams through; C tiles re-load their partial
    // sums so each element still sums in globally ascending k.
    constexpr int kNC = 512;
    constexpr int kKC = 256;
    for (int j0 = 0; j0 < n; j0 += kNC) {
        const int nb = std::min(kNC, n - j0);
        for (int k0 = 0; k0 < k; k0 += kKC) {
            const int kb = std::min(kKC, k - k0);
            const float *bblk =
                b + static_cast<std::size_t>(k0) * ldb + j0;
            // Packing pays for itself once two or more row blocks
            // reuse the panel AND the unpacked row stride is large
            // enough (half a page or more) to pressure the DTLB;
            // small-stride panels are L2-resident and read fine
            // unpacked. The pack holds this panel's tiles only.
            const int tiles = (m >= 16 && ldb >= 512) ? nb / 32 : 0;
            float *bpack = nullptr;
            if (tiles > 0) {
                bpack = threadScratch(static_cast<std::size_t>(tiles) * kb *
                                      32);
                packB(bblk, kb, ldb, tiles, bpack);
            }
            for (int i0 = 0; i0 < m; i0 += 8) {
                const int rows = std::min(8, m - i0);
                const float *ablk =
                    a + static_cast<std::size_t>(i0) * k + k0;
                float *cblk = c + static_cast<std::size_t>(i0) * ldc + j0;
                int j = 0;
                if (rows == 8) {
                    for (; j + 32 <= nb; j += 32) {
                        if ((j >> 5) < tiles)
                            micro8x32(ablk, k,
                                      bpack +
                                          static_cast<std::size_t>(j >> 5) *
                                              kb * 32,
                                      cblk + j, ldc, kb, 32);
                        else
                            micro8x32(ablk, k, bblk + j, cblk + j, ldc, kb,
                                      ldb);
                    }
                }
                for (; j < nb; j += 16) {
                    const int cols = std::min(16, nb - j);
                    const __mmask16 mask =
                        static_cast<__mmask16>((1u << cols) - 1u);
                    microMasked(ablk, k, rows, bblk + j, cblk + j, ldc, kb,
                                ldb, mask);
                }
            }
        }
    }
}

} // namespace vboost::dnn::detail

#else // !VBOOST_HAVE_AVX512

#include "common/logging.hpp"

namespace vboost::dnn::detail {

bool
avx512GemmAvailable()
{
    return false;
}

void
gemmAvx512(const float *, const float *, float *, int, int, int, int, int,
           bool)
{
    fatal("gemmAvx512: called in a build without AVX-512 support");
}

void
im2colAvx512(const float *, const ConvGeom &, std::vector<float> &)
{
    fatal("im2colAvx512: called in a build without AVX-512 support");
}

} // namespace vboost::dnn::detail

#endif // VBOOST_HAVE_AVX512
