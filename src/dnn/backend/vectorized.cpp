/**
 * @file
 * The AVX2 "vectorized" backend (DESIGN.md §12). Bitwise-identical to
 * the reference backend on finite inputs by construction:
 *
 *  - GEMM keeps the reference's per-element accumulation order
 *    (ascending k, one product added at a time). SIMD runs 8/16
 *    output columns in parallel, which reorders nothing within any
 *    single element's chain. Multiplies and adds stay separate
 *    instructions (no FMA — fused rounding differs); the TU is built
 *    with -ffp-contract=off as a backstop.
 *  - The reference's zero-skip (`if (aik == 0) continue`) is dropped
 *    rather than emulated: adding the skipped +/-0.0 products is an
 *    identity on every accumulator chain seeded from +0.0, because
 *    round-to-nearest never yields -0.0 from a +0.0 start.
 *  - gemmTransA keeps the skip, since its C may hold -0.0 (for which
 *    -0.0 + +0.0 is +0.0): each C row first gathers the k whose A
 *    entry is non-zero, then its column strips add exactly those
 *    products in ascending k.
 *  - gemmTransB's per-cell dot product is a GEMM chain seeded from
 *    +0.0 with no skip: it runs as the forward GEMM over a transposed
 *    copy of B into scratch, and the finished dots are then added to
 *    C.
 *  - im2col is pure element copies (memcpy + zero fill), so any
 *    implementation is bitwise-identical.
 *  - MaxPool/ReLU use MAXPS, which returns its second operand on ties
 *    and on NaN — exactly the reference's strict `>` comparisons; the
 *    pool's in-order max tournament picks the same earliest-maximal
 *    element (only observable for -0.0 vs +0.0 ties).
 *  - Fault application precomputes bit-packed fault masks
 *    (sram::PackedFaultMap, same counter-based hash, exact integer
 *    arithmetic) and consumes RNG once per faulty cell in ascending
 *    visit order — the exact draw sequence of the scalar loop. The
 *    walk itself lives in the generic fault_walk.cpp.
 *  - Dequantize multiplies by the exact power-of-two resolution
 *    2^-frac instead of dividing by 2^frac: both are exact (no int16
 *    word decodes to a subnormal), hence bitwise-equal.
 *
 * This translation unit is the only dnn code compiled with -mavx2;
 * the registry only exposes the backend after a runtime CPU check.
 */

#include "dnn/backend/impl.hpp"

#if defined(VBOOST_HAVE_AVX2)

#include <cstring>
#include <immintrin.h>

#include "sram/packed_fault_map.hpp"

namespace vboost::dnn {

namespace {

// ------------------------------------------------------------- GEMM

/**
 * Micro-kernel: one row of C over a 16-column strip, accumulating
 * A[i, k0:k0+kb) * B in ascending-k order. C is loaded, accumulated
 * in registers and stored back, so K blocking preserves each
 * element's left-to-right addition chain.
 */
inline void
micro1x16(const float *arow, const float *b, float *crow, int kb, int n)
{
    __m256 acc0 = _mm256_loadu_ps(crow);
    __m256 acc1 = _mm256_loadu_ps(crow + 8);
    const float *bp = b;
    for (int kk = 0; kk < kb; ++kk, bp += n) {
        const __m256 av = _mm256_set1_ps(arow[kk]);
        acc0 = _mm256_add_ps(acc0,
                             _mm256_mul_ps(av, _mm256_loadu_ps(bp)));
        acc1 = _mm256_add_ps(acc1,
                             _mm256_mul_ps(av, _mm256_loadu_ps(bp + 8)));
    }
    _mm256_storeu_ps(crow, acc0);
    _mm256_storeu_ps(crow + 8, acc1);
}

/** As micro1x16 for an 8-column strip. */
inline void
micro1x8(const float *arow, const float *b, float *crow, int kb, int n)
{
    __m256 acc = _mm256_loadu_ps(crow);
    const float *bp = b;
    for (int kk = 0; kk < kb; ++kk, bp += n)
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(arow[kk]),
                               _mm256_loadu_ps(bp)));
    _mm256_storeu_ps(crow, acc);
}

/**
 * 4x16 register-tiled micro-kernel: four C rows x two ymm columns,
 * eight resident accumulators. Same per-element chain as micro1x16.
 */
inline void
micro4x16(const float *a0, const float *a1, const float *a2,
          const float *a3, const float *b, float *c0, float *c1,
          float *c2, float *c3, int kb, int n)
{
    __m256 r00 = _mm256_loadu_ps(c0), r01 = _mm256_loadu_ps(c0 + 8);
    __m256 r10 = _mm256_loadu_ps(c1), r11 = _mm256_loadu_ps(c1 + 8);
    __m256 r20 = _mm256_loadu_ps(c2), r21 = _mm256_loadu_ps(c2 + 8);
    __m256 r30 = _mm256_loadu_ps(c3), r31 = _mm256_loadu_ps(c3 + 8);
    const float *bp = b;
    for (int kk = 0; kk < kb; ++kk, bp += n) {
        const __m256 b0 = _mm256_loadu_ps(bp);
        const __m256 b1 = _mm256_loadu_ps(bp + 8);
        __m256 av = _mm256_set1_ps(a0[kk]);
        r00 = _mm256_add_ps(r00, _mm256_mul_ps(av, b0));
        r01 = _mm256_add_ps(r01, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a1[kk]);
        r10 = _mm256_add_ps(r10, _mm256_mul_ps(av, b0));
        r11 = _mm256_add_ps(r11, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a2[kk]);
        r20 = _mm256_add_ps(r20, _mm256_mul_ps(av, b0));
        r21 = _mm256_add_ps(r21, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a3[kk]);
        r30 = _mm256_add_ps(r30, _mm256_mul_ps(av, b0));
        r31 = _mm256_add_ps(r31, _mm256_mul_ps(av, b1));
    }
    _mm256_storeu_ps(c0, r00);
    _mm256_storeu_ps(c0 + 8, r01);
    _mm256_storeu_ps(c1, r10);
    _mm256_storeu_ps(c1 + 8, r11);
    _mm256_storeu_ps(c2, r20);
    _mm256_storeu_ps(c2 + 8, r21);
    _mm256_storeu_ps(c3, r30);
    _mm256_storeu_ps(c3 + 8, r31);
}

/** Scalar column tail, ascending k like every other path. */
inline void
microScalar(const float *arow, const float *b, float *crow, int kb,
            int jb, int n)
{
    for (int j = 0; j < jb; ++j) {
        float cv = crow[j];
        const float *bp = b + j;
        // vblint: assoc-ok(pointer stride advance, not a float reduction)
        for (int kk = 0; kk < kb; ++kk, bp += n)
            cv += arow[kk] * *bp; // vblint: assoc-ok(ascending-k chain pinned by the backend bitwise contract, §12)
        crow[j] = cv;
    }
}

void gemmAvx2(const float *a, const float *b, float *c, int m, int k,
              int n, int ldb, int ldc, bool accumulate);

/** Widest bitwise-safe GEMM this CPU offers: the AVX-512 kernels when
 *  available (two 512-bit FP ports double the no-FMA mul+add
 *  throughput), the AVX2 kernels otherwise. Both keep the exact
 *  per-element ascending-k chain, so dispatch never changes bits. */
inline void
gemmDispatch(const float *a, const float *b, float *c, int m, int k, int n,
             int ldb, int ldc, bool accumulate)
{
    static const bool use512 = detail::avx512GemmAvailable();
    if (use512) {
        detail::gemmAvx512(a, b, c, m, k, n, ldb, ldc, accumulate);
        return;
    }
    gemmAvx2(a, b, c, m, k, n, ldb, ldc, accumulate);
}

/** Zero an m x n block of C whose rows are ldc floats apart. */
inline void
zeroRows(float *c, int m, int n, int ldc)
{
    if (ldc == n) {
        std::memset(c, 0,
                    sizeof(float) * static_cast<std::size_t>(m) *
                        static_cast<std::size_t>(n));
        return;
    }
    for (int i = 0; i < m; ++i)
        std::memset(c + static_cast<std::size_t>(i) * ldc, 0,
                    sizeof(float) * static_cast<std::size_t>(n));
}

void im2colAvx2(const float *image, const ConvGeom &g,
                std::vector<float> &cols);

/** im2col is pure data movement, so dispatch is free to pick the
 *  fastest expansion: the AVX-512 expand-load path (one load + one
 *  store per 16-output segment) when the CPU has it and the row fits
 *  its segment cache, the AVX2 copies otherwise. */
inline void
im2colDispatch(const float *image, const ConvGeom &g,
               std::vector<float> &cols)
{
    static const bool use512 = detail::avx512GemmAvailable();
    if (use512 && g.outW() <= 128) {
        detail::im2colAvx512(image, g, cols);
        return;
    }
    im2colAvx2(image, g, cols);
}

void
gemmAvx2(const float *a, const float *b, float *c, int m, int k, int n,
         int ldb, int ldc, bool accumulate)
{
    if (!accumulate)
        zeroRows(c, m, n, ldc);
    // Cache blocking: column panels of B stay resident while a K
    // block streams through; C tiles re-load their partial sums, so
    // each element still sums products in globally ascending k.
    constexpr int kNC = 256;
    constexpr int kKC = 160;
    for (int j0 = 0; j0 < n; j0 += kNC) {
        const int nb = std::min(kNC, n - j0);
        for (int k0 = 0; k0 < k; k0 += kKC) {
            const int kb = std::min(kKC, k - k0);
            const float *bblk =
                b + static_cast<std::size_t>(k0) * ldb + j0;
            int i = 0;
            for (; i + 4 <= m; i += 4) {
                const float *a0 = a + static_cast<std::size_t>(i) * k + k0;
                const float *a1 = a0 + k;
                const float *a2 = a1 + k;
                const float *a3 = a2 + k;
                float *c0 = c + static_cast<std::size_t>(i) * ldc + j0;
                float *c1 = c0 + ldc;
                float *c2 = c1 + ldc;
                float *c3 = c2 + ldc;
                int j = 0;
                for (; j + 16 <= nb; j += 16)
                    micro4x16(a0, a1, a2, a3, bblk + j, c0 + j, c1 + j,
                              c2 + j, c3 + j, kb, ldb);
                for (int r = 0; r < 4; ++r) {
                    const float *ar = a0 + static_cast<std::size_t>(r) * k;
                    float *cr = c0 + static_cast<std::size_t>(r) * ldc;
                    int jj = j;
                    for (; jj + 8 <= nb; jj += 8)
                        micro1x8(ar, bblk + jj, cr + jj, kb, ldb);
                    if (jj < nb)
                        microScalar(ar, bblk + jj, cr + jj, kb, nb - jj,
                                    ldb);
                }
            }
            for (; i < m; ++i) {
                const float *ar = a + static_cast<std::size_t>(i) * k + k0;
                float *cr = c + static_cast<std::size_t>(i) * ldc + j0;
                int j = 0;
                for (; j + 16 <= nb; j += 16)
                    micro1x16(ar, bblk + j, cr + j, kb, ldb);
                for (; j + 8 <= nb; j += 8)
                    micro1x8(ar, bblk + j, cr + j, kb, ldb);
                if (j < nb)
                    microScalar(ar, bblk + j, cr + j, kb, nb - j, ldb);
            }
        }
    }
}

// ---------------------------------------------------- backward GEMMs

/**
 * C (+)= A^T B, A [k x m], i-outer. Blocks of kTaJ columns and kTaK
 * k indices keep the B block cache-resident; per C row and k block,
 * the k with a non-zero A[k,i] are compacted onto the stack (the
 * reference's zero-skip, branch-free), and every column strip adds
 * exactly those products in ascending k. C re-loads its partial sums
 * between k blocks, so each cell's chain is the reference's.
 */
void
gemmTransAAvx2(const float *a, const float *b, float *c, int m, int k,
               int n, int lda, bool accumulate)
{
    if (!accumulate)
        zeroRows(c, m, n, n);
    constexpr int kTaJ = 256;
    constexpr int kTaK = 128;
    int idx[kTaK];
    float val[kTaK];
    for (int j0 = 0; j0 < n; j0 += kTaJ) {
        const int jend = std::min(n, j0 + kTaJ);
        for (int k0 = 0; k0 < k; k0 += kTaK) {
            const int kb = std::min(kTaK, k - k0);
            for (int i = 0; i < m; ++i) {
                int cnt = 0;
                for (int t = 0; t < kb; ++t) {
                    const float v =
                        a[static_cast<std::size_t>(k0 + t) * lda + i];
                    idx[cnt] = k0 + t;
                    val[cnt] = v;
                    cnt += v != 0.0f; // NaN is kept, as in the reference
                }
                if (cnt == 0)
                    continue;
                float *crow = c + static_cast<std::size_t>(i) * n;
                int j = j0;
                for (; j + 32 <= jend; j += 32) {
                    __m256 c0 = _mm256_loadu_ps(crow + j);
                    __m256 c1 = _mm256_loadu_ps(crow + j + 8);
                    __m256 c2 = _mm256_loadu_ps(crow + j + 16);
                    __m256 c3 = _mm256_loadu_ps(crow + j + 24);
                    for (int t = 0; t < cnt; ++t) {
                        const __m256 av = _mm256_set1_ps(val[t]);
                        const float *bp =
                            b + static_cast<std::size_t>(idx[t]) * n + j;
                        c0 = _mm256_add_ps(
                            c0, _mm256_mul_ps(av, _mm256_loadu_ps(bp)));
                        c1 = _mm256_add_ps(
                            c1, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 8)));
                        c2 = _mm256_add_ps(
                            c2, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 16)));
                        c3 = _mm256_add_ps(
                            c3, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 24)));
                    }
                    _mm256_storeu_ps(crow + j, c0);
                    _mm256_storeu_ps(crow + j + 8, c1);
                    _mm256_storeu_ps(crow + j + 16, c2);
                    _mm256_storeu_ps(crow + j + 24, c3);
                }
                for (; j + 8 <= jend; j += 8) {
                    __m256 c0 = _mm256_loadu_ps(crow + j);
                    for (int t = 0; t < cnt; ++t)
                        c0 = _mm256_add_ps(
                            c0,
                            _mm256_mul_ps(
                                _mm256_set1_ps(val[t]),
                                _mm256_loadu_ps(
                                    b + static_cast<std::size_t>(idx[t]) * n +
                                    j)));
                    _mm256_storeu_ps(crow + j, c0);
                }
                for (; j < jend; ++j) {
                    float cv = crow[j];
                    for (int t = 0; t < cnt; ++t)
                        cv += val[t] * b[static_cast<std::size_t>(idx[t]) * n + j]; // vblint: assoc-ok(ascending-k chain pinned by the backend bitwise contract, §12)
                    crow[j] = cv;
                }
            }
        }
    }
}

/** dst [cols x rows] = src [rows x cols]^T, in 8x8 tiles. */
void
transpose(const float *src, float *dst, int rows, int cols)
{
    constexpr int kT = 8;
    for (int row0 = 0; row0 < rows; row0 += kT) {
        const int rend = std::min(rows, row0 + kT);
        for (int col0 = 0; col0 < cols; col0 += kT) {
            const int cend = std::min(cols, col0 + kT);
            for (int r = row0; r < rend; ++r)
                for (int cc = col0; cc < cend; ++cc)
                    dst[static_cast<std::size_t>(cc) * rows + r] =
                        src[static_cast<std::size_t>(r) * cols + cc];
        }
    }
}

/**
 * C (+)= A B^T, B [n x k]. The reference's per-cell dot product,
 * acc = +0.0 then acc += A[i,kk] * B[j,kk] in ascending kk, is exactly
 * the chain this backend's non-accumulating forward GEMM computes for
 * cell (i, j) of A * (B^T): zero start, one product added at a time,
 * no skip. So the dots are computed by the forward GEMM into scratch
 * over a transposed copy of B, and each finished dot is then added to
 * C once.
 */
void
gemmTransBAvx2(const float *a, const float *b, float *c, int m, int k,
               int n, int ldc, bool accumulate, std::vector<float> &scratch)
{
    const std::size_t mn =
        static_cast<std::size_t>(m) * static_cast<std::size_t>(n);
    float *const dots = detail::resizeFloats(
        scratch, mn + static_cast<std::size_t>(k) * n);
    float *const bt = dots + mn;
    transpose(b, bt, n, k);
    gemmDispatch(a, bt, dots, m, k, n, n, n, /*accumulate=*/false);
    if (!accumulate)
        zeroRows(c, m, n, ldc);
    for (int i = 0; i < m; ++i) {
        float *crow = c + static_cast<std::size_t>(i) * ldc;
        const float *drow = dots + static_cast<std::size_t>(i) * n;
        int j = 0;
        for (; j + 8 <= n; j += 8)
            _mm256_storeu_ps(crow + j,
                             _mm256_add_ps(_mm256_loadu_ps(crow + j),
                                           _mm256_loadu_ps(drow + j)));
        for (; j < n; ++j)
            crow[j] += drow[j]; // vblint: assoc-ok(single accumulated dot per (i,j) cell)
    }
}

// ---------------------------------------------------------- im2col

/** Inline copy/zero for the short runs im2col produces (the 3x3 conv
 *  layers copy 8-16 floats per row, where memcpy's dispatch overhead
 *  dominates). Plain element moves — bitwise-neutral. */
inline void
copyFloats(float *dst, const float *src, int len)
{
    int i = 0;
    for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(dst + i, _mm256_loadu_ps(src + i));
    for (; i < len; ++i)
        dst[i] = src[i];
}

inline void
zeroFloats(float *dst, int len)
{
    const __m256 z = _mm256_setzero_ps();
    int i = 0;
    for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(dst + i, z);
    for (; i < len; ++i)
        dst[i] = 0.0f;
}

/** im2col as row-segment copies: for each (channel, ki, kj) the valid
 *  output columns map to one contiguous input run per output row. */
void
im2colAvx2(const float *image, const ConvGeom &g, std::vector<float> &cols)
{
    const int out_h = g.outH();
    const int out_w = g.outW();
    const std::size_t spatial = g.spatial();
    float *const out = detail::resizeFloats(
        cols, static_cast<std::size_t>(g.patch()) * spatial);
    std::size_t row = 0;
    for (int c = 0; c < g.inCh; ++c) {
        const float *chan = image + static_cast<std::size_t>(c) *
                                        static_cast<std::size_t>(g.h) *
                                        static_cast<std::size_t>(g.w);
        for (int ki = 0; ki < g.kernel; ++ki) {
            for (int kj = 0; kj < g.kernel; ++kj, ++row) {
                float *dst = out + row * spatial;
                // Valid output columns: 0 <= oj + kj - pad < w.
                const int oj_lo = std::max(0, g.pad - kj);
                const int oj_hi = std::min(out_w, g.w + g.pad - kj);
                // vblint: assoc-ok(pointer stride advance, not a float reduction)
                for (int oi = 0; oi < out_h; ++oi, dst += out_w) {
                    const int ii = oi + ki - g.pad;
                    if (ii < 0 || ii >= g.h || oj_lo >= oj_hi) {
                        zeroFloats(dst, out_w);
                        continue;
                    }
                    if (oj_lo > 0)
                        zeroFloats(dst, oj_lo);
                    copyFloats(dst + oj_lo,
                               chan + static_cast<std::size_t>(ii) *
                                          static_cast<std::size_t>(g.w) +
                                   static_cast<std::size_t>(oj_lo + kj -
                                                            g.pad),
                               oj_hi - oj_lo);
                    if (oj_hi < out_w)
                        zeroFloats(dst + oj_hi, out_w - oj_hi);
                }
            }
        }
    }
}

// ------------------------------------------------------------- pool

/** De-interleave two 8-float loads into even and odd columns:
 *  evens = [a0,a2,a4,a6,b0,b2,b4,b6], odds likewise. */
inline __m256
deinterleave(__m256 a, __m256 b, int which)
{
    const __m256 mixed =
        which == 0 ? _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0))
                   : _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1));
    return _mm256_castpd_ps(
        _mm256_permute4x64_pd(_mm256_castps_pd(mixed), 0xD8));
}

/**
 * 2x2/stride-2 max pool. MAXPS(a, b) returns b unless a > b, i.e. ties
 * resolve to the second operand — so pairing later elements as the
 * first operand makes every max an exact match for the reference's
 * `v > best` comparisons. The pairing ((e0,e1),(e2,e3)) is an in-order
 * tournament over the reference's (di, dj) visit sequence, which
 * selects the same earliest-maximal element (only observable for
 * -0.0 vs +0.0 ties).
 */
void
maxPool2x2Avx2(const float *x, float *y, int batch, int c, int h, int w)
{
    const int oh = h / 2, ow = w / 2;
    std::size_t oidx = 0;
    for (int n = 0; n < batch; ++n) {
        for (int ch = 0; ch < c; ++ch) {
            const float *plane = x + (static_cast<std::size_t>(n) * c + ch) *
                                         static_cast<std::size_t>(h) * w;
            for (int i = 0; i < oh; ++i) {
                const float *r0 =
                    plane + static_cast<std::size_t>(2 * i) * w;
                const float *r1 = r0 + w;
                int j = 0;
                for (; j + 8 <= ow; j += 8, oidx += 8) {
                    const __m256 a0 = _mm256_loadu_ps(r0 + 2 * j);
                    const __m256 b0 = _mm256_loadu_ps(r0 + 2 * j + 8);
                    const __m256 a1 = _mm256_loadu_ps(r1 + 2 * j);
                    const __m256 b1 = _mm256_loadu_ps(r1 + 2 * j + 8);
                    const __m256 m0 = _mm256_max_ps(
                        deinterleave(a0, b0, 1), deinterleave(a0, b0, 0));
                    const __m256 m1 = _mm256_max_ps(
                        deinterleave(a1, b1, 1), deinterleave(a1, b1, 0));
                    _mm256_storeu_ps(y + oidx, _mm256_max_ps(m1, m0));
                }
                for (; j < ow; ++j, ++oidx) {
                    float best = r0[2 * j];
                    if (r0[2 * j + 1] > best)
                        best = r0[2 * j + 1];
                    if (r1[2 * j] > best)
                        best = r1[2 * j];
                    if (r1[2 * j + 1] > best)
                        best = r1[2 * j + 1];
                    y[oidx] = best;
                }
            }
        }
    }
}

// ----------------------------------------------------------- faults

/** decode(raw) = float(raw) / 2^frac = float(raw) * 2^-frac, exact
 *  either way for the int16 range (see file header). */
void
dequantizeAvx2(std::span<const std::int16_t> words,
               const FixedPointCodec &codec, float *out)
{
    const __m256 scale = _mm256_set1_ps(codec.resolution());
    std::size_t i = 0;
    for (; i + 8 <= words.size(); i += 8) {
        const __m128i raw = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(words.data() + i));
        const __m256 vals = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(raw));
        _mm256_storeu_ps(out + i, _mm256_mul_ps(vals, scale));
    }
    for (; i < words.size(); ++i)
        out[i] = codec.decode(words[i]);
}

class VectorizedBackend final : public Backend
{
  public:
    std::string_view name() const override { return "vectorized"; }

    void
    gemmPanel(const float *a, const float *b, float *c, int m, int k, int n,
              int ldb, int ldc, bool accumulate) const override
    {
        gemmDispatch(a, b, c, m, k, n, ldb, ldc, accumulate);
    }

    void
    gemmTransARows(const float *a, const float *b, float *c, int m, int k,
                   int n, int lda, bool accumulate) const override
    {
        gemmTransAAvx2(a, b, c, m, k, n, lda, accumulate);
    }

    void
    gemmTransBPanel(const float *a, const float *b, float *c, int m, int k,
                    int n, int ldc, bool accumulate,
                    std::vector<float> &scratch) const override
    {
        gemmTransBAvx2(a, b, c, m, k, n, ldc, accumulate, scratch);
    }

    void
    im2col(const float *image, const ConvGeom &g,
           std::vector<float> &cols) const override
    {
        im2colDispatch(image, g, cols);
    }

    void
    im2colConv(const float *image, const float *weights, const float *bias,
               float *out, const ConvGeom &g,
               std::vector<float> &cols) const override
    {
        const std::size_t spatial = g.spatial();
        im2colDispatch(image, g, cols);
        gemmDispatch(weights, cols.data(), out, g.outCh, g.patch(),
                     static_cast<int>(spatial), static_cast<int>(spatial),
                     static_cast<int>(spatial), /*accumulate=*/false);
        for (int oc = 0; oc < g.outCh; ++oc) {
            float *chan = out + static_cast<std::size_t>(oc) * spatial;
            const __m256 bv = _mm256_set1_ps(bias[oc]);
            std::size_t i = 0;
            for (; i + 8 <= spatial; i += 8)
                _mm256_storeu_ps(
                    chan + i,
                    _mm256_add_ps(_mm256_loadu_ps(chan + i), bv));
            for (; i < spatial; ++i)
                chan[i] += bias[oc]; // vblint: assoc-ok(single bias add per element, no reduction)
        }
    }

    void
    maxPool2x2(const float *x, float *y, int batch, int c, int h,
               int w) const override
    {
        maxPool2x2Avx2(x, y, batch, c, h, w);
    }

    void
    relu(const float *x, float *y, std::size_t n) const override
    {
        // MAXPS(x, +0.0) is exactly `x > 0 ? x : +0.0f`: it returns the
        // second operand on ties (-0.0) and unordered (NaN) inputs.
        const __m256 zero = _mm256_setzero_ps();
        std::size_t i = 0;
        for (; i + 8 <= n; i += 8)
            _mm256_storeu_ps(y + i,
                             _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
        for (; i < n; ++i)
            y[i] = x[i] > 0.0f ? x[i] : 0.0f;
    }

    std::uint64_t
    applyFaultMap(std::span<std::int16_t> words,
                  const sram::VulnerabilityMap &map, const FaultWindow &win,
                  sram::FaultParams params, Rng &rng) const override
    {
        return detail::flipWindow(words, map, win, params, rng);
    }

    std::uint64_t
    applyFaultMapDequant(std::span<std::int16_t> words,
                         const FixedPointCodec &codec, float *out,
                         const sram::VulnerabilityMap &map,
                         const FaultWindow &win, sram::FaultParams params,
                         Rng &rng) const override
    {
        const std::uint64_t flipped =
            detail::flipWindow(words, map, win, params, rng);
        dequantizeAvx2(words, codec, out);
        return flipped;
    }

    std::uint64_t
    applyRegionImageDequant(std::span<std::int16_t> words,
                            const FixedPointCodec &codec, float *out,
                            const sram::PackedFaultMap &region,
                            std::uint64_t startBit, double flipProb,
                            Rng &rng) const override
    {
        return detail::stageRegionImage(words, codec, out, region, startBit,
                                        flipProb, rng, dequantizeAvx2);
    }

    std::uint64_t
    applyRegionImageBits(std::uint64_t &bits, int nbits,
                         const sram::PackedFaultMap &region,
                         std::uint64_t startBit, double flipProb,
                         Rng &rng) const override
    {
        const std::uint64_t mask = region.maskWrapped(
            startBit % region.regionBits(), static_cast<unsigned>(nbits));
        return detail::flipMaskedBits(bits, mask, flipProb, rng);
    }
};

} // namespace

namespace detail {

const Backend *
vectorizedBackendIfAvailable()
{
    static const bool supported = __builtin_cpu_supports("avx2");
    if (!supported)
        return nullptr;
    static const VectorizedBackend kVectorized;
    return &kVectorized;
}

} // namespace detail

} // namespace vboost::dnn

#else // !VBOOST_HAVE_AVX2

namespace vboost::dnn::detail {

const Backend *
vectorizedBackendIfAvailable()
{
    return nullptr;
}

} // namespace vboost::dnn::detail

#endif // VBOOST_HAVE_AVX2
