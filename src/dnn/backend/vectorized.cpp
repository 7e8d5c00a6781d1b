/**
 * @file
 * The AVX2 "vectorized" backend (DESIGN.md §12). Bitwise-identical to
 * the reference backend on finite inputs by construction:
 *
 *  - The forward GEMM and gemmTransA are the width-generic template of
 *    simd_gemm.hpp, whose header gives their chain argument:
 *    gemmKernels() runs its AVX-512 instantiation (vectorized512.cpp)
 *    when the CPU has it and this file's AVX2 one otherwise. gemmTransA
 *    keeps the reference's per-cell zero skip, since its C may hold
 *    -0.0 (for which -0.0 + +0.0 is +0.0).
 *  - The forward GEMM drops that skip rather than emulating it: it
 *    always starts from a zeroed C, and adding the skipped +/-0.0
 *    products is an identity on every chain seeded from +0.0, because
 *    round-to-nearest never yields -0.0 from a +0.0 start.
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

#include <immintrin.h>

#include "dnn/backend/simd_gemm.hpp"
#include "sram/packed_fault_map.hpp"

namespace vboost::dnn {

namespace {

// ------------------------------------------------------------- GEMM

/** AVX2 traits of the GEMM template (simd_gemm.hpp): 4 x 16 register
 *  tiles, eight accumulators of the sixteen ymm registers. */
struct Avx2
{
    using Vec = __m256;
    using Mask = __m256i;
    static constexpr int W = 8;
    static constexpr int MR = 4;
    static constexpr int NC = 256;
    static constexpr int KC = 160;

    static Vec load(const float *p) { return _mm256_loadu_ps(p); }
    static void store(float *p, Vec v) { _mm256_storeu_ps(p, v); }
    static Vec set1(float x) { return _mm256_set1_ps(x); }
    static Vec add(Vec x, Vec y) { return _mm256_add_ps(x, y); }
    static Vec mul(Vec x, Vec y) { return _mm256_mul_ps(x, y); }
    static Mask
    mask(int cols)
    {
        return _mm256_cmpgt_epi32(_mm256_set1_epi32(cols),
                                  _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    }
    static Vec
    maskLoad(Mask m, const float *p)
    {
        return _mm256_maskload_ps(p, m);
    }
    static void
    maskStore(float *p, Mask m, Vec v)
    {
        _mm256_maskstore_ps(p, m, v);
    }
};

const detail::GemmKernels kAvx2Gemm{&simd::gemmForward<Avx2>,
                                    &simd::gemmTransA<Avx2>};

/** The widest GEMM width this CPU runs: AVX-512 when available (two
 *  512-bit FP ports double the no-FMA mul+add throughput), AVX2
 *  otherwise. Every width computes each cell's exact chain, so
 *  dispatch never changes bits. */
const detail::GemmKernels &
gemmKernels()
{
    static const detail::GemmKernels *const widest =
        detail::avx512Gemm() != nullptr ? detail::avx512Gemm() : &kAvx2Gemm;
    return *widest;
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
    static const bool use512 = detail::avx512Gemm() != nullptr;
    if (use512 && g.outW() <= 128) {
        detail::im2colAvx512(image, g, cols);
        return;
    }
    im2colAvx2(image, g, cols);
}

// ---------------------------------------------------- backward GEMMs

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
 * the chain this backend's forward GEMM computes for cell (i, j) of
 * A * (B^T): zero start, one product added at a time, no skip. So the
 * dots are computed by the forward GEMM into scratch over a transposed
 * copy of B, and each finished dot is then added to C once.
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
    gemmKernels().forward(a, bt, dots, m, k, n, n, n);
    if (!accumulate)
        simd::zeroRows(c, m, n, ldc);
    for (int i = 0; i < m; ++i) {
        float *crow = c + static_cast<std::size_t>(i) * ldc;
        const float *drow = dots + static_cast<std::size_t>(i) * n;
        int j = 0;
        for (; j + 8 <= n; j += 8)
            _mm256_storeu_ps(crow + j,
                             _mm256_add_ps(_mm256_loadu_ps(crow + j),
                                           _mm256_loadu_ps(drow + j)));
        for (; j < n; ++j)
            crow[j] += drow[j];
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
              int ldb, int ldc) const override
    {
        gemmKernels().forward(a, b, c, m, k, n, ldb, ldc);
    }

    void
    gemmTransARows(const float *a, const float *b, float *c, int m, int k,
                   int n, int lda, bool accumulate) const override
    {
        gemmKernels().transA(a, b, c, m, k, n, lda, accumulate);
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
        gemmKernels().forward(weights, cols.data(), out, g.outCh, g.patch(),
                              static_cast<int>(spatial),
                              static_cast<int>(spatial),
                              static_cast<int>(spatial));
        for (int oc = 0; oc < g.outCh; ++oc) {
            float *chan = out + static_cast<std::size_t>(oc) * spatial;
            const __m256 bv = _mm256_set1_ps(bias[oc]);
            std::size_t i = 0;
            for (; i + 8 <= spatial; i += 8)
                _mm256_storeu_ps(
                    chan + i,
                    _mm256_add_ps(_mm256_loadu_ps(chan + i), bv));
            for (; i < spatial; ++i)
                chan[i] += bias[oc];
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
    applyRegionImageDequant(std::span<std::int16_t> words,
                            const FixedPointCodec &codec, float *out,
                            const sram::PackedFaultMap &region,
                            std::uint64_t startBit, double flipProb,
                            Rng &rng) const override
    {
        return detail::stageRegionImage(words, codec, out, region, startBit,
                                        flipProb, rng, dequantizeAvx2);
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

const GemmKernels *
avx2Gemm()
{
    return vectorizedBackendIfAvailable() != nullptr ? &kAvx2Gemm : nullptr;
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

const GemmKernels *
avx2Gemm()
{
    return nullptr;
}

} // namespace vboost::dnn::detail

#endif // VBOOST_HAVE_AVX2
