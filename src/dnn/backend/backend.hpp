/**
 * @file
 * Swappable compute backends (DESIGN.md §12). A Backend owns the hot
 * kernels of the repro — forward and backward GEMMs, the im2col
 * convolution and the fused corrupt-and-dequantize kernel the
 * fault-injection staging loop runs — so scalar reference code and
 * SIMD implementations can be exchanged freely.
 *
 * Contract: every backend is BITWISE-IDENTICAL to the reference
 * backend on finite inputs, at every thread count, including the
 * per-faulty-cell RNG consumption order of the fault kernel. This is
 * the §7 determinism bar: swapping backends may change speed, never a
 * single output bit. tests/test_backend.cpp (ctest `backend_equivalence`)
 * enforces it.
 *
 * Backends are stateless and const; all methods are safe to call from
 * many threads concurrently. The process-wide active backend must be
 * selected before worker threads start (set-before-threads contract).
 */

#ifndef VBOOST_DNN_BACKEND_BACKEND_HPP
#define VBOOST_DNN_BACKEND_BACKEND_HPP

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "sram/fault_map.hpp"
#include "sram/packed_fault_map.hpp"

namespace vboost::dnn {

/** Geometry of one stride-1, symmetric-pad 2-D convolution. */
struct ConvGeom
{
    int inCh = 0;   ///< input channels
    int outCh = 0;  ///< output channels
    int kernel = 0; ///< square kernel size
    int pad = 0;    ///< symmetric zero padding
    int h = 0;      ///< input height
    int w = 0;      ///< input width

    int outH() const { return h + 2 * pad - kernel + 1; }
    int outW() const { return w + 2 * pad - kernel + 1; }
    /** Patch length inCh*k*k (the GEMM K dimension). */
    int patch() const { return inCh * kernel * kernel; }
    /** Output spatial size (the GEMM N dimension). */
    std::size_t spatial() const
    {
        return static_cast<std::size_t>(outH()) *
               static_cast<std::size_t>(outW());
    }
};

/**
 * Wrapped-region fault window: which SRAM cells a staged buffer's bits
 * visit. Visit j touches cell regionBase + (startBit + j) mod
 * regionBits, matching fi's staging walk.
 */
struct FaultWindow
{
    std::uint64_t regionBase = 0;
    std::uint64_t regionBits = 0;
    std::uint64_t startBit = 0;
};

class Backend
{
  public:
    virtual ~Backend() = default;

    /** Registry name ("reference", "vectorized"). */
    virtual std::string_view name() const = 0;

    /**
     * C[m,n] = A[m,k] B[k,n], row-major. Each C cell starts at +0.0f
     * and adds its products in ascending k (bitwise contract). The
     * reference skips every k whose A[i,k] is exactly zero; the SIMD
     * backends add those +/-0.0 products instead, which is an identity
     * only on a chain seeded from +0.0 (round-to-nearest never turns
     * +0.0 into -0.0, but -0.0 + +0.0 is +0.0). Accumulating into a C
     * that may hold -0.0 would therefore break the contract, so
     * `accumulate` must be false: true panics. The parameter stays
     * for existing callers' source compatibility.
     */
    void gemm(const float *a, const float *b, float *c, int m, int k, int n,
              bool accumulate) const;

    /**
     * gemm() over a column panel of wider matrices: rows of B are
     * `ldb` floats apart and rows of C `ldc` floats apart (both >= n).
     * Each C cell's chain is gemm()'s, so a split into panels computes
     * the same bits.
     */
    virtual void gemmPanel(const float *a, const float *b, float *c, int m,
                           int k, int n, int ldb, int ldc) const = 0;

    /**
     * C[m,n] (+)= A^T B with A [k x m], B [k x n], row-major (the
     * weight gradient of Dense, the column gradient of Conv2d). Each
     * C cell adds its products one at a time in ascending k and skips
     * every k whose A[k,i] is exactly zero, as the reference loop
     * does (bitwise contract).
     */
    void
    gemmTransA(const float *a, const float *b, float *c, int m, int k,
               int n, bool accumulate) const
    {
        gemmTransARows(a, b, c, m, k, n, m, accumulate);
    }

    /**
     * gemmTransA() for a row tile of C: A's rows are `lda` floats
     * apart (lda >= m), so C rows [i0, i0 + m) of a wider product read
     * A columns from `a` = A + i0. Each cell's chain is unchanged.
     */
    virtual void gemmTransARows(const float *a, const float *b, float *c,
                                int m, int k, int n, int lda,
                                bool accumulate) const = 0;

    /**
     * C[m,n] (+)= A B^T with A [m x k], B [n x k], row-major (the
     * input gradient of Dense, the weight gradient of Conv2d). Each C
     * cell's dot product starts at +0.0f, sums its products one at a
     * time in ascending k and is then added to C (bitwise contract).
     * `scratch` is caller-owned workspace, resized as needed, so
     * per-layer buffers can be reused across calls.
     */
    void
    gemmTransB(const float *a, const float *b, float *c, int m, int k,
               int n, bool accumulate, std::vector<float> &scratch) const
    {
        gemmTransBPanel(a, b, c, m, k, n, n, accumulate, scratch);
    }

    /**
     * gemmTransB() for a column panel of C, whose rows are `ldc`
     * floats apart (ldc >= n): C columns [j0, j0 + n) of a wider
     * product read B rows from `b` = B + j0 * k. Each cell's chain is
     * unchanged.
     */
    virtual void gemmTransBPanel(const float *a, const float *b, float *c,
                                 int m, int k, int n, int ldc,
                                 bool accumulate,
                                 std::vector<float> &scratch) const = 0;

    /**
     * One-image convolution: expand `image` ([inCh, h, w]) into
     * `cols` ([patch, spatial]) and compute
     * out = W cols + bias, out [outCh, spatial].
     * `cols` is caller-owned scratch resized as needed (so per-thread
     * buffers can be reused across images).
     */
    virtual void im2colConv(const float *image, const float *weights,
                            const float *bias, float *out,
                            const ConvGeom &g,
                            std::vector<float> &cols) const = 0;

    /** im2col alone (shared by Conv2d::backward's col2im pairing). */
    virtual void im2col(const float *image, const ConvGeom &g,
                        std::vector<float> &cols) const = 0;

    /**
     * 2x2 stride-2 max pooling over NCHW activations (inference path;
     * the training path keeps the layer's argmax bookkeeping). Ties —
     * which only matter bitwise for -0.0 vs +0.0 — resolve to the
     * earliest element in (di, dj) scan order, exactly like the
     * reference `v > best` fold.
     */
    virtual void maxPool2x2(const float *x, float *y, int batch, int c,
                            int h, int w) const = 0;

    /** Elementwise y[i] = x[i] > 0 ? x[i] : +0.0f (so -0.0 and NaN
     *  inputs both map to +0.0). In-place (y == x) is allowed. */
    virtual void relu(const float *x, float *y, std::size_t n) const = 0;

    /**
     * The fused fault-injection kernel over a fault window: corrupt
     * `words` in place — bit b of word w is visit 16*w + b, and each
     * faulty visited cell flips with params.flipProb — then dequantize
     * every (possibly corrupted) word through `codec` into `out`
     * (words.size() floats). It packs the window's faults from
     * startBit, which makes them a region image walked from visit 0,
     * and runs applyRegionImageDequant() over it. With
     * params.failProb or params.flipProb at 0 nothing is drawn and
     * this is a pure decode. @return bits flipped.
     */
    std::uint64_t applyFaultMapDequant(std::span<std::int16_t> words,
                                       const FixedPointCodec &codec,
                                       float *out,
                                       const sram::VulnerabilityMap &map,
                                       const FaultWindow &win,
                                       sram::FaultParams params,
                                       Rng &rng) const;

    /**
     * The one fault kernel of a backend: corrupt `words` in place from
     * a prebuilt region image, then dequantize them through `codec`
     * into `out` (words.size() floats). `region` holds region cell p
     * at bit p (a PackedFaultMap packed from start 0, wrapping at
     * region.regionBits()), and visit j of this call — bit b of word
     * w is visit 16*w + b — reads bit (startBit + j) mod
     * region.regionBits(), which must be below region.numBits(). Each
     * faulty visited cell flips with flipProb: RNG is consumed exactly
     * once per faulty visited cell, in visit order (bitwise contract
     * with the reference scalar loop); flipProb <= 0 draws nothing.
     * @return bits flipped.
     */
    virtual std::uint64_t
    applyRegionImageDequant(std::span<std::int16_t> words,
                            const FixedPointCodec &codec, float *out,
                            const sram::PackedFaultMap &region,
                            std::uint64_t startBit, double flipProb,
                            Rng &rng) const = 0;
};

/** The scalar reference backend (always available). */
const Backend &referenceBackend();

/** Backend names in registry order, available ones only. */
std::vector<std::string_view> availableBackends();

/** Look up a backend by name; nullptr when unknown or unavailable on
 *  this machine (e.g. "vectorized" without AVX2). "auto" resolves to
 *  the fastest available backend. */
const Backend *findBackend(std::string_view name);

/**
 * Process-wide active backend, used by Dense/Conv2d forward and the
 * fi staging loop. Defaults to "auto". Set-before-threads: call
 * setActiveBackend() only while single-threaded.
 */
const Backend &activeBackend();

/** Select the active backend; false when the name is unknown or the
 *  backend is unavailable on this machine (active selection kept). */
bool setActiveBackend(std::string_view name);

} // namespace vboost::dnn

#endif // VBOOST_DNN_BACKEND_BACKEND_HPP
