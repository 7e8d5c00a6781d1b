/**
 * @file
 * Internal wiring between the backend registry (backend.cpp) and the
 * concrete implementations (reference.cpp, vectorized.cpp,
 * vectorized512.cpp). Not part of the public backend API.
 */

#ifndef VBOOST_DNN_BACKEND_IMPL_HPP
#define VBOOST_DNN_BACKEND_IMPL_HPP

#include "dnn/backend/backend.hpp"

namespace vboost::dnn::detail {

/**
 * Resize `buf` to exactly n floats and return its data. Defined in
 * backend.cpp, a generic translation unit: std::vector growth code
 * instantiated inside a -mavx2/-mavx512f translation unit would be an
 * ISA-specific COMDAT copy the linker may pick for generic callers.
 */
float *resizeFloats(std::vector<float> &buf, std::size_t n);

/** This thread's scratch buffer, grown to at least n floats (the
 *  forward GEMM's packed B panels, simd_gemm.hpp). Defined in
 *  backend.cpp for the same reason as resizeFloats(). */
float *threadScratch(std::size_t n);

/** Decode staged words into floats (a backend's dequantize). */
using DequantFn = void (*)(std::span<const std::int16_t> words,
                           const FixedPointCodec &codec, float *out);

/** Backend::applyRegionImageDequant, decoding through `dequant` (the
 *  fault walk of fault_walk.cpp, a generic translation unit): the walk
 *  visits the image's faulty cells only, then every word is decoded
 *  once. */
std::uint64_t stageRegionImage(std::span<std::int16_t> words,
                               const FixedPointCodec &codec, float *out,
                               const sram::PackedFaultMap &region,
                               std::uint64_t start_bit, double flip_prob,
                               Rng &rng, DequantFn dequant);

/** The AVX2 backend instance, or nullptr when this build or this CPU
 *  lacks AVX2 support. */
const Backend *vectorizedBackendIfAvailable();

/**
 * The vectorized GEMMs at one SIMD width: the template of
 * simd_gemm.hpp instantiated in that width's translation unit, with
 * the reference's per-cell chains (bitwise contract, DESIGN.md §12).
 */
struct GemmKernels
{
    /** Backend::gemmPanel: C = A B, rows of B and C ldb and ldc floats
     *  apart, every chain seeded from +0.0. */
    void (*forward)(const float *a, const float *b, float *c, int m, int k,
                    int n, int ldb, int ldc);
    /** Backend::gemmTransARows. */
    void (*transA)(const float *a, const float *b, float *c, int m, int k,
                   int n, int lda, bool accumulate);
};

/** The AVX2 GEMMs (vectorized.cpp), or nullptr when this build or
 *  this CPU lacks AVX2. */
const GemmKernels *avx2Gemm();

/** The AVX-512 GEMMs (vectorized512.cpp), or nullptr when this build
 *  or this CPU lacks AVX-512F; non-null also admits im2colAvx512(). */
const GemmKernels *avx512Gemm();

/**
 * AVX-512 im2col producing byte-identical `cols` to the scalar
 * expansion (copies and +0.0 padding only — no arithmetic). Requires
 * avx512Gemm() != nullptr and g.outW() <= 128 (the per-row segment-mask
 * cache is fixed-size); callers fall back to the AVX2 path otherwise.
 */
void im2colAvx512(const float *image, const ConvGeom &g,
                  std::vector<float> &cols);

} // namespace vboost::dnn::detail

#endif // VBOOST_DNN_BACKEND_IMPL_HPP
