/**
 * @file
 * The scalar reference backend: the repo's original kernels, verbatim.
 * Every other backend is defined as "bitwise-identical to this one on
 * finite inputs" (DESIGN.md §12), so these loops are the semantic
 * ground truth — keep them boring.
 */

#include <cstring>

#include "dnn/backend/impl.hpp"

namespace vboost::dnn {

namespace {

/** Zero an m x n block of C whose rows are ldc floats apart. */
void
zeroOutput(float *c, int m, int n, int ldc)
{
    for (int i = 0; i < m; ++i)
        std::memset(c + static_cast<std::size_t>(i) * ldc, 0,
                    sizeof(float) * static_cast<std::size_t>(n));
}

class ReferenceBackend final : public Backend
{
  public:
    std::string_view name() const override { return "reference"; }

    void
    gemmPanel(const float *a, const float *b, float *c, int m, int k, int n,
              int ldb, int ldc) const override
    {
        zeroOutput(c, m, n, ldc);
        // i-k-j order: the inner loop is contiguous in both B and C.
        for (int i = 0; i < m; ++i) {
            const float *arow = a + static_cast<std::size_t>(i) * k;
            float *crow = c + static_cast<std::size_t>(i) * ldc;
            for (int kk = 0; kk < k; ++kk) {
                const float aik = arow[kk];
                if (aik == 0.0f)
                    continue;
                const float *brow = b + static_cast<std::size_t>(kk) * ldb;
                for (int j = 0; j < n; ++j)
                    crow[j] += aik * brow[j];
            }
        }
    }

    void
    gemmTransARows(const float *a, const float *b, float *c, int m, int k,
                   int n, int lda, bool accumulate) const override
    {
        if (!accumulate)
            zeroOutput(c, m, n, n);
        // C[m,n] = sum_kk A[kk,m]^T B[kk,n]; A row kk is contiguous in m.
        for (int kk = 0; kk < k; ++kk) {
            const float *arow = a + static_cast<std::size_t>(kk) * lda;
            const float *brow = b + static_cast<std::size_t>(kk) * n;
            for (int i = 0; i < m; ++i) {
                const float aki = arow[i];
                if (aki == 0.0f)
                    continue;
                float *crow = c + static_cast<std::size_t>(i) * n;
                for (int j = 0; j < n; ++j)
                    crow[j] += aki * brow[j];
            }
        }
    }

    void
    gemmTransBPanel(const float *a, const float *b, float *c, int m, int k,
                    int n, int ldc, bool accumulate,
                    std::vector<float> & /*scratch*/) const override
    {
        if (!accumulate)
            zeroOutput(c, m, n, ldc);
        // C[i,j] = dot(A row i, B row j): both contiguous in k.
        for (int i = 0; i < m; ++i) {
            const float *arow = a + static_cast<std::size_t>(i) * k;
            float *crow = c + static_cast<std::size_t>(i) * ldc;
            for (int j = 0; j < n; ++j) {
                const float *brow = b + static_cast<std::size_t>(j) * k;
                float acc = 0.0f;
                for (int kk = 0; kk < k; ++kk)
                    acc += arow[kk] * brow[kk];
                crow[j] += acc;
            }
        }
    }

    void
    im2col(const float *image, const ConvGeom &g,
           std::vector<float> &cols) const override
    {
        const int out_h = g.outH();
        const int out_w = g.outW();
        const std::size_t spatial = g.spatial();
        cols.resize(static_cast<std::size_t>(g.patch()) * spatial);
        std::size_t row = 0;
        for (int c = 0; c < g.inCh; ++c) {
            const float *chan =
                image + static_cast<std::size_t>(c) *
                            static_cast<std::size_t>(g.h) *
                            static_cast<std::size_t>(g.w);
            for (int ki = 0; ki < g.kernel; ++ki) {
                for (int kj = 0; kj < g.kernel; ++kj, ++row) {
                    float *dst = cols.data() + row * spatial;
                    std::size_t idx = 0;
                    for (int oi = 0; oi < out_h; ++oi) {
                        const int ii = oi + ki - g.pad;
                        for (int oj = 0; oj < out_w; ++oj, ++idx) {
                            const int jj = oj + kj - g.pad;
                            dst[idx] = (ii >= 0 && ii < g.h && jj >= 0 &&
                                        jj < g.w)
                                           ? chan[static_cast<std::size_t>(
                                                      ii) *
                                                      static_cast<
                                                          std::size_t>(
                                                          g.w) +
                                                  static_cast<std::size_t>(
                                                      jj)]
                                           : 0.0f;
                        }
                    }
                }
            }
        }
    }

    void
    im2colConv(const float *image, const float *weights, const float *bias,
               float *out, const ConvGeom &g,
               std::vector<float> &cols) const override
    {
        const std::size_t spatial = g.spatial();
        im2col(image, g, cols);
        gemm(weights, cols.data(), out, g.outCh, g.patch(),
             static_cast<int>(spatial), /*accumulate=*/false);
        for (int oc = 0; oc < g.outCh; ++oc) {
            float *chan = out + static_cast<std::size_t>(oc) * spatial;
            const float b = bias[static_cast<std::size_t>(oc)];
            for (std::size_t i = 0; i < spatial; ++i)
                chan[i] += b;
        }
    }

    void
    maxPool2x2(const float *x, float *y, int batch, int c, int h,
               int w) const override
    {
        // The layer's original scan: best starts at the (0,0) corner
        // and only a strictly greater value replaces it, so ties keep
        // the earliest element.
        const int oh = h / 2, ow = w / 2;
        std::size_t oidx = 0;
        for (int n = 0; n < batch; ++n) {
            for (int ch = 0; ch < c; ++ch) {
                const float *plane =
                    x + (static_cast<std::size_t>(n) * c + ch) *
                            static_cast<std::size_t>(h) * w;
                for (int i = 0; i < oh; ++i) {
                    const float *r0 = plane + static_cast<std::size_t>(
                                                  2 * i) * w;
                    const float *r1 = r0 + w;
                    for (int j = 0; j < ow; ++j, ++oidx) {
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

    void
    relu(const float *x, float *y, std::size_t n) const override
    {
        for (std::size_t i = 0; i < n; ++i)
            y[i] = x[i] > 0.0f ? x[i] : 0.0f;
    }

    std::uint64_t
    applyRegionImageDequant(std::span<std::int16_t> words,
                            const FixedPointCodec &codec, float *out,
                            const sram::PackedFaultMap &region,
                            std::uint64_t startBit, double flipProb,
                            Rng &rng) const override
    {
        // The per-cell walk: one draw per faulty visited cell, in
        // visit order, the stream every backend must reproduce.
        std::uint64_t flipped = 0;
        if (flipProb > 0.0) {
            std::uint64_t bit = startBit % region.regionBits();
            for (auto &word : words) {
                auto raw = static_cast<std::uint16_t>(word);
                for (int b = 0; b < 16; ++b) {
                    if (region.test(bit) && rng.bernoulli(flipProb)) {
                        raw ^= static_cast<std::uint16_t>(1u << b);
                        ++flipped;
                    }
                    if (++bit == region.regionBits())
                        bit = 0;
                }
                word = static_cast<std::int16_t>(raw);
            }
        }
        for (std::size_t i = 0; i < words.size(); ++i)
            out[i] = codec.decode(words[i]);
        return flipped;
    }
};

} // namespace

const Backend &
referenceBackend()
{
    static const ReferenceBackend kReference;
    return kReference;
}

} // namespace vboost::dnn
