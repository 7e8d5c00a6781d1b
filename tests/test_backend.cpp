/**
 * @file
 * Backend equivalence suite (ctest `backend_equivalence`): the §12
 * bitwise contract. Every kernel of the vectorized backend must
 * produce byte-identical results to the scalar reference backend —
 * GEMM across awkward shapes, im2col/conv geometries on and off the
 * SIMD fast paths, pooling and relu on signed zeros and NaNs, the
 * fault kernel's flip patterns AND its RNG consumption order, packed
 * fault-map bits, whole-network logits, and Monte-Carlo experiment
 * digests plus observability fingerprints at 1 vs 8 threads.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "dnn/backend/backend.hpp"
#include "dnn/backend/impl.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/network.hpp"
#include "fi/experiment.hpp"
#include "obs/observability.hpp"
#include "sram/fault_map.hpp"
#include "sram/packed_fault_map.hpp"
#include "sram/word_fault_masks.hpp"

namespace vboost::dnn {
namespace {

/** Bitwise equality for float buffers (NaN-safe, -0.0 != +0.0). */
::testing::AssertionResult
bitsEqual(const float *a, const float *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
            std::uint32_t ba, bb;
            std::memcpy(&ba, &a[i], 4);
            std::memcpy(&bb, &b[i], 4);
            return ::testing::AssertionFailure()
                   << "bit mismatch at [" << i << "]: " << a[i] << " (0x"
                   << std::hex << ba << ") vs " << b[i] << " (0x" << bb
                   << ")";
        }
    }
    return ::testing::AssertionSuccess();
}

/** Mixed-magnitude fill: negatives, zeros of both signs, tiny values. */
void
fillMixed(std::vector<float> &v, Rng &rng)
{
    for (std::size_t i = 0; i < v.size(); ++i) {
        switch (rng.uniformInt(8)) {
        case 0: v[i] = 0.0f; break;
        case 1: v[i] = -0.0f; break;
        case 2: v[i] = static_cast<float>(rng.normal(0.0, 1e-30)); break;
        default:
            v[i] = static_cast<float>(rng.normal(0.0, 1.0));
        }
    }
}

/**
 * The per-cell fault walk every fault kernel must reproduce: bit b of
 * word w is visit 16*w + b, visit j touches cell regionBase +
 * (startBit + j) mod regionBits, and a faulty visited cell draws one
 * bernoulli(flipProb) and flips on success. Nothing is drawn at
 * failProb or flipProb 0. @return bits flipped.
 */
std::uint64_t
perCellFlips(std::span<std::int16_t> words, const sram::VulnerabilityMap &map,
             const FaultWindow &win, sram::FaultParams params, Rng &rng)
{
    if (params.failProb <= 0.0 || params.flipProb <= 0.0)
        return 0;
    std::uint64_t flipped = 0;
    std::uint64_t bit = win.startBit % win.regionBits;
    for (auto &word : words) {
        auto raw = static_cast<std::uint16_t>(word);
        for (int b = 0; b < 16; ++b) {
            if (map.isFaulty(win.regionBase + bit, params.failProb) &&
                rng.bernoulli(params.flipProb)) {
                raw ^= static_cast<std::uint16_t>(1u << b);
                ++flipped;
            }
            if (++bit == win.regionBits)
                bit = 0;
        }
        word = static_cast<std::int16_t>(raw);
    }
    return flipped;
}

/** Every GEMM width this build compiled and this CPU runs, not only
 *  the widest one the vectorized backend dispatches to. */
std::vector<std::pair<const char *, const detail::GemmKernels *>>
simdWidths()
{
    std::vector<std::pair<const char *, const detail::GemmKernels *>> out;
    if (const detail::GemmKernels *w = detail::avx2Gemm())
        out.emplace_back("avx2", w);
    if (const detail::GemmKernels *w = detail::avx512Gemm())
        out.emplace_back("avx512", w);
    return out;
}

class BackendEquivalence : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ref_ = &referenceBackend();
        vec_ = findBackend("vectorized");
        if (vec_ == nullptr)
            GTEST_SKIP() << "vectorized backend unavailable on this host";
    }

    const Backend *ref_ = nullptr;
    const Backend *vec_ = nullptr;
};

// ------------------------------------------------------------- gemm

TEST_F(BackendEquivalence, GemmBitwiseAcrossShapes)
{
    // Primes and tails around the 8x32 and 4x16 register tiles, the
    // masked W-column tails, the packing threshold (ldb >= 512) and
    // the cache-blocking boundaries (nc=512/kc=256, nc=256/kc=160).
    // C starts out as garbage with -0.0 entries: the GEMM overwrites it.
    const int shapes[][3] = {{1, 1, 1},     {3, 7, 5},    {8, 32, 32},
                             {7, 13, 31},   {17, 31, 33}, {16, 25, 1024},
                             {64, 64, 64},  {5, 13, 513}, {16, 257, 544},
                             {33, 300, 70}, {2, 400, 36}, {16, 75, 1024}};
    const auto widths = simdWidths();
    Rng rng(101);
    for (const auto &s : shapes) {
        const int m = s[0], k = s[1], n = s[2];
        std::vector<float> a(static_cast<std::size_t>(m) * k);
        std::vector<float> b(static_cast<std::size_t>(k) * n);
        fillMixed(a, rng);
        fillMixed(b, rng);
        std::vector<float> c0(static_cast<std::size_t>(m) * n);
        fillMixed(c0, rng);
        const std::vector<float> start = c0;
        std::vector<float> c1 = c0;
        ref_->gemm(a.data(), b.data(), c0.data(), m, k, n, false);
        vec_->gemm(a.data(), b.data(), c1.data(), m, k, n, false);
        EXPECT_TRUE(bitsEqual(c0.data(), c1.data(), c0.size()))
            << "gemm m=" << m << " k=" << k << " n=" << n;
        for (const auto &[name, w] : widths) {
            c1 = start;
            w->forward(a.data(), b.data(), c1.data(), m, k, n, n, n);
            EXPECT_TRUE(bitsEqual(c0.data(), c1.data(), c0.size()))
                << name << " forward m=" << m << " k=" << k << " n=" << n;
        }
    }
}

TEST_F(BackendEquivalence, TransposedGemmsBitwiseAcrossShapes)
{
    // Tails off every multiple of 8/16/32/64, the transA column and k
    // block edges (256, 128), and the Dense backward shapes of the
    // MNIST FC at batch 64 (dW: in x 64 x out; dx: 64 x out x in).
    // A carries exact zeros of both signs (the transA skip) and C holds
    // -0.0 entries when accumulating.
    const int shapes[][3] = {{1, 1, 1},      {3, 7, 5},     {7, 13, 31},
                             {17, 31, 33},   {9, 1, 23},    {1, 19, 45},
                             {5, 300, 9},    {40, 129, 257}, {33, 65, 70},
                             {784, 64, 256}, {64, 256, 256}, {64, 32, 256},
                             {256, 64, 32},  {27, 1024, 16}};
    const auto widths = simdWidths();
    Rng rng(202);
    std::vector<float> s0, s1;
    for (const auto &sh : shapes) {
        const int m = sh[0], k = sh[1], n = sh[2];
        std::vector<float> a(static_cast<std::size_t>(m) * k);
        std::vector<float> b(static_cast<std::size_t>(k) * n);
        fillMixed(a, rng);
        fillMixed(b, rng);
        for (bool accumulate : {false, true}) {
            std::vector<float> c0(static_cast<std::size_t>(m) * n);
            fillMixed(c0, rng);
            const std::vector<float> start = c0;
            std::vector<float> c1 = c0;
            ref_->gemmTransA(a.data(), b.data(), c0.data(), m, k, n,
                             accumulate);
            vec_->gemmTransA(a.data(), b.data(), c1.data(), m, k, n,
                             accumulate);
            EXPECT_TRUE(bitsEqual(c0.data(), c1.data(), c0.size()))
                << "gemmTransA m=" << m << " k=" << k << " n=" << n
                << " accumulate=" << accumulate;
            for (const auto &[name, w] : widths) {
                c1 = start;
                w->transA(a.data(), b.data(), c1.data(), m, k, n, m,
                          accumulate);
                EXPECT_TRUE(bitsEqual(c0.data(), c1.data(), c0.size()))
                    << name << " transA m=" << m << " k=" << k << " n=" << n
                    << " accumulate=" << accumulate;
            }

            fillMixed(c0, rng);
            c1 = c0;
            ref_->gemmTransB(a.data(), b.data(), c0.data(), m, k, n,
                             accumulate, s0);
            vec_->gemmTransB(a.data(), b.data(), c1.data(), m, k, n,
                             accumulate, s1);
            EXPECT_TRUE(bitsEqual(c0.data(), c1.data(), c0.size()))
                << "gemmTransB m=" << m << " k=" << k << " n=" << n
                << " accumulate=" << accumulate;
        }
    }
}

TEST(BackwardParams, GradientsMatchFullBackward)
{
    // backwardParams() skips the first parameterized layer's input
    // gradient (and every layer before it); the parameter gradients
    // must not move by a bit.
    Rng init(31);
    Network net;
    net.addLayer<Conv2d>(2, 4, 3, 1, init, "conv");
    net.addLayer<Relu>("relu1");
    net.addLayer<MaxPool2d>("pool");
    net.addLayer<Flatten>("flat");
    net.addLayer<Dense>(4 * 4 * 4, 12, init, "fc1");
    net.addLayer<Relu>("relu2");
    net.addLayer<Dense>(12, 5, init, "fc2");
    Network fc;
    fc.addLayer<Flatten>("flat");
    fc.addLayer<Dense>(2 * 8 * 8, 9, init, "fc1");
    fc.addLayer<Relu>("relu");
    fc.addLayer<Dense>(9, 5, init, "fc2");

    Tensor x = Tensor::randn({6, 2, 8, 8}, init, 1.0);
    for (Network *n : {&net, &fc}) {
        Network other = n->clone();
        const Tensor logits = n->forward(x, /*train=*/true);
        other.forward(x, /*train=*/true);
        Tensor grad = Tensor::randn(logits.shape(), init, 1.0);
        n->backward(grad);
        other.backwardParams(grad);
        const auto p0 = n->params();
        const auto p1 = other.params();
        ASSERT_EQ(p0.size(), p1.size());
        for (std::size_t i = 0; i < p0.size(); ++i)
            EXPECT_TRUE(bitsEqual(p0[i].grad->data(), p1[i].grad->data(),
                                  p0[i].grad->numel()))
                << p0[i].name;
    }
}

// --------------------------------------------------- im2col and conv

TEST_F(BackendEquivalence, Im2colAndConvBitwise)
{
    // Geometries on the stride-matched bulk path (w in {8, 16, 32}),
    // the per-row masked path (w = 12, w = 9), 1x1 no-pad, a kernel
    // wider than the image's valid span, and non-square images.
    const ConvGeom geoms[] = {
        {3, 8, 5, 2, 32, 32}, {16, 8, 5, 2, 16, 16}, {8, 4, 3, 1, 8, 8},
        {2, 3, 5, 2, 10, 12}, {4, 4, 3, 1, 7, 9},    {1, 2, 1, 0, 4, 4},
        {2, 2, 7, 3, 8, 8},   {3, 3, 3, 1, 16, 8},
    };
    Rng rng(202);
    for (const auto &g : geoms) {
        std::vector<float> image(
            static_cast<std::size_t>(g.inCh) * g.h * g.w);
        std::vector<float> weights(static_cast<std::size_t>(g.outCh) *
                                   g.patch());
        std::vector<float> bias(static_cast<std::size_t>(g.outCh));
        fillMixed(image, rng);
        fillMixed(weights, rng);
        fillMixed(bias, rng);

        std::vector<float> cols0, cols1;
        ref_->im2col(image.data(), g, cols0);
        vec_->im2col(image.data(), g, cols1);
        ASSERT_EQ(cols0.size(), cols1.size());
        EXPECT_TRUE(bitsEqual(cols0.data(), cols1.data(), cols0.size()))
            << "im2col k=" << g.kernel << " h=" << g.h << " w=" << g.w;

        std::vector<float> out0(static_cast<std::size_t>(g.outCh) *
                                g.spatial());
        std::vector<float> out1(out0.size());
        std::vector<float> scratch0, scratch1;
        ref_->im2colConv(image.data(), weights.data(), bias.data(),
                         out0.data(), g, scratch0);
        vec_->im2colConv(image.data(), weights.data(), bias.data(),
                         out1.data(), g, scratch1);
        EXPECT_TRUE(bitsEqual(out0.data(), out1.data(), out0.size()))
            << "im2colConv k=" << g.kernel << " h=" << g.h
            << " w=" << g.w;
    }
}

// ----------------------------------------------------- pool and relu

TEST_F(BackendEquivalence, MaxPoolSignedZeroTiesAndNaN)
{
    // Windows full of -0.0/+0.0 probe the tie rule (first element in
    // scan order wins, so MAXPS's "b unless a > b" must be paired in
    // the same order); NaN lanes probe the unordered-compare path.
    const int batch = 2, c = 3, h = 8, w = 16;
    std::vector<float> x(static_cast<std::size_t>(batch) * c * h * w);
    Rng rng(303);
    fillMixed(x, rng);
    for (std::size_t i = 0; i < x.size(); i += 17)
        x[i] = std::numeric_limits<float>::quiet_NaN();
    for (std::size_t i = 0; i < x.size(); i += 5)
        x[i] = (i % 2) ? 0.0f : -0.0f;
    std::vector<float> y0(x.size() / 4), y1(x.size() / 4);
    ref_->maxPool2x2(x.data(), y0.data(), batch, c, h, w);
    vec_->maxPool2x2(x.data(), y1.data(), batch, c, h, w);
    EXPECT_TRUE(bitsEqual(y0.data(), y1.data(), y0.size()));
}

TEST_F(BackendEquivalence, ReluSignedZeroAndNaN)
{
    std::vector<float> x = {1.5f,
                            -2.0f,
                            0.0f,
                            -0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::infinity(),
                            1e-40f};
    Rng rng(404);
    for (int i = 0; i < 100; ++i)
        x.push_back(static_cast<float>(rng.normal(0.0, 1.0)));
    std::vector<float> y0(x.size()), y1(x.size());
    ref_->relu(x.data(), y0.data(), x.size());
    vec_->relu(x.data(), y1.data(), x.size());
    EXPECT_TRUE(bitsEqual(y0.data(), y1.data(), y0.size()));
    // The contract maps -0.0 and NaN to +0.0 exactly.
    EXPECT_EQ(std::memcmp(&y1[3], &y1[2], 4), 0);
    EXPECT_FALSE(std::signbit(y1[3]));
    EXPECT_EQ(y1[4], 0.0f);
    // In-place operation is allowed.
    std::vector<float> z = x;
    vec_->relu(z.data(), z.data(), z.size());
    EXPECT_TRUE(bitsEqual(z.data(), y0.data(), z.size()));
}

// ----------------------------------------------------- fault kernels

TEST_F(BackendEquivalence, FaultMapWordsFlipsAndRngOrder)
{
    // applyFaultMapDequant on both backends against the per-cell walk:
    // the same flipped words, decoded outputs and RNG draws.
    const sram::VulnerabilityMap map(7, 3);
    const std::size_t kWords = 700; // not a multiple of 4 or 64
    const FixedPointCodec codec(12);
    const struct
    {
        FaultWindow win;
        double fail;
    } cases[] = {
        {{0, kWords * 16, 0}, 0.02},
        {{256, kWords * 16, 4096}, 0.05},
        // Wrapping walk: region smaller than the staged buffer.
        {{0, 4096, 4000}, 0.02},
        {{0, kWords * 16, 0}, 0.0},  // no faults at all
        {{0, kWords * 16, 0}, 1.0},  // every cell faulty
    };
    Rng fill(505);
    for (const auto &tc : cases) {
        std::vector<std::int16_t> words(kWords);
        for (auto &v : words)
            v = static_cast<std::int16_t>(fill.uniformInt(65536) - 32768);
        std::vector<std::int16_t> want = words;
        Rng r0(99);
        const auto f0 = perCellFlips(want, map, tc.win, {tc.fail, 0.5}, r0);
        std::vector<float> decoded(kWords);
        for (std::size_t i = 0; i < kWords; ++i)
            decoded[i] = codec.decode(want[i]);
        for (const Backend *be : {ref_, vec_}) {
            std::vector<std::int16_t> w = words;
            std::vector<float> out(kWords);
            Rng r1(99);
            const auto f1 = be->applyFaultMapDequant(
                w, codec, out.data(), map, tc.win, {tc.fail, 0.5}, r1);
            EXPECT_EQ(f0, f1) << be->name() << " fail_prob=" << tc.fail;
            EXPECT_EQ(w, want) << be->name() << " fail_prob=" << tc.fail;
            EXPECT_TRUE(bitsEqual(out.data(), decoded.data(), kWords))
                << be->name() << " fail_prob=" << tc.fail;
            // Identical RNG consumption: the next draws must agree.
            EXPECT_EQ(Rng(r0).next(), r1.next())
                << be->name() << " fail_prob=" << tc.fail;
        }
    }
}

TEST_F(BackendEquivalence, FusedDequantMatchesReference)
{
    const sram::VulnerabilityMap map(11, 1);
    const std::size_t kWords = 513;
    const FixedPointCodec codec(12);
    Rng fill(606);
    for (double fail : {0.0, 0.03, 0.5}) {
        std::vector<std::int16_t> w0(kWords), w1(kWords);
        for (auto &v : w0)
            v = static_cast<std::int16_t>(fill.uniformInt(65536) - 32768);
        w1 = w0;
        std::vector<float> out0(kWords), out1(kWords);
        const FaultWindow win{128, kWords * 16 + 64, 32};
        Rng r0(7), r1(7);
        const auto f0 = ref_->applyFaultMapDequant(
            w0, codec, out0.data(), map, win, {fail, 0.5}, r0);
        const auto f1 = vec_->applyFaultMapDequant(
            w1, codec, out1.data(), map, win, {fail, 0.5}, r1);
        EXPECT_EQ(f0, f1);
        EXPECT_EQ(std::memcmp(w0.data(), w1.data(),
                              kWords * sizeof(std::int16_t)),
                  0);
        EXPECT_TRUE(bitsEqual(out0.data(), out1.data(), kWords))
            << "fail_prob=" << fail;
        EXPECT_EQ(r0.next(), r1.next());
    }
}

TEST_F(BackendEquivalence, FaultMapBitsInterleavedWindows)
{
    // The ECC path reads each codeword with sram::flipMasked over the
    // masks of its data and check region images, so its draws
    // alternate between the two regions. The flips must be the ones
    // per-cell isFaulty answers name, data cells before check cells,
    // with the same RNG draws — including windows that wrap and
    // flipProb 0 (which still draws).
    const sram::VulnerabilityMap map(13, 2);
    const std::uint64_t data_bits = 1 << 14, check_bits = 100;
    const std::uint64_t check_base = 1 << 14;
    const sram::PackedFaultMap data(map, 0, data_bits, 0, data_bits, 0.04);
    const sram::PackedFaultMap check(map, check_base, check_bits, 0,
                                     check_bits, 0.04);
    Rng r0(3), r1(3), fill(707);
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t d = fill.next();
        const auto c = static_cast<std::uint8_t>(fill.next());
        // Data windows of 1..64 cells, the last one wrapping.
        const int nbits = 1 + static_cast<int>(fill.uniformInt(64));
        const std::uint64_t data_start =
            (static_cast<std::uint64_t>(i) * 256 + 100) % data_bits;
        const std::uint64_t check_start =
            (static_cast<std::uint64_t>(i) * 37 + 100) % check_bits;
        const double flip = i % 5 == 0 ? 0.0 : 0.5;

        std::uint64_t d0 = d;
        std::uint8_t c0 = c;
        const sram::WordMask mask{
            data.maskWrapped(data_start, static_cast<unsigned>(nbits)),
            static_cast<std::uint8_t>(check.maskWrapped(check_start, 8))};
        const int f0 = sram::flipMasked(d0, c0, mask, flip, r0);

        std::uint64_t d1 = d;
        std::uint8_t c1 = c;
        int f1 = 0;
        for (int k = 0; k < nbits; ++k) {
            if (map.isFaulty((data_start + static_cast<std::uint64_t>(k)) %
                                 data_bits,
                             0.04) &&
                r1.bernoulli(flip)) {
                d1 ^= 1ull << k;
                ++f1;
            }
        }
        for (int k = 0; k < 8; ++k) {
            if (map.isFaulty(check_base +
                                 (check_start + static_cast<std::uint64_t>(k)) %
                                     check_bits,
                             0.04) &&
                r1.bernoulli(flip)) {
                c1 = static_cast<std::uint8_t>(c1 ^ (1u << k));
                ++f1;
            }
        }
        EXPECT_EQ(f0, f1) << "i=" << i << " nbits=" << nbits;
        EXPECT_EQ(d0, d1) << "i=" << i << " nbits=" << nbits;
        EXPECT_EQ(c0, c1) << "i=" << i;
        EXPECT_EQ(Rng(r0).next(), Rng(r1).next()) << "i=" << i;
    }
    EXPECT_EQ(r0.next(), r1.next());
}

TEST_F(BackendEquivalence, RegionImageDequantMatchesWindowPacking)
{
    // Reading a window from a region image gives the flips, RNG draws
    // and outputs of the per-cell walk over the window, on both
    // backends: windows starting near the region end, longer than the
    // region, and a tail of fewer than four words.
    const FixedPointCodec codec(11);
    const std::uint64_t region = 3000; // not a multiple of 64
    for (const sram::VulnerabilityMap &map :
         {sram::VulnerabilityMap(11, 2),
          sram::VulnerabilityMap(11, 2, sram::MapModel::Clustered,
                                 sram::ClusterParams{})}) {
        const sram::PackedFaultMap image(map, 0, region, 0, region, 0.04);
        Rng fill(808);
        for (const auto &[start, nwords] :
             {std::pair<std::uint64_t, std::size_t>{0, 187},
              {2990, 64},
              {2999, 3},
              {1234, 1000}}) {
            std::vector<std::int16_t> w(nwords);
            for (auto &v : w)
                v = static_cast<std::int16_t>(fill.uniformInt(65536) -
                                              32768);
            for (const Backend *be : {ref_, vec_}) {
                std::vector<std::int16_t> w0 = w, w1 = w;
                std::vector<float> o0(nwords), o1(nwords);
                Rng r0(5), r1(5);
                const auto f0 = perCellFlips(w0, map, {0, region, start},
                                             {0.04, 0.5}, r0);
                for (std::size_t i = 0; i < nwords; ++i)
                    o0[i] = codec.decode(w0[i]);
                const auto f1 = be->applyRegionImageDequant(
                    w1, codec, o1.data(), image, start, 0.5, r1);
                EXPECT_EQ(f0, f1) << be->name() << " start=" << start;
                EXPECT_EQ(w0, w1) << be->name() << " start=" << start;
                EXPECT_TRUE(bitsEqual(o0.data(), o1.data(), nwords))
                    << be->name() << " start=" << start;
                EXPECT_EQ(r0.next(), r1.next()) << be->name();
            }
        }
    }
}

TEST(CorruptWords, FlipRateMatchesFailTimesFlipProb)
{
    const sram::VulnerabilityMap map(3, 1);
    const FixedPointCodec codec(12);
    const double fail = 0.05, flip = 0.5;
    const double expected = 20000.0 * 16 * fail * flip;
    for (const auto name : availableBackends()) {
        std::vector<std::int16_t> words(20000, 0x5555);
        std::vector<float> out(words.size());
        Rng rng(5);
        const auto flips = findBackend(name)->applyFaultMapDequant(
            words, codec, out.data(), map, {0, words.size() * 16, 0},
            {fail, flip}, rng);
        EXPECT_NEAR(static_cast<double>(flips), expected, expected * 0.1)
            << name;
    }
}

TEST(CorruptWords, NoOpAtZeroProbability)
{
    // A zero fail or flip probability flips nothing, draws nothing and
    // leaves a plain decode.
    const sram::VulnerabilityMap map(3, 1);
    const FixedPointCodec codec(12);
    for (const auto name : availableBackends()) {
        for (const sram::FaultParams params :
             {sram::FaultParams{0.0, 0.5}, sram::FaultParams{0.5, 0.0}}) {
            std::vector<std::int16_t> words(100, 0x1234);
            std::vector<float> out(words.size());
            Rng rng(5);
            EXPECT_EQ(findBackend(name)->applyFaultMapDequant(
                          words, codec, out.data(), map, {0, 1600, 0},
                          params, rng),
                      0u)
                << name;
            EXPECT_EQ(rng.next(), Rng(5).next()) << name;
            for (std::size_t i = 0; i < words.size(); ++i) {
                EXPECT_EQ(words[i], 0x1234);
                EXPECT_EQ(out[i], codec.decode(0x1234));
            }
        }
    }
}

// ------------------------------------------------- packed fault maps

TEST(PackedFaultMapEdgeCases, MatchesPerCellQueries)
{
    const sram::VulnerabilityMap iid(17, 5);
    const struct
    {
        std::uint64_t base, region, start, nbits;
        double fail;
    } cases[] = {
        {0, 1000, 0, 1000, 0.05},    // non-multiple-of-64 count
        {64, 512, 500, 600, 0.05},   // wraps and revisits cells
        {0, 4096, 4090, 100, 0.05},  // starts at the wrap point
        {0, 256, 0, 256, 0.0},       // no faulty cells
        {0, 256, 0, 256, 1.0},       // every cell faulty
        {7, 130, 129, 3, 0.5},       // tiny map, word-tail bits
        {0, 1000, 990, 5300, 0.05},  // starts near the end, > 5 periods
        {3, 100, 60, 777, 0.2},      // region below 64 bits per chunk
        {5, 37, 30, 400, 0.3},       // region shorter than a word
        {9, 1, 0, 130, 1.0},         // a 1-cell region
        {9, 1, 0, 70, 0.0},
    };
    const sram::VulnerabilityMap clustered(17, 5, sram::MapModel::Clustered,
                                           sram::ClusterParams{});
    for (const auto &tc : cases) {
        for (const sram::VulnerabilityMap *mp : {&iid, &clustered}) {
            const sram::VulnerabilityMap &map = *mp;
            const sram::PackedFaultMap packed(map, tc.base, tc.region,
                                              tc.start, tc.nbits, tc.fail);
            ASSERT_EQ(packed.numBits(), tc.nbits);
            std::uint64_t expect_count = 0;
            for (std::uint64_t j = 0; j < tc.nbits; ++j) {
                const std::uint64_t cell =
                    tc.base + (tc.start + j) % tc.region;
                const bool faulty = map.isFaulty(cell, tc.fail);
                EXPECT_EQ(packed.test(j), faulty)
                    << "visit " << j << " cell " << cell;
                expect_count += faulty;
            }
            EXPECT_EQ(packed.countFaulty(), expect_count);
            // mask() straddling 64-bit word boundaries, and reading past
            // numBits() (must read as zero).
            for (std::uint64_t j : {std::uint64_t{0}, std::uint64_t{60},
                                    std::uint64_t{127},
                                    tc.nbits > 5 ? tc.nbits - 5
                                                 : std::uint64_t{0}}) {
                if (j >= tc.nbits)
                    continue;
                const unsigned nb = 64;
                const std::uint64_t m = packed.mask(j, nb);
                for (unsigned b = 0; b < nb; ++b) {
                    const bool expect =
                        j + b < tc.nbits && packed.test(j + b);
                    EXPECT_EQ(((m >> b) & 1u) != 0, expect)
                        << "mask(" << j << ") bit " << b;
                }
            }
            // The region image of the same cells, read with wrap from the
            // walk's start, answers every visit the same way.
            const sram::PackedFaultMap image(
                map, tc.base, tc.region, 0,
                std::min(tc.start % tc.region + tc.nbits, tc.region),
                tc.fail);
            std::uint64_t pos = tc.start % tc.region;
            for (std::uint64_t j = 0; j < tc.nbits; j += 64) {
                const auto nb = static_cast<unsigned>(
                    std::min<std::uint64_t>(64, tc.nbits - j));
                EXPECT_EQ(image.maskWrapped(pos, nb), packed.mask(j, nb))
                    << "visit " << j;
                pos = (pos + 64) % tc.region;
            }
        }
    }
}

TEST(PackedFaultMap, SummaryMarksNonzeroWords)
{
    // Sparse rates, so zero and nonzero words mix: the wrapped walk
    // from mid-region, a periodic walk longer than its region (copied
    // revisits), and a linear run (a bank's word masks).
    const sram::VulnerabilityMap map(29, 3);
    const sram::PackedFaultMap wrapped(map, 64, 100003, 777, 100003, 0.002);
    const sram::PackedFaultMap periodic(map, 64, 5000, 4990, 23000, 0.004);
    const sram::PackedFaultMap linear(map, 1000, 70001, 0.002);
    for (const sram::PackedFaultMap *pm : {&wrapped, &periodic, &linear}) {
        const sram::PackedFaultMap &packed = *pm;
        const auto &words = packed.words();
        const auto &summary = packed.summary();
        ASSERT_EQ(summary.size(), (words.size() + 63) / 64);
        std::size_t zero_words = 0;
        for (std::size_t w = 0; w < 64 * summary.size(); ++w) {
            const bool marked = (summary[w >> 6] >> (w & 63)) & 1u;
            const bool nonzero = w < words.size() && words[w] != 0;
            EXPECT_EQ(marked, nonzero) << "word " << w;
            zero_words += w < words.size() && words[w] == 0;
        }
        EXPECT_GT(zero_words, 0u);
        EXPECT_LT(zero_words, words.size());
        // forEachFaulty() lists exactly the set test() bits of a range,
        // ascending, for ranges that start and end inside words, cover
        // everything, or run past numBits().
        const std::uint64_t n = packed.numBits();
        const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
            {0, n}, {5, n - 3}, {64, 128}, {4095, 4097 + 64 * 70},
            {n - 1, n + 100}, {n / 2, n / 2}, {n + 5, n + 9}};
        for (const auto &[lo, hi] : ranges) {
            std::vector<std::uint64_t> want, got;
            for (std::uint64_t j = lo; j < std::min(hi, n); ++j)
                if (packed.test(j))
                    want.push_back(j);
            packed.forEachFaulty(
                lo, hi, [&got](std::uint64_t j) { got.push_back(j); });
            EXPECT_EQ(got, want) << "range [" << lo << ", " << hi << ")";
        }
    }
}

// --------------------------------------- whole-network and MC digests

/** Small conv net exercising every backend kernel in one forward. */
Network
convNet(std::uint64_t seed)
{
    Rng rng(seed);
    Network net;
    net.addLayer<Conv2d>(3, 8, 5, 2, rng, "c1");
    net.addLayer<Relu>("r1");
    net.addLayer<MaxPool2d>("p1");
    net.addLayer<Conv2d>(8, 8, 3, 1, rng, "c2");
    net.addLayer<Relu>("r2");
    net.addLayer<MaxPool2d>("p2");
    net.addLayer<Flatten>("fl");
    net.addLayer<Dense>(8 * 4 * 4, 10, rng, "fc");
    return net;
}

/** Tiny CIFAR-shaped dataset (random pixels; determinism is what is
 *  under test, not accuracy). */
Dataset
tinyImages(int n, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset ds;
    ds.images = Tensor({n, 3, 16, 16});
    ds.labels.resize(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < ds.images.numel(); ++i)
        ds.images[i] = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto &l : ds.labels)
        l = static_cast<int>(rng.uniformInt(10));
    return ds;
}

TEST_F(BackendEquivalence, NetworkLogitsBitwiseIdentical)
{
    Network net = convNet(31);
    const Dataset ds = tinyImages(12, 32);

    ASSERT_TRUE(setActiveBackend("reference"));
    const Tensor ref_logits = net.forward(ds.images, /*train=*/false);
    ASSERT_TRUE(setActiveBackend("vectorized"));
    const Tensor vec_logits = net.forward(ds.images, /*train=*/false);
    setActiveBackend("auto");

    ASSERT_EQ(ref_logits.numel(), vec_logits.numel());
    EXPECT_TRUE(bitsEqual(ref_logits.data(), vec_logits.data(),
                          ref_logits.numel()));
}

TEST_F(BackendEquivalence, ExperimentDigestAndObsFingerprint)
{
    // The full Monte-Carlo pipeline — staging, fused corrupt +
    // dequantize, inference, map-order reduction — must produce
    // bit-identical statistics and observability fingerprints for
    // every (backend, thread count) combination.
    Network net = convNet(41);
    const Dataset ds = tinyImages(24, 42);

    struct Digest
    {
        fi::AccuracyPoint p;
        std::uint64_t fp;
    };
    std::vector<Digest> digests;
    for (const char *backend : {"reference", "vectorized"}) {
        for (int threads : {1, 8}) {
            ASSERT_TRUE(setActiveBackend(backend));
            fi::ExperimentConfig cfg;
            cfg.numMaps = 3;
            cfg.maxTestSamples = 16;
            cfg.numThreads = threads;
            fi::FaultInjectionRunner runner(net, ds, cfg);
            obs::Observability o;
            runner.attachObservability(&o);
            Digest d;
            d.p = runner.run(1e-4, fi::InjectionSpec::allWeights());
            runner.attachObservability(nullptr);
            d.fp = o.metrics.fingerprint();
            digests.push_back(d);
        }
    }
    setActiveBackend("auto");
    const auto &base = digests.front();
    for (std::size_t i = 1; i < digests.size(); ++i) {
        EXPECT_EQ(std::memcmp(&digests[i].p.meanAccuracy,
                              &base.p.meanAccuracy, sizeof(double)),
                  0)
            << "config " << i;
        EXPECT_EQ(std::memcmp(&digests[i].p.stddevAccuracy,
                              &base.p.stddevAccuracy, sizeof(double)),
                  0)
            << "config " << i;
        EXPECT_EQ(digests[i].p.minAccuracy, base.p.minAccuracy);
        EXPECT_EQ(digests[i].p.maxAccuracy, base.p.maxAccuracy);
        EXPECT_EQ(digests[i].p.meanBitFlips, base.p.meanBitFlips);
        EXPECT_EQ(digests[i].fp, base.fp) << "config " << i;
    }
}

} // namespace
} // namespace vboost::dnn
