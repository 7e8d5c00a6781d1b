/**
 * @file
 * Tests for the tensor container and every backend's three GEMM
 * kernels, checked against a naive reference implementation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/logging.hpp"
#include "dnn/backend/backend.hpp"
#include "dnn/tensor.hpp"

namespace vboost::dnn {
namespace {

TEST(Tensor, ConstructionAndShape)
{
    Tensor t({3, 4});
    EXPECT_EQ(t.rank(), 2);
    EXPECT_EQ(t.dim(0), 3);
    EXPECT_EQ(t.dim(1), 4);
    EXPECT_EQ(t.numel(), 12u);
    for (std::size_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t[i], 0.0f);
    EXPECT_EQ(t.shapeString(), "[3, 4]");
}

TEST(Tensor, RejectsBadShapes)
{
    EXPECT_THROW(Tensor(std::vector<int>{}), FatalError);
    EXPECT_THROW(Tensor({2, 0}), FatalError);
    EXPECT_THROW(Tensor({-1}), FatalError);
    EXPECT_THROW(Tensor({1, 1, 1, 1, 1}), FatalError);
    Tensor t({2, 2});
    EXPECT_THROW(t.dim(2), FatalError);
}

TEST(Tensor, At2dAndAt4dAreRowMajor)
{
    Tensor t({2, 3});
    t.at(1, 2) = 7.0f;
    EXPECT_EQ(t[5], 7.0f);

    Tensor u({2, 3, 4, 5});
    u.at(1, 2, 3, 4) = 9.0f;
    EXPECT_EQ(u[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t({2, 6});
    for (std::size_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(i);
    const Tensor u = t.reshaped({3, 4});
    for (std::size_t i = 0; i < u.numel(); ++i)
        EXPECT_EQ(u[i], static_cast<float>(i));
    EXPECT_THROW(t.reshaped({5, 5}), FatalError);
}

TEST(Tensor, RandnStatistics)
{
    Rng rng(3);
    const Tensor t = Tensor::randn({100, 100}, rng, 0.5);
    double sum = 0, sq = 0;
    for (std::size_t i = 0; i < t.numel(); ++i) {
        sum += t[i];
        sq += t[i] * t[i];
    }
    EXPECT_NEAR(sum / t.numel(), 0.0, 0.02);
    EXPECT_NEAR(sq / t.numel(), 0.25, 0.02);
}

TEST(Tensor, FillAndMaxAbs)
{
    Tensor t({4});
    t.fill(-2.5f);
    EXPECT_EQ(t.maxAbs(), 2.5f);
    t[2] = 7.0f;
    EXPECT_EQ(t.maxAbs(), 7.0f);

    // Lane-parallel fold: NaN elements are ignored, as by the serial
    // std::max fold, wherever they sit, and every position counts.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (int len : {1, 3, 4, 7, 9, 16, 21}) {
        for (int at = 0; at < len; ++at) {
            Tensor u({len});
            for (int i = 0; i < len; ++i)
                u[static_cast<std::size_t>(i)] = (i % 2 ? -0.25f : 0.5f) * i;
            u[static_cast<std::size_t>(at)] = -100.0f;
            u[static_cast<std::size_t>((at + 1) % len)] = nan;
            const float expect = len == 1 ? 0.0f : 100.0f;
            EXPECT_EQ(u.maxAbs(), expect) << "len=" << len << " at=" << at;
        }
    }
}

// ----------------------------------------------------------------- GEMM

void
naiveGemm(const std::vector<float> &a, const std::vector<float> &b,
          std::vector<float> &c, int m, int k, int n)
{
    for (int i = 0; i < m; ++i)
        for (int j = 0; j < n; ++j) {
            float acc = 0;
            for (int kk = 0; kk < k; ++kk)
                acc += a[static_cast<std::size_t>(i) * k + kk] *
                       b[static_cast<std::size_t>(kk) * n + j];
            c[static_cast<std::size_t>(i) * n + j] = acc;
        }
}

std::vector<float>
randomVec(std::size_t n, Rng &rng)
{
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.normal());
    return v;
}

class GemmSizes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmSizes, MatchesNaiveReference)
{
    const auto [m, k, n] = GetParam();
    Rng rng(1);
    const auto a = randomVec(static_cast<std::size_t>(m) * k, rng);
    const auto b = randomVec(static_cast<std::size_t>(k) * n, rng);
    std::vector<float> ref(static_cast<std::size_t>(m) * n);
    naiveGemm(a, b, ref, m, k, n);
    for (const auto name : availableBackends()) {
        std::vector<float> c(static_cast<std::size_t>(m) * n);
        findBackend(name)->gemm(a.data(), b.data(), c.data(), m, k, n,
                                /*accumulate=*/false);
        for (std::size_t i = 0; i < c.size(); ++i)
            EXPECT_NEAR(c[i], ref[i], 1e-4f * k) << name;
    }
}

TEST_P(GemmSizes, TransposedVariantsMatch)
{
    const auto [m, k, n] = GetParam();
    Rng rng(2);
    const auto a = randomVec(static_cast<std::size_t>(m) * k, rng);
    const auto b = randomVec(static_cast<std::size_t>(k) * n, rng);
    std::vector<float> ref(static_cast<std::size_t>(m) * n);
    naiveGemm(a, b, ref, m, k, n);

    // gemmTransA with A stored transposed [k x m].
    std::vector<float> at(static_cast<std::size_t>(k) * m);
    for (int i = 0; i < m; ++i)
        for (int kk = 0; kk < k; ++kk)
            at[static_cast<std::size_t>(kk) * m + i] =
                a[static_cast<std::size_t>(i) * k + kk];
    // gemmTransB with B stored transposed [n x k].
    std::vector<float> bt(static_cast<std::size_t>(n) * k);
    for (int kk = 0; kk < k; ++kk)
        for (int j = 0; j < n; ++j)
            bt[static_cast<std::size_t>(j) * k + kk] =
                b[static_cast<std::size_t>(kk) * n + j];
    std::vector<float> scratch;
    for (const auto name : availableBackends()) {
        const Backend &backend = *findBackend(name);
        std::vector<float> c1(static_cast<std::size_t>(m) * n);
        backend.gemmTransA(at.data(), b.data(), c1.data(), m, k, n,
                           /*accumulate=*/false);
        for (std::size_t i = 0; i < c1.size(); ++i)
            EXPECT_NEAR(c1[i], ref[i], 1e-4f * k) << name;

        std::vector<float> c2(static_cast<std::size_t>(m) * n);
        backend.gemmTransB(a.data(), bt.data(), c2.data(), m, k, n,
                           /*accumulate=*/false, scratch);
        for (std::size_t i = 0; i < c2.size(); ++i)
            EXPECT_NEAR(c2[i], ref[i], 1e-4f * k) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 7},
                      std::tuple{16, 16, 16}, std::tuple{8, 1, 9},
                      std::tuple{1, 32, 1}, std::tuple{17, 23, 29}));

TEST(Gemm, AccumulateIsRejected)
{
    // The forward GEMM always starts from a zeroed C: the SIMD kernels
    // drop the reference's zero skip, which is exact only on chains
    // seeded from +0.0 (C = -0.0, A = 0, B = 1.5 would read +0.0 there
    // and -0.0 in the reference).
    const float a[1] = {0.0f};
    const float b[1] = {1.5f};
    for (const auto name : availableBackends()) {
        const Backend &backend = *findBackend(name);
        float c[1] = {-0.0f};
        EXPECT_THROW(backend.gemm(a, b, c, 1, 1, 1, /*accumulate=*/true),
                     PanicError)
            << name;
        backend.gemm(a, b, c, 1, 1, 1, /*accumulate=*/false);
        EXPECT_FALSE(std::signbit(c[0])) << name;
    }
}

} // namespace
} // namespace vboost::dnn
