/**
 * @file
 * Golden digests of the backward pass. The reference backend's
 * gemmTransA / gemmTransB and one Dense and one Conv2d backward are
 * pinned by FNV-1a digests of their output bits, recorded with the
 * original scalar loops. Every backend must reproduce them (the
 * vectorized kernels are checked against the reference in
 * test_backend.cpp); any drift in a gradient's float-operation order
 * moves a digest.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "dnn/backend/backend.hpp"
#include "dnn/layers.hpp"
#include "dnn/network.hpp"

namespace vboost::dnn {
namespace {

std::uint64_t
fnvFloats(std::uint64_t h, const float *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t bits;
        std::memcpy(&bits, &v[i], sizeof bits);
        for (int b = 0; b < 4; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    return h;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

std::uint64_t
digest(const std::vector<float> &v)
{
    return fnvFloats(kFnvOffset, v.data(), v.size());
}

std::uint64_t
digest(const Tensor &t)
{
    return fnvFloats(kFnvOffset, t.data(), t.numel());
}

/** Exact zeros of both signs (about one in four), tiny and ordinary
 *  magnitudes: exercises the transA zero-skip and signed-zero sums. */
void
fillSparse(std::vector<float> &v, Rng &rng)
{
    for (auto &x : v) {
        switch (rng.uniformInt(8)) {
        case 0: x = 0.0f; break;
        case 1: x = -0.0f; break;
        case 2: x = static_cast<float>(rng.normal(0.0, 1e-30)); break;
        default: x = static_cast<float>(rng.normal(0.0, 1.0));
        }
    }
}

void
fillSparse(Tensor &t, Rng &rng)
{
    std::vector<float> v(t.numel());
    fillSparse(v, rng);
    std::memcpy(t.data(), v.data(), v.size() * sizeof(float));
}

struct GemmGolden
{
    int m, k, n;
    /** transA accumulate=false/true, transB accumulate=false/true. */
    std::uint64_t transA[2];
    std::uint64_t transB[2];
};

// Shapes off every multiple of 8 and 16, degenerate 1-wide ones, and
// batch-64 shapes like a Dense layer's backward.
constexpr GemmGolden kGemmGoldens[] = {
    {1, 1, 1,
     {0x315446a086a23133ull, 0xb483674f7702376ull},
     {0x315446a086a23133ull, 0xb483674f7702376ull}},
    {3, 7, 5,
     {0xbbc7df445e12b31dull, 0x70c04e2e3c2791edull},
     {0xfa52c217ed6b4f71ull, 0xde59181dff1f8f3full}},
    {7, 13, 31,
     {0x6d1e5980d9eb3770ull, 0x9a8b00c9138fd311ull},
     {0xdb34b33572d6256full, 0xf99da4fe4505fe84ull}},
    {17, 31, 33,
     {0xbc6e794afc777456ull, 0x5261769676833634ull},
     {0x403df39117a76e28ull, 0x8f45e7b9b893a724ull}},
    {9, 1, 23,
     {0x165c8d9d2ccb1d26ull, 0x73fbc709b724215dull},
     {0x165c8d9d2ccb1d26ull, 0x96332d4000f65addull}},
    {1, 19, 45,
     {0xc2df9fc1b1ddfc27ull, 0x377048957f02bcc4ull},
     {0x16f4378481a08c19ull, 0xc5fb643d6d85a73full}},
    {33, 65, 70,
     {0xdaabdb9c6462aa69ull, 0x808bb09b3cc91662ull},
     {0x30ffd9c23b11ea76ull, 0x5eb4d9828f33be12ull}},
    {100, 64, 37,
     {0x8627eaa5db1ff6f8ull, 0x4cc82c59d244cafcull},
     {0x1011a24c6943ae55ull, 0x458505cfd802b95eull}},
    {5, 300, 9,
     {0xa73d437c811bac77ull, 0xa49e7f893f918ce3ull},
     {0x3570114bd303ccb4ull, 0x8964b8682d52bd6full}},
    {64, 10, 100,
     {0xb40189fd7bebb706ull, 0xbcba9a7c9983b7b7ull},
     {0x7d19a1264588e9f7ull, 0x4da8244b238ff46cull}},
};

TEST(BackwardGolden, ReferenceTransposedGemms)
{
    const Backend &ref = referenceBackend();
    std::vector<float> scratch;
    Rng rng(2024);
    for (const auto &g : kGemmGoldens) {
        const auto mk = static_cast<std::size_t>(g.m) * g.k;
        const auto kn = static_cast<std::size_t>(g.k) * g.n;
        const auto mn = static_cast<std::size_t>(g.m) * g.n;
        // transA: A [k x m], B [k x n]; transB: A [m x k], B [n x k].
        std::vector<float> a(mk), b(kn), c0(mn);
        fillSparse(a, rng);
        fillSparse(b, rng);
        fillSparse(c0, rng);
        for (int acc = 0; acc < 2; ++acc) {
            std::vector<float> c = c0;
            ref.gemmTransA(a.data(), b.data(), c.data(), g.m, g.k, g.n,
                           acc == 1);
            EXPECT_EQ(digest(c), g.transA[acc])
                << "gemmTransA m=" << g.m << " k=" << g.k << " n=" << g.n
                << " accumulate=" << acc;
            c = c0;
            ref.gemmTransB(a.data(), b.data(), c.data(), g.m, g.k, g.n,
                           acc == 1, scratch);
            EXPECT_EQ(digest(c), g.transB[acc])
                << "gemmTransB m=" << g.m << " k=" << g.k << " n=" << g.n
                << " accumulate=" << acc;
        }
    }
}

TEST(BackwardGolden, DenseAndConvGradients)
{
    Rng rng(77);
    {
        Dense fc(37, 19, rng, "fc");
        Tensor x({13, 37});
        fillSparse(x, rng);
        fc.forward(x, /*train=*/true);
        Tensor g({13, 19});
        fillSparse(g, rng);
        const Tensor dx = fc.backward(g);
        const auto p = fc.params();
        EXPECT_EQ(digest(*p[0].grad), 0x7598e42daca886ull) << "dense dW";
        EXPECT_EQ(digest(*p[1].grad), 0x68ea3e7f7ac7022eull) << "dense db";
        EXPECT_EQ(digest(dx), 0x8b9555248cd2d3c1ull) << "dense dx";
    }
    {
        Conv2d conv(3, 5, 3, 1, rng, "conv");
        Tensor x({2, 3, 7, 9});
        fillSparse(x, rng);
        conv.forward(x, /*train=*/true);
        Tensor g({2, 5, 7, 9});
        fillSparse(g, rng);
        const Tensor dx = conv.backward(g);
        const auto p = conv.params();
        EXPECT_EQ(digest(*p[0].grad), 0xa1f6380a5ee9c7faull) << "conv dW";
        EXPECT_EQ(digest(*p[1].grad), 0xaa664fe722e0b13cull) << "conv db";
        EXPECT_EQ(digest(dx), 0xce6d604ba10db01ull) << "conv dx";
    }
}

} // namespace
} // namespace vboost::dnn
