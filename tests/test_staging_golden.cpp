/**
 * @file
 * Golden digests of fault-injection weight staging. Every corruption
 * entry point of fi — all-weights, single-layer, per-layer rates and
 * SECDED-protected — is run on a small network through a 5000-cell
 * weight region, so the staged bits wrap the region about 3.4 times,
 * under an i.i.d. and a clustered map. The digests were recorded with
 * per-window packing and per-group ECC queries; staging from packed
 * region images must reproduce every flipped bit and RNG draw.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dnn/backend/backend.hpp"
#include "dnn/layers.hpp"
#include "dnn/network.hpp"
#include "fi/injector.hpp"
#include "sram/ecc.hpp"
#include "sram/fault_map.hpp"

namespace vboost::fi {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

std::uint64_t
fnvWord(std::uint64_t h, std::uint64_t word)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (word >> (8 * b)) & 0xffu;
        h *= 1099511628211ull;
    }
    return h;
}

/** FNV-1a over every parameter's float bits, then the extra words. */
std::uint64_t
digest(dnn::Network &net, std::initializer_list<std::uint64_t> extra)
{
    std::uint64_t h = kFnvOffset;
    for (const auto &p : net.params()) {
        for (std::size_t i = 0; i < p.value->numel(); ++i) {
            std::uint32_t bits;
            std::memcpy(&bits, p.value->data() + i, sizeof bits);
            h = fnvWord(h, bits);
        }
    }
    for (std::uint64_t w : extra)
        h = fnvWord(h, w);
    return h;
}

dnn::Network
stagingNet(std::uint64_t seed)
{
    Rng rng(seed);
    dnn::Network net;
    net.addLayer<dnn::Dense>(16, 24, rng, "fc1");
    net.addLayer<dnn::Relu>("r1");
    net.addLayer<dnn::Dense>(24, 24, rng, "fc2");
    net.addLayer<dnn::Relu>("r2");
    net.addLayer<dnn::Dense>(24, 4, rng, "fc3");
    return net;
}

struct StagingGolden
{
    std::uint64_t allWeights;
    std::uint64_t singleLayer;
    std::uint64_t perLayerMixed;
    std::uint64_t perLayerUniform;
    std::uint64_t ecc;
};

StagingGolden
stageAll(const sram::VulnerabilityMap &map)
{
    dnn::Network src = stagingNet(1);
    MemoryLayout layout;
    layout.weightRegionBits = 5000;
    StagingGolden out{};
    {
        dnn::Network dst = stagingNet(2);
        Rng rng(11);
        const auto flips = corruptNetwork(dst, src, map, 0.03,
                                          InjectionSpec::allWeights(),
                                          layout, rng);
        out.allWeights = digest(dst, {flips, rng.next()});
    }
    {
        dnn::Network dst = stagingNet(2);
        Rng rng(12);
        const auto flips = corruptNetwork(dst, src, map, 0.05,
                                          InjectionSpec::singleLayer(1),
                                          layout, rng);
        out.singleLayer = digest(dst, {flips, rng.next()});
    }
    {
        dnn::Network dst = stagingNet(2);
        Rng rng(13);
        const auto flips = corruptNetworkPerLayer(
            dst, src, map, {0.01, 0.0, 0.04}, 0.5, layout, rng);
        out.perLayerMixed = digest(dst, {flips, rng.next()});
    }
    {
        dnn::Network dst = stagingNet(2);
        Rng rng(14);
        const auto flips = corruptNetworkPerLayer(
            dst, src, map, {0.02, 0.02, 0.02}, 0.5, layout, rng);
        out.perLayerUniform = digest(dst, {flips, rng.next()});
    }
    {
        dnn::Network dst = stagingNet(2);
        Rng rng(15);
        sram::EccStats stats;
        const auto flips = corruptNetworkEcc(dst, src, map, 0.03, 0.5,
                                             layout, rng, &stats);
        out.ecc = digest(dst, {flips, stats.words, stats.corrected,
                               stats.detectedUncorrectable, rng.next()});
    }
    return out;
}

void
expectGolden(const StagingGolden &got, const StagingGolden &want,
             const char *map)
{
    EXPECT_EQ(got.allWeights, want.allWeights) << map << " all weights";
    EXPECT_EQ(got.singleLayer, want.singleLayer) << map << " single layer";
    EXPECT_EQ(got.perLayerMixed, want.perLayerMixed)
        << map << " per-layer mixed";
    EXPECT_EQ(got.perLayerUniform, want.perLayerUniform)
        << map << " per-layer uniform";
    EXPECT_EQ(got.ecc, want.ecc) << map << " ecc";
}

/** Both maps on the active backend. */
void
checkBackend()
{
    expectGolden(stageAll(sram::VulnerabilityMap(21, 3)),
                 {0xd6903ffa05beeabaull, 0xab0303c05afc8190ull,
                  0x5554c38291797537ull, 0x7daab6cf13d742a3ull,
                  0x85ada718f7262a5ull},
                 "iid");
    expectGolden(stageAll(sram::VulnerabilityMap(
                     21, 3, sram::MapModel::Clustered,
                     sram::ClusterParams{})),
                 {0xf8ef677a27c3dba1ull, 0x67552b62a9ebcfbaull,
                  0x4fbad9064b9046d0ull, 0x79721eec2251d297ull,
                  0xa7d7db159822934ull},
                 "clustered");
}

TEST(StagingGolden, WrappedRegionDigests)
{
    for (const auto name : dnn::availableBackends()) {
        SCOPED_TRACE(std::string(name));
        ASSERT_TRUE(dnn::setActiveBackend(name));
        checkBackend();
    }
    dnn::setActiveBackend("auto");
}

} // namespace
} // namespace vboost::fi
