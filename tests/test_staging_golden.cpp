/**
 * @file
 * Golden digests of fault-injection staging. Every weight corruption
 * entry point of fi — all-weights, single-layer, per-layer rates and
 * SECDED-protected — is run on a small network through a 5000-cell
 * weight region, so the staged bits wrap the region about 3.4 times,
 * under an i.i.d. and a clustered map. The digests were recorded with
 * per-window packing and per-group ECC queries; staging from packed
 * region images must reproduce every flipped bit and RNG draw. Input
 * corruption and the window kernel (applyFaultMapDequant) are pinned
 * the same way, with digests recorded while both still walked their
 * own per-call window packings.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/fixed_point.hpp"
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

/** FNV-1a of a float buffer's bits, then the extra words. */
std::uint64_t
digestFloats(const float *v, std::size_t n,
             std::initializer_list<std::uint64_t> extra)
{
    std::uint64_t h = kFnvOffset;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t bits;
        std::memcpy(&bits, v + i, sizeof bits);
        h = fnvWord(h, bits);
    }
    for (std::uint64_t w : extra)
        h = fnvWord(h, w);
    return h;
}

/**
 * corruptInputs over batches of 1, 3 and 7 images through a
 * 2000-cell input region: images of 100 values (1600 bits, inside the
 * region) and of 300 (4800 bits, wrapping it 2.4 times), each batch
 * at (fail, flip) = (0.04, 0.5), (0, 0.5) and (0.04, 0). One digest
 * per batch size folds the three rates' outputs and RNG positions.
 */
std::vector<std::uint64_t>
inputDigests(const sram::VulnerabilityMap &map, int per_image)
{
    MemoryLayout layout;
    layout.inputRegionBits = 2000;
    std::vector<std::uint64_t> out;
    for (int batch : {1, 3, 7}) {
        Rng fill(static_cast<std::uint64_t>(100 * batch + per_image));
        const dnn::Tensor images =
            dnn::Tensor::randn({batch, per_image}, fill, 1.0);
        std::uint64_t h = kFnvOffset;
        for (const auto &[fail, flip] :
             {std::pair{0.04, 0.5}, std::pair{0.0, 0.5},
              std::pair{0.04, 0.0}}) {
            Rng rng(17);
            const dnn::Tensor x =
                corruptInputs(images, map, fail, flip, layout, rng);
            h = fnvWord(h, digestFloats(x.data(), x.numel(), {rng.next()}));
        }
        out.push_back(h);
    }
    return out;
}

/** applyFaultMapDequant over a window of 250 words (4000 visits)
 *  starting at region bit 2770 of a 1000-cell region at cell 300, so
 *  the walk starts past one period and wraps four times; digests at
 *  fail 0.05 and 0 (flip 0.5). */
std::vector<std::uint64_t>
windowDigests(const sram::VulnerabilityMap &map)
{
    const dnn::Backend &backend = dnn::activeBackend();
    const FixedPointCodec codec(11);
    std::vector<std::uint64_t> out;
    for (double fail : {0.05, 0.0}) {
        Rng fill(91);
        std::vector<std::int16_t> words(250);
        for (auto &w : words)
            w = static_cast<std::int16_t>(fill.uniformInt(65536) - 32768);
        std::vector<float> decoded(words.size());
        Rng rng(92);
        const auto flips = backend.applyFaultMapDequant(
            words, codec, decoded.data(), map, {300, 1000, 2770},
            {fail, 0.5}, rng);
        std::uint64_t h = digestFloats(decoded.data(), decoded.size(),
                                       {flips, rng.next()});
        for (std::int16_t w : words)
            h = fnvWord(h, static_cast<std::uint16_t>(w));
        out.push_back(h);
    }
    return out;
}

const sram::VulnerabilityMap &
iidMap()
{
    static const sram::VulnerabilityMap map(21, 3);
    return map;
}

const sram::VulnerabilityMap &
clusteredMap()
{
    static const sram::VulnerabilityMap map(21, 3, sram::MapModel::Clustered,
                                            sram::ClusterParams{});
    return map;
}

TEST(StagingGolden, CorruptInputsDigests)
{
    for (const auto name : dnn::availableBackends()) {
        SCOPED_TRACE(std::string(name));
        ASSERT_TRUE(dnn::setActiveBackend(name));
        EXPECT_EQ(inputDigests(iidMap(), 100),
                  (std::vector<std::uint64_t>{
                      0xb20f5e13a44df9d9ull,
                      0xdcec3bd8e57563aaull,
                      0x1c4af010d49bdc5bull}));
        EXPECT_EQ(inputDigests(iidMap(), 300),
                  (std::vector<std::uint64_t>{
                      0x8eef4b83a20143full,
                      0x1e28e5d717486043ull,
                      0x470a260cb01567e7ull}));
        EXPECT_EQ(inputDigests(clusteredMap(), 100),
                  (std::vector<std::uint64_t>{
                      0x60525f9f7d434909ull,
                      0xd91e986a7dff59b9ull,
                      0xef7c88b53120237dull}));
        EXPECT_EQ(inputDigests(clusteredMap(), 300),
                  (std::vector<std::uint64_t>{
                      0xff2c777d812401d8ull,
                      0x33f000d98a28f520ull,
                      0x4947051eb020f868ull}));
    }
    dnn::setActiveBackend("auto");
}

TEST(StagingGolden, WrappedWindowDequantDigests)
{
    for (const auto name : dnn::availableBackends()) {
        SCOPED_TRACE(std::string(name));
        ASSERT_TRUE(dnn::setActiveBackend(name));
        EXPECT_EQ(windowDigests(iidMap()),
                  (std::vector<std::uint64_t>{
                      0xf5985bbc5e11fc20ull,
                      0x44934295985ce7d2ull}));
        EXPECT_EQ(windowDigests(clusteredMap()),
                  (std::vector<std::uint64_t>{
                      0xe927085dd7e802f3ull,
                      0x44934295985ce7d2ull}));
    }
    dnn::setActiveBackend("auto");
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
