/**
 * @file
 * Tests for the dataflow activity models (Table-3 ratios) and the
 * Dante chip model (Table-1 configuration, set_boost_config ISA,
 * end-to-end inference of the MNIST FC through the faulty memories).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/dante.hpp"
#include "accel/dataflow.hpp"
#include "common/logging.hpp"
#include "core/context.hpp"
#include "dnn/dataset.hpp"
#include "dnn/zoo.hpp"

namespace vboost::accel {
namespace {

// ------------------------------------------------------------- dataflow

TEST(DanaFc, AccessRatioMatchesTable3)
{
    // Table 3: SRAMAcc / MAC = 75% for the MNIST FC-DNN under DANA.
    DanaFcModel model;
    const auto layers =
        model.networkActivity(dnn::mnistFcLayerSizes());
    const auto total = totalActivity(layers);
    EXPECT_NEAR(total.accessRatio(), 0.75, 0.01);
}

TEST(DanaFc, MacsMatchLayerProducts)
{
    DanaFcModel model;
    const auto a = model.layerActivity(784, 256);
    EXPECT_EQ(a.macs, 784u * 256u);
    EXPECT_EQ(a.weightAccesses, 784u * 256u / 4);
    EXPECT_GT(a.inputAccesses, 0u);
    EXPECT_GT(a.psumAccesses, 0u);
    EXPECT_THROW(model.layerActivity(0, 5), FatalError);
}

TEST(DanaFc, NetworkActivityHasOneEntryPerLayer)
{
    DanaFcModel model;
    EXPECT_EQ(model.networkActivity({784, 256, 256, 256, 32}).size(), 4u);
    EXPECT_THROW(model.networkActivity({784}), FatalError);
}

TEST(EyerissRs, AlexNetRatioMatchesTable3)
{
    // Table 3: SRAMAcc / MAC = 1.67% for AlexNet under Row Stationary.
    EyerissRsModel model;
    const auto total =
        totalActivity(model.networkActivity(dnn::alexNetImageNetConvDims()));
    EXPECT_NEAR(total.accessRatio(), 0.0167, 0.004);
    // Orders of magnitude: ~666M MACs, ~10M buffer accesses.
    EXPECT_NEAR(static_cast<double>(total.macs), 666e6, 10e6);
}

TEST(EyerissRs, ConvAccessesAreMuchSparserThanFc)
{
    // Sec. 6.3: convolution layers reuse data far better than FC.
    EyerissRsModel rs;
    DanaFcModel fc;
    const auto conv = totalActivity(
        rs.networkActivity(dnn::alexNetImageNetConvDims()));
    const auto dense =
        totalActivity(fc.networkActivity(dnn::mnistFcLayerSizes()));
    EXPECT_LT(conv.accessRatio() * 10, dense.accessRatio());
}

TEST(EyerissRs, TrafficComponentsScaleWithGeometry)
{
    EyerissRsModel model;
    dnn::ConvLayerDims d{16, 32, 3, 16, 16, 16, 16};
    const auto a = model.layerActivity(d);
    EXPECT_EQ(a.macs, d.macs());
    EXPECT_GE(a.inputAccesses, d.inputs());
    EXPECT_GE(a.weightAccesses, d.weights());
    EXPECT_GE(a.psumAccesses, d.outputs());
    EXPECT_THROW(EyerissRsModel(RsArrayConfig{0, 32, 16}), FatalError);
}

TEST(LayerActivityMath, RatiosAndAccumulation)
{
    LayerActivity a{100, 10, 20, 30};
    EXPECT_EQ(a.totalAccesses(), 60u);
    EXPECT_DOUBLE_EQ(a.accessRatio(), 0.6);
    LayerActivity zero;
    EXPECT_DOUBLE_EQ(zero.accessRatio(), 0.0);
    a += LayerActivity{100, 1, 2, 3};
    EXPECT_EQ(a.macs, 200u);
    EXPECT_EQ(a.totalAccesses(), 66u);
}

// ---------------------------------------------------------------- dante

class DanteTest : public ::testing::Test
{
  protected:
    DanteTest()
        : ctx_(core::SimContext::standard()),
          chip_(DanteConfig::fromTable1(), ctx_.tech, ctx_.failure)
    {
    }

    core::SimContext ctx_;
    DanteChip chip_;
};

TEST_F(DanteTest, Table1Geometry)
{
    const auto &cfg = chip_.config();
    EXPECT_EQ(cfg.totalMacros(), 36);
    EXPECT_EQ(cfg.weightBytes(), 128u * 1024);
    EXPECT_EQ(cfg.inputBytes(), 16u * 1024);
    EXPECT_EQ(chip_.weightMemory().banks(), 16);
    EXPECT_EQ(chip_.inputMemory().banks(), 2);
    EXPECT_EQ(chip_.weightMemory().bank(0).levels(), 4);
}

TEST_F(DanteTest, FrequencyFollowsTable1)
{
    const auto &cfg = chip_.config();
    EXPECT_NEAR(cfg.frequencyAt(0.8_V).value(), 330e6, 1);
    EXPECT_NEAR(cfg.frequencyAt(0.5_V).value(), 50e6, 1);
    EXPECT_NEAR(cfg.frequencyAt(0.34_V).value(), 50e6, 1);
    EXPECT_GT(cfg.frequencyAt(0.65_V).value(), 50e6);
    EXPECT_LT(cfg.frequencyAt(0.65_V).value(), 330e6);
    EXPECT_THROW(cfg.frequencyAt(0.2_V), FatalError);
}

TEST_F(DanteTest, BoosterAreaMatchesTable1PerMacro)
{
    // Table 1: 0.0039 mm^2 per macro, 36 macros.
    const double per_macro_mm2 =
        chip_.boosterArea().value() / 1e6 / 36.0;
    EXPECT_NEAR(per_macro_mm2, 0.0039, 0.0008);
}

TEST_F(DanteTest, SetBoostConfigCountsInstructions)
{
    chip_.setWeightBoostLevel(3);
    EXPECT_EQ(chip_.counters().setBoostConfigInstrs, 16u);
    chip_.setInputBoostLevel(2);
    EXPECT_EQ(chip_.counters().setBoostConfigInstrs, 18u);
    for (int b = 0; b < 16; ++b)
        EXPECT_EQ(chip_.weightMemory().boostLevel(b), 3);
    chip_.setBoostConfig(5, 0b0001);
    EXPECT_EQ(chip_.weightMemory().boostLevel(5), 1);
}

TEST_F(DanteTest, CleanInferenceMatchesFloatModel)
{
    Rng rng(7);
    auto net = dnn::buildMnistFc(rng);
    const auto ds = dnn::makeSyntheticMnist(4, 3);
    sram::VulnerabilityMap map(1, 0);
    Rng rd(9);
    auto scratch = net.clone();
    // Boosted well above the error floor: only quantization noise.
    const auto logits = chip_.runInference(net, scratch, ds.images, 0.5_V,
                                           {4, 4, 4, 4}, 4, map, rd);
    auto ref = net.forward(ds.images);
    ASSERT_EQ(logits.shape(), ref.shape());
    for (std::size_t i = 0; i < logits.numel(); ++i)
        EXPECT_NEAR(logits[i], ref[i], 0.01f);
}

TEST_F(DanteTest, LowVoltageUnboostedCorruptsInference)
{
    Rng rng(7);
    auto net = dnn::buildMnistFc(rng);
    const auto ds = dnn::makeSyntheticMnist(4, 3);
    sram::VulnerabilityMap map(1, 0);
    Rng rd(9);
    auto scratch = net.clone();
    const auto bad = chip_.runInference(net, scratch, ds.images, 0.40_V,
                                        {0, 0, 0, 0}, 0, map, rd);
    const auto ref = net.forward(ds.images);
    double maxdiff = 0;
    for (std::size_t i = 0; i < bad.numel(); ++i)
        maxdiff = std::max(
            maxdiff, std::fabs(static_cast<double>(bad[i] - ref[i])));
    EXPECT_GT(maxdiff, 0.1);
}

TEST_F(DanteTest, CountersAccumulateActivity)
{
    Rng rng(7);
    auto net = dnn::buildMnistFc(rng);
    const auto ds = dnn::makeSyntheticMnist(2, 3);
    sram::VulnerabilityMap map(1, 0);
    Rng rd(9);
    auto scratch = net.clone();
    chip_.runInference(net, scratch, ds.images, 0.5_V, {2, 2, 2, 2}, 1, map,
                       rd);
    // 2 images x 339,968 MACs.
    EXPECT_EQ(chip_.counters().macOps, 2u * 339968u);
    const auto w = chip_.weightMemory().totalCounters();
    // Weights staged once per layer: 339,968 int16 words in and out.
    EXPECT_EQ(w.writes, 339968u / 4);
    EXPECT_EQ(w.reads, 339968u / 4);
    EXPECT_GT(w.boostEvents, 0u);
    EXPECT_GT(chip_.dynamicEnergy().value(), 0.0);
    chip_.resetCounters();
    EXPECT_EQ(chip_.counters().macOps, 0u);
    EXPECT_EQ(chip_.weightMemory().totalCounters().reads, 0u);
}

TEST_F(DanteTest, BoostLevelCountMustMatchLayers)
{
    Rng rng(7);
    auto net = dnn::buildMnistFc(rng);
    const auto ds = dnn::makeSyntheticMnist(1, 3);
    sram::VulnerabilityMap map(1, 0);
    Rng rd(9);
    auto scratch = net.clone();
    EXPECT_THROW(chip_.runInference(net, scratch, ds.images, 0.5_V, {4, 4},
                                    4, map, rd),
                 FatalError);
}

TEST_F(DanteTest, LeakageGrowsWithVoltage)
{
    EXPECT_LT(chip_.leakagePower(0.34_V), chip_.leakagePower(0.5_V));
    EXPECT_LT(chip_.leakagePower(0.5_V), chip_.leakagePower(0.8_V));
}

/**
 * Property: across supplies, boosting all layers to the top level
 * yields inference logits closer to the reference than unboosted.
 */
class DanteBoostSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(DanteBoostSweep, BoostingReducesLogitCorruption)
{
    const Volt vdd{GetParam()};
    auto ctx = core::SimContext::standard();
    DanteChip chip(DanteConfig::fromTable1(), ctx.tech, ctx.failure);
    Rng rng(7);
    auto net = dnn::buildMnistFc(rng);
    const auto ds = dnn::makeSyntheticMnist(4, 3);
    const auto ref = net.forward(ds.images);
    auto scratch = net.clone();

    auto corruption = [&](int level) {
        sram::VulnerabilityMap map(1, 0);
        Rng rd(9);
        chip.resetCounters();
        const auto out = chip.runInference(
            net, scratch, ds.images, vdd, std::vector<int>(4, level), level,
            map, rd);
        double sum = 0;
        for (std::size_t i = 0; i < out.numel(); ++i)
            sum += std::fabs(static_cast<double>(out[i] - ref[i]));
        return sum;
    };

    EXPECT_LT(corruption(4), corruption(0));
}

INSTANTIATE_TEST_SUITE_P(Supplies, DanteBoostSweep,
                         ::testing::Values(0.38, 0.40, 0.42, 0.44));

} // namespace
} // namespace vboost::accel
