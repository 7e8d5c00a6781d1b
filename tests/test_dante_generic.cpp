/**
 * @file
 * Tests for the generic (conv-capable) chip inference path: a small
 * conv network staged through the Dante model must match the float
 * model at reliable voltages, degrade when unboosted at VLV, recover
 * with boosting, and account MACs for Dense and Conv2d layers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/dante.hpp"
#include "common/logging.hpp"
#include "core/context.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/quantize.hpp"
#include "dnn/trainer.hpp"

namespace vboost::accel {
namespace {

/** Compact conv net: conv-pool-conv-pool-fc on 16x16x1 inputs. */
dnn::Network
tinyConvNet(std::uint64_t seed)
{
    Rng rng(seed);
    dnn::Network net;
    net.addLayer<dnn::Conv2d>(1, 4, 3, 1, rng, "conv1");
    net.addLayer<dnn::Relu>("r1");
    net.addLayer<dnn::MaxPool2d>("p1");
    net.addLayer<dnn::Conv2d>(4, 8, 3, 1, rng, "conv2");
    net.addLayer<dnn::Relu>("r2");
    net.addLayer<dnn::MaxPool2d>("p2");
    net.addLayer<dnn::Flatten>("flat");
    net.addLayer<dnn::Dense>(8 * 4 * 4, 4, rng, "fc");
    return net;
}

class GenericChipTest : public ::testing::Test
{
  protected:
    GenericChipTest()
        : ctx_(core::SimContext::standard()),
          chip_(DanteConfig::fromTable1(), ctx_.tech, ctx_.failure),
          net_(tinyConvNet(1)), scratch_(tinyConvNet(2)),
          x_({3, 1, 16, 16})
    {
        Rng rng(9);
        for (std::size_t i = 0; i < x_.numel(); ++i)
            x_[i] = static_cast<float>(rng.uniform());
        dnn::clipParameters(net_, 0.5f);
    }

    core::SimContext ctx_;
    DanteChip chip_;
    dnn::Network net_;
    dnn::Network scratch_;
    dnn::Tensor x_;
    sram::VulnerabilityMap map_{1, 0};
};

TEST_F(GenericChipTest, HighVoltageMatchesFloatModel)
{
    Rng rng(5);
    const auto out = chip_.runInference(net_, scratch_, x_, 0.6_V,
                                        {4, 4, 4}, 4, map_, rng);
    const auto ref = net_.forward(x_);
    ASSERT_EQ(out.shape(), ref.shape());
    for (std::size_t i = 0; i < out.numel(); ++i)
        EXPECT_NEAR(out[i], ref[i], 0.05f);
}

TEST_F(GenericChipTest, MacAccountingCoversConvAndDense)
{
    Rng rng(5);
    chip_.resetCounters();
    chip_.runInference(net_, scratch_, x_, 0.6_V, {4, 4, 4}, 4, map_,
                       rng);
    // conv1: 4*1*9 weights x 16x16 output; conv2: 8*4*9 x 8x8;
    // fc: 128x4; all x batch 3.
    const std::uint64_t expected =
        3ull * (36 * 256 + 288 * 64 + 128 * 4);
    EXPECT_EQ(chip_.counters().macOps, expected);
    EXPECT_GT(chip_.weightMemory().totalCounters().reads, 0u);
    EXPECT_GT(chip_.inputMemory().totalCounters().reads, 0u);
}

TEST_F(GenericChipTest, UnboostedVlvCorruptsAndBoostRecovers)
{
    Rng r1(5), r2(5);
    const auto ref = net_.forward(x_);
    const auto bad = chip_.runInference(net_, scratch_, x_, 0.40_V,
                                        {0, 0, 0}, 0, map_, r1);
    const auto good = chip_.runInference(net_, scratch_, x_, 0.40_V,
                                         {4, 4, 4}, 4, map_, r2);
    double err_bad = 0, err_good = 0;
    for (std::size_t i = 0; i < ref.numel(); ++i) {
        err_bad += std::fabs(static_cast<double>(bad[i] - ref[i]));
        err_good += std::fabs(static_cast<double>(good[i] - ref[i]));
    }
    EXPECT_LT(err_good, err_bad);
    EXPECT_LT(err_good / static_cast<double>(ref.numel()), 0.05);
}

TEST_F(GenericChipTest, ValidatesLevelCount)
{
    Rng rng(5);
    EXPECT_THROW(chip_.runInference(net_, scratch_, x_, 0.6_V, {4, 4},
                                    4, map_, rng),
                 FatalError);
}

} // namespace
} // namespace vboost::accel
