/**
 * @file
 * End-to-end integration: train a network with the real training
 * pipeline, deploy it onto the Dante chip model, and verify the
 * paper's central behaviour — at low voltage, inference through
 * unboosted SRAM collapses while boosting restores accuracy at a
 * modest energy premium over the unboosted access path.
 */

#include <gtest/gtest.h>

#include "accel/dante.hpp"
#include "core/context.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/quantize.hpp"
#include "dnn/trainer.hpp"
#include "fi/experiment.hpp"

namespace vboost {
namespace {

/** Compact FC topology that still exercises the full staging path. */
dnn::Network
compactFc(std::uint64_t seed)
{
    Rng rng(seed);
    dnn::Network net;
    net.addLayer<dnn::Dense>(784, 64, rng, "fc1");
    net.addLayer<dnn::Relu>("r1");
    net.addLayer<dnn::Dense>(64, 32, rng, "fc2");
    return net;
}

class EndToEnd : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        net_ = new dnn::Network(compactFc(1));
        test_ = new dnn::Dataset(dnn::makeSyntheticMnist(256, 22));
        auto train = dnn::makeSyntheticMnist(1500, 21);
        dnn::TrainConfig cfg;
        cfg.epochs = 5;
        dnn::SgdTrainer trainer(cfg);
        Rng rng(2);
        trainer.train(*net_, train, rng);
        dnn::clipParameters(*net_, 0.5f);
    }

    static void
    TearDownTestSuite()
    {
        delete net_;
        delete test_;
        net_ = nullptr;
        test_ = nullptr;
    }

    /** Accuracy of chip inference over the held-out set. */
    static double
    chipAccuracy(accel::DanteChip &chip, Volt vdd, int level,
                 std::uint64_t map_index, int input_level = -1)
    {
        const sram::VulnerabilityMap map(77, map_index);
        Rng rng(map_index + 1);
        auto scratch = net_->clone();
        const auto logits = chip.runInference(
            *net_, scratch, test_->images, vdd, {level, level},
            input_level < 0 ? level : input_level, map, rng);
        std::size_t correct = 0;
        for (int i = 0; i < logits.dim(0); ++i) {
            int best = 0;
            for (int j = 1; j < logits.dim(1); ++j) {
                if (logits.at(i, j) > logits.at(i, best))
                    best = j;
            }
            correct +=
                best == test_->labels[static_cast<std::size_t>(i)];
        }
        return static_cast<double>(correct) /
               static_cast<double>(test_->size());
    }

    static dnn::Network *net_;
    static dnn::Dataset *test_;
};

dnn::Network *EndToEnd::net_ = nullptr;
dnn::Dataset *EndToEnd::test_ = nullptr;

TEST_F(EndToEnd, FloatModelLearnsTask)
{
    EXPECT_GT(dnn::SgdTrainer::evaluate(*net_, *test_, 0), 0.95);
}

TEST_F(EndToEnd, HighVoltageChipMatchesFloatModel)
{
    auto ctx = core::SimContext::standard();
    accel::DanteChip chip(accel::DanteConfig::fromTable1(), ctx.tech,
                          ctx.failure);
    const double float_acc = dnn::SgdTrainer::evaluate(*net_, *test_, 0);
    const double chip_acc = chipAccuracy(chip, 0.6_V, 0, 0);
    EXPECT_NEAR(chip_acc, float_acc, 0.02);
}

TEST_F(EndToEnd, BoostingRestoresAccuracyAtLowVoltage)
{
    // The paper's Fig. 1 story on real simulated hardware: at a VLV
    // operating point, unboosted accuracy collapses toward chance
    // while boosting to Vddv4 recovers near-peak accuracy.
    auto ctx = core::SimContext::standard();
    accel::DanteChip chip(accel::DanteConfig::fromTable1(), ctx.tech,
                          ctx.failure);
    const Volt vdd{0.40};
    double unboosted = 0, boosted = 0;
    const int maps = 3;
    for (int m = 0; m < maps; ++m) {
        unboosted += chipAccuracy(chip, vdd, 0, 100 + m);
        boosted += chipAccuracy(chip, vdd, 4, 100 + m);
    }
    unboosted /= maps;
    boosted /= maps;
    EXPECT_LT(unboosted, 0.7);
    EXPECT_GT(boosted, 0.93);
}

TEST_F(EndToEnd, AccuracyMonotoneInBoostLevel)
{
    auto ctx = core::SimContext::standard();
    accel::DanteChip chip(accel::DanteConfig::fromTable1(), ctx.tech,
                          ctx.failure);
    const Volt vdd{0.42};
    std::vector<double> acc;
    for (int level = 0; level <= 4; ++level) {
        double a = 0;
        for (int m = 0; m < 3; ++m)
            a += chipAccuracy(chip, vdd, level, 200 + m);
        acc.push_back(a / 3);
    }
    // Allow small Monte-Carlo wiggle but require the overall trend.
    for (std::size_t i = 1; i < acc.size(); ++i)
        EXPECT_GE(acc[i] + 0.05, acc[i - 1]) << "level " << i;
    EXPECT_GT(acc.back(), acc.front());
}

TEST_F(EndToEnd, BoostEnergyPremiumIsBoundedButLeakageWins)
{
    // Boosted accesses cost more dynamic energy per access than
    // unboosted ones, but the premium stays far below the cost of
    // running the whole chip at the boosted voltage.
    auto ctx = core::SimContext::standard();
    accel::DanteChip chip(accel::DanteConfig::fromTable1(), ctx.tech,
                          ctx.failure);
    const Volt vdd{0.40};

    chip.resetCounters();
    chipAccuracy(chip, vdd, 0, 0);
    const double unboosted = chip.dynamicEnergy().value();

    chip.resetCounters();
    chipAccuracy(chip, vdd, 4, 0);
    const double boosted = chip.dynamicEnergy().value();

    EXPECT_GT(boosted, unboosted);
    EXPECT_LT(boosted, unboosted * 3.0);

    // Leakage at the chip level is evaluated at Vdd regardless of
    // boosting; a single-supply design meeting the same accuracy
    // would idle at the boosted voltage and leak much more.
    auto &em_tech = ctx.tech;
    circuit::EnergyModel em(em_tech);
    const double vddv =
        chip.weightMemory().bank(0).effectiveVoltage(vdd).value();
    EXPECT_GT(em.leakageScale(Volt(vddv)), em.leakageScale(vdd) * 1.5);
}

TEST_F(EndToEnd, FiHarnessAgreesWithChipSimulation)
{
    // The lightweight fi:: path (used for the big Monte-Carlo sweeps)
    // and the cycle-level chip staging path must tell the same story
    // at matched failure probabilities.
    auto ctx = core::SimContext::standard();
    accel::DanteChip chip(accel::DanteConfig::fromTable1(), ctx.tech,
                          ctx.failure);
    sram::FailureRateModel frm(ctx.failure);
    const Volt vdd{0.42};

    fi::ExperimentConfig cfg;
    cfg.numMaps = 4;
    cfg.maxTestSamples = 256;
    fi::FaultInjectionRunner runner(*net_, *test_, cfg);
    const double fi_acc =
        runner.run(frm.rate(vdd), fi::InjectionSpec::allWeights())
            .meanAccuracy;

    // Keep the input memory boosted to a reliable level so that, like
    // the fi:: harness's all-weights spec, only weights are faulty.
    double chip_acc = 0;
    for (int m = 0; m < 4; ++m)
        chip_acc += chipAccuracy(chip, vdd, 0, 300 + m,
                                 /*input_level=*/4);
    chip_acc /= 4;

    // Same qualitative operating point (both degraded, within a loose
    // band of each other; the chip path also corrupts activations).
    EXPECT_NEAR(chip_acc, fi_acc, 0.25);
}

} // namespace
} // namespace vboost
