/**
 * @file
 * Tests for the extension modules: magnitude pruning + compressed
 * storage (Deep Compression tie-in), fault-aware training, and the
 * canary-based runtime boost controller.
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "core/canary.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/prune.hpp"
#include "dnn/quantize.hpp"
#include "dnn/trainer.hpp"
#include "fi/experiment.hpp"
#include "fi/fault_training.hpp"
#include "recovery/recovery.hpp"

namespace vboost {
namespace {

// -------------------------------------------------------------- pruning

dnn::Network
denseNet(std::uint64_t seed)
{
    Rng rng(seed);
    dnn::Network net;
    net.addLayer<dnn::Dense>(32, 64, rng, "fc1");
    net.addLayer<dnn::Relu>("r");
    net.addLayer<dnn::Dense>(64, 8, rng, "fc2");
    return net;
}

TEST(Prune, AchievesRequestedSparsity)
{
    auto net = denseNet(1);
    const auto report = dnn::magnitudePrune(net, 0.9);
    EXPECT_EQ(report.totalWeights, 32u * 64 + 64 * 8);
    EXPECT_NEAR(report.sparsity(), 0.9, 0.01);
    EXPECT_EQ(dnn::nonzeroWeights(net),
              report.totalWeights - report.zeroedWeights);
}

TEST(Prune, RemovesSmallestMagnitudesFirst)
{
    Rng rng(2);
    dnn::Network net;
    auto &d = net.addLayer<dnn::Dense>(4, 2, rng, "fc");
    // Values with distinct magnitudes.
    for (std::size_t i = 0; i < 8; ++i)
        d.weight()[i] = static_cast<float>(i + 1) * (i % 2 ? -1.f : 1.f);
    dnn::magnitudePrune(net, 0.5);
    // The four smallest magnitudes (1..4) are gone, 5..8 survive.
    int zeros = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        if (d.weight()[i] == 0.0f) {
            ++zeros;
            EXPECT_LT(i, 4u);
        }
    }
    EXPECT_EQ(zeros, 4);
}

TEST(Prune, ZeroSparsityIsNoOp)
{
    auto net = denseNet(3);
    const auto before = dnn::nonzeroWeights(net);
    const auto report = dnn::magnitudePrune(net, 0.0);
    EXPECT_EQ(report.zeroedWeights, 0u);
    EXPECT_EQ(dnn::nonzeroWeights(net), before);
    EXPECT_THROW(dnn::magnitudePrune(net, 1.0), FatalError);
    EXPECT_THROW(dnn::magnitudePrune(net, -0.1), FatalError);
}

TEST(Prune, CompressedStorageShrinksWithSparsity)
{
    auto net = denseNet(4);
    const auto dense_bytes = dnn::denseWeightBytes(net);
    EXPECT_EQ(dense_bytes, (32u * 64 + 64 * 8) * 2);
    const auto before = dnn::compressedWeightBytes(net);
    dnn::magnitudePrune(net, 0.9);
    const auto after = dnn::compressedWeightBytes(net);
    EXPECT_LT(after, before);
    // Strong compression at 90% sparsity with 4-bit indices (row
    // pointers dominate for this small model, capping the ratio).
    EXPECT_LT(after, dense_bytes / 3);
    EXPECT_THROW(dnn::compressedWeightBytes(net, 0), FatalError);
}

TEST(Prune, ModeratePruningPreservesAccuracy)
{
    // Train a model, prune 60%, accuracy must survive.
    Rng rng(5);
    auto train = dnn::makeSyntheticMnist(1500, 21);
    auto test = dnn::makeSyntheticMnist(400, 22);
    dnn::Network net;
    net.addLayer<dnn::Dense>(784, 64, rng, "fc1");
    net.addLayer<dnn::Relu>("r");
    net.addLayer<dnn::Dense>(64, 10, rng, "fc2");
    dnn::TrainConfig cfg;
    cfg.epochs = 4;
    dnn::SgdTrainer trainer(cfg);
    trainer.train(net, train, rng);
    const double full = dnn::SgdTrainer::evaluate(net, test, 0);
    dnn::magnitudePrune(net, 0.6);
    const double pruned = dnn::SgdTrainer::evaluate(net, test, 0);
    EXPECT_GT(full, 0.95);
    EXPECT_GT(pruned, full - 0.05);
}

// -------------------------------------------------- fault-aware training

TEST(FaultAwareTraining, ImprovesResilienceAtTrainedRate)
{
    Rng rng(7);
    auto train = dnn::makeSyntheticMnist(1500, 31);
    auto test = dnn::makeSyntheticMnist(400, 32);

    auto make_net = [](std::uint64_t seed) {
        Rng r(seed);
        dnn::Network net;
        net.addLayer<dnn::Dense>(784, 48, r, "fc1");
        net.addLayer<dnn::Relu>("relu");
        net.addLayer<dnn::Dense>(48, 10, r, "fc2");
        return net;
    };

    // Baseline training.
    auto baseline = make_net(1);
    dnn::TrainConfig cfg;
    cfg.epochs = 4;
    dnn::SgdTrainer trainer(cfg);
    trainer.train(baseline, train, rng);
    dnn::clipParameters(baseline, 0.5f);

    // Fault-aware training at a bruising rate.
    auto hardened = make_net(1);
    auto scratch_train = make_net(2);
    fi::FaultTrainConfig fcfg;
    fcfg.base = cfg;
    fcfg.base.epochs = 6;
    fcfg.failProb = 0.02;
    fi::FaultAwareTrainer fat(fcfg);
    Rng rng2(7);
    const auto stats = fat.train(hardened, scratch_train, train, rng2);
    EXPECT_EQ(stats.size(), 6u);
    dnn::clipParameters(hardened, 0.5f);

    // Both models are competent fault-free.
    EXPECT_GT(dnn::SgdTrainer::evaluate(baseline, test, 0), 0.95);
    EXPECT_GT(dnn::SgdTrainer::evaluate(hardened, test, 0), 0.90);

    // Under injection at (beyond) the training rate, the hardened
    // model holds more accuracy.
    auto eval_under_faults = [&](dnn::Network &model) {
        fi::ExperimentConfig ecfg;
        ecfg.numMaps = 6;
        ecfg.maxTestSamples = 300;
        fi::FaultInjectionRunner runner(model, test, ecfg);
        return runner.run(0.05, fi::InjectionSpec::allWeights())
            .meanAccuracy;
    };
    const double base_acc = eval_under_faults(baseline);
    const double hard_acc = eval_under_faults(hardened);
    EXPECT_GT(hard_acc, base_acc + 0.03)
        << "hardened " << hard_acc << " vs baseline " << base_acc;
}

TEST(FaultAwareTraining, HonoursFlipProb)
{
    // Same seed, same maps: only the per-read flip probability of the
    // faulty cells differs, so the trained weights must differ too.
    auto train = dnn::makeSyntheticMnist(300, 36);
    auto run = [&](double flip_prob) {
        Rng r(1);
        dnn::Network net;
        net.addLayer<dnn::Dense>(784, 16, r, "fc1");
        net.addLayer<dnn::Relu>("relu");
        net.addLayer<dnn::Dense>(16, 10, r, "fc2");
        dnn::Network scratch = net.clone();
        fi::FaultTrainConfig cfg;
        cfg.base.epochs = 1;
        cfg.warmupEpochs = 0;
        cfg.failProb = 0.02;
        cfg.flipProb = flip_prob;
        fi::FaultAwareTrainer fat(cfg);
        Rng trng(7);
        fat.train(net, scratch, train, trng);
        return recovery::weightsDigest(net);
    };
    EXPECT_EQ(run(0.5), run(0.5));
    EXPECT_NE(run(1.0), run(0.5));
}

TEST(FaultAwareTraining, ValidatesConfig)
{
    fi::FaultTrainConfig cfg;
    cfg.failProb = 1.5;
    EXPECT_THROW(fi::FaultAwareTrainer{cfg}, FatalError);

    cfg = {};
    cfg.failProb = -0.1;
    EXPECT_THROW(fi::FaultAwareTrainer{cfg}, FatalError);

    cfg = {};
    cfg.flipProb = 1.5;
    EXPECT_THROW(fi::FaultAwareTrainer{cfg}, FatalError);

    cfg = {};
    cfg.flipProb = -0.5;
    EXPECT_THROW(fi::FaultAwareTrainer{cfg}, FatalError);

    cfg = {};
    cfg.warmupEpochs = -1;
    EXPECT_THROW(fi::FaultAwareTrainer{cfg}, FatalError);

    cfg = {};
    cfg.gradClip = -0.1;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = {};
    cfg.weightClip = -0.1;
    EXPECT_THROW(fi::FaultAwareTrainer{cfg}, FatalError);

    // The base SGD configuration is validated with it.
    cfg = {};
    cfg.base.momentum = 1.0;
    EXPECT_THROW(cfg.validate(), FatalError);

    // Boundary values are legal.
    cfg = {};
    cfg.failProb = 0.0;
    cfg.flipProb = 1.0;
    cfg.warmupEpochs = 0;
    cfg.gradClip = 0.0;
    cfg.weightClip = 0.0;
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_NO_THROW(fi::FaultAwareTrainer{cfg});
}

// ---------------------------------------------------------------- canary

TEST(Canary, ChoosesHigherLevelAtLowerVoltage)
{
    const auto ctx = core::SimContext::standard();
    core::CanaryController controller(ctx, 16);
    const sram::VulnerabilityMap map(5, 0);

    const auto low = controller.chooseLevel(0.38_V, map);
    const auto high = controller.chooseLevel(0.50_V, map);
    ASSERT_TRUE(low.has_value());
    ASSERT_TRUE(high.has_value());
    EXPECT_GE(*low, *high);
}

TEST(Canary, ChosenLevelGuaranteesLowArrayFailProb)
{
    const auto ctx = core::SimContext::standard();
    core::CanaryController controller(ctx, 16, 64, 0.03_V);
    for (double v : {0.38, 0.42, 0.46, 0.50}) {
        for (std::uint64_t m = 0; m < 5; ++m) {
            const sram::VulnerabilityMap map(11, m);
            const auto level = controller.chooseLevel(Volt(v), map);
            ASSERT_TRUE(level.has_value()) << "v=" << v << " map=" << m;
            // Canary margin buys a real-array failure probability well
            // below the canary trip point.
            EXPECT_LT(controller.arrayFailProbAt(Volt(v), *level), 2e-2)
                << "v=" << v << " map=" << m;
        }
    }
}

TEST(Canary, FailuresDecreaseWithLevel)
{
    const auto ctx = core::SimContext::standard();
    core::CanaryController controller(ctx, 16, 256, 0.05_V);
    const sram::VulnerabilityMap map(13, 1);
    const Volt vdd{0.36};
    int prev = controller.observedFailures(vdd, 0, map);
    for (int level = 1; level <= 4; ++level) {
        const int cur = controller.observedFailures(vdd, level, map);
        EXPECT_LE(cur, prev) << "level " << level;
        prev = cur;
    }
}

TEST(Canary, ValidatesConstruction)
{
    const auto ctx = core::SimContext::standard();
    EXPECT_THROW(core::CanaryController(ctx, 16, 0), FatalError);
    EXPECT_THROW(core::CanaryController(ctx, 16, 64, Volt(-0.01)),
                 FatalError);
}

TEST(Canary, UnreachableAtExtremeLowVoltage)
{
    const auto ctx = core::SimContext::standard();
    // A huge margin makes even the top level insufficient at 0.34 V.
    core::CanaryController controller(ctx, 16, 256, 0.25_V);
    const sram::VulnerabilityMap map(17, 0);
    EXPECT_FALSE(controller.chooseLevel(0.34_V, map).has_value());
}

} // namespace
} // namespace vboost
