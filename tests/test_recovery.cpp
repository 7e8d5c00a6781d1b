/**
 * @file
 * Tests of the chip-adaptive accuracy-recovery subsystem (DESIGN.md
 * §15): configuration validation, the NeuralFuse input transform
 * (residual semantics, overhead accounting, serialization round trips
 * through both path and stream APIs), MATIC map-aware training
 * (per-chip hardening, clustered-map interaction, curriculum/refresh
 * bookkeeping), the §7 bitwise thread-count-invariance contract of
 * the ChipEvaluator (stats digests, trained-weight digests and obs
 * fingerprints), and the serving planner's recovery-mode dimension
 * (selection monotone in SLO strictness, overheads folded into the
 * energy objective).
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "core/context.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/network.hpp"
#include "dnn/quantize.hpp"
#include "dnn/serialize.hpp"
#include "dnn/trainer.hpp"
#include "fi/fault_training.hpp"
#include "obs/observability.hpp"
#include "recovery/input_transform.hpp"
#include "recovery/map_aware_trainer.hpp"
#include "recovery/recovery.hpp"
#include "serve/planner.hpp"
#include "sram/fault_map.hpp"

namespace vboost::recovery {
namespace {

dnn::Network
makeSmallNet(std::uint64_t seed)
{
    Rng r(seed);
    dnn::Network net;
    net.addLayer<dnn::Dense>(784, 48, r, "fc1");
    net.addLayer<dnn::Relu>("relu");
    net.addLayer<dnn::Dense>(48, 10, r, "fc2");
    return net;
}

// ------------------------------------------------------ validation

TEST(RecoveryConfig, ChipEvalConfigValidates)
{
    ChipEvalConfig cfg;
    EXPECT_NO_THROW(cfg.validate());
    cfg.numReads = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = {};
    cfg.flipProb = 1.5;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = {};
    cfg.numThreads = -1;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(RecoveryConfig, MapAwareConfigValidates)
{
    MapAwareConfig cfg;
    EXPECT_NO_THROW(cfg.validate());
    cfg.refreshInterval = -1;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = {};
    cfg.curriculumEpochs = -1;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = {};
    cfg.curriculumStartScale = 0.0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = {};
    cfg.curriculumStartScale = 1.5;
    EXPECT_THROW(cfg.validate(), FatalError);
    // The shared FaultTrainConfig checks flow through the constructor.
    cfg = {};
    cfg.train.failProb = -0.1;
    EXPECT_THROW(MapAwareTrainer{cfg}, FatalError);
    cfg = {};
    cfg.train.flipProb = 1.5;
    EXPECT_THROW(MapAwareTrainer{cfg}, FatalError);
}

TEST(RecoveryConfig, TransformConfigsValidate)
{
    TransformConfig tc;
    EXPECT_NO_THROW(tc.validate());
    tc.inputDim = 0;
    EXPECT_THROW(tc.validate(), FatalError);
    tc = {};
    tc.hiddenDim = -1;
    EXPECT_THROW(tc.validate(), FatalError);
    tc = {};
    tc.alpha = 0.0;
    EXPECT_THROW(tc.validate(), FatalError);

    TransformTrainConfig cfg;
    EXPECT_NO_THROW(cfg.validate());
    cfg.failProb = 1.5;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = {};
    cfg.warmupEpochs = -1;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = {};
    cfg.gradClip = -0.5;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(RecoveryConfig, PlannedRecoveryValidates)
{
    PlannedRecovery rec;
    EXPECT_NO_THROW(rec.validate()); // None needs no curve
    rec.mode = RecoveryMode::MapAware;
    EXPECT_THROW(rec.validate(), FatalError); // non-None needs a curve
    rec.accuracy = [](Volt) { return 0.9; };
    EXPECT_NO_THROW(rec.validate());
    rec.faultFreeAccuracy = 1.5;
    EXPECT_THROW(rec.validate(), FatalError);
}

TEST(RecoveryConfig, ModeNamesAreStable)
{
    EXPECT_STREQ(toString(RecoveryMode::None), "none");
    EXPECT_STREQ(toString(RecoveryMode::MapAware), "map_aware");
    EXPECT_STREQ(toString(RecoveryMode::InputTransform),
                 "input_transform");
    EXPECT_STREQ(toString(RecoveryMode::Combined), "combined");
}

// -------------------------------------------------- input transform

TEST(InputTransform, ResidualApplyStaysInUnitRange)
{
    TransformConfig cfg;
    cfg.inputDim = 16;
    cfg.hiddenDim = 8;
    InputTransform tf(cfg);

    dnn::Tensor x({4, 16});
    Rng rng(11);
    for (std::size_t e = 0; e < x.numel(); ++e)
        x[e] = static_cast<float>(rng.uniform());
    const auto y = tf.apply(x);
    ASSERT_EQ(y.numel(), x.numel());
    bool any_changed = false;
    for (std::size_t e = 0; e < y.numel(); ++e) {
        EXPECT_GE(y[e], 0.0f);
        EXPECT_LE(y[e], 1.0f);
        any_changed = any_changed || y[e] != x[e];
    }
    EXPECT_TRUE(any_changed);

    EXPECT_EQ(tf.macsPerSample(), 2ull * 16 * 8);
    EXPECT_GT(tf.accessesPerSample(), 0ull);
    EXPECT_GT(tf.parameterCount(), 0u);
}

TEST(InputTransform, SerializationRoundTripsPathsAndStreams)
{
    TransformConfig cfg;
    cfg.inputDim = 16;
    cfg.hiddenDim = 8;
    cfg.initSeed = 1;
    InputTransform a(cfg);
    cfg.initSeed = 2;
    InputTransform b(cfg);
    ASSERT_NE(weightsDigest(a.network()), weightsDigest(b.network()));

    // Stream round trip (the serialize overloads the transform's
    // save/load build on).
    std::stringstream buf;
    dnn::saveParameters(a.network(), buf);
    dnn::loadParameters(b.network(), buf);
    EXPECT_EQ(weightsDigest(a.network()), weightsDigest(b.network()));

    // Path round trip through the transform's own API.
    cfg.initSeed = 3;
    InputTransform c(cfg);
    ASSERT_NE(weightsDigest(a.network()), weightsDigest(c.network()));
    const std::string path =
        ::testing::TempDir() + "vboost_tf_params.bin";
    a.save(path);
    ASSERT_TRUE(c.load(path));
    EXPECT_EQ(weightsDigest(a.network()), weightsDigest(c.network()));
    std::remove(path.c_str());
    EXPECT_FALSE(c.load("/nonexistent/tf_params.bin"));

    // A structurally different transform rejects the stream.
    cfg.hiddenDim = 4;
    InputTransform d(cfg);
    std::stringstream buf2;
    dnn::saveParameters(a.network(), buf2);
    EXPECT_THROW(dnn::loadParameters(d.network(), buf2), FatalError);
}

TEST(InputTransform, TrainingProtectsFrozenBase)
{
    auto train = dnn::makeSyntheticMnist(1200, 41);
    auto test = dnn::makeSyntheticMnist(300, 42);

    auto base = makeSmallNet(1);
    Rng rng(7);
    dnn::TrainConfig tcfg;
    tcfg.epochs = 4;
    dnn::SgdTrainer trainer(tcfg);
    trainer.train(base, train, rng);
    dnn::clipParameters(base, 0.5f);
    const std::uint64_t base_digest = weightsDigest(base);

    TransformConfig tfc;
    tfc.hiddenDim = 16;
    InputTransform tf(tfc);

    TransformTrainConfig cfg;
    cfg.base.epochs = 3;
    cfg.base.learningRate = 0.05;
    cfg.failProb = 0.02;
    TransformTrainer tt(cfg);
    auto scratch = makeSmallNet(2);
    Rng trng(5);
    const auto stats = tt.train(tf, base, scratch, train, trng);
    EXPECT_EQ(stats.epochs.size(), 3u);
    EXPECT_GT(stats.batches, 0u);
    EXPECT_GT(stats.bitFlips, 0u);

    // Access-limited: the base model is never touched.
    EXPECT_EQ(weightsDigest(base), base_digest);

    // On the trained chip-agnostic distribution, the transform
    // recovers accuracy under weight faults.
    ChipEvalConfig ecfg;
    ecfg.numReads = 6;
    ecfg.maxTestSamples = 300;
    sram::VulnerabilityMap map(123, 0);
    ChipEvaluator eval(base, test, map, ecfg);
    const double bare = eval.evaluate(cfg.failProb).meanAccuracy;
    const double fused =
        eval.evaluateWithTransform(cfg.failProb, tf).meanAccuracy;
    EXPECT_GT(fused, bare - 0.02)
        << "transform must not hurt: fused " << fused << " vs bare "
        << bare;
}

// ------------------------------------------------ map-aware trainer

TEST(MapAwareTrainer, HardensForItsOwnChip)
{
    auto train = dnn::makeSyntheticMnist(1500, 31);
    auto test = dnn::makeSyntheticMnist(400, 32);

    // Chip-agnostic baseline.
    auto baseline = makeSmallNet(1);
    Rng rng(7);
    dnn::TrainConfig tcfg;
    tcfg.epochs = 4;
    dnn::SgdTrainer trainer(tcfg);
    trainer.train(baseline, train, rng);
    dnn::clipParameters(baseline, 0.5f);

    // Map-aware training against one frozen chip.
    MapAwareConfig cfg;
    cfg.train.base.epochs = 6;
    cfg.train.failProb = 0.03;
    cfg.train.warmupEpochs = 1;
    cfg.curriculumEpochs = 2;
    cfg.refreshInterval = 8;
    auto hardened = makeSmallNet(1);
    auto scratch = makeSmallNet(2);
    MapAwareTrainer mat(cfg);
    Rng trng(7);
    const auto stats = mat.train(hardened, scratch, train, trng);
    dnn::clipParameters(hardened, 0.5f);

    EXPECT_EQ(stats.epochs.size(), 6u);
    EXPECT_GT(stats.batches, 0u);
    EXPECT_GT(stats.mapRefreshes, 1u);
    EXPECT_GT(stats.bitFlips, 0u);
    // Warmup + curriculum completed: the last batch injected the full
    // deployment rate.
    EXPECT_DOUBLE_EQ(stats.finalInjectedProb, cfg.train.failProb);

    // On ITS chip at the trained rate, the map-aware model beats the
    // chip-agnostic baseline.
    ChipEvalConfig ecfg;
    ecfg.numReads = 6;
    ecfg.maxTestSamples = 300;
    ChipEvaluator eval_base(baseline, test, mat.chipMap(), ecfg);
    ChipEvaluator eval_hard(hardened, test, mat.chipMap(), ecfg);
    const double base_acc =
        eval_base.evaluate(cfg.train.failProb).meanAccuracy;
    const double hard_acc =
        eval_hard.evaluate(cfg.train.failProb).meanAccuracy;
    EXPECT_GT(hard_acc, base_acc + 0.03)
        << "map-aware " << hard_acc << " vs baseline " << base_acc;
}

TEST(MapAwareTrainer, ClusteredMapsTrainAndDiffer)
{
    auto train = dnn::makeSyntheticMnist(600, 33);

    MapAwareConfig cfg;
    cfg.train.base.epochs = 2;
    cfg.train.failProb = 0.02;
    cfg.train.warmupEpochs = 0;
    cfg.curriculumEpochs = 0;

    auto run = [&](sram::MapModel mm) {
        MapAwareConfig c = cfg;
        c.mapModel = mm;
        auto net = makeSmallNet(1);
        auto scratch = makeSmallNet(2);
        MapAwareTrainer mat(c);
        Rng trng(7);
        const auto stats = mat.train(net, scratch, train, trng);
        return std::make_pair(stats.digest(), weightsDigest(net));
    };

    const auto iid = run(sram::MapModel::Iid);
    const auto clustered = run(sram::MapModel::Clustered);
    // Different spatial structure -> different flips -> different
    // trained weights; both runs are individually reproducible.
    EXPECT_NE(iid.second, clustered.second);
    EXPECT_EQ(run(sram::MapModel::Iid), iid);
    EXPECT_EQ(run(sram::MapModel::Clustered), clustered);
}

TEST(ChipEvaluator, ClusteredChipMapEvaluates)
{
    auto test = dnn::makeSyntheticMnist(200, 42);
    auto net = makeSmallNet(1);
    ChipEvalConfig ecfg;
    ecfg.numReads = 4;
    ecfg.maxTestSamples = 200;
    sram::VulnerabilityMap iid(77, 0, sram::MapModel::Iid, {});
    sram::VulnerabilityMap clustered(77, 0, sram::MapModel::Clustered,
                                     {});
    ChipEvaluator ev_i(net, test, iid, ecfg);
    ChipEvaluator ev_c(net, test, clustered, ecfg);
    const auto ai = ev_i.evaluate(0.02);
    const auto ac = ev_c.evaluate(0.02);
    EXPECT_GT(ai.meanBitFlips, 0.0);
    EXPECT_GT(ac.meanBitFlips, 0.0);
    // Same aggregate rate, different spatial structure.
    EXPECT_NE(ai.digest, ac.digest);
}

// ------------------------------------------- determinism contract

/** FNV-1a digest over per-epoch loss/accuracy bits, epoch order. */
std::uint64_t
epochsDigest(const std::vector<dnn::EpochStats> &epochs)
{
    std::uint64_t h = kFnvOffset;
    for (const auto &e : epochs) {
        h = fnvMixDouble(h, e.meanLoss);
        h = fnvMixDouble(h, e.trainAccuracy);
    }
    return h;
}

TEST(RecoveryDeterminism, TrainersAreBitwiseReproducible)
{
    // Golden (stats digest, weightsDigest) pairs of all four trainers.
    // They pin the shared SGD loop: its shuffle and flip streams and
    // its float-operation order. Any drift in either moves them.
    using Golden = std::pair<std::uint64_t, std::uint64_t>;
    auto train = dnn::makeSyntheticMnist(600, 34);

    auto run_sgd = [&]() {
        dnn::TrainConfig cfg;
        cfg.epochs = 2;
        auto net = makeSmallNet(1);
        dnn::SgdTrainer trainer(cfg);
        Rng trng(7);
        const auto stats = trainer.train(net, train, trng);
        return std::make_pair(epochsDigest(stats), weightsDigest(net));
    };
    const Golden sgd = run_sgd();
    EXPECT_EQ(sgd, run_sgd());
    EXPECT_EQ(sgd,
              Golden(0xcc3cca41a89f3e7cull, 0x971798d5a70466f4ull));

    auto run_fault_aware = [&]() {
        fi::FaultTrainConfig cfg;
        cfg.base.epochs = 2;
        cfg.failProb = 0.02;
        auto net = makeSmallNet(1);
        auto scratch = makeSmallNet(2);
        fi::FaultAwareTrainer fat(cfg);
        Rng trng(7);
        const auto stats = fat.train(net, scratch, train, trng);
        return std::make_pair(epochsDigest(stats), weightsDigest(net));
    };
    const Golden fault_aware = run_fault_aware();
    EXPECT_EQ(fault_aware, run_fault_aware());
    EXPECT_EQ(fault_aware,
              Golden(0x593599ff0a2b0e16ull, 0x3260d2787102a6feull));

    auto run_matic = [&]() {
        MapAwareConfig cfg;
        cfg.train.base.epochs = 2;
        cfg.train.failProb = 0.02;
        cfg.train.warmupEpochs = 0;
        cfg.refreshInterval = 4;
        auto net = makeSmallNet(1);
        auto scratch = makeSmallNet(2);
        MapAwareTrainer mat(cfg);
        Rng trng(7);
        const auto stats = mat.train(net, scratch, train, trng);
        return std::make_pair(stats.digest(), weightsDigest(net));
    };
    const Golden matic = run_matic();
    EXPECT_EQ(matic, run_matic());
    EXPECT_EQ(matic,
              Golden(0x6fd9ea2c710b92d0ull, 0x63b79af477bd8902ull));

    auto run_fuse = [&]() {
        auto base = makeSmallNet(1);
        auto scratch = makeSmallNet(2);
        TransformConfig tfc;
        tfc.hiddenDim = 8;
        InputTransform tf(tfc);
        TransformTrainConfig cfg;
        cfg.base.epochs = 2;
        cfg.failProb = 0.02;
        TransformTrainer tt(cfg);
        Rng trng(5);
        const auto stats = tt.train(tf, base, scratch, train, trng);
        return std::make_pair(stats.digest(),
                              weightsDigest(tf.network()));
    };
    const Golden fuse = run_fuse();
    EXPECT_EQ(fuse, run_fuse());
    EXPECT_EQ(fuse,
              Golden(0x7bfdfbfc787a9d4full, 0x7be2404fcd191343ull));
}

TEST(TrainerWarmup, TrainsTheFloatWeightsUnstaged)
{
    // Warm-up epochs are plain float SGD: no int16 round trip. A run
    // that is all warm-up must train what SGD straight through the
    // net trains, and the transform trainer's scratch must end as the
    // float base itself.
    auto train = dnn::makeSyntheticMnist(200, 37);
    fi::FaultTrainConfig fcfg;
    fcfg.base.epochs = 2;
    fcfg.warmupEpochs = 2;

    auto plain = makeSmallNet(1);
    dnn::NetworkStep step(plain, plain);
    Rng prng(7);
    dnn::runSgd(fcfg.base, step, train, prng, fcfg.gradClip,
                fcfg.weightClip);
    const auto want = weightsDigest(plain);

    auto fat_net = makeSmallNet(1);
    auto fat_scratch = fat_net.clone();
    Rng frng(7);
    fi::FaultAwareTrainer(fcfg).train(fat_net, fat_scratch, train, frng);
    EXPECT_EQ(weightsDigest(fat_net), want);

    MapAwareConfig mcfg;
    mcfg.train = fcfg;
    auto mat_net = makeSmallNet(1);
    auto mat_scratch = mat_net.clone();
    Rng mrng(7);
    const auto mstats =
        MapAwareTrainer(mcfg).train(mat_net, mat_scratch, train, mrng);
    EXPECT_EQ(weightsDigest(mat_net), want);
    EXPECT_EQ(mstats.mapRefreshes, 0u);
    EXPECT_EQ(mstats.bitFlips, 0u);

    TransformTrainConfig tcfg;
    tcfg.base.epochs = 1;
    tcfg.warmupEpochs = 1;
    TransformConfig tfc;
    tfc.hiddenDim = 8;
    InputTransform tf(tfc);
    auto base = makeSmallNet(1);
    auto scratch = makeSmallNet(2);
    Rng trng(7);
    TransformTrainer(tcfg).train(tf, base, scratch, train, trng);
    EXPECT_EQ(weightsDigest(scratch), weightsDigest(base));
}

TEST(RecoveryDeterminism, EvaluatorIsThreadCountInvariant)
{
    auto test = dnn::makeSyntheticMnist(300, 35);
    auto net = makeSmallNet(1);
    TransformConfig tfc;
    tfc.hiddenDim = 8;
    InputTransform tf(tfc);

    auto run = [&](int threads) {
        ChipEvalConfig ecfg;
        ecfg.numReads = 8;
        ecfg.maxTestSamples = 300;
        ecfg.numThreads = threads;
        sram::VulnerabilityMap map(55, 0);
        ChipEvaluator eval(net, test, map, ecfg);
        obs::Observability o;
        eval.attachObservability(&o, {{"test", "det"}});
        const auto plain = eval.evaluate(0.01);
        const auto fused = eval.evaluateWithTransform(0.01, tf);
        return std::make_tuple(plain.digest, plain.meanAccuracy,
                               plain.meanBitFlips, fused.digest,
                               fused.meanAccuracy,
                               o.metrics.fingerprint());
    };

    const auto serial = run(1);
    const auto parallel = run(8);
    EXPECT_EQ(serial, parallel)
        << "ChipEvaluator must be bitwise thread-count invariant";
}

// ------------------------------------------------ planner dimension

class PlannerRecoveryTest : public ::testing::Test
{
  protected:
    PlannerRecoveryTest() : ctx_(core::SimContext::standard()) {}

    /** Step curve: accuracy a above threshold vddv, floor below. */
    static core::TradeoffExplorer::AccuracyFn
    stepCurve(double v97, double v85)
    {
        return [v97, v85](Volt vddv) {
            if (vddv.value() >= v97)
                return 0.99;
            if (vddv.value() >= v85)
                return 0.90;
            return 0.50;
        };
    }

    serve::PlannerConfig
    baseConfig() const
    {
        serve::PlannerConfig cfg;
        cfg.vddGrid = {Volt(0.38), Volt(0.42), Volt(0.46)};
        return cfg;
    }

    core::SimContext ctx_;
    serve::InferenceFootprint footprint_{340000, 85000, 85000, 340000};
};

TEST_F(PlannerRecoveryTest, RejectsNoneModeOptions)
{
    serve::PlannerConfig cfg = baseConfig();
    PlannedRecovery rec;
    rec.mode = RecoveryMode::None;
    rec.accuracy = [](Volt) { return 0.99; };
    cfg.recoveryOptions.push_back(rec);
    EXPECT_THROW(serve::OperatingPointPlanner(
                     ctx_, 16, stepCurve(0.44, 0.40), 1.0, footprint_,
                     cfg),
                 FatalError);
}

TEST_F(PlannerRecoveryTest, SelectionIsMonotoneInSloStrictness)
{
    // Base model: gold-grade accuracy only from 0.52 V up, bronze
    // grade from 0.40 V. The map-aware option reaches gold grade
    // already at 0.44 V but shares the bronze-grade threshold, so
    // recovery pays off exactly where the SLO is strict.
    serve::PlannerConfig cfg = baseConfig();
    PlannedRecovery matic;
    matic.mode = RecoveryMode::MapAware;
    matic.accuracy = stepCurve(0.44, 0.40);
    matic.faultFreeAccuracy = 0.99;
    cfg.recoveryOptions.push_back(matic);

    serve::OperatingPointPlanner with(ctx_, 16, stepCurve(0.52, 0.40),
                                      1.0, footprint_, cfg);
    serve::PlannerConfig boost_cfg = baseConfig();
    serve::OperatingPointPlanner without(ctx_, 16,
                                         stepCurve(0.52, 0.40), 1.0,
                                         footprint_, boost_cfg);

    const auto &gold = with.planFor("t", serve::SloClass::Gold);
    const auto &silver = with.planFor("t", serve::SloClass::Silver);
    const auto &bronze = with.planFor("t", serve::SloClass::Bronze);

    // The strict classes need the recovery option; the loose class
    // holds its target with boost alone (ties break to boost-only).
    EXPECT_EQ(gold.recoveryMode, RecoveryMode::MapAware);
    EXPECT_EQ(silver.recoveryMode, RecoveryMode::MapAware);
    EXPECT_EQ(bronze.recoveryMode, RecoveryMode::None);

    // Planned energy is monotone in SLO strictness.
    EXPECT_GE(gold.energyPerInference.value(),
              silver.energyPerInference.value());
    EXPECT_GE(silver.energyPerInference.value(),
              bronze.energyPerInference.value());

    // Adding recovery options never makes a class worse.
    for (int c = 0; c < serve::kNumSloClasses; ++c) {
        const auto slo = static_cast<serve::SloClass>(c);
        EXPECT_LE(with.planFor("t", slo).energyPerInference.value(),
                  without.planFor("t", slo).energyPerInference.value())
            << "class " << serve::toString(slo);
    }
    // And for the strict class it is strictly cheaper.
    EXPECT_LT(
        gold.energyPerInference.value(),
        without.planFor("t", serve::SloClass::Gold)
            .energyPerInference.value());
}

TEST_F(PlannerRecoveryTest, TransformOverheadsFoldIntoEnergy)
{
    serve::PlannerConfig cfg = baseConfig();
    serve::OperatingPointPlanner planner(ctx_, 16,
                                         stepCurve(0.44, 0.40), 1.0,
                                         footprint_, cfg);

    PlannedRecovery fuse;
    fuse.mode = RecoveryMode::InputTransform;
    fuse.accuracy = stepCurve(0.44, 0.40); // same curve: same levels
    fuse.faultFreeAccuracy = 0.99;
    fuse.extraComputeOps = 50000;
    fuse.extraInputAccesses = 13000;

    const auto plain =
        planner.planAt(serve::SloClass::Gold, Volt(0.42), Volt(0.0));
    const auto with = planner.planAt(serve::SloClass::Gold, Volt(0.42),
                                     Volt(0.0), fuse);
    ASSERT_TRUE(plain.has_value());
    ASSERT_TRUE(with.has_value());
    EXPECT_EQ(with->recoveryMode, RecoveryMode::InputTransform);
    EXPECT_EQ(with->recoveryComputeOps, fuse.extraComputeOps);
    EXPECT_EQ(with->recoveryInputAccesses, fuse.extraInputAccesses);
    EXPECT_EQ(with->weightLevel, plain->weightLevel);
    // The overheads cost real planned energy, and recoveryEnergy is
    // exactly the marginal cost of the extra streams.
    EXPECT_GT(with->recoveryEnergy.value(), 0.0);
    EXPECT_NEAR(with->energyPerInference.value(),
                plain->energyPerInference.value() +
                    with->recoveryEnergy.value(),
                1e-18);
}

} // namespace
} // namespace vboost::recovery
